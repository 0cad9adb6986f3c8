//! Durable storage substrate for the P2DRM entities.
//!
//! The paper's anonymous-license mechanism hinges on server-side state: the
//! **spent-ID store** (unique license ids that may never be redeemed twice),
//! the license store, CRL snapshots, and per-license rights state on
//! devices. This crate provides the storage those components sit on:
//!
//! * [`Kv`] — the store abstraction, including [`Kv::insert_if_absent`],
//!   the atomic check-and-set that implements "redeem exactly once";
//! * [`MemKv`] — `BTreeMap`-backed volatile store for tests/simulation;
//! * [`log`] — CRC-framed append-only log with torn-tail recovery;
//! * [`WalKv`] — write-ahead-logged KV: every mutation is framed and
//!   appended before the in-memory index changes; on open the log is
//!   replayed, a corrupt tail is detected and truncated;
//! * [`typed`] — thin typed wrapper over any [`Kv`] using the canonical
//!   codec;
//! * [`ShardedKv`] — lock-sharded concurrent store: keys hash to one of N
//!   independently locked shards, so writers on different shards never
//!   contend (the license server's volatile hot-path substrate);
//! * [`WalShardedKv`] — durable **and** sharded: N shards each backed by
//!   its own WAL, per-shard group commit amortizing flush/fsync across
//!   concurrent writers, parallel replay on open — the production
//!   license-server backend;
//! * [`ConcurrentKv`] — the `&self` store interface the concurrent
//!   handles implement, which typed [`typed::Table`]s can operate over.
//!
//! # Backend matrix
//!
//! | backend | concurrency | durability | use |
//! |---|---|---|---|
//! | [`MemKv`] | `&mut self` | none | unit tests, single-thread sims |
//! | [`ShardedKv`] | N shards | none (over [`MemKv`]) | volatile serving, the mint's spent set |
//! | [`WalKv`] | `&mut self` | WAL + torn-tail recovery | single-threaded durable state (devices) |
//! | [`WalShardedKv`] | N shards | per-shard WAL, group commit | the durable license service |
//!
//! [`SyncPolicy`] picks the durability/latency trade-off for the WAL
//! backends: `Buffered` (userspace buffering; flush on drop — fastest,
//! loses the un-flushed tail on a crash but never corrupts), `FlushEach`
//! (every mutation pushed to the OS — survives process death), `SyncEach`
//! (fsync per commit batch — survives power loss).
//!
//! ```
//! use p2drm_store::{Kv, MemKv};
//!
//! let mut kv = MemKv::new();
//! kv.put(b"license/1", b"bytes").unwrap();
//! assert!(kv.insert_if_absent(b"spent/1", b"").unwrap());
//! assert!(!kv.insert_if_absent(b"spent/1", b"").unwrap(), "second redeem refused");
//! ```

#![forbid(unsafe_code)]

pub mod log;
pub mod mem;
pub mod sharded;
pub mod typed;
pub mod walkv;
pub mod walsharded;

pub use mem::MemKv;
pub use sharded::ShardedKv;
pub use walkv::{RecoveryReport, SyncPolicy, WalKv};
pub use walsharded::{WalShardedConfig, WalShardedKv};

/// Storage errors.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A log frame failed its CRC or length check (offset included).
    Corrupt { offset: u64, detail: String },
    /// Value failed to decode as the expected type.
    Decode(p2drm_codec::CodecError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Corrupt { offset, detail } => {
                write!(f, "corrupt log at offset {offset}: {detail}")
            }
            StoreError::Decode(e) => write!(f, "decode: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<p2drm_codec::CodecError> for StoreError {
    fn from(e: p2drm_codec::CodecError) -> Self {
        StoreError::Decode(e)
    }
}

/// Key-value store abstraction shared by the volatile and durable backends.
pub trait Kv {
    /// Reads a value.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;

    /// Writes (inserts or overwrites) a value.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;

    /// Deletes a key; returns whether it existed.
    fn delete(&mut self, key: &[u8]) -> Result<bool, StoreError>;

    /// All pairs whose key starts with `prefix`, in key order.
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// Number of live keys.
    fn len(&self) -> usize;

    /// True when no keys are live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `key` exists.
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Check-and-set: inserts only when absent, returning whether the
    /// insert happened. This is the double-redemption primitive: a license
    /// id is redeemable iff this returns `true` exactly once.
    ///
    /// **Required, not defaulted**: a naive `contains`-then-`put` default
    /// would let a new backend silently lose the exactly-once guarantee
    /// (e.g. a future remote/batched store whose `contains` and `put` are
    /// separate round trips). Every backend must state its own atomic
    /// implementation. Note the method takes `&mut self`, so within a
    /// single store instance the check-and-set is already exclusive;
    /// *concurrent* callers must go through a [`ConcurrentKv`] handle such
    /// as [`ShardedKv`], which holds the shard's write lock across the
    /// whole operation.
    fn insert_if_absent(&mut self, key: &[u8], value: &[u8]) -> Result<bool, StoreError>;

    /// Flushes buffered writes to the backing medium (no-op for memory).
    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// The `&self` store interface for concurrent handles.
///
/// Mirrors [`Kv`] but takes shared references: implementations guarantee
/// that every operation is internally synchronized and that
/// [`ConcurrentKv::insert_if_absent`] is atomic with respect to all other
/// operations on the same key. Typed [`typed::Table`]s operate over either
/// interface; the refactored provider state holds its tables over a
/// [`ShardedKv`] through this trait.
pub trait ConcurrentKv {
    /// Reads a value.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;

    /// Writes (inserts or overwrites) a value.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;

    /// Deletes a key; returns whether it existed.
    fn delete(&self, key: &[u8]) -> Result<bool, StoreError>;

    /// Atomic check-and-set under the handle's write lock.
    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError>;

    /// All pairs whose key starts with `prefix`, in key order.
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// Number of live keys.
    fn len(&self) -> usize;

    /// True when no keys are live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `key` exists.
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Flushes buffered writes to the backing medium.
    fn flush(&self) -> Result<(), StoreError>;

    /// Contributes this backend's metrics (commit/fsync latency, sizes)
    /// to a unified snapshot. Volatile backends have nothing to report;
    /// the default is a no-op. Implementations must only emit static
    /// metric names — never key material or values.
    fn collect_metrics(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        let _ = out;
    }
}
