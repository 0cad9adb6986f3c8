//! Durable storage substrate for the P2DRM entities.
//!
//! The paper's anonymous-license mechanism hinges on server-side state: the
//! **spent-ID store** (unique license ids that may never be redeemed twice),
//! the license store, CRL snapshots, and per-license rights state on
//! devices. This crate provides the storage those components sit on:
//!
//! * [`ConcurrentKv`] — the one store interface, including
//!   [`ConcurrentKv::insert_if_absent`], the atomic check-and-set that
//!   implements "redeem exactly once";
//! * [`MemKv`] — one locked `BTreeMap`: the volatile store devices and
//!   tests use, and the shard [`ShardedKv`] is built from;
//! * [`ShardedKv`] — lock-sharded volatile store: keys hash to one of N
//!   independently locked [`MemKv`] shards, so writers on different
//!   shards never contend;
//! * [`WalShardedKv`] — durable **and** sharded: N shards each backed by
//!   its own write-ahead log, per-shard group commit amortizing
//!   flush/fsync across concurrent writers, parallel replay on open — the
//!   production license-server backend;
//! * [`log`] — CRC-framed append-only log with torn-tail recovery;
//! * [`typed`] — thin typed tables over any [`ConcurrentKv`] using the
//!   canonical codec.
//!
//! # Backend matrix
//!
//! | backend | concurrency | durability | use |
//! |---|---|---|---|
//! | [`ShardedKv`] | N shards | none | volatile serving, the mint's spent set, tests |
//! | [`WalShardedKv`] | N shards | per-shard WAL, group commit | the durable license service; a 1-shard store for a durable device |
//!
//! [`SyncPolicy`] picks the durability/latency trade-off of
//! [`WalShardedKv`]: `Buffered` (userspace buffering; flush on drop —
//! fastest, loses the un-flushed tail on a crash but never corrupts),
//! `FlushEach` (every commit pushed to the OS — survives process death),
//! `SyncEach` (fsync per commit batch — survives power loss).
//!
//! ```
//! use p2drm_store::{ConcurrentKv, MemKv, ShardedKv};
//!
//! let kv = ShardedKv::new_with(4, |_| MemKv::new());
//! kv.put(b"license/1", b"bytes").unwrap();
//! assert!(kv.insert_if_absent(b"spent/1", b"").unwrap());
//! assert!(!kv.insert_if_absent(b"spent/1", b"").unwrap(), "second redeem refused");
//! ```

#![forbid(unsafe_code)]

pub mod log;
pub mod mem;
pub mod sharded;
pub mod typed;
mod walkv;
pub mod walsharded;

pub use mem::MemKv;
pub use sharded::ShardedKv;
pub use walsharded::{RecoveryReport, SyncPolicy, WalShardedConfig, WalShardedKv};

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

/// The store interface every backend implements, through `&self`.
///
/// Implementations guarantee that every operation is internally
/// synchronized and that [`ConcurrentKv::insert_if_absent`] is atomic with
/// respect to all other operations on the same key, so one store is shared
/// by reference across threads. Typed [`typed::Table`]s operate over it.
pub trait ConcurrentKv {
    /// Reads a value.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;

    /// Writes (inserts or overwrites) a value.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;

    /// Deletes a key; returns whether it existed.
    fn delete(&self, key: &[u8]) -> Result<bool, StoreError>;

    /// Check-and-set: inserts only when absent, returning whether the
    /// insert happened. This is the double-redemption primitive: a license
    /// id is redeemable iff this returns `true` exactly once, however many
    /// callers race it.
    ///
    /// **Required, not defaulted**: a naive `contains`-then-`put` default
    /// would let a new backend silently lose the exactly-once guarantee.
    /// Every backend states its own atomic implementation, holding the
    /// key's write lock across the whole check-and-set.
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

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;

    /// Self-cleaning unique temp path, used as a log file or a store
    /// directory (no external tempfile crate offline).
    pub struct TempPath(pub PathBuf);

    impl TempPath {
        pub fn new(tag: &str) -> Self {
            static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let p = std::env::temp_dir().join(format!(
                "p2drm-store-test-{}-{}-{}",
                std::process::id(),
                tag,
                n
            ));
            let _ = std::fs::remove_file(&p);
            let _ = std::fs::remove_dir_all(&p);
            TempPath(p)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Properties every backend must share, run over [`ShardedKv`] and over
/// [`WalShardedKv`] under each [`SyncPolicy`].
#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempPath;

    fn for_each_backend(body: impl Fn(&(dyn ConcurrentKv + Sync), &str)) {
        body(&ShardedKv::new_with(4, |_| MemKv::new()), "ShardedKv");
        for policy in [
            SyncPolicy::Buffered,
            SyncPolicy::FlushEach,
            SyncPolicy::SyncEach,
        ] {
            let tmp = TempPath::new("backend");
            let config = WalShardedConfig { shards: 4, policy };
            let (kv, _) = WalShardedKv::open(&tmp.0, config).unwrap();
            body(&kv, &format!("WalShardedKv {policy:?}"));
        }
    }

    #[test]
    fn scan_prefix_is_globally_ordered() {
        for_each_backend(|kv, name| {
            for k in ["t/c", "t/a", "t/b", "u/x"] {
                kv.put(k.as_bytes(), b"v").unwrap();
            }
            let keys: Vec<_> = kv
                .scan_prefix(b"t/")
                .into_iter()
                .map(|(k, _)| String::from_utf8(k).unwrap())
                .collect();
            assert_eq!(keys, vec!["t/a", "t/b", "t/c"], "{name}");
        });
    }

    #[test]
    fn concurrent_insert_if_absent_single_winner_per_key() {
        for_each_backend(|kv, name| {
            let total: usize = std::thread::scope(|scope| {
                (0..8u8)
                    .map(|t| {
                        scope.spawn(move || {
                            (0..32u32)
                                .filter(|k| {
                                    kv.insert_if_absent(format!("spent/{k}").as_bytes(), &[t])
                                        .unwrap()
                                })
                                .count()
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .sum()
            });
            assert_eq!(total, 32, "exactly one winner per key ({name})");
            assert_eq!(kv.len(), 32, "{name}");
        });
    }
}
