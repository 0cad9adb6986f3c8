//! The benchmark's store wrapper: a pass-through [`ConcurrentKv`] that
//! counts every call and, in a traced run, records one span per call
//! under the correlation id of the request the calling worker thread is
//! serving ([`crate::trace::CURRENT`]).

use crate::trace::{Layer, Recorder, CURRENT};
use p2drm_store::{ConcurrentKv, StoreError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Store calls the wrapper counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// `get` / `contains`.
    Get,
    /// `put`.
    Put,
    /// `insert_if_absent`.
    InsertIfAbsent,
    /// `delete`.
    Delete,
}

impl KvOp {
    /// Span label.
    pub fn label(self) -> &'static str {
        match self {
            KvOp::Get => "get",
            KvOp::Put => "put",
            KvOp::InsertIfAbsent => "insert_if_absent",
            KvOp::Delete => "delete",
        }
    }
}

/// Call counts by [`KvOp`], read as one snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvCounts {
    /// Reads.
    pub gets: u64,
    /// Plain writes.
    pub puts: u64,
    /// Check-and-set writes.
    pub inserts: u64,
    /// Deletes.
    pub deletes: u64,
}

impl KvCounts {
    /// Log-appending calls.
    pub fn writes(&self) -> u64 {
        self.puts + self.inserts + self.deletes
    }

    /// Calls made between `earlier` and `self`.
    pub fn since(&self, earlier: &KvCounts) -> KvCounts {
        KvCounts {
            gets: self.gets - earlier.gets,
            puts: self.puts - earlier.puts,
            inserts: self.inserts - earlier.inserts,
            deletes: self.deletes - earlier.deletes,
        }
    }
}

/// Counting, optionally span-recording wrapper around a store backend.
pub struct BenchKv<K> {
    inner: K,
    recorder: Option<Arc<Recorder>>,
    counts: [AtomicU64; 4],
}

impl<K: ConcurrentKv> BenchKv<K> {
    /// Wraps `inner`; spans go to `recorder` when one is given.
    pub fn new(inner: K, recorder: Option<Arc<Recorder>>) -> Self {
        BenchKv {
            inner,
            recorder,
            counts: Default::default(),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    /// Calls made so far.
    pub fn counts(&self) -> KvCounts {
        let c = |op: KvOp| self.counts[op as usize].load(Ordering::Relaxed);
        KvCounts {
            gets: c(KvOp::Get),
            puts: c(KvOp::Put),
            inserts: c(KvOp::InsertIfAbsent),
            deletes: c(KvOp::Delete),
        }
    }

    fn call<T>(&self, op: KvOp, f: impl FnOnce(&K) -> T) -> T {
        self.counts[op as usize].fetch_add(1, Ordering::Relaxed);
        match &self.recorder {
            None => f(&self.inner),
            Some(rec) => {
                let start = Instant::now();
                let out = f(&self.inner);
                let end = Instant::now();
                let corr = CURRENT.with(|c| c.get());
                rec.record(corr, Layer::Store, op.label(), start, end);
                out
            }
        }
    }
}

impl<K: ConcurrentKv> ConcurrentKv for BenchKv<K> {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.call(KvOp::Get, |kv| kv.get(key))
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.call(KvOp::Put, |kv| kv.put(key, value))
    }

    fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        self.call(KvOp::Delete, |kv| kv.delete(key))
    }

    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        self.call(KvOp::InsertIfAbsent, |kv| kv.insert_if_absent(key, value))
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.scan_prefix(prefix)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.call(KvOp::Get, |kv| kv.contains(key))
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }

    fn collect_metrics(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        self.inner.collect_metrics(out);
    }
}
