//! Lock-sharded concurrent store.
//!
//! [`ShardedKv`] spreads keys across N independently locked shards by key
//! hash, so concurrent writers touching different keys almost never
//! contend. This is the substrate the license server's volatile state
//! (spent-ID set, license store, persisted catalog/CRL tables) and the
//! mint's spent-serial set sit on: N-way write parallelism, while
//! `insert_if_absent` stays atomic because the whole check-and-set runs
//! under one shard's write lock.
//!
//! A [`ShardedKv`] can also be built over a **single** caller-supplied
//! shard ([`ShardedKv::single`]) — the simplest durable-provider path,
//! where the one shard is a [`crate::WalKv`] and cross-restart recovery
//! semantics are preserved exactly. For durability *at sharded
//! concurrency* — N per-shard WALs with group commit — use the sibling
//! [`crate::WalShardedKv`], which routes keys identically.

use crate::{ConcurrentKv, Kv, StoreError};
use parking_lot::RwLock;

/// A store partitioned into independently locked shards.
pub struct ShardedKv<S: Kv> {
    shards: Vec<RwLock<S>>,
}

/// FNV-1a over the key: cheap, stable, good enough dispersion for shard
/// routing (keys here are table-prefixed ids and hashes already).
///
/// Shared with [`crate::WalShardedKv`], whose **on-disk** shard files
/// encode this routing — one definition so the two stores cannot drift.
pub(crate) fn fnv1a(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl<S: Kv> ShardedKv<S> {
    /// Builds `shards` shards, each produced by `make` (shard index given).
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    pub fn new_with(shards: usize, mut make: impl FnMut(usize) -> S) -> Self {
        assert!(shards > 0, "ShardedKv needs at least one shard");
        ShardedKv {
            shards: (0..shards).map(|i| RwLock::new(make(i))).collect(),
        }
    }

    /// Wraps one existing store as a single-shard instance (the durable
    /// path: all keys route to the one shard, recovery semantics of the
    /// wrapped store are untouched).
    pub fn single(store: S) -> Self {
        ShardedKv {
            shards: vec![RwLock::new(store)],
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn route(&self, key: &[u8]) -> &RwLock<S> {
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize]
    }

    /// Runs `f` with mutable access to `key`'s shard (one critical
    /// section — compound read-modify-write stays atomic per shard).
    pub fn with_shard_mut<T>(&self, key: &[u8], f: impl FnOnce(&mut S) -> T) -> T {
        f(&mut self.route(key).write())
    }

    /// Runs `f` over every shard in turn (maintenance: compaction,
    /// storage metrics). Shards are visited one at a time; no global lock
    /// is ever held.
    pub fn for_each_shard<T>(&self, mut f: impl FnMut(&mut S) -> T) -> Vec<T> {
        self.shards.iter().map(|s| f(&mut s.write())).collect()
    }
}

impl<S: Kv> ConcurrentKv for ShardedKv<S> {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.route(key).read().get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.route(key).write().put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        self.route(key).write().delete(key)
    }

    /// Atomic: the backend's check-and-set runs entirely under this
    /// shard's write lock, so exactly one of N racing callers wins.
    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        self.route(key).write().insert_if_absent(key, value)
    }

    /// Globally key-ordered: per-shard scans are merged and sorted.
    /// Shards are scanned one at a time (no consistent global snapshot —
    /// fine for the metrics/restore paths that use it).
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all: Vec<(Vec<u8>, Vec<u8>)> = self
            .shards
            .iter()
            .flat_map(|s| s.read().scan_prefix(prefix))
            .collect();
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        all
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.route(key).read().contains(key)
    }

    fn flush(&self) -> Result<(), StoreError> {
        for s in &self.shards {
            s.write().flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemKv;

    #[test]
    fn routes_are_stable_and_cover_shards() {
        let kv = ShardedKv::new_with(8, |_| MemKv::new());
        for i in 0..256u32 {
            kv.put(format!("k/{i}").as_bytes(), &i.to_be_bytes())
                .unwrap();
        }
        assert_eq!(kv.len(), 256);
        // Keys spread across more than one shard.
        let populated = kv
            .for_each_shard(|s| s.len())
            .into_iter()
            .filter(|&n| n > 0)
            .count();
        assert!(populated > 1, "only {populated} shard(s) populated");
        for i in 0..256u32 {
            assert_eq!(
                kv.get(format!("k/{i}").as_bytes()),
                Some(i.to_be_bytes().to_vec())
            );
        }
    }

    #[test]
    fn scan_prefix_is_globally_ordered() {
        let kv = ShardedKv::new_with(4, |_| MemKv::new());
        for k in ["t/c", "t/a", "t/b", "u/x"] {
            kv.put(k.as_bytes(), b"v").unwrap();
        }
        let keys: Vec<_> = kv
            .scan_prefix(b"t/")
            .into_iter()
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect();
        assert_eq!(keys, vec!["t/a", "t/b", "t/c"]);
    }

    #[test]
    fn single_shard_wraps_existing_store() {
        let mut inner = MemKv::new();
        inner.put(b"pre", b"existing").unwrap();
        let kv = ShardedKv::single(inner);
        assert_eq!(kv.shard_count(), 1);
        assert_eq!(kv.get(b"pre"), Some(b"existing".to_vec()));
        assert!(kv.insert_if_absent(b"x", b"1").unwrap());
        assert!(!kv.insert_if_absent(b"x", b"2").unwrap());
    }

    #[test]
    fn concurrent_insert_if_absent_single_winner_per_key() {
        let kv = std::sync::Arc::new(ShardedKv::new_with(8, |_| MemKv::new()));
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let kv = kv.clone();
            handles.push(std::thread::spawn(move || {
                let mut wins = 0;
                for k in 0..32u32 {
                    if kv
                        .insert_if_absent(format!("spent/{k}").as_bytes(), &[t])
                        .unwrap()
                    {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 32, "each key won exactly once across all threads");
        assert_eq!(kv.len(), 32);
    }

    #[test]
    fn delete_and_contains_route_consistently() {
        let kv = ShardedKv::new_with(3, |_| MemKv::new());
        kv.put(b"k", b"v").unwrap();
        assert!(kv.contains(b"k"));
        assert!(kv.delete(b"k").unwrap());
        assert!(!kv.delete(b"k").unwrap());
        assert!(kv.is_empty());
    }
}
