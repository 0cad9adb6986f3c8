//! Lock-sharded concurrent store.
//!
//! [`ShardedKv`] spreads keys across N independently locked [`MemKv`]
//! shards by key hash, so concurrent writers touching different keys
//! almost never contend. This is the substrate the license server's
//! volatile state (spent-ID set, license store, persisted catalog/CRL
//! tables) and the mint's spent-serial set sit on: N-way write
//! parallelism, while `insert_if_absent` stays atomic because the whole
//! check-and-set runs under one shard's write lock. For durability at the
//! same concurrency — N per-shard WALs with group commit — use the sibling
//! [`crate::WalShardedKv`], which routes keys identically.

use crate::{ConcurrentKv, MemKv, StoreError};

/// A volatile store partitioned into independently locked shards.
pub struct ShardedKv {
    pub(crate) shards: Vec<MemKv>,
}

/// The shard `key` routes to among `shards`: FNV-1a over the key (cheap,
/// stable, good enough dispersion — keys here are table-prefixed ids and
/// hashes already), reduced modulo the shard count.
///
/// Shared with [`crate::WalShardedKv`], whose **on-disk** shard files
/// encode this routing — one definition so the two stores cannot drift.
pub(crate) fn shard_index(key: &[u8], shards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

impl ShardedKv {
    /// Builds `shards` shards, each produced by `make` (shard index given).
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    pub fn new_with(shards: usize, make: impl FnMut(usize) -> MemKv) -> Self {
        assert!(shards > 0, "ShardedKv needs at least one shard");
        ShardedKv {
            shards: (0..shards).map(make).collect(),
        }
    }

    fn route(&self, key: &[u8]) -> &MemKv {
        &self.shards[shard_index(key, self.shards.len())]
    }
}

impl ConcurrentKv for ShardedKv {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.route(key).get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.route(key).put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        self.route(key).delete(key)
    }

    /// Atomic: the check-and-set runs entirely under this shard's write
    /// lock, so exactly one of N racing callers wins.
    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        self.route(key).insert_if_absent(key, value)
    }

    /// Globally key-ordered: per-shard scans are merged and sorted.
    /// Shards are scanned one at a time (no consistent global snapshot —
    /// fine for the metrics/restore paths that use it).
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all: Vec<(Vec<u8>, Vec<u8>)> = self
            .shards
            .iter()
            .flat_map(|s| s.scan_prefix(prefix))
            .collect();
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        all
    }

    fn len(&self) -> usize {
        self.shards.iter().map(MemKv::len).sum()
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.route(key).contains(key)
    }

    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_stable_and_cover_shards() {
        let kv = ShardedKv::new_with(8, |_| MemKv::new());
        for i in 0..256u32 {
            kv.put(format!("k/{i}").as_bytes(), &i.to_be_bytes())
                .unwrap();
        }
        assert_eq!(kv.len(), 256);
        // Keys spread across more than one shard.
        let populated = kv.shards.iter().filter(|s| !s.is_empty()).count();
        assert!(populated > 1, "only {populated} shard(s) populated");
        for i in 0..256u32 {
            assert_eq!(
                kv.get(format!("k/{i}").as_bytes()),
                Some(i.to_be_bytes().to_vec())
            );
        }
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
