//! Volatile `BTreeMap`-backed store for tests and simulation.

use crate::{ConcurrentKv, StoreError};
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// In-memory ordered KV store behind one lock: the volatile device store
/// and the shard a [`crate::ShardedKv`] is built from.
#[derive(Default, Debug)]
pub struct MemKv {
    map: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
}

impl MemKv {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ConcurrentKv for MemKv {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.map.read().get(key).cloned()
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.map.write().insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        Ok(self.map.write().remove(key).is_some())
    }

    /// Single map-entry probe under the write lock: the check and the
    /// insert are one operation, never a racy contains-then-put.
    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        match self.map.write().entry(key.to_vec()) {
            std::collections::btree_map::Entry::Occupied(_) => Ok(false),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value.to_vec());
                Ok(true)
            }
        }
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.map
            .read()
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    fn len(&self) -> usize {
        self.map.read().len()
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.map.read().contains_key(key)
    }

    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crud() {
        let kv = MemKv::new();
        assert!(kv.is_empty());
        kv.put(b"k1", b"v1").unwrap();
        kv.put(b"k1", b"v2").unwrap(); // overwrite
        assert_eq!(kv.get(b"k1"), Some(b"v2".to_vec()));
        assert_eq!(kv.len(), 1);
        assert!(kv.delete(b"k1").unwrap());
        assert!(!kv.delete(b"k1").unwrap());
        assert_eq!(kv.get(b"k1"), None);
    }

    #[test]
    fn prefix_scan_ordered_and_bounded() {
        let kv = MemKv::new();
        for k in ["a/1", "a/2", "a/30", "b/1", ""] {
            kv.put(k.as_bytes(), b"x").unwrap();
        }
        let hits = kv.scan_prefix(b"a/");
        let keys: Vec<_> = hits
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
            .collect();
        assert_eq!(keys, vec!["a/1", "a/2", "a/30"]);
        // Empty prefix scans everything in order.
        assert_eq!(kv.scan_prefix(b"").len(), 5);
        // Prefix past everything is empty.
        assert!(kv.scan_prefix(b"zzz").is_empty());
    }

    #[test]
    fn insert_if_absent_semantics() {
        let kv = MemKv::new();
        assert!(kv.insert_if_absent(b"spent/42", b"a").unwrap());
        assert!(!kv.insert_if_absent(b"spent/42", b"b").unwrap());
        // Original value preserved on refusal.
        assert_eq!(kv.get(b"spent/42"), Some(b"a".to_vec()));
    }
}
