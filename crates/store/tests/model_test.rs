//! Model-based testing: arbitrary operation sequences applied to the
//! durable, sharded [`WalShardedKv`] must behave identically to the
//! in-memory [`MemKv`] model — including across a reopen (restart) and a
//! compaction at arbitrary points.

use p2drm_store::{ConcurrentKv, MemKv, SyncPolicy, WalShardedConfig, WalShardedKv};
use proptest::prelude::*;
use std::path::PathBuf;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Delete(u8),
    InsertIfAbsent(u8, Vec<u8>),
    Reopen,
    Compact,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(k, v)| Op::Put(k, v)),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(k, v)| Op::InsertIfAbsent(k, v)),
        Just(Op::Reopen),
        Just(Op::Compact),
    ]
}

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!("p2drm-model-{}-{}", std::process::id(), n));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const CONFIG: WalShardedConfig = WalShardedConfig {
    shards: 3,
    policy: SyncPolicy::Buffered,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn walshardedkv_equals_memkv_model(ops in proptest::collection::vec(op(), 0..60)) {
        let tmp = TempDir::new();
        let model = MemKv::new();
        let (mut wal, _) = WalShardedKv::open(&tmp.0, CONFIG).unwrap();

        for o in &ops {
            match o {
                Op::Put(k, v) => {
                    model.put(&[*k], v).unwrap();
                    wal.put(&[*k], v).unwrap();
                }
                Op::Delete(k) => {
                    let a = model.delete(&[*k]).unwrap();
                    let b = wal.delete(&[*k]).unwrap();
                    prop_assert_eq!(a, b);
                }
                Op::InsertIfAbsent(k, v) => {
                    let a = model.insert_if_absent(&[*k], v).unwrap();
                    let b = wal.insert_if_absent(&[*k], v).unwrap();
                    prop_assert_eq!(a, b);
                }
                Op::Reopen => {
                    wal.flush().unwrap();
                    drop(wal);
                    let (reopened, report) = WalShardedKv::open(&tmp.0, CONFIG).unwrap();
                    prop_assert!(!report.truncated_tail);
                    wal = reopened;
                }
                Op::Compact => {
                    wal.compact_all().unwrap();
                }
            }
            prop_assert_eq!(model.len(), wal.len());
        }

        // Full-state comparison at the end.
        prop_assert_eq!(model.scan_prefix(b""), wal.scan_prefix(b""));
        // And after one final reopen.
        wal.flush().unwrap();
        drop(wal);
        let (wal, _) = WalShardedKv::open(&tmp.0, CONFIG).unwrap();
        prop_assert_eq!(model.scan_prefix(b""), wal.scan_prefix(b""));
    }
}
