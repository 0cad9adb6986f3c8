//! One shard of [`crate::WalShardedKv`]: a write-ahead log plus the
//! in-memory index it recovers into.
//!
//! Every mutation is encoded (canonical codec), CRC-framed and appended to
//! the log *before* the index is updated. Opening replays the log; a torn
//! tail (crash mid-append) is truncated away, so the shard always recovers
//! to the last complete operation — the property the spent-ID store needs
//! to keep the double-redemption guarantee across restarts. Appends are
//! buffered: the sharded wrapper owns durability through group commit
//! ([`WalKv::flush_to_os`], [`WalKv::sync_data`]).

use crate::log::{self, LogWriter};
use crate::{RecoveryReport, StoreError};
use p2drm_codec::{Reader, Writer};
use std::collections::BTreeMap;
use std::path::PathBuf;

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;

/// Durable KV shard: append-only log + in-memory index.
pub(crate) struct WalKv {
    path: PathBuf,
    writer: LogWriter,
    index: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Total ops in the log.
    log_ops: u64,
}

impl WalKv {
    /// Opens (or creates) the shard at `path`, replaying the log and
    /// truncating any torn tail.
    pub(crate) fn open(path: PathBuf) -> Result<(Self, RecoveryReport), StoreError> {
        let replayed = log::replay(&path)?;
        if replayed.torn_tail {
            log::truncate(&path, replayed.good_len)?;
        }
        let mut index = BTreeMap::new();
        for rec in &replayed.records {
            apply_record(&mut index, rec)?;
        }
        let ops = replayed.records.len() as u64;
        let report = RecoveryReport {
            replayed_ops: ops,
            live_keys: index.len(),
            truncated_tail: replayed.torn_tail,
        };
        let writer = LogWriter::open(&path)?;
        Ok((
            WalKv {
                path,
                writer,
                index,
                log_ops: ops,
            },
            report,
        ))
    }

    fn append(&mut self, op: u8, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.writer.append(&encode_record(op, key, value))?;
        self.log_ops += 1;
        Ok(())
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.index.get(key).cloned()
    }

    pub(crate) fn contains(&self, key: &[u8]) -> bool {
        self.index.contains_key(key)
    }

    pub(crate) fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.append(OP_PUT, key, value)?;
        self.index.insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    /// Logs a delete only when the key existed; returns whether it did.
    pub(crate) fn delete(&mut self, key: &[u8]) -> Result<bool, StoreError> {
        if !self.index.contains_key(key) {
            return Ok(false);
        }
        self.append(OP_DELETE, key, &[])?;
        self.index.remove(key);
        Ok(true)
    }

    /// Index probe then log append, both under the caller's `&mut`
    /// borrow (the shard's write lock). The record is appended *before*
    /// the index changes, so the exactly-once outcome also survives a
    /// crash between the two.
    pub(crate) fn insert_if_absent(
        &mut self,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, StoreError> {
        if self.index.contains_key(key) {
            return Ok(false);
        }
        self.append(OP_PUT, key, value)?;
        self.index.insert(key.to_vec(), value.to_vec());
        Ok(true)
    }

    pub(crate) fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.index
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Rewrites the log to contain exactly the live pairs.
    pub(crate) fn compact(&mut self) -> Result<(), StoreError> {
        self.writer.flush()?;
        let records = self.index.iter().map(|(k, v)| encode_record(OP_PUT, k, v));
        log::rewrite(&self.path, records)?;
        self.writer = LogWriter::open(&self.path)?;
        self.log_ops = self.index.len() as u64;
        Ok(())
    }

    /// Current log length in bytes (a storage-growth metric).
    pub(crate) fn log_bytes(&self) -> u64 {
        self.writer.len()
    }

    /// Total operations appended to the log so far: the commit horizon a
    /// group-commit leader must cover.
    pub(crate) fn ops_appended(&self) -> u64 {
        self.log_ops
    }

    /// Pushes buffered frames to the OS **without** fsync.
    pub(crate) fn flush_to_os(&mut self) -> Result<(), StoreError> {
        self.writer.flush()
    }

    /// Flushes and fsyncs.
    pub(crate) fn sync_data(&mut self) -> Result<(), StoreError> {
        self.writer.sync()
    }

    /// A second handle onto the log file, for fsyncing outside the store
    /// lock (see [`crate::log::LogWriter::try_clone_file`]).
    pub(crate) fn try_clone_log_file(&self) -> Result<std::fs::File, StoreError> {
        self.writer.try_clone_file()
    }
}

fn encode_record(op: u8, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(key.len() + value.len() + 8);
    w.put_u8(op);
    w.put_bytes(key);
    w.put_bytes(value);
    w.into_bytes()
}

fn apply_record(index: &mut BTreeMap<Vec<u8>, Vec<u8>>, rec: &[u8]) -> Result<(), StoreError> {
    let mut r = Reader::new(rec);
    let op = r.get_u8()?;
    let key = r.get_bytes_owned()?;
    let value = r.get_bytes_owned()?;
    match op {
        OP_PUT => {
            index.insert(key, value);
        }
        OP_DELETE => {
            index.remove(&key);
        }
        other => {
            return Err(StoreError::Corrupt {
                offset: 0,
                detail: format!("unknown op {other}"),
            })
        }
    }
    Ok(())
}

impl Drop for WalKv {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempPath;

    fn open(tmp: &TempPath) -> (WalKv, RecoveryReport) {
        WalKv::open(tmp.0.clone()).unwrap()
    }

    #[test]
    fn open_empty_then_crud() {
        let tmp = TempPath::new("walkv-crud");
        let (mut kv, report) = open(&tmp);
        assert_eq!(report.replayed_ops, 0);
        kv.put(b"a", b"1").unwrap();
        kv.put(b"b", b"2").unwrap();
        kv.put(b"a", b"3").unwrap();
        assert!(kv.delete(b"b").unwrap());
        assert_eq!(kv.get(b"a"), Some(b"3".to_vec()));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn persists_across_reopen() {
        let tmp = TempPath::new("walkv-reopen");
        {
            let (mut kv, _) = open(&tmp);
            kv.put(b"k1", b"v1").unwrap();
            kv.put(b"k2", b"v2").unwrap();
            kv.delete(b"k1").unwrap();
        }
        let (kv, report) = open(&tmp);
        assert_eq!(report.replayed_ops, 3);
        assert_eq!(report.live_keys, 1);
        assert!(!report.truncated_tail);
        assert_eq!(kv.get(b"k2"), Some(b"v2".to_vec()));
        assert_eq!(kv.get(b"k1"), None);
    }

    #[test]
    fn crash_recovery_truncates_torn_tail() {
        let tmp = TempPath::new("walkv-crash");
        {
            let (mut kv, _) = open(&tmp);
            kv.put(b"good", b"1").unwrap();
            kv.put(b"casualty", b"2").unwrap();
        }
        // Simulate a crash mid-append: chop 3 bytes off the file.
        let len = std::fs::metadata(&tmp.0).unwrap().len();
        log::truncate(&tmp.0, len - 3).unwrap();

        let (kv, report) = open(&tmp);
        assert!(report.truncated_tail);
        assert_eq!(report.replayed_ops, 1);
        assert_eq!(kv.get(b"good"), Some(b"1".to_vec()));
        assert_eq!(kv.get(b"casualty"), None);

        // Recovered store is fully writable again.
        drop(kv);
        let (mut kv, report) = open(&tmp);
        assert!(!report.truncated_tail, "tail already repaired");
        kv.put(b"after", b"3").unwrap();
        assert_eq!(kv.len(), 2);
    }

    #[test]
    fn replayed_claim_refuses_second_redeem_after_crash() {
        // Regression for the WAL ordering contract: `insert_if_absent`
        // appends the claim record *before* touching the index, so a crash
        // any time after the append (here: torn garbage from a mid-append
        // power cut) still replays the claim, and the recovered store
        // refuses a second redeem of the id spent before the crash.
        let tmp = TempPath::new("walkv-claim-order");
        {
            let (mut kv, _) = open(&tmp);
            assert!(kv.insert_if_absent(b"spent/pre-crash", b"").unwrap());
        }
        // Crash mid-append of a later record: partial frame header.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&tmp.0)
                .unwrap();
            f.write_all(&[0x09, 0x00]).unwrap();
        }
        let (mut kv, report) = open(&tmp);
        assert!(report.truncated_tail);
        assert_eq!(report.replayed_ops, 1, "the claim itself replayed");
        assert!(
            !kv.insert_if_absent(b"spent/pre-crash", b"").unwrap(),
            "id spent before the crash must stay spent after replay"
        );
    }

    #[test]
    fn insert_if_absent_survives_restart() {
        let tmp = TempPath::new("walkv-spent");
        {
            let (mut kv, _) = open(&tmp);
            assert!(kv.insert_if_absent(b"spent/lid-1", b"").unwrap());
        }
        let (mut kv, _) = open(&tmp);
        assert!(
            !kv.insert_if_absent(b"spent/lid-1", b"").unwrap(),
            "double redemption refused after restart"
        );
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let tmp = TempPath::new("walkv-compact");
        let (mut kv, _) = open(&tmp);
        for i in 0..100u32 {
            kv.put(b"hot", &i.to_le_bytes()).unwrap();
        }
        kv.put(b"cold", b"c").unwrap();
        let before = kv.log_bytes();
        assert_eq!(kv.ops_appended(), 101);
        kv.compact().unwrap();
        assert!(kv.log_bytes() < before);
        assert_eq!(kv.ops_appended(), 2, "one record per live key");
        assert_eq!(kv.get(b"hot"), Some(99u32.to_le_bytes().to_vec()));
        assert_eq!(kv.get(b"cold"), Some(b"c".to_vec()));

        // And the compacted log replays correctly.
        drop(kv);
        let (kv, report) = open(&tmp);
        assert_eq!(report.live_keys, 2);
        assert_eq!(kv.get(b"hot"), Some(99u32.to_le_bytes().to_vec()));
    }

    #[test]
    fn scan_prefix_matches_memkv_semantics() {
        let tmp = TempPath::new("walkv-scan");
        let (mut kv, _) = open(&tmp);
        for k in ["lic/1", "lic/2", "spent/1"] {
            kv.put(k.as_bytes(), b"x").unwrap();
        }
        assert_eq!(kv.scan_prefix(b"lic/").len(), 2);
        assert_eq!(kv.scan_prefix(b"spent/").len(), 1);
        assert_eq!(kv.scan_prefix(b"").len(), 3);
    }
}
