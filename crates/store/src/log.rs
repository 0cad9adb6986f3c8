//! CRC-framed append-only log.
//!
//! Frame layout: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//! On replay, the first frame that fails its length or CRC check marks the
//! torn tail: everything before it is returned, and the caller may truncate
//! the file to that offset (what each [`crate::WalShardedKv`] shard does on
//! open).

use crate::StoreError;
use p2drm_codec::crc32::crc32;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Maximum accepted payload size (sanity bound against corrupt lengths).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Appends CRC-framed records to a file.
pub struct LogWriter {
    out: BufWriter<File>,
    offset: u64,
}

impl LogWriter {
    /// Opens for append, creating the file if missing.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let offset = file.metadata()?.len();
        Ok(LogWriter {
            out: BufWriter::new(file),
            offset,
        })
    }

    /// Appends one record, returning its starting offset.
    /// A payload over [`MAX_FRAME`] bytes is refused with
    /// [`StoreError::Corrupt`] and nothing is written.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        if payload.len() as u64 > MAX_FRAME as u64 {
            return Err(StoreError::Corrupt {
                offset: self.offset,
                detail: format!("record of {} bytes exceeds MAX_FRAME", payload.len()),
            });
        }
        let start = self.offset;
        self.out.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.out.write_all(&crc32(payload).to_le_bytes())?;
        self.out.write_all(payload)?;
        self.offset += 8 + payload.len() as u64;
        Ok(start)
    }

    /// Flushes buffered frames to the OS.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.out.flush()?;
        Ok(())
    }

    /// Flushes and fsyncs.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        Ok(())
    }

    /// Bytes written so far (file length).
    pub fn len(&self) -> u64 {
        self.offset
    }

    /// A second handle onto the backing file. Used by the group-commit
    /// path in [`crate::WalShardedKv`]: the clone lets a commit leader
    /// fsync already-flushed frames *without* holding the lock writers
    /// need for new appends (both handles reach the same inode, and
    /// `sync_data` on either covers every byte the OS has received).
    pub fn try_clone_file(&self) -> Result<File, StoreError> {
        Ok(self.out.get_ref().try_clone()?)
    }

    /// True when the log has no frames.
    pub fn is_empty(&self) -> bool {
        self.offset == 0
    }
}

/// Result of replaying a log file.
pub struct Replay {
    /// The intact payloads, in order.
    pub records: Vec<Vec<u8>>,
    /// Offset just past the last intact frame.
    pub good_len: u64,
    /// Whether a torn/corrupt tail was found after `good_len`.
    pub torn_tail: bool,
}

/// Reads every intact frame from `path`.
///
/// Missing files replay as empty. Corruption is not an error: replay stops
/// at the first bad frame and reports it via [`Replay::torn_tail`].
pub fn replay(path: &Path) -> Result<Replay, StoreError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Replay {
                records: Vec::new(),
                good_len: 0,
                torn_tail: false,
            })
        }
        Err(e) => return Err(e.into()),
    };
    let file_len = file.metadata()?.len();
    let mut buf = Vec::with_capacity(file_len as usize);
    file.read_to_end(&mut buf)?;

    let mut records = Vec::new();
    let mut pos: usize = 0;
    let torn;
    loop {
        let Some(header) = buf.get(pos..pos + 8) else {
            torn = pos != buf.len();
            break;
        };
        let (len_bytes, crc_bytes) = header.split_at(4);
        // lint: allow(panic, split_at(4) of the 8-byte header leaves two 4-byte halves)
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte field"));
        // lint: allow(panic, split_at(4) of the 8-byte header leaves two 4-byte halves)
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte field"));
        let payload = match buf.get(pos + 8..pos + 8 + len as usize) {
            Some(payload) if len <= MAX_FRAME => payload,
            _ => {
                torn = true;
                break;
            }
        };
        if crc32(payload) != crc {
            torn = true;
            break;
        }
        records.push(payload.to_vec());
        pos += 8 + len as usize;
    }
    Ok(Replay {
        records,
        good_len: pos as u64,
        torn_tail: torn,
    })
}

/// Truncates `path` to `len` bytes (used to cut a torn tail).
pub fn truncate(path: &Path, len: u64) -> Result<(), StoreError> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()?;
    Ok(())
}

/// Overwrites the file with the given records atomically (write to a
/// sibling temp file, fsync, rename) — the compaction primitive.
pub fn rewrite(path: &Path, records: impl Iterator<Item = Vec<u8>>) -> Result<(), StoreError> {
    let tmp = path.with_extension("compact-tmp");
    {
        let mut w = LogWriter::open(&tmp)?;
        for rec in records {
            w.append(&rec)?;
        }
        w.sync()?;
    }
    std::fs::rename(&tmp, path)?;
    // Best-effort directory sync so the rename is durable.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Seeks-and-writes raw bytes at an offset (test helper for fault injection).
pub fn corrupt_at(path: &Path, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
    let mut file = OpenOptions::new().write(true).open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)?;
    file.sync_data()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempPath;

    #[test]
    fn append_replay_roundtrip() {
        let tmp = TempPath::new("log-roundtrip");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        let recs: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.flush().unwrap();
        let replayed = replay(&tmp.0).unwrap();
        assert_eq!(replayed.records, recs);
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.good_len, w.len());
    }

    #[test]
    fn missing_file_replays_empty() {
        let tmp = TempPath::new("log-missing");
        let r = replay(&tmp.0).unwrap();
        assert!(r.records.is_empty());
        assert!(!r.torn_tail);
    }

    #[test]
    fn empty_record_ok() {
        let tmp = TempPath::new("log-empty-rec");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        w.append(b"").unwrap();
        w.append(b"x").unwrap();
        w.flush().unwrap();
        let r = replay(&tmp.0).unwrap();
        assert_eq!(r.records, vec![Vec::new(), b"x".to_vec()]);
    }

    #[test]
    fn torn_tail_detected_and_truncated() {
        let tmp = TempPath::new("log-torn");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        w.append(b"first").unwrap();
        let second_at = w.append(b"second").unwrap();
        w.flush().unwrap();
        drop(w);
        // Chop mid-way through the second frame.
        truncate(&tmp.0, second_at + 3).unwrap();
        let r = replay(&tmp.0).unwrap();
        assert_eq!(r.records, vec![b"first".to_vec()]);
        assert!(r.torn_tail);
        assert_eq!(r.good_len, second_at);
        // After truncating to good_len, replay is clean and appendable.
        truncate(&tmp.0, r.good_len).unwrap();
        let r2 = replay(&tmp.0).unwrap();
        assert!(!r2.torn_tail);
        let mut w = LogWriter::open(&tmp.0).unwrap();
        w.append(b"third").unwrap();
        w.flush().unwrap();
        assert_eq!(
            replay(&tmp.0).unwrap().records,
            vec![b"first".to_vec(), b"third".to_vec()]
        );
    }

    #[test]
    fn bitflip_in_payload_detected() {
        let tmp = TempPath::new("log-bitflip");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        let first_at = w.append(b"aaaaaaa").unwrap();
        w.append(b"bbbbbbb").unwrap();
        w.flush().unwrap();
        drop(w);
        corrupt_at(&tmp.0, first_at + 8 + 2, &[0xFF]).unwrap();
        let r = replay(&tmp.0).unwrap();
        assert!(r.records.is_empty(), "corrupt first frame stops replay");
        assert!(r.torn_tail);
    }

    #[test]
    fn absurd_length_field_detected() {
        let tmp = TempPath::new("log-badlen");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        w.append(b"ok").unwrap();
        w.flush().unwrap();
        drop(w);
        // Append a frame header claiming a huge payload.
        let mut f = OpenOptions::new().append(true).open(&tmp.0).unwrap();
        f.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.sync_data().unwrap();
        let r = replay(&tmp.0).unwrap();
        assert_eq!(r.records.len(), 1);
        assert!(r.torn_tail);
    }

    #[test]
    fn oversized_record_is_an_error_and_writes_nothing() {
        let tmp = TempPath::new("log-oversized");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        let huge = vec![0u8; MAX_FRAME as usize + 1];
        assert!(matches!(w.append(&huge), Err(StoreError::Corrupt { .. })));
        assert!(w.is_empty());
        w.append(b"ok").unwrap();
        w.flush().unwrap();
        assert_eq!(replay(&tmp.0).unwrap().records, vec![b"ok".to_vec()]);
    }

    #[test]
    fn rewrite_compacts() {
        let tmp = TempPath::new("log-rewrite");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        for i in 0..10u8 {
            w.append(&[i]).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        rewrite(&tmp.0, vec![vec![42u8], vec![43u8]].into_iter()).unwrap();
        let r = replay(&tmp.0).unwrap();
        assert_eq!(r.records, vec![vec![42u8], vec![43u8]]);
        assert!(!r.torn_tail);
    }

    #[test]
    fn reopen_appends_after_existing() {
        let tmp = TempPath::new("log-reopen");
        {
            let mut w = LogWriter::open(&tmp.0).unwrap();
            w.append(b"one").unwrap();
            w.flush().unwrap();
        }
        {
            let mut w = LogWriter::open(&tmp.0).unwrap();
            assert!(!w.is_empty());
            w.append(b"two").unwrap();
            w.flush().unwrap();
        }
        assert_eq!(
            replay(&tmp.0).unwrap().records,
            vec![b"one".to_vec(), b"two".to_vec()]
        );
    }
}
