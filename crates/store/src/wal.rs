//! The append-only write-ahead log with a group-commit buffer.
//!
//! [`Wal`] owns the log file and the next sequence number. Records are
//! buffered in memory and flushed to the OS once the buffer reaches the
//! group-commit threshold (or on [`Wal::flush`]/drop); [`Wal::sync`]
//! additionally forces the data to disk and is called at snapshot points.
//! The crash model is process crash: anything flushed survives, and the
//! file can end mid-record, which [`read_wal`] tolerates.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::Encoder;
use crate::record::{decode_frames, put_frame, FrameScan, WalRecord};
use crate::sync_dir;

/// File name of the log inside a store directory.
pub const WAL_FILE: &str = "exchange.wal";

/// Append-side handle on a WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    buf: Encoder,
    buffered: usize,
    group_commit: usize,
    next_seq: u64,
}

impl Wal {
    /// Creates (truncating any previous log) the WAL in `dir`, starting at
    /// sequence 0, and fsyncs `dir` so the new file's directory entry is
    /// durable. Flushes to the OS every `group_commit` records
    /// (`0` behaves as `1`: every record flushes immediately).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(dir: &Path, group_commit: usize) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
        sync_dir(dir)?;
        Ok(Self { file, path, buf: Encoder::new(), buffered: 0, group_commit, next_seq: 0 })
    }

    /// Opens an existing WAL for appending after recovery: truncates the
    /// file to `valid_len` (dropping a torn tail) and continues the
    /// sequence at `next_seq`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_append(
        dir: &Path,
        valid_len: u64,
        next_seq: u64,
        group_commit: usize,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        // Keep the valid prefix; `set_len` below drops only the torn tail.
        let file = OpenOptions::new().write(true).create(true).truncate(false).open(&path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(Self { file, path, buf: Encoder::new(), buffered: 0, group_commit, next_seq })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next appended record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends a group of records atomically with respect to buffering:
    /// either the whole group reaches the buffer or none of it does, so a
    /// flush boundary can never split a group. Flushes if the buffer
    /// reaches the group-commit threshold.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the flush, and refuses a record
    /// too large to frame (see [`crate::record::frame_len`]) — leaving
    /// the buffer and sequence number as they were before the group.
    pub fn append_group(&mut self, records: &[WalRecord]) -> io::Result<()> {
        let (start, first_seq) = (self.buf.len(), self.next_seq);
        for rec in records {
            if let Err(e) = put_frame(&mut self.buf, rec.kind(), self.next_seq, |e| rec.encode(e)) {
                self.buf.truncate(start);
                self.next_seq = first_seq;
                return Err(e);
            }
            self.next_seq += 1;
        }
        self.buffered += records.len();
        if self.buffered >= self.group_commit.max(1) {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes all buffered records to the OS.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(self.buf.as_bytes())?;
            self.buf.truncate(0);
        }
        self.buffered = 0;
        Ok(())
    }

    /// Flushes and forces file data to disk (`fdatasync`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_data()
    }

    /// Truncates the log to empty after a snapshot made its contents
    /// redundant. The sequence number keeps counting — that is how replay
    /// knows which records a snapshot already covers.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn reset(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort: records accepted into the buffer should reach the
        // OS even on unwind, matching the process-crash durability model.
        let _ = self.flush();
    }
}

/// Reads and scans the WAL in `dir`. A missing file is an empty log, and
/// a torn final record is reported, not an error.
///
/// # Errors
///
/// Filesystem errors, or a checksum-valid frame this build cannot
/// interpret (see [`decode_frames`]).
pub fn read_wal(dir: &Path) -> io::Result<FrameScan> {
    let path = dir.join(WAL_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    decode_frames(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: u64) -> Vec<WalRecord> {
        (0..n).map(|i| WalRecord::Cancel { offer: i }).collect()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swap-store-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_read_round_trip() {
        let dir = tmp_dir("round-trip");
        let mut wal = Wal::create(&dir, 4).unwrap();
        for rec in records(10) {
            wal.append_group(std::slice::from_ref(&rec)).unwrap();
        }
        wal.flush().unwrap();
        let scan = read_wal(&dir).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.frames.len(), 10);
        for (i, f) in scan.frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.record, WalRecord::Cancel { offer: i as u64 });
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_buffers_until_threshold() {
        let dir = tmp_dir("group-commit");
        let mut wal = Wal::create(&dir, 4).unwrap();
        for rec in records(3) {
            wal.append_group(std::slice::from_ref(&rec)).unwrap();
        }
        // Below the threshold: nothing has reached the file yet.
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 0);
        wal.append_group(&records(1)).unwrap();
        // Fourth record crossed the threshold: all four flushed together.
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_flushes_buffered_records() {
        let dir = tmp_dir("drop-flush");
        {
            let mut wal = Wal::create(&dir, 1000).unwrap();
            wal.append_group(&records(5)).unwrap();
        }
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let dir = tmp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let scan = read_wal(&dir).unwrap();
        assert_eq!(scan.frames.len(), 0);
        assert!(!scan.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_append_drops_torn_tail_and_continues_seq() {
        let dir = tmp_dir("reopen");
        let mut wal = Wal::create(&dir, 1).unwrap();
        wal.append_group(&records(3)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Simulate a crash mid-append: tear the last record.
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let scan = read_wal(&dir).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.frames.len(), 2);
        let next_seq = scan.frames.last().unwrap().seq + 1;
        let mut wal = Wal::open_append(&dir, scan.valid_len as u64, next_seq, 1).unwrap();
        assert_eq!(wal.next_seq(), 2);
        wal.append_group(&[WalRecord::Cancel { offer: 99 }]).unwrap();
        wal.flush().unwrap();

        let scan = read_wal(&dir).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.frames[2].seq, 2);
        assert_eq!(scan.frames[2].record, WalRecord::Cancel { offer: 99 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_truncates_but_seq_keeps_counting() {
        let dir = tmp_dir("reset");
        let mut wal = Wal::create(&dir, 1).unwrap();
        wal.append_group(&records(4)).unwrap();
        wal.reset().unwrap();
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 0);
        wal.append_group(&[WalRecord::Cancel { offer: 7 }]).unwrap();
        wal.flush().unwrap();
        let scan = read_wal(&dir).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0].seq, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn groups_never_split_across_a_flush_boundary() {
        let dir = tmp_dir("group-atomic");
        let mut wal = Wal::create(&dir, 4).unwrap();
        wal.append_group(&records(3)).unwrap();
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 0);
        // A 6-record group crosses the threshold: the whole group flushes
        // together with the 3 already buffered.
        wal.append_group(&records(6)).unwrap();
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
