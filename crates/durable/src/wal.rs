//! Segmented write-ahead log: on-disk layout, tail-scan, and the
//! append-side writer.
//!
//! # Layout
//!
//! A log directory holds one or more *segments* named
//! `wal-<first_seq:020>.log`. Each segment is:
//!
//! ```text
//! +----------------+-------------+----------------+
//! | magic (8B)     | version u32 | first_seq u64  |   20-byte header
//! +----------------+-------------+----------------+
//! | payload_len u32 | crc32 u32 | payload          |   record 0
//! | payload_len u32 | crc32 u32 | payload          |   record 1
//! | ...                                            |
//! +------------------------------------------------+
//! payload = seq u64 ++ operation body; crc32 covers the whole payload.
//! ```
//!
//! The operation body is what [`MutationRecord::encode_into`] writes — the
//! bytes a request frame carries on the wire, under a different envelope.
//!
//! Sequence numbers start at 1 and are contiguous across segment
//! boundaries. A new segment is opened by snapshot rotation (see
//! [`crate::store`]), never mid-stream, so **only the final segment can
//! end in a torn record, and any segment may end in a zero-filled
//! reserve** — a crash mid-append leaves a short or checksum-failing
//! tail, which [`scan`] detects and reports as the truncation point.
//! Anything else (a bad record *before* the tail, a sequence gap, a
//! non-zero byte in a non-final segment's reserve) is corruption, not a
//! crash artifact.
//!
//! The reserve: a syncing writer extends its file past the records by
//! [`RESERVE_STEP`] at a time (`set_len`, a sparse hole), so a commit's
//! `fdatasync` seldom has to make a new file size durable. A dropped
//! writer trims it; after a kill a scan reads the all-zero remainder as
//! the segment's clean end (a zero length prefix is never a record).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::{crc32, field};
use crate::{DurableError, WAL_VERSION};
use ssa_core::codec::put_u64;
use ssa_core::MutationRecord;

/// First eight bytes of every WAL segment.
pub const WAL_MAGIC: [u8; 8] = *b"SSAWAL\0\0";

/// Byte length of a segment header (magic + version + first_seq).
pub(crate) const HEADER_LEN: u64 = 20;

/// How far past its last record a syncing writer extends its file.
const RESERVE_STEP: u64 = 1 << 20;

/// Upper bound on a single record payload; a corrupt length prefix above
/// this is treated as a torn tail rather than attempted as an allocation.
const MAX_PAYLOAD_LEN: u32 = 1 << 28;

/// Segment file name for the segment whose first record is `first_seq`.
pub(crate) fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:020}.log"))
}

/// The header of the segment whose first record is `first_seq`.
fn header(first_seq: u64) -> [u8; HEADER_LEN as usize] {
    let mut header = [0u8; HEADER_LEN as usize];
    header[..8].copy_from_slice(&WAL_MAGIC);
    header[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    header[12..].copy_from_slice(&first_seq.to_le_bytes());
    header
}

/// One discovered segment file.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    pub path: PathBuf,
    pub first_seq: u64,
}

/// Lists segment files in `dir`, sorted by first sequence number.
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<Segment>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            out.push(Segment {
                path: entry.path(),
                first_seq: seq,
            });
        }
    }
    out.sort_by_key(|s| s.first_seq);
    Ok(out)
}

/// Where the valid prefix of the log ends.
#[derive(Debug, Clone)]
pub(crate) struct Tail {
    /// The final segment file.
    pub path: PathBuf,
    /// The sequence number the segment's name claims it starts at.
    pub first_seq: u64,
    /// Byte offset of the end of the last valid record (header only, if
    /// the segment has no valid records). Bytes past this are torn. Can be
    /// *below* [`HEADER_LEN`] if the crash cut off the header write
    /// itself, in which case the segment must be recreated, not appended.
    pub valid_len: u64,
}

/// Where a scan of the log directory found the log to end.
#[derive(Debug)]
pub(crate) struct ScanOutcome {
    /// Sequence number of the last valid record anywhere in the log
    /// (pre-filter), or `None` for an empty log.
    pub last_seq: Option<u64>,
    /// The final segment's tail position, or `None` if there are no
    /// segment files at all.
    pub tail: Option<Tail>,
}

/// Reads every segment in `dir`, validating checksums and sequence
/// continuity, and hands each record with `seq > after_seq` to `visit` as
/// it is decoded, in log order. An error from `visit` ends the scan.
///
/// A torn tail (short frame, oversized length, checksum or decode failure
/// at the very end of the final segment) is expected after a crash: the
/// scan stops there and reports the truncation point in
/// [`ScanOutcome::tail`]. The same damage in a *non-final* position is
/// corruption and yields [`DurableError::Corrupt`].
pub(crate) fn scan(
    dir: &Path,
    after_seq: u64,
    mut visit: impl FnMut(u64, MutationRecord) -> Result<(), DurableError>,
) -> Result<ScanOutcome, DurableError> {
    let segments = list_segments(dir)?;
    let mut last_seq = None;
    let mut tail = None;
    for (i, segment) in segments.iter().enumerate() {
        let is_last = i + 1 == segments.len();
        let bytes = fs::read(&segment.path)?;
        let (valid_len, torn) =
            scan_segment(&bytes, segment, after_seq, &mut visit, &mut last_seq)?;
        if torn && !is_last {
            return Err(DurableError::Corrupt(format!(
                "{}: torn record in a non-final segment",
                segment.path.display()
            )));
        }
        if is_last {
            tail = Some(Tail {
                path: segment.path.clone(),
                first_seq: segment.first_seq,
                valid_len,
            });
        }
    }
    Ok(ScanOutcome { last_seq, tail })
}

/// Walks one segment's records. Returns `(valid_len, torn)`.
fn scan_segment(
    bytes: &[u8],
    segment: &Segment,
    after_seq: u64,
    visit: &mut impl FnMut(u64, MutationRecord) -> Result<(), DurableError>,
    last_seq: &mut Option<u64>,
) -> Result<(u64, bool), DurableError> {
    let display = segment.path.display();
    // A header is only short (or cut short ahead of a reserve's zeros) if
    // the creating write was cut off: the whole segment is torn.
    let matched = bytes
        .iter()
        .zip(header(segment.first_seq))
        .take_while(|&(&found, want)| found == want)
        .count();
    if bytes.len() < HEADER_LEN as usize
        || (matched < HEADER_LEN as usize && bytes[matched..].iter().all(|&b| b == 0))
    {
        return Ok((matched as u64, true));
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(DurableError::Corrupt(format!("{display}: bad magic")));
    }
    let version = u32::from_le_bytes(field(bytes, 8));
    if version != WAL_VERSION {
        return Err(DurableError::Version {
            what: "WAL segment",
            found: version,
            expected: WAL_VERSION,
        });
    }
    let first_seq = u64::from_le_bytes(field(bytes, 12));
    if first_seq != segment.first_seq {
        return Err(DurableError::Corrupt(format!(
            "{display}: header first_seq {first_seq} disagrees with file name"
        )));
    }
    let mut pos = HEADER_LEN as usize;
    let mut expected = match *last_seq {
        Some(seq) => seq + 1,
        None => first_seq,
    };
    if first_seq != expected {
        return Err(DurableError::Corrupt(format!(
            "{display}: segment starts at seq {first_seq}, expected {expected}"
        )));
    }
    loop {
        // The file's end, or a writer's reserve past the last record.
        if bytes[pos..].iter().all(|&b| b == 0) {
            return Ok((pos as u64, false));
        }
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            return Ok((pos as u64, true));
        }
        let len = u32::from_le_bytes(field(bytes, pos));
        let crc = u32::from_le_bytes(field(bytes, pos + 4));
        if !(9..=MAX_PAYLOAD_LEN).contains(&len) || remaining - 8 < len as usize {
            return Ok((pos as u64, true));
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            return Ok((pos as u64, true));
        }
        let seq = u64::from_le_bytes(field(payload, 0));
        if seq != expected {
            return Err(DurableError::Corrupt(format!(
                "{display}: record seq {seq} where {expected} was expected"
            )));
        }
        let op = match MutationRecord::decode(&payload[8..]) {
            Ok(op) => op,
            // A checksum-valid but undecodable payload means the record
            // was written by something we don't understand — corruption,
            // not a torn write.
            Err(err) => {
                return Err(DurableError::Corrupt(format!(
                    "{display}: record seq {seq}: {err}"
                )))
            }
        };
        *last_seq = Some(seq);
        expected = seq + 1;
        if seq > after_seq {
            visit(seq, op)?;
        }
        pos += 8 + len as usize;
    }
}

/// The append side of one segment file.
///
/// Records are *staged* — framed into one reused buffer — and reach the
/// file together on the next [`WalWriter::commit`], in one `write`: a
/// commit group of any size costs one system call (plus one `fdatasync`
/// when it syncs), and a syncing one keeps the [reserve](self) ahead.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
    /// Frames staged since the last flush.
    staged: Vec<u8>,
    /// End of the header and records written so far.
    written: u64,
    /// The file's length, the reserve included.
    len: u64,
    /// Set by the first failed write or sync. What reached the file after
    /// that is unknown (possibly half a record), so nothing more may be
    /// appended behind it: every later commit fails too.
    failed: bool,
}

impl WalWriter {
    /// Creates a fresh segment whose first record will be `first_seq`.
    pub(crate) fn create(dir: &Path, first_seq: u64) -> io::Result<WalWriter> {
        let path = segment_path(dir, first_seq);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&header(first_seq))?;
        Ok(WalWriter::over(file, path, HEADER_LEN))
    }

    /// Reopens an existing segment for appending, first truncating any
    /// torn bytes past `valid_len`.
    pub(crate) fn open_tail(path: &Path, valid_len: u64) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new().write(true).read(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter::over(file, path.to_path_buf(), valid_len))
    }

    fn over(file: File, path: PathBuf, written: u64) -> WalWriter {
        WalWriter {
            file,
            path,
            staged: Vec::new(),
            written,
            len: written,
            failed: false,
        }
    }

    /// Frames one record behind those already staged. In memory only:
    /// nothing can fail here, and nothing is on disk until the next commit.
    pub(crate) fn stage(&mut self, seq: u64, op: &MutationRecord) {
        let frame = self.staged.len();
        // `payload_len` and `crc32`: patched once the payload is in place.
        self.staged.extend_from_slice(&[0; 8]);
        put_u64(&mut self.staged, seq);
        op.encode_into(&mut self.staged);
        let payload = frame + 8;
        let len = (self.staged.len() - payload) as u32;
        let crc = crc32(&self.staged[payload..]);
        self.staged[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
        self.staged[frame + 4..payload].copy_from_slice(&crc.to_le_bytes());
    }

    /// Whether records are staged and not yet written.
    pub(crate) fn has_staged(&self) -> bool {
        !self.staged.is_empty()
    }

    /// Writes every staged record to the OS in one `write` (surviving a
    /// process kill) and, with `sync`, forces them to stable storage
    /// (`fdatasync`, surviving power loss), first renewing the reserve.
    pub(crate) fn commit(&mut self, sync: bool) -> io::Result<()> {
        if self.failed {
            return Err(io::Error::other(
                "an earlier write-ahead log write failed; the log accepts no more records",
            ));
        }
        let result = self.write_staged(sync);
        self.failed = result.is_err();
        self.staged.clear();
        result
    }

    fn write_staged(&mut self, sync: bool) -> io::Result<()> {
        let end = self.written + self.staged.len() as u64;
        if sync && end > self.len {
            let len = end.next_multiple_of(RESERVE_STEP);
            self.file.set_len(len)?;
            self.len = len;
        }
        self.file.write_all(&self.staged)?;
        self.written = end;
        if sync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// The segment file this writer appends to.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Fault injection for tests: swaps the segment's descriptor for a
    /// read-only one, so the next commit fails with the OS's own error.
    pub(crate) fn break_descriptor(&mut self) -> io::Result<()> {
        self.file = File::open(&self.path)?;
        Ok(())
    }
}

impl Drop for WalWriter {
    /// Trims the reserve, best effort; not after a failed commit, whose
    /// bytes past `written` are unknown.
    fn drop(&mut self) {
        if self.len > self.written && !self.failed {
            let _ = self.file.set_len(self.written);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ssa-wal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `scan` with every visited record collected.
    fn scan_all(dir: &Path, after_seq: u64) -> (ScanOutcome, Vec<(u64, MutationRecord)>) {
        let mut records = Vec::new();
        let outcome = scan(dir, after_seq, |seq, op| {
            records.push((seq, op));
            Ok(())
        });
        (outcome.unwrap(), records)
    }

    /// One record staged and written on its own.
    fn append(w: &mut WalWriter, seq: u64, op: &MutationRecord) {
        w.stage(seq, op);
        w.commit(false).unwrap();
    }

    fn serve(kw: u64) -> MutationRecord {
        MutationRecord::Serve {
            keyword: kw,
            attrs: ssa_core::UserAttrs::new(),
        }
    }

    #[test]
    fn append_then_scan_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut w = WalWriter::create(&dir, 1).unwrap();
        for seq in 1..=5u64 {
            append(&mut w, seq, &serve(seq));
        }
        drop(w);
        let (scan, records) = scan_all(&dir, 0);
        assert_eq!(scan.last_seq, Some(5));
        assert_eq!(records.len(), 5);
        assert_eq!(records[2], (3, serve(3)));
        let tail = scan.tail.unwrap();
        let file_len = fs::metadata(&tail.path).unwrap().len();
        assert_eq!(tail.valid_len, file_len);
        // The filter drops covered records but still validates them.
        let (filtered, records) = scan_all(&dir, 3);
        assert_eq!(records.len(), 2);
        assert_eq!(filtered.last_seq, Some(5));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_truncation_point_reported() {
        let dir = temp_dir("torn");
        let mut w = WalWriter::create(&dir, 1).unwrap();
        append(&mut w, 1, &serve(0));
        append(&mut w, 2, &serve(1));
        drop(w);
        let path = segment_path(&dir, 1);
        let full = fs::read(&path).unwrap();
        let (clean, _) = scan_all(&dir, 0);
        let valid_after_first = {
            // Reconstruct record 1's frame length: 8-byte header + payload.
            let len = u32::from_le_bytes(full[20..24].try_into().unwrap()) as u64;
            HEADER_LEN + 8 + len
        };
        assert_eq!(clean.tail.unwrap().valid_len, full.len() as u64);
        // Chop the file mid-way through record 2.
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (scan, records) = scan_all(&dir, 0);
        assert_eq!(records.len(), 1);
        assert_eq!(scan.last_seq, Some(1));
        let tail = scan.tail.unwrap();
        assert!(tail.valid_len < fs::metadata(&tail.path).unwrap().len());
        assert_eq!(tail.valid_len, valid_after_first);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_mid_log_record_is_an_error_not_a_truncation() {
        let dir = temp_dir("midcorrupt");
        let mut w = WalWriter::create(&dir, 1).unwrap();
        append(&mut w, 1, &serve(0));
        drop(w);
        let mut w = WalWriter::create(&dir, 2).unwrap();
        append(&mut w, 2, &serve(1));
        drop(w);
        // Flip a payload byte in the FIRST (non-final) segment.
        let path = segment_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let outcome = scan(&dir, 0, |_, _| Ok(()));
        assert!(matches!(outcome, Err(DurableError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_tail_truncates_and_appends_continue_the_stream() {
        let dir = temp_dir("reopen");
        let mut w = WalWriter::create(&dir, 1).unwrap();
        append(&mut w, 1, &serve(0));
        append(&mut w, 2, &serve(1));
        drop(w);
        let path = segment_path(&dir, 1);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 1]).unwrap();
        let (first, _) = scan_all(&dir, 0);
        let tail = first.tail.unwrap();
        assert!(tail.valid_len < fs::metadata(&tail.path).unwrap().len());
        let mut w = WalWriter::open_tail(&tail.path, tail.valid_len).unwrap();
        // Seq 2 was torn away, so the stream resumes at 2.
        append(&mut w, 2, &serve(7));
        drop(w);
        let (second, records) = scan_all(&dir, 0);
        assert_eq!(second.last_seq, Some(2));
        assert_eq!(records[1], (2, serve(7)));
        let tail = second.tail.unwrap();
        assert_eq!(tail.valid_len, fs::metadata(&tail.path).unwrap().len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_gap_across_segments_is_corruption() {
        let dir = temp_dir("gap");
        let mut w = WalWriter::create(&dir, 1).unwrap();
        append(&mut w, 1, &serve(0));
        drop(w);
        // Next segment claims to start at 5: records 2-4 are missing.
        let mut w = WalWriter::create(&dir, 5).unwrap();
        append(&mut w, 5, &serve(1));
        drop(w);
        let outcome = scan(&dir, 0, |_, _| Ok(()));
        assert!(matches!(outcome, Err(DurableError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }
}
