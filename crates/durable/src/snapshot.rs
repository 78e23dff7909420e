//! Snapshot files: a compacted log, written atomically, covering every
//! WAL record up to its sequence number.
//!
//! # Layout
//!
//! `snapshot-<last_seq:020>.snap`:
//!
//! ```text
//! +------------+-------------+--------------+--------------+-----------+------+
//! | magic (8B) | version u32 | last_seq u64 | body_len u32 | crc32 u32 | body |
//! +------------+-------------+--------------+--------------+-----------+------+
//! body = records ++ trailer (see crate::codec); crc32 covers the body.
//! ```
//!
//! The records are the market's `Configure` and
//! [`ssa_core::Marketplace::compacted_log`] in the WAL's record codec;
//! recovery replays each as it decodes it, with the step the WAL's records
//! go through, then restores the clock and RNG positions the trailer holds
//! ([`ssa_core::Marketplace::restore_positions`]).
//!
//! A snapshot is written to a `.tmp` sibling and renamed into place, so a
//! crash mid-write leaves at most a stray `.tmp` (ignored on load) and
//! never a half-visible snapshot. [`load_latest`] walks candidates newest
//! first and skips any whose header or checksum fails, so a damaged newest
//! snapshot degrades to the previous one (whose WAL suffix still exists
//! until the *next* successful snapshot compacts it).

use std::fs::{self, File};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::{crc32, decode_body, encode_body, field, Crc32};
use crate::{DurableError, FsyncPolicy, WAL_VERSION};
use ssa_core::Marketplace;

/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SSASNAP\0";

/// Byte length of the header ahead of the body, and where in it the
/// `body_len`/`crc32` pair sits.
const HEADER_LEN: usize = 28;
const BODY_LEN_AT: u64 = 20;

fn snapshot_path(dir: &Path, last_seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{last_seq:020}.snap"))
}

/// Lists snapshot files in `dir` as `(last_seq, path)`, newest first.
pub(crate) fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".snap"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(out)
}

/// The body's path to disk: every byte is counted and checksummed on its
/// way into the file's buffer, so the header can be completed afterwards
/// without the body ever being held whole.
struct BodyWriter {
    out: BufWriter<File>,
    crc: Crc32,
    len: u64,
}

impl Write for BodyWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.crc.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Writes a snapshot of `market` covering WAL records `..= last_seq` and
/// returns its size in bytes. The body is streamed from the live market
/// straight into the file, one record at a time. Atomic: tmp file +
/// rename, the tmp file removed again if anything fails.
pub(crate) fn write_snapshot(
    dir: &Path,
    last_seq: u64,
    market: &Marketplace,
    policy: FsyncPolicy,
) -> Result<u64, DurableError> {
    let path = snapshot_path(dir, last_seq);
    let tmp = path.with_extension("snap.tmp");
    let written = write_tmp(&tmp, last_seq, market, policy).and_then(|bytes| {
        fs::rename(&tmp, &path)?;
        if policy == FsyncPolicy::Always {
            // Persist the rename itself (the directory entry).
            File::open(dir)?.sync_all()?;
        }
        Ok(bytes)
    });
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

fn write_tmp(
    tmp: &Path,
    last_seq: u64,
    market: &Marketplace,
    policy: FsyncPolicy,
) -> Result<u64, DurableError> {
    let mut out = BufWriter::new(File::create(tmp)?);
    out.write_all(&SNAPSHOT_MAGIC)?;
    out.write_all(&WAL_VERSION.to_le_bytes())?;
    out.write_all(&last_seq.to_le_bytes())?;
    // `body_len` and `crc32`: known once the body has gone by.
    out.write_all(&[0; 8])?;
    let mut body = BodyWriter {
        out,
        crc: Crc32::new(),
        len: 0,
    };
    encode_body(market, &mut body)?;
    let body_len = u32::try_from(body.len)
        .map_err(|_| io::Error::other("snapshot body exceeds the format's 4 GiB limit"))?;
    let mut file = body.out.into_inner().map_err(|e| e.into_error())?;
    file.seek(SeekFrom::Start(BODY_LEN_AT))?;
    let mut patch = [0u8; 8];
    patch[..4].copy_from_slice(&body_len.to_le_bytes());
    patch[4..].copy_from_slice(&body.crc.finish().to_le_bytes());
    file.write_all(&patch)?;
    if policy == FsyncPolicy::Always {
        file.sync_data()?;
    }
    Ok(HEADER_LEN as u64 + body.len)
}

/// Restores the market of the newest snapshot that validates, as
/// `(market, last_seq, file_bytes)`. A body is read whole and checked
/// against its checksum before any record of it is applied. Damaged
/// candidates are skipped; version mismatches are reported as errors (the
/// operator must migrate, not silently lose the checkpoint), and so is a
/// checksum-valid body that does not replay — it is not crash damage but
/// bytes this build refuses (a retired method tag, say, or a record kind
/// no snapshot holds), and falling back past it would lose them.
pub(crate) fn load_latest(dir: &Path) -> Result<Option<(Marketplace, u64, u64)>, DurableError> {
    for (seq, path) in list_snapshots(dir)? {
        let bytes = fs::read(&path)?;
        // A damaged snapshot: fall back to the next-newest candidate.
        let Some(body) = checked_body(&bytes, seq)? else {
            continue;
        };
        let market = decode_body(body).map_err(|err| match err {
            DurableError::Corrupt(msg) => {
                DurableError::Corrupt(format!("{}: {msg}", path.display()))
            }
            err => err,
        })?;
        return Ok(Some((market, seq, bytes.len() as u64)));
    }
    Ok(None)
}

/// The body of a snapshot file whose header and checksum hold, or `None`
/// for a damaged one; a version this build does not read is an error.
fn checked_body(bytes: &[u8], expected_seq: u64) -> Result<Option<&[u8]>, DurableError> {
    if bytes.len() < HEADER_LEN || bytes[..8] != SNAPSHOT_MAGIC {
        return Ok(None);
    }
    let version = u32::from_le_bytes(field(bytes, 8));
    if version != WAL_VERSION {
        return Err(DurableError::Version {
            what: "snapshot",
            found: version,
            expected: WAL_VERSION,
        });
    }
    let body = &bytes[HEADER_LEN..];
    let intact = u64::from_le_bytes(field(bytes, 12)) == expected_seq
        && u32::from_le_bytes(field(bytes, 20)) as usize == body.len()
        && u32::from_le_bytes(field(bytes, 24)) == crc32(body);
    Ok(intact.then_some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ssa-snap-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_market(seed: u64) -> Marketplace {
        let mut market = Marketplace::builder()
            .slots(2)
            .keywords(3)
            .seed(seed)
            .build()
            .unwrap();
        market.register_advertiser("a");
        market
    }

    fn state_of(seed: u64) -> ssa_core::MarketState {
        sample_market(seed).capture_state().unwrap()
    }

    #[test]
    fn newest_valid_snapshot_wins() {
        let dir = temp_dir("latest");
        write_snapshot(&dir, 10, &sample_market(1), FsyncPolicy::Off).unwrap();
        write_snapshot(&dir, 25, &sample_market(2), FsyncPolicy::Off).unwrap();
        let (market, seq, bytes) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(seq, 25);
        assert_eq!(market.capture_state().unwrap(), state_of(2));
        assert!(bytes > 28);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_newest_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        write_snapshot(&dir, 10, &sample_market(1), FsyncPolicy::Off).unwrap();
        write_snapshot(&dir, 25, &sample_market(2), FsyncPolicy::Off).unwrap();
        let newest = snapshot_path(&dir, 25);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let (market, seq, _) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(seq, 10);
        assert_eq!(market.capture_state().unwrap(), state_of(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_tmp_files_are_ignored() {
        let dir = temp_dir("tmp");
        fs::write(dir.join("snapshot-00000000000000000099.snap.tmp"), b"junk").unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
