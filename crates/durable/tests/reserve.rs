//! How often a syncing log changes its segment file's size.
//!
//! Under `FsyncPolicy::Always` every commit ends in an `fdatasync`, and a
//! commit that grows the file makes that sync persist the new size too,
//! which costs a filesystem journal commit on top of the data. The writer
//! keeps a reserve ahead of its records instead, so the size changes once
//! per reserve step. This test makes one-record commits, the way
//! `durable.append_fsync_us` does, reads the segment's length after each
//! and pins how many changed it. The count depends only on record sizes,
//! so debug and release builds read the same.

use ssa_core::{MutationRecord, UserAttrs};
use ssa_durable::{Durability, FsyncPolicy};
use std::path::{Path, PathBuf};

/// How far a syncing writer extends a segment past its records at a time.
const RESERVE_STEP: u64 = 1 << 20;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ssa-reserve-{tag}-{}", std::process::id()))
}

fn segment(dir: &Path) -> PathBuf {
    dir.join(format!("wal-{:020}.log", 1))
}

#[test]
fn one_record_commits_change_the_segment_size_a_pinned_number_of_times() {
    const COMMITS: u64 = 2_000;
    let record = MutationRecord::Serve {
        keyword: 3,
        attrs: UserAttrs::new()
            .geo("us")
            .device("mobile")
            .set_int("age", 34),
    };
    let (always, off) = (temp_dir("always"), temp_dir("off"));
    let (_, dur) = Durability::open(&always, FsyncPolicy::Always, 0).unwrap();
    let mut journal = dur.journal();
    let mut len = std::fs::metadata(segment(&always)).unwrap().len();
    let mut changes = 0;
    for _ in 0..COMMITS {
        journal.record(&record);
        let now = std::fs::metadata(segment(&always)).unwrap().len();
        changes += (now != len) as u64;
        len = now;
    }
    // The reserve adds no sync.
    assert_eq!(dur.syncs(), COMMITS);
    drop(journal);
    drop(dur);

    // A cleanly closed segment is trimmed to its records: byte for byte
    // what the same records make under `Off`, which keeps no reserve.
    let (_, dur) = Durability::open(&off, FsyncPolicy::Off, 0).unwrap();
    let mut journal = dur.journal();
    for _ in 0..COMMITS {
        journal.record(&record);
    }
    drop(journal);
    drop(dur);
    let closed = std::fs::read(segment(&always)).unwrap();
    assert_eq!(closed, std::fs::read(segment(&off)).unwrap());

    assert!(changes <= (closed.len() as u64).div_ceil(RESERVE_STEP) + 1);
    // 2 000, one per commit, while every commit appended to the file.
    assert_eq!(changes, 1, "commits that changed the segment's size");
    std::fs::remove_dir_all(&always).ok();
    std::fs::remove_dir_all(&off).ok();
}
