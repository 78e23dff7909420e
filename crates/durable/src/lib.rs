//! # ssa-durable — write-ahead log + snapshot recovery
//!
//! Crash durability for the serving marketplace, built on two marketplace
//! properties the core crate guarantees (see [`ssa_core::journal`] and
//! [`ssa_core::state`]):
//!
//! * every control-plane mutation and every served query is observable
//!   through the [`ssa_core::MutationJournal`] hook, and
//! * auction outcomes are a deterministic function of the campaign book,
//!   the clock, and the per-keyword RNG streams.
//!
//! So durability needs only an ordered, checksummed log of the *operations*
//! — never the outcomes. Replaying the log re-draws the identical clicks,
//! purchases, and charges, bit for bit, and leaves every RNG stream at the
//! identical position.
//!
//! ## On-disk format
//!
//! A log directory holds WAL segments and snapshots:
//!
//! ```text
//! data/
//! ├── wal-00000000000000000001.log      segments of framed records:
//! │     [magic 8B][version u32][first_seq u64]          <- 20B header
//! │     [len u32][crc32 u32][seq u64 ++ op body]...     <- records
//! └── snapshot-00000000000000000517.snap
//!       [magic 8B][version u32][last_seq u64]
//!       [body_len u32][crc32 u32]                        <- 28B header
//!       [len u32][op body]...                            <- compacted log
//!       [0 u32][clock u64][streams u32][[u64; 4]...]     <- trailer
//! ```
//!
//! An *op body* is one [`ssa_core::MutationRecord`] as
//! [`ssa_core::MutationRecord::encode_into`] writes it: a one-byte tag
//! (0 `Configure`, 1 `RegisterAdvertiser`, 2 `AddCampaign`, 3 `UpdateBid`,
//! 4 `PauseCampaign`, 5 `ResumeCampaign`, 6 `SetRoiTarget`, 7 `Serve`,
//! 8 `ServeBatch`) and the variant's fields. This crate owns no operation
//! codec: the record body is byte for byte the payload `ssa_net` puts in a
//! request frame for the same operation — one body, two envelopes — and
//! recovery replays it through the same [`ssa_core::journal::apply`] the
//! server executes requests with. A `Configure` record resets the
//! replayed marketplace to a fresh build of its configuration.
//!
//! A snapshot body is a compacted log in the same codec — `Configure`,
//! then [`ssa_core::Marketplace::compacted_log`] — and a trailer with what
//! no operation can set, the clock and each keyword's RNG position.
//! Recovery replays its records through the same step as the WAL's, each
//! moved into `apply` as it is decoded (a record of any other kind, or out
//! of the writer's order, is corruption), then restores the trailer with
//! [`ssa_core::Marketplace::restore_positions`].
//!
//! The header version is [`WAL_VERSION`], shared by segments and
//! snapshots. Version 3, the current format, made the snapshot body a
//! compacted log; version 2 added typed query targeting: `Serve` /
//! `ServeBatch` records journal the query's attribute bag and
//! `AddCampaign` carries the campaign's optional targeting source.
//! Recovery refuses any other version with [`DurableError::Version`]
//! rather than misreading it; a deliberate format change bumps
//! [`WAL_VERSION`] and regenerates the committed golden fixture with
//! `SSA_REGEN_GOLDEN=1 cargo test --test durable_golden` (the fixture
//! and its byte-for-byte check live in the umbrella crate's
//! `tests/durable_golden.rs`).
//!
//! Records carry contiguous sequence numbers from 1. A snapshot at
//! sequence `S` captures the complete marketplace state after record `S`;
//! taking one rotates the WAL to a fresh segment starting at `S + 1` and
//! deletes everything older (log compaction). Recovery is
//! `snapshot ∘ WAL suffix`: load the newest valid snapshot, then replay
//! every record past it.
//!
//! ## Crash semantics
//!
//! * A crash mid-append leaves a *torn tail*: a record whose frame is
//!   short or whose checksum fails, necessarily at the very end of the
//!   final segment. Recovery truncates it — losing exactly the operations
//!   that were never acknowledged, never an acknowledged one.
//! * Under [`FsyncPolicy::Always`] any segment may end in a zero-filled
//!   reserve (a sparse hole), which recovery reads as its clean end.
//! * A snapshot is streamed from the live marketplace into a temp file —
//!   record by record through one buffered writer with a running
//!   checksum, the header's length and checksum filled in last — and
//!   renamed, so a half-written snapshot is never visible; a damaged one
//!   falls back to its predecessor.
//! * Damage anywhere else (mid-log checksum failure, a sequence gap) is
//!   reported as [`DurableError::Corrupt`], never silently skipped.
//!
//! ## Fsync trade-offs
//!
//! Records reach the log in *commit groups*. A one-at-a-time caller — an
//! in-process market journalling through [`Durability::journal`] — makes
//! every record its own group. A caller that can hold acknowledgements
//! back — the server's executor, through [`Durability::group_journal`] —
//! stages the records of everything it ran in one tick and commits them
//! together ([`Durability::commit`]): one `write`, and at most one
//! `fdatasync`, however many records the group holds. [`FsyncPolicy`]
//! picks what a commit does, and so the failure domain:
//!
//! * [`FsyncPolicy::Off`] — a commit `write(2)`-flushes its group.
//!   Survives process death (including `kill -9`): the bytes are in the
//!   OS page cache. Does *not* survive kernel panic or power loss.
//! * [`FsyncPolicy::Always`] — a commit additionally `fdatasync`s, and
//!   directory entries are synced on rotation. Survives power loss. The
//!   promise is per acknowledgement, not per record: **an operation is
//!   acknowledged only after an `fdatasync` that covers its record has
//!   returned** — its own for a one-at-a-time caller, one shared with the
//!   requests in flight beside it for the server. Records of operations
//!   that were never acknowledged (a group cut by the crash, or one whose
//!   commit failed) may be lost or may be recovered, as a torn tail always
//!   could be; an acknowledged one never is lost.
//!
//! A commit that fails leaves the log finished: what reached the file is
//! unknown, so the handle refuses every later commit rather than append
//! behind a possibly half-written record, and the caller must acknowledge
//! none of the group. [`Durability::syncs`] counts the `fdatasync`s made.
//!
//! ## Quick use
//!
//! ```no_run
//! use ssa_durable::{Durability, FsyncPolicy};
//! use std::path::Path;
//!
//! let dir = Path::new("data");
//! let (recovered, dur) = Durability::open(dir, FsyncPolicy::Off, 10_000)?;
//! let mut market = match recovered {
//!     Some((market, report)) => {
//!         eprintln!("{}", report.to_json());
//!         market
//!     }
//!     None => {
//!         let config = ssa_core::MarketConfigState {
//!             slots: 4,
//!             keywords: 100,
//!             seed: 7,
//!             method: ssa_core::WdMethod::Reduced,
//!             pricing: ssa_core::PricingScheme::Gsp,
//!             shards: 4,
//!             pruned: false,
//!             warm_start: true,
//!             default_click_probs: None,
//!             default_purchase_probs: None,
//!         };
//!         let market = ssa_core::Marketplace::from_config(&config)?;
//!         dur.log_configure(&config)?;
//!         market
//!     }
//! };
//! market.set_journal(dur.journal());
//! // ... serve; call dur.maybe_snapshot(&market) between requests ...
//! // (a server attaches dur.group_journal() instead, and calls
//! // dur.commit() before it answers what it ran)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod codec;
mod snapshot;
mod store;
mod wal;

pub use codec::crc32;
pub use snapshot::SNAPSHOT_MAGIC;
pub use store::{recover, Durability, RecoveryReport};
pub use wal::WAL_MAGIC;

use std::str::FromStr;

/// Version stamped into every WAL segment and snapshot header. Bump it
/// when the record or snapshot encoding changes; recovery refuses files
/// from a different version rather than misreading them. The golden
/// fixture test (`tests/durable_golden.rs` in the umbrella crate) pins
/// the format at this version — a deliberate bump regenerates it.
pub const WAL_VERSION: u32 = 3;

/// What a commit does to make its records durable; see the
/// [crate docs](self#fsync-trade-offs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` every commit group before anything in it is
    /// acknowledged: survives power loss. The open segment keeps a
    /// zero-filled reserve past its last record, so a sync seldom has to
    /// make a new file size durable as well.
    Always,
    /// Flush every commit group to the OS: survives process death only.
    Off,
}

/// A [`FsyncPolicy`] string didn't parse; lists the accepted spellings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFsyncError(String);

impl std::fmt::Display for ParseFsyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bad fsync policy '{}': expected 'always' or 'off'",
            self.0
        )
    }
}

impl std::error::Error for ParseFsyncError {}

impl FromStr for FsyncPolicy {
    type Err = ParseFsyncError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "off" => Ok(FsyncPolicy::Off),
            other => Err(ParseFsyncError(other.to_string())),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Off => "off",
        })
    }
}

/// Anything that can go wrong opening, writing, or recovering a log
/// directory.
#[derive(Debug)]
pub enum DurableError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A WAL segment or snapshot was written by a different format
    /// version.
    Version {
        /// Which file kind mismatched.
        what: &'static str,
        /// Version found in the header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The log is damaged in a way a crash cannot explain (bad magic,
    /// sequence gap, mid-log checksum failure, lost snapshot, a
    /// checksum-valid body that does not decode).
    Corrupt(String),
    /// Replaying a record against the marketplace failed, or a snapshot's
    /// trailer does not fit the market its records built — the log
    /// disagrees with the marketplace's own validation, so the log is
    /// not one this marketplace wrote.
    Market(ssa_core::MarketError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(err) => write!(f, "durability I/O error: {err}"),
            DurableError::Version {
                what,
                found,
                expected,
            } => write!(
                f,
                "{what} has format version {found}, this build expects {expected}"
            ),
            DurableError::Corrupt(msg) => write!(f, "durability log corrupt: {msg}"),
            DurableError::Market(err) => write!(f, "replay rejected: {err}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(err) => Some(err),
            DurableError::Market(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(err: std::io::Error) -> Self {
        DurableError::Io(err)
    }
}

/// A checksum-valid record that does not decode: not crash damage.
impl From<ssa_core::codec::CodecError> for DurableError {
    fn from(err: ssa_core::codec::CodecError) -> Self {
        DurableError::Corrupt(err.to_string())
    }
}

impl From<ssa_core::MarketError> for DurableError {
    fn from(err: ssa_core::MarketError) -> Self {
        DurableError::Market(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!("always".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Always));
        assert_eq!("off".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Off));
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::Always.to_string(), "always");
        assert_eq!(FsyncPolicy::Off.to_string(), "off");
    }

    #[test]
    fn recovery_report_json_shape() {
        let report = RecoveryReport {
            wal_records: 12,
            snapshot_bytes: 3400,
            replay_ms: 1.5,
        };
        assert_eq!(
            report.to_json(),
            "{\"metric\":\"recovery\",\"wal_records\":12,\"snapshot_bytes\":3400,\"replay_ms\":1.500}"
        );
    }
}
