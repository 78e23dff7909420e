//! The durability store: recovery, the live [`Durability`] handle, commit
//! groups, and snapshot rotation/compaction.
//!
//! One [`Durability`] wraps one log directory. [`Durability::open`]
//! recovers whatever the directory holds, positions the WAL writer after
//! the last valid record (truncating a torn tail or a leftover reserve in
//! place), and hands back a cloneable handle. [`Durability::journal`]
//! adapts the handle to the marketplace's [`MutationJournal`] hook, one
//! commit per record; [`Durability::group_journal`] only stages records,
//! and the caller makes a whole group of them durable with one
//! [`Durability::commit`] — one `write`, one `fdatasync` — before
//! acknowledging any of them (under [`FsyncPolicy::Always`], into the
//! segment's reserve, which rotation trims). The serving layer calls
//! [`Durability::maybe_snapshot`] between commit groups, from the same
//! thread that owns the marketplace, so a snapshot always observes a
//! state that exactly covers every journalled record.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::wal::{self, WalWriter, HEADER_LEN};
use crate::{snapshot, DurableError, FsyncPolicy};
use ssa_core::{MarketConfigState, Marketplace, MutationJournal, MutationRecord};

/// What [`recover`] (and [`Durability::open`]) replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// WAL records replayed on top of the snapshot (0 if the snapshot was
    /// current through the end of the log).
    pub wal_records: u64,
    /// Size of the snapshot file restored from, in bytes (0 without one).
    pub snapshot_bytes: u64,
    /// Wall-clock time of the whole recovery, in milliseconds.
    pub replay_ms: f64,
}

impl RecoveryReport {
    /// One JSON line in the repository's bench-report idiom
    /// (`"metric":"recovery"`), consumed by the perf-smoke and
    /// crash-recovery CI jobs.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"metric\":\"recovery\",\"wal_records\":{},\"snapshot_bytes\":{},\"replay_ms\":{:.3}}}",
            self.wal_records, self.snapshot_bytes, self.replay_ms
        )
    }
}

struct Recovered {
    market: Option<(Marketplace, RecoveryReport)>,
    /// Sequence number of the last valid record on disk (snapshot or WAL,
    /// whichever is newer); the next append is `last_seq + 1`.
    last_seq: u64,
    snapshot_seq: u64,
    tail: Option<wal::Tail>,
}

/// The one replay step, for a snapshot's records and the WAL's alike: a
/// `Configure` into an empty slot builds the market, and every other
/// record is moved into [`Marketplace::apply`] on it.
pub(crate) fn replay(
    market: &mut Option<Marketplace>,
    record: MutationRecord,
) -> Result<(), DurableError> {
    match (market.as_mut(), record) {
        (Some(market), record) => market.apply(record).map(drop)?,
        (None, MutationRecord::Configure(config)) => {
            *market = Some(Marketplace::from_config(&config)?)
        }
        (None, _) => {
            return Err(DurableError::Corrupt(
                "the log's first record is not a configure record".into(),
            ))
        }
    }
    Ok(())
}

fn recover_inner(dir: &Path) -> Result<Recovered, DurableError> {
    let start = Instant::now();
    let (mut market, base_seq, snapshot_bytes) = match snapshot::load_latest(dir)? {
        Some((market, seq, bytes)) => (Some(market), seq, bytes),
        None => (None, 0, 0),
    };
    let mut wal_records = 0;
    let scan = wal::scan(dir, base_seq, |seq, record| {
        // The log must resume exactly where the snapshot left off; a gap
        // means records were lost (e.g. the newest snapshot rotted away
        // after its WAL prefix was already compacted).
        if wal_records == 0 && seq != base_seq + 1 {
            return Err(DurableError::Corrupt(format!(
                "first WAL record past the snapshot is seq {seq}, expected {}",
                base_seq + 1
            )));
        }
        wal_records += 1;
        replay(&mut market, record)
    })?;
    let last_seq = scan.last_seq.unwrap_or(base_seq).max(base_seq);
    let report = RecoveryReport {
        wal_records,
        snapshot_bytes,
        replay_ms: start.elapsed().as_secs_f64() * 1e3,
    };
    Ok(Recovered {
        market: market.map(|m| (m, report)),
        last_seq,
        snapshot_seq: base_seq,
        tail: scan.tail,
    })
}

/// Rebuilds the marketplace persisted in `dir` by loading the newest
/// valid snapshot and replaying the WAL suffix past it.
///
/// Returns `Ok(None)` when the directory holds no snapshot and no
/// records — a fresh start. Read-only: torn tail bytes are *ignored* here
/// and truncated only when [`Durability::open`] takes over the directory
/// for writing.
pub fn recover(dir: &Path) -> Result<Option<(Marketplace, RecoveryReport)>, DurableError> {
    if !dir.is_dir() {
        return Ok(None);
    }
    Ok(recover_inner(dir)?.market)
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    policy: FsyncPolicy,
    snapshot_every: u64,
    writer: WalWriter,
    next_seq: u64,
    /// Newest record a successful commit has covered.
    committed_seq: u64,
    /// `fdatasync` calls commits have made.
    syncs: u64,
    snapshot_seq: u64,
    records_since_snapshot: u64,
}

impl Inner {
    /// Stages one record behind the open commit group. In memory only.
    fn stage(&mut self, op: &MutationRecord) {
        self.writer.stage(self.next_seq, op);
        self.next_seq += 1;
        self.records_since_snapshot += 1;
    }

    /// Makes every staged record durable under the policy: one `write`,
    /// and under [`FsyncPolicy::Always`] one `fdatasync`.
    fn commit(&mut self) -> Result<(), DurableError> {
        if !self.writer.has_staged() {
            return Ok(());
        }
        let sync = self.policy == FsyncPolicy::Always;
        self.syncs += sync as u64;
        self.writer.commit(sync)?;
        self.committed_seq = self.next_seq - 1;
        Ok(())
    }
}

/// A handle on one durable log directory.
///
/// Cheap to clone (all clones share the same writer); every operation
/// takes an internal lock, serializing appends with snapshot rotation.
#[derive(Debug, Clone)]
pub struct Durability {
    inner: Arc<Mutex<Inner>>,
}

impl Durability {
    /// Opens (creating if needed) the log directory `dir`: recovers any
    /// persisted marketplace, truncates a torn WAL tail in place, and
    /// positions the writer after the last valid record.
    ///
    /// `snapshot_every` is the snapshot cadence in WAL records for
    /// [`Durability::maybe_snapshot`]; `0` disables automatic snapshots.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        snapshot_every: u64,
    ) -> Result<(Option<(Marketplace, RecoveryReport)>, Durability), DurableError> {
        std::fs::create_dir_all(dir)?;
        let recovered = recover_inner(dir)?;
        let next_seq = recovered.last_seq + 1;
        let writer = match &recovered.tail {
            // A tail whose header itself was cut off can't be appended to;
            // recreate it (it contains no valid records by construction).
            Some(tail) if tail.valid_len >= HEADER_LEN => {
                WalWriter::open_tail(&tail.path, tail.valid_len)?
            }
            Some(tail) => WalWriter::create(dir, tail.first_seq)?,
            None => WalWriter::create(dir, next_seq)?,
        };
        let inner = Inner {
            dir: dir.to_path_buf(),
            policy,
            snapshot_every,
            writer,
            next_seq,
            committed_seq: recovered.last_seq,
            syncs: 0,
            snapshot_seq: recovered.snapshot_seq,
            records_since_snapshot: recovered.last_seq - recovered.snapshot_seq,
        };
        let handle = Durability {
            inner: Arc::new(Mutex::new(inner)),
        };
        Ok((recovered.market, handle))
    }

    /// Appends a `Configure` record for a marketplace the caller built
    /// from `config` itself (a fresh boot), *before* attaching the journal
    /// to it. A journalled marketplace reconfigured through
    /// [`Marketplace::configure`] journals its own.
    pub fn log_configure(&self, config: &MarketConfigState) -> Result<(), DurableError> {
        let mut inner = self.lock();
        inner.stage(&MutationRecord::Configure(config.clone()));
        inner.commit()
    }

    /// Adapts this handle to the marketplace's journal hook, committing
    /// every record on its own (under [`FsyncPolicy::Always`]: one
    /// `fdatasync` per record). The returned journal panics if a record
    /// cannot be persisted — continuing would silently break the recovery
    /// guarantee. A caller that can hold its acknowledgements back — a
    /// server — uses [`Durability::group_journal`] instead.
    pub fn journal(&self) -> Box<dyn MutationJournal> {
        Box::new(DurableJournal {
            handle: self.clone(),
            commit_each: true,
        })
    }

    /// The journal hook for commit groups: every record is only *staged*
    /// (framed in memory, in order, under its sequence number), which
    /// cannot fail. The records staged since the last commit are one
    /// group; the caller makes them durable together with
    /// [`Durability::commit`] and must not acknowledge any of their
    /// operations before that returns `Ok`.
    pub fn group_journal(&self) -> Box<dyn MutationJournal> {
        Box::new(DurableJournal {
            handle: self.clone(),
            commit_each: false,
        })
    }

    /// Commits the open group: every staged record reaches the log in one
    /// `write` and, under [`FsyncPolicy::Always`], one `fdatasync`. A
    /// no-op (no system call) when nothing is staged.
    ///
    /// On `Err` none of the group's operations may be acknowledged, and
    /// the log is finished: what reached the file is unknown, so every
    /// later commit fails as well. A restart recovers the whole-record
    /// prefix that did reach it.
    pub fn commit(&self) -> Result<(), DurableError> {
        self.lock().commit()
    }

    /// Takes a snapshot if at least `snapshot_every` records accumulated
    /// since the last one. Returns whether a snapshot was taken.
    ///
    /// Must be called from the thread that owns `market`, after its
    /// journalled operations completed — so the captured state covers
    /// exactly the records appended so far.
    pub fn maybe_snapshot(&self, market: &Marketplace) -> Result<bool, DurableError> {
        {
            let inner = self.lock();
            if inner.snapshot_every == 0 || inner.records_since_snapshot < inner.snapshot_every {
                return Ok(false);
            }
        }
        self.snapshot_now(market)?;
        Ok(true)
    }

    /// Takes a snapshot unconditionally (no-op if no records arrived since
    /// the last one), then rotates the WAL to a fresh segment and deletes
    /// segments and snapshots the new snapshot supersedes. Commits the
    /// open group first: a snapshot covers every record journalled so far.
    ///
    /// The snapshot body is streamed out of `market` as it stands, one
    /// record of its compacted log at a time: no copy of the campaign book
    /// is built.
    pub fn snapshot_now(&self, market: &Marketplace) -> Result<(), DurableError> {
        let mut inner = self.lock();
        inner.commit()?;
        if inner.records_since_snapshot == 0 {
            return Ok(());
        }
        let last_seq = inner.next_seq - 1;
        snapshot::write_snapshot(&inner.dir, last_seq, market, inner.policy)?;
        // Rotate: further appends go to a fresh segment starting past the
        // snapshot, then drop everything the snapshot supersedes.
        inner.writer = WalWriter::create(&inner.dir, last_seq + 1)?;
        if inner.policy == FsyncPolicy::Always {
            std::fs::File::open(&inner.dir)?.sync_all()?;
        }
        let keep = inner.writer.path().to_path_buf();
        for segment in wal::list_segments(&inner.dir)? {
            if segment.path != keep {
                std::fs::remove_file(&segment.path)?;
            }
        }
        for (seq, path) in snapshot::list_snapshots(&inner.dir)? {
            if seq < last_seq {
                std::fs::remove_file(&path)?;
            }
        }
        inner.snapshot_seq = last_seq;
        inner.records_since_snapshot = 0;
        Ok(())
    }

    /// Total records appended to the WAL over the directory's lifetime
    /// (`= the sequence number of the newest record`), those of an open
    /// commit group included.
    pub fn wal_records(&self) -> u64 {
        self.lock().next_seq - 1
    }

    /// Sequence number of the newest record a successful commit has
    /// covered: an operation whose record is past it must not have been
    /// acknowledged yet.
    pub fn committed_seq(&self) -> u64 {
        self.lock().committed_seq
    }

    /// `fdatasync` calls commits have made since this handle was opened:
    /// one per record for one-at-a-time callers under
    /// [`FsyncPolicy::Always`], one per group for a grouping caller, none
    /// under [`FsyncPolicy::Off`].
    pub fn syncs(&self) -> u64 {
        self.lock().syncs
    }

    /// Fault injection for tests: the log's descriptor is swapped for a
    /// read-only one, so the next commit fails with the OS's own error
    /// and the handle behaves from then on as after any failed commit.
    #[doc(hidden)]
    pub fn break_log_for_tests(&self) -> Result<(), DurableError> {
        Ok(self.lock().writer.break_descriptor()?)
    }

    /// Sequence number the newest snapshot covers through (0 if none).
    pub fn snapshot_seq(&self) -> u64 {
        self.lock().snapshot_seq
    }

    /// The log directory this handle writes to.
    pub fn dir(&self) -> PathBuf {
        self.lock().dir.clone()
    }

    // Invariant: a poisoned lock means an append already panicked;
    // durability is gone either way, so the panic propagates.
    #[allow(clippy::expect_used)]
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("durability lock poisoned")
    }
}

/// [`MutationJournal`] adapter over [`Durability`]; see
/// [`Durability::journal`] and [`Durability::group_journal`].
#[derive(Debug)]
struct DurableJournal {
    handle: Durability,
    /// Whether every record is its own commit group.
    commit_each: bool,
}

impl MutationJournal for DurableJournal {
    // `MutationJournal::record` returns nothing, so a record the log did
    // not accept can only fail loudly until ROADMAP item 2(b) gives it a
    // `Result`.
    #[allow(clippy::panic)]
    fn record(&mut self, record: &MutationRecord) {
        let mut inner = self.handle.lock();
        inner.stage(record);
        if self.commit_each {
            if let Err(err) = inner.commit() {
                // Contract of MutationJournal: fail loudly. Acknowledging
                // an operation the log did not accept would break recovery.
                panic!("write-ahead log append failed: {err}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_bidlang::Money;
    use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
    use ssa_core::{MarketState, PricingScheme, WdMethod};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ssa-store-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        dir
    }

    fn fresh_market(dur: &Durability, shards: usize) -> Marketplace {
        let builder = Marketplace::builder()
            .slots(2)
            .keywords(5)
            .seed(99)
            .default_click_probs(vec![0.6, 0.3]);
        let mut market = builder.build_sharded(shards).unwrap();
        dur.log_configure(&market.capture_state().unwrap().config)
            .unwrap();
        market.set_journal(dur.journal());
        market
    }

    fn populate(market: &mut Marketplace) {
        let a = market.register_advertiser("a");
        let b = market.register_advertiser("b");
        for kw in 0..5 {
            market
                .add_campaign(
                    a,
                    kw,
                    CampaignSpec::per_click(Money::from_cents(40 + kw as i64))
                        .click_value(Money::from_cents(90)),
                )
                .unwrap();
            market
                .add_campaign(
                    b,
                    kw,
                    CampaignSpec::per_click(Money::from_cents(55))
                        .click_value(Money::from_cents(120))
                        .roi_target(1.1),
                )
                .unwrap();
        }
    }

    fn serve_n(market: &mut Marketplace, n: usize) {
        for i in 0..n {
            market.serve(QueryRequest::new(i % 5)).unwrap();
        }
    }

    #[test]
    fn open_recover_reopen_is_bit_identical() {
        let dir = temp_dir("reopen");
        let (recovered, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
        assert!(recovered.is_none());
        let mut market = fresh_market(&dur, 2);
        populate(&mut market);
        serve_n(&mut market, 40);
        let live_state = market.capture_state().unwrap();
        // 1 configure + 2 registers + 10 add_campaigns + the serves.
        assert_eq!(dur.wal_records(), market.now() + 13);
        drop(dur);
        drop(market);

        let (recovered, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
        let (mut back, report) = recovered.expect("state persisted");
        assert_eq!(report.wal_records, 53); // 1 configure + 12 mutations + 40 serves
        assert_eq!(report.snapshot_bytes, 0);
        assert_eq!(back.capture_state().unwrap(), live_state);
        // The reopened log keeps counting from where it left off.
        back.set_journal(dur.journal());
        back.serve(QueryRequest::new(0)).unwrap();
        assert_eq!(dur.wal_records(), 54);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_recovery_uses_it() {
        let dir = temp_dir("compact");
        let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
        let mut market = fresh_market(&dur, 4);
        populate(&mut market);
        serve_n(&mut market, 30);
        dur.snapshot_now(&market).unwrap();
        assert_eq!(dur.snapshot_seq(), 43);
        serve_n(&mut market, 7);
        let live_state = market.capture_state().unwrap();
        drop(dur);

        // Only one (fresh) segment and one snapshot remain on disk.
        assert_eq!(wal::list_segments(&dir).unwrap().len(), 1);
        assert_eq!(snapshot::list_snapshots(&dir).unwrap().len(), 1);
        let (recovered, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
        let (back, report) = recovered.expect("state persisted");
        assert_eq!(report.wal_records, 7);
        assert!(report.snapshot_bytes > 0);
        assert_eq!(back.capture_state().unwrap(), live_state);
        assert_eq!(dur.snapshot_seq(), 43);
        assert_eq!(dur.wal_records(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn maybe_snapshot_honours_cadence() {
        let dir = temp_dir("cadence");
        let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 10).unwrap();
        let mut market = fresh_market(&dur, 1);
        populate(&mut market);
        assert!(dur.maybe_snapshot(&market).unwrap()); // 13 records >= 10
        assert!(!dur.maybe_snapshot(&market).unwrap()); // 0 since last
        serve_n(&mut market, 9);
        assert!(!dur.maybe_snapshot(&market).unwrap()); // 9 < 10
        serve_n(&mut market, 1);
        assert!(dur.maybe_snapshot(&market).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reconfigure_resets_the_replayed_market() {
        let dir = temp_dir("reconfig");
        let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
        let mut market = fresh_market(&dur, 2);
        populate(&mut market);
        serve_n(&mut market, 10);
        // What the serving layer does on a Configure request: the one way
        // to change how a market solves and prices.
        let mut config = market.capture_state().unwrap().config;
        (config.slots, config.keywords, config.seed, config.shards) = (1, 3, 7, 1);
        (config.method, config.pricing, config.pruned) =
            (WdMethod::Lp, PricingScheme::Vickrey, true);
        config.default_click_probs = None;
        market.configure(config.clone()).unwrap();
        let a = market.register_advertiser("fresh");
        market
            .add_campaign(
                a,
                1,
                CampaignSpec::per_click(Money::from_cents(33))
                    .click_value(Money::from_cents(70))
                    .click_probs(vec![0.5]),
            )
            .unwrap();
        market.serve(QueryRequest::new(1)).unwrap();
        let live_state = market.capture_state().unwrap();
        drop(dur);

        let (recovered, _dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
        let (back, _) = recovered.expect("state persisted");
        let back_state = back.capture_state().unwrap();
        assert_eq!(back_state, live_state);
        assert_eq!(back_state.config, config);
        assert_eq!(back.num_keywords(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_always_policy_round_trips() {
        let dir = temp_dir("fsync");
        let (_, dur) = Durability::open(&dir, FsyncPolicy::Always, 0).unwrap();
        let mut market = fresh_market(&dur, 1);
        populate(&mut market);
        serve_n(&mut market, 3);
        dur.snapshot_now(&market).unwrap();
        serve_n(&mut market, 2);
        let live_state = market.capture_state().unwrap();
        drop(dur);
        let (recovered, _) = Durability::open(&dir, FsyncPolicy::Always, 0).unwrap();
        assert_eq!(recovered.unwrap().0.capture_state().unwrap(), live_state);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    /// A market exercising every campaign shape a snapshot must carry:
    /// targeted, paused, ROI-capped, purchasing and never-purchasing.
    fn varied_market(dur: &Durability, shards: usize) -> Marketplace {
        let mut market = fresh_market(dur, shards);
        populate(&mut market);
        let a = market.register_advertiser("targeter");
        let targeted = market
            .add_campaign(
                a,
                3,
                CampaignSpec::per_click(Money::from_cents(61))
                    .click_value(Money::from_cents(140))
                    .purchase_probs(vec![(0.5, 0.125), (0.25, 0.0)])
                    .targeting("device = 'mobile' and age >= 21"),
            )
            .unwrap();
        market.pause_campaign(targeted).unwrap();
        let capped = market
            .add_campaign(
                a,
                1,
                CampaignSpec::per_click(Money::from_cents(70))
                    .click_value(Money::from_cents(75))
                    .roi_target(1.5),
            )
            .unwrap();
        market
            .update_bid(capped, Money::from_cents(72))
            .expect("per-click campaign");
        serve_n(&mut market, 25);
        market
    }

    /// `state`'s `Configure` and records framed by hand the way a snapshot
    /// body holds them — each encoded with `MutationRecord::encode_into`
    /// behind its `u32` length — then the trailer: a zero length, the
    /// clock, and the counted RNG states.
    fn body_of(state: &MarketState) -> Vec<u8> {
        let mut body = Vec::new();
        let configure = MutationRecord::Configure(state.config.clone());
        for record in std::iter::once(&configure).chain(&state.records) {
            let mut op = Vec::new();
            record.encode_into(&mut op);
            body.extend_from_slice(&(op.len() as u32).to_le_bytes());
            body.extend_from_slice(&op);
        }
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&state.clock.to_le_bytes());
        body.extend_from_slice(&(state.rng_states.len() as u32).to_le_bytes());
        for word in state.rng_states.iter().flatten() {
            body.extend_from_slice(&word.to_le_bytes());
        }
        body
    }

    /// The snapshot file covering `..= last_seq` around `body`: a 28-byte
    /// header (magic, version, last_seq, body_len, crc32), then the body.
    fn file_of(last_seq: u64, body: &[u8]) -> Vec<u8> {
        [
            &crate::SNAPSHOT_MAGIC[..],
            &crate::WAL_VERSION.to_le_bytes(),
            &last_seq.to_le_bytes(),
            &(body.len() as u32).to_le_bytes(),
            &crate::crc32(body).to_le_bytes(),
            body,
        ]
        .concat()
    }

    fn write_body(dir: &Path, last_seq: u64, body: &[u8]) {
        let path = dir.join(format!("snapshot-{last_seq:020}.snap"));
        std::fs::write(path, file_of(last_seq, body)).unwrap();
    }

    #[test]
    fn streamed_snapshot_is_the_framed_encoding_of_the_captured_state() {
        for shards in [1, 4] {
            let dir = temp_dir("stream");
            let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
            let market = varied_market(&dur, shards);
            dur.snapshot_now(&market).unwrap();
            let last_seq = dur.snapshot_seq();
            assert_eq!(last_seq, dur.wal_records());
            let (_, path) = snapshot::list_snapshots(&dir).unwrap().remove(0);
            let streamed = std::fs::read(path).unwrap();

            let state = market.capture_state().unwrap();
            let adds = || {
                state.records.iter().filter_map(|record| match record {
                    MutationRecord::AddCampaign {
                        roi_target,
                        purchase_probs,
                        targeting,
                        ..
                    } => Some((roi_target, purchase_probs.as_deref(), targeting)),
                    _ => None,
                })
            };
            let never = |row: &[(f64, f64)]| row.iter().all(|&(c, n)| c == 0.0 && n == 0.0);
            assert!(adds().any(|(_, _, targeting)| targeting.is_some()));
            assert!(adds().any(|(roi, _, _)| roi.is_some()));
            assert!(adds().any(|(_, row, _)| row.is_some_and(|row| !never(row))));
            assert!(adds().any(|(_, row, _)| row.is_some_and(never)));
            assert!(adds().all(|(_, row, _)| row.is_some()));
            let paused = |r: &&MutationRecord| matches!(r, MutationRecord::PauseCampaign { .. });
            assert_eq!(state.records.iter().filter(paused).count(), 1);

            let framed = file_of(last_seq, &body_of(&state));
            assert_eq!(streamed, framed, "{shards} shards");

            drop(dur);
            let (recovered, _) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
            assert_eq!(recovered.unwrap().0.capture_state().unwrap(), state);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_failed_snapshot_leaves_no_file_behind() {
        let dir = temp_dir("nosnap");
        let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
        let mut market = fresh_market(&dur, 1);
        serve_n(&mut market, 1);
        let mut free = Marketplace::builder()
            .slots(1)
            .keywords(1)
            .default_click_probs(vec![0.5])
            .build()
            .unwrap();
        let a = free.register_advertiser("a");
        let table = ssa_bidlang::BidsTable::single_feature(Money::from_cents(2));
        free.add_campaign(a, 0, CampaignSpec::table(table))
            .expect("accepted without a journal");
        // `free` holds a campaign with no durable form: the stream stops
        // there, and neither a snapshot nor its `.tmp` survives.
        assert!(matches!(
            dur.snapshot_now(&free),
            Err(DurableError::Market(ssa_core::MarketError::NotDurable(_)))
        ));
        assert!(snapshot::list_snapshots(&dir).unwrap().is_empty());
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_group_is_one_sync_and_bare_records_one_each() {
        let dir = temp_dir("group");
        let (_, dur) = Durability::open(&dir, FsyncPolicy::Always, 0).unwrap();
        let mut market = fresh_market(&dur, 2);
        populate(&mut market);
        // One-at-a-time journalling: a sync per record, the configure
        // record included.
        assert_eq!(dur.wal_records(), 13);
        assert_eq!(dur.syncs(), 13);
        assert_eq!(dur.committed_seq(), 13);

        market.set_journal(dur.group_journal());
        serve_n(&mut market, 20);
        assert_eq!(dur.wal_records(), 33);
        assert_eq!((dur.syncs(), dur.committed_seq()), (13, 13));
        dur.commit().unwrap();
        assert_eq!((dur.syncs(), dur.committed_seq()), (14, 33));
        // Nothing staged: no system call, no sync.
        dur.commit().unwrap();
        assert_eq!(dur.syncs(), 14);
        let live_state = market.capture_state().unwrap();
        drop(dur);

        let (recovered, dur) = Durability::open(&dir, FsyncPolicy::Always, 0).unwrap();
        let (back, report) = recovered.expect("state persisted");
        assert_eq!(report.wal_records, 33);
        assert_eq!(back.capture_state().unwrap(), live_state);
        assert_eq!((dur.wal_records(), dur.committed_seq()), (33, 33));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_commit_finishes_the_log() {
        let dir = temp_dir("broken");
        let (_, dur) = Durability::open(&dir, FsyncPolicy::Always, 0).unwrap();
        let mut market = fresh_market(&dur, 1);
        populate(&mut market);
        market.set_journal(dur.group_journal());
        serve_n(&mut market, 3);
        dur.commit().unwrap();
        let acknowledged = market.capture_state().unwrap();

        dur.break_log_for_tests().unwrap();
        serve_n(&mut market, 2);
        assert!(matches!(dur.commit(), Err(DurableError::Io(_))));
        assert_eq!(dur.committed_seq(), 16);
        // Later groups fail too, and so does a snapshot, rather than write
        // behind a record of unknown extent.
        serve_n(&mut market, 1);
        assert!(dur.commit().is_err());
        assert!(dur.snapshot_now(&market).is_err());
        drop(dur);

        let (recovered, dur) = Durability::open(&dir, FsyncPolicy::Always, 0).unwrap();
        assert_eq!(recovered.unwrap().0.capture_state().unwrap(), acknowledged);
        assert_eq!(dur.wal_records(), 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot that passes its checksum but carries fewer or more RNG
    /// streams than its keywords is refused at open, by the one check in
    /// `Marketplace::restore_positions`: restoring it would succeed and
    /// then serve different clicks.
    #[test]
    fn a_snapshot_with_the_wrong_number_of_rng_streams_is_refused() {
        use ssa_core::MarketError;
        let dir = temp_dir("rngcount");
        let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
        let mut market = fresh_market(&dur, 2);
        populate(&mut market);
        serve_n(&mut market, 20);
        let good = market.capture_state().unwrap();
        let last_seq = dur.wal_records();
        drop(dur);
        assert_eq!(good.rng_states.len(), 5);

        for streams in [4, 6] {
            let mut state = good.clone();
            state.rng_states.resize(streams, [1, 2, 3, 4]);
            write_body(&dir, last_seq, &body_of(&state));
            for result in [
                recover(&dir).map(drop),
                Durability::open(&dir, FsyncPolicy::Off, 0).map(drop),
            ] {
                match result {
                    Err(DurableError::Market(err)) => {
                        assert_eq!(
                            err,
                            MarketError::RngStreams {
                                keywords: 5,
                                streams
                            }
                        )
                    }
                    other => panic!("{streams} streams: expected a refusal, got {other:?}"),
                }
            }
        }
        // The consistent state in the same place recovers.
        write_body(&dir, last_seq, &body_of(&good));
        let (back, _) = recover(&dir).unwrap().expect("state persisted");
        assert_eq!(back.capture_state().unwrap(), good);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checksum-valid `Configure` record whose market is too large to
    /// build is a typed refusal at recovery, not an allocation that aborts
    /// the process.
    #[test]
    fn an_oversized_configure_record_is_a_typed_error_at_recovery() {
        use ssa_core::{MarketError, MAX_SLOTS};
        let config = Marketplace::builder()
            .slots(2)
            .build()
            .unwrap()
            .capture_state()
            .unwrap()
            .config;
        let huge = 1usize << 40;
        for (oversized, want) in [
            (
                MarketConfigState {
                    slots: MAX_SLOTS + 1,
                    ..config.clone()
                },
                MarketError::TooManySlots(MAX_SLOTS + 1),
            ),
            (
                MarketConfigState {
                    keywords: huge,
                    ..config.clone()
                },
                MarketError::TooManyKeywords(huge),
            ),
            (
                MarketConfigState {
                    shards: huge,
                    ..config.clone()
                },
                MarketError::TooManyShards(huge),
            ),
        ] {
            let dir = temp_dir("oversized");
            let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
            dur.log_configure(&oversized).unwrap();
            drop(dur);
            for result in [
                recover(&dir).map(drop),
                Durability::open(&dir, FsyncPolicy::Off, 0).map(drop),
            ] {
                match result {
                    Err(DurableError::Market(err)) => assert_eq!(err, want),
                    other => panic!("{want:?}: expected a refusal, got {other:?}"),
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Method tag 3 was the retired parallel reduction (`rhp`, followed by
    /// a `u32` thread count): reserved, never reassigned. A snapshot or a
    /// `Configure` record carrying it passes its checksum, so recovery
    /// refuses it as corruption — it neither skips it as crash damage nor
    /// panics.
    #[test]
    fn the_retired_method_tag_is_corruption_in_a_snapshot_and_in_the_log() {
        let state = Marketplace::builder()
            .slots(1)
            .keywords(1)
            .build()
            .unwrap()
            .capture_state()
            .unwrap();
        // A configuration's method byte follows slots, keywords and seed.
        let retire = |config: &[u8]| {
            assert_eq!(config[24], 2, "rh's tag");
            [&config[..24], &[3], &2u32.to_le_bytes(), &config[25..]].concat()
        };
        let expect_corrupt = |dir: &Path, what: &str| match recover(dir) {
            Err(DurableError::Corrupt(msg)) => {
                assert!(msg.contains("unknown method tag 0x03"), "{what}: {msg}")
            }
            other => panic!("{what}: expected a refusal, got {other:?}"),
        };

        // A `Configure` operation body is its tag, then the configuration.
        let mut op = Vec::new();
        MutationRecord::Configure(state.config.clone()).encode_into(&mut op);
        let retired = [&op[..1], &retire(&op[1..])].concat();

        // A snapshot body opens with that record behind its `u32` length.
        let dir = temp_dir("retired-snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        let rest = &body_of(&state)[4 + op.len()..];
        let length = (retired.len() as u32).to_le_bytes();
        write_body(&dir, 1, &[&length[..], &retired, rest].concat());
        expect_corrupt(&dir, "snapshot");
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = temp_dir("retired-configure");
        std::fs::create_dir_all(&dir).unwrap();
        drop(wal::WalWriter::create(&dir, 1).unwrap());
        // A frame is payload_len, crc32, then the payload: seq and the
        // operation body.
        let payload = [&1u64.to_le_bytes()[..], &retired].concat();
        let frame = [
            &(payload.len() as u32).to_le_bytes()[..],
            &crate::codec::crc32(&payload).to_le_bytes(),
            &payload,
        ]
        .concat();
        let segment = wal::segment_path(&dir, 1);
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes.extend_from_slice(&frame);
        std::fs::write(&segment, bytes).unwrap();
        expect_corrupt(&dir, "configure record");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
