//! The Section II-B population: every advertiser a *SQL bidding program*,
//! served at marketplace scale.
//!
//! This module builds the Section V advertiser population two ways —
//! selectable by [`Strategy`] — over the same [`Marketplace`]
//! configuration:
//!
//! * [`Strategy::Native`] — one keyword-local Figure 5 ROI program per
//!   (advertiser, keyword) pair, run as native Rust
//!   ([`ssa_strategy::RoiBidder`] state under the hood);
//! * [`Strategy::Sql`] — the *same* program written in the Section II-B
//!   SQL dialect and executed by [`SqlProgramBidder`] on prepared
//!   statements (parse once at registration, bind-and-run per auction),
//!   with ROI settlement done entirely inside SQL by an `Outcome`
//!   trigger, on minidb's planned executor — the one SQL executor it
//!   ships.
//!
//! The two populations are proven **bit-identical** — same reports,
//! same clicks, same charges, and same per-campaign bid trajectories —
//! through `serve_batch`, on one shard and on several (the programs
//! here are keyword-local, unlike the cross-keyword-coupled advertisers of
//! [`crate::MarketSimulation`], so shard-invariance applies).
//!
//! Campaign programs are registered behind shared handles
//! ([`ProgramHandle`]) so tests can read each program's live bid back out
//! of the marketplace; `CampaignSpec::sql_program` is the
//! move-the-program-in flavour of the same machinery.

use crate::config::SectionVWorkload;
use ssa_bidlang::BidsTable;
use ssa_core::marketplace::{CampaignSpec, MarketError, Marketplace};
use ssa_core::{Bidder, BidderOutcome, EngineConfig, QueryContext, SqlProgramBidder, WdMethod};
use ssa_minidb::{Prepared, NO_PARAMS};
use ssa_strategy::{KeywordEntry, RoiBidder};
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, MutexGuard};

/// Which implementation of the Section II-B ROI program the population
/// runs. Parsed from `native` / `sql` (the `reproduce --strategy` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Native Rust Figure 5 programs.
    Native,
    /// SQL programs on prepared statements (the production path).
    Sql,
}

impl Strategy {
    /// Every strategy, in CLI order.
    pub const ALL: [Strategy; 2] = [Strategy::Native, Strategy::Sql];
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::Native => "native",
            Strategy::Sql => "sql",
        };
        f.write_str(s)
    }
}

/// Typed error for an unrecognised [`Strategy`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError(String);

impl fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid strategy {:?}: expected one of native, sql",
            self.0
        )
    }
}

impl std::error::Error for ParseStrategyError {}

impl FromStr for Strategy {
    type Err = ParseStrategyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "native" => Ok(Strategy::Native),
            "sql" => Ok(Strategy::Sql),
            _ => Err(ParseStrategyError(s.to_string())),
        }
    }
}

// Figure 5's keyword-local texts and their parameter binder, written once
// in `ssa_core::sqlprog`.
pub use ssa_core::sqlprog::{roi_params, ROI_PROGRAM, ROI_TABLES};

// ---------------------------------------------------------------------------
// The two program flavours.
// ---------------------------------------------------------------------------

/// The native twin of the SQL program: a single-keyword Figure 5 ROI
/// strategy addressed by whatever global keyword its campaign serves. It
/// bids and settles through [`RoiBidder`]'s own [`Bidder`] impl, on its
/// keyword 0.
#[derive(Debug)]
pub struct LocalRoiProgram {
    roi: RoiBidder,
}

impl LocalRoiProgram {
    /// `value`/`bid`/`roi` as in [`KeywordEntry::new`]; `rate` is the
    /// advertiser's target spend rate.
    pub fn new(value: i64, bid: i64, roi: f64, rate: f64) -> Self {
        LocalRoiProgram {
            roi: RoiBidder::new(vec![KeywordEntry::new(value, bid, roi)], rate),
        }
    }

    /// The program's current stored bid (cents).
    pub fn current_bid(&self) -> i64 {
        self.roi.keywords[0].bid
    }
}

impl Bidder for LocalRoiProgram {
    fn on_query(&mut self, ctx: &QueryContext) -> BidsTable {
        self.roi.on_query(&QueryContext { keyword: 0, ..*ctx })
    }

    fn on_outcome(&mut self, ctx: &QueryContext, outcome: &BidderOutcome) {
        self.roi
            .on_outcome(&QueryContext { keyword: 0, ..*ctx }, outcome)
    }
}

/// The prepared flavour as the harness registers it: the Figure 5 program
/// as a [`SqlProgramBidder`], plus the harness's own prepared read of the
/// stored bid (checks read every program's bid, so that read must not parse
/// SQL text per call).
pub struct PreparedSqlProgram {
    program: SqlProgramBidder,
    read_bid: Prepared,
}

impl PreparedSqlProgram {
    /// Assembles [`ROI_TABLES`] and [`ROI_PROGRAM`] with one (advertiser,
    /// keyword) pair's initial state bound.
    // Invariant: both texts are constants that parse and fit each other
    // (this module's tests build them), and binding values cannot make a
    // well-formed program ill-formed.
    #[allow(clippy::expect_used)]
    pub fn new(value: i64, bid: i64, roi: f64, rate: f64) -> Self {
        let program =
            SqlProgramBidder::new(ROI_TABLES, ROI_PROGRAM, &roi_params(value, bid, roi, rate))
                .expect("the Figure 5 ROI program is well-formed");
        let read_bid = program
            .db()
            .prepare("SELECT bid FROM Keywords")
            .expect("static statement parses");
        PreparedSqlProgram { program, read_bid }
    }

    /// The program's current stored bid (cents).
    pub fn current_bid(&mut self) -> i64 {
        self.read_bid
            .query(self.program.db_mut(), NO_PARAMS)
            .ok()
            .and_then(|rows| rows.first().and_then(|r| r[0].as_int().ok()))
            .unwrap_or(0)
    }
}

impl Bidder for PreparedSqlProgram {
    fn on_query(&mut self, ctx: &QueryContext) -> BidsTable {
        self.program.on_query(ctx)
    }

    fn on_outcome(&mut self, ctx: &QueryContext, outcome: &BidderOutcome) {
        self.program.on_outcome(ctx, outcome)
    }
}

// ---------------------------------------------------------------------------
// Shared handles and the population builders.
// ---------------------------------------------------------------------------

/// Forwards the [`Bidder`] trait through a shared handle so the harness can
/// keep a window into a program after it moves into the marketplace (and
/// across shard threads — hence [`Mutex`], not `RefCell`). Several
/// campaigns may share one program: [`crate::MarketSimulation`] registers
/// one `SharedProgram<RoiBidder>` per (advertiser, keyword) pair over the
/// advertiser's one strategy.
pub(crate) struct SharedProgram<B>(pub(crate) Arc<Mutex<B>>);

/// Locks a shared program.
// Invariant: a lock is poisoned only by a program that panicked mid-call,
// which may have left its state half-updated; a later call on it fails
// here rather than read that state.
#[allow(clippy::expect_used)]
pub(crate) fn lock_program<B>(program: &Mutex<B>) -> MutexGuard<'_, B> {
    program.lock().expect("a shared program panicked mid-call")
}

impl<B: Bidder + Send> Bidder for SharedProgram<B> {
    fn on_query(&mut self, ctx: &QueryContext) -> BidsTable {
        lock_program(&self.0).on_query(ctx)
    }

    fn on_outcome(&mut self, ctx: &QueryContext, outcome: &BidderOutcome) {
        lock_program(&self.0).on_outcome(ctx, outcome)
    }
}

/// A live window into one registered program (indexed `advertiser *
/// num_keywords + keyword` in [`ProgrammedMarket::handles`]).
pub enum ProgramHandle {
    /// Native Rust program.
    Native(Arc<Mutex<LocalRoiProgram>>),
    /// Prepared-statement SQL program.
    Sql(Arc<Mutex<PreparedSqlProgram>>),
}

impl ProgramHandle {
    /// The program's current stored bid in cents.
    pub fn current_bid(&self) -> i64 {
        match self {
            ProgramHandle::Native(h) => lock_program(h).current_bid(),
            ProgramHandle::Sql(h) => lock_program(h).current_bid(),
        }
    }

    /// The SQL program behind the handle, locked; `None` for native
    /// programs (no database).
    fn sql(&self) -> Option<MutexGuard<'_, PreparedSqlProgram>> {
        match self {
            ProgramHandle::Native(_) => None,
            ProgramHandle::Sql(h) => Some(lock_program(h)),
        }
    }

    /// Planner counters of the program's private database, or `None` for
    /// native programs. Lets the harness assert whether SQL campaigns
    /// served auctions from index probes or full scans.
    pub fn planner_stats(&self) -> Option<ssa_minidb::PlannerStats> {
        self.sql().map(|p| p.program.planner_stats())
    }
}

impl fmt::Debug for ProgramHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self {
            ProgramHandle::Native(_) => "native",
            ProgramHandle::Sql(_) => "sql",
        };
        write!(f, "ProgramHandle({kind})")
    }
}

/// Builds one campaign program of the requested flavour, returning the
/// boxed bidder for registration plus the inspection handle.
fn make_program(
    strategy: Strategy,
    value: i64,
    bid: i64,
    roi: f64,
    rate: f64,
) -> (Box<dyn Bidder + Send>, ProgramHandle) {
    match strategy {
        Strategy::Native => {
            let h = Arc::new(Mutex::new(LocalRoiProgram::new(value, bid, roi, rate)));
            (
                Box::new(SharedProgram(Arc::clone(&h))),
                ProgramHandle::Native(h),
            )
        }
        Strategy::Sql => {
            let h = Arc::new(Mutex::new(PreparedSqlProgram::new(value, bid, roi, rate)));
            (
                Box::new(SharedProgram(Arc::clone(&h))),
                ProgramHandle::Sql(h),
            )
        }
    }
}

/// A marketplace carrying the programmed Section II-B population.
#[derive(Debug)]
pub struct ProgrammedMarket {
    /// The marketplace.
    pub market: Marketplace,
    /// One handle per campaign, indexed `advertiser * num_keywords +
    /// keyword`.
    pub handles: Vec<ProgramHandle>,
    num_keywords: usize,
}

/// Builds the programmed Section II-B population on a one-shard
/// [`Marketplace`] running `method` under GSP.
///
/// # Panics
///
/// If the workload has more slots or keywords than a marketplace holds
/// (`ssa_core::MAX_SLOTS`, `ssa_core::MAX_KEYWORDS`);
/// [`programmed_sharded_market`] returns that as a [`MarketError`].
#[allow(clippy::expect_used)] // documented above
pub fn programmed_market(
    workload: &SectionVWorkload,
    method: WdMethod,
    strategy: Strategy,
) -> ProgrammedMarket {
    let config = EngineConfig {
        method,
        ..EngineConfig::default()
    };
    programmed_sharded_market(workload, config, strategy, 1)
        .expect("Section V configuration is valid")
}

/// Builds the programmed Section II-B population on a [`Marketplace`]
/// with `shards` shards, every keyword engine built with `config`. The
/// population is defined under GSP settlement; `config.pricing` is
/// normally left at that default.
pub fn programmed_sharded_market(
    workload: &SectionVWorkload,
    config: EngineConfig,
    strategy: Strategy,
    shards: usize,
) -> Result<ProgrammedMarket, MarketError> {
    let mut market = Marketplace::builder()
        .slots(workload.config.num_slots)
        .keywords(workload.config.num_keywords)
        .method(config.method)
        .pricing(config.pricing)
        .pruned(config.pruned)
        .warm_start(config.warm_start)
        .seed(workload.config.seed ^ 0x5EC7_10B2)
        .build_sharded(shards)?;
    let mut handles = Vec::with_capacity(workload.bidders.len() * workload.config.num_keywords);
    workload.populate_with(&mut market, false, |campaign| {
        let params = &workload.bidders[campaign.advertiser];
        let (value, bid, roi) = params.keywords[campaign.keyword];
        let (program, handle) = make_program(strategy, value, bid, roi, params.target_spend_rate);
        handles.push(handle);
        CampaignSpec::program(program).click_probs(campaign.click_probs)
    })?;
    Ok(ProgrammedMarket {
        market,
        handles,
        num_keywords: workload.config.num_keywords,
    })
}

impl ProgrammedMarket {
    /// Current bid (cents) of advertiser `adv`'s program on `keyword`.
    pub fn bid_of(&self, adv: usize, keyword: usize) -> i64 {
        self.handles[adv * self.num_keywords + keyword].current_bid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SectionVConfig, SectionVWorkload};
    use ssa_core::marketplace::QueryRequest;

    fn workload() -> SectionVWorkload {
        SectionVWorkload::generate(SectionVConfig {
            num_advertisers: 16,
            num_slots: 4,
            num_keywords: 3,
            seed: 29,
        })
    }

    fn requests(workload: &SectionVWorkload, start: usize, count: usize) -> Vec<QueryRequest> {
        let stream = &workload.query_stream;
        (0..count)
            .map(|i| QueryRequest::new(stream[(start + i) % stream.len()]))
            .collect()
    }

    #[test]
    fn strategy_parses_and_displays() {
        for s in Strategy::ALL {
            assert_eq!(s.to_string().parse::<Strategy>().unwrap(), s);
        }
        assert_eq!("SQL".parse::<Strategy>().unwrap(), Strategy::Sql);
        let err = "postgres".parse::<Strategy>().unwrap_err();
        assert!(err.to_string().contains("postgres"));
    }

    /// The acceptance bar: the SQL-programmed population, driven through
    /// `Marketplace::serve_batch`, is bit-identical to the native
    /// `RoiBidder` population — reports *and* every stored bid, round
    /// after round.
    #[test]
    fn sql_population_is_bit_identical_to_native() {
        let w = workload();
        let mut native = programmed_market(&w, WdMethod::Reduced, Strategy::Native);
        let mut sql = programmed_market(&w, WdMethod::Reduced, Strategy::Sql);
        let mut served = 0;
        for round in 0..3 {
            let batch = requests(&w, served, 50);
            served += batch.len();
            let native_report = native.market.serve_batch(&batch).expect("valid keywords");
            let sql_report = sql.market.serve_batch(&batch).expect("valid keywords");
            assert_eq!(native_report, sql_report, "round {round} diverged");
            for adv in 0..w.bidders.len() {
                for kw in 0..w.config.num_keywords {
                    assert_eq!(
                        native.bid_of(adv, kw),
                        sql.bid_of(adv, kw),
                        "bid diverged at round {round}, advertiser {adv}, keyword {kw}"
                    );
                }
            }
        }
        // The population actually trades: clicks and revenue are nonzero.
        let batch = requests(&w, served, 50);
        let report = sql.market.serve_batch(&batch).expect("valid keywords");
        assert!(report.total.clicks > 0);
        assert!(report.total.expected_revenue > 0.0);
    }

    /// The same equivalence through the sharded serving layer, plus
    /// shard-invariance of the SQL population itself, with the index path
    /// taken on both sides.
    #[test]
    fn sql_population_is_bit_identical_to_native_when_sharded() {
        let w = workload();
        let mut native =
            programmed_sharded_market(&w, EngineConfig::default(), Strategy::Native, 3)
                .expect("valid");
        let mut sql = programmed_sharded_market(&w, EngineConfig::default(), Strategy::Sql, 3)
            .expect("valid");
        let mut unsharded = programmed_market(&w, WdMethod::Reduced, Strategy::Sql);
        let mut served = 0;
        for round in 0..2 {
            let batch = requests(&w, served, 40);
            served += batch.len();
            let native_report = native.market.serve_batch(&batch).expect("valid keywords");
            let sql_report = sql.market.serve_batch(&batch).expect("valid keywords");
            let unsharded_report = unsharded
                .market
                .serve_batch(&batch)
                .expect("valid keywords");
            assert_eq!(native_report, sql_report, "round {round} diverged");
            assert_eq!(
                sql_report, unsharded_report,
                "sharding changed SQL-program outcomes at round {round}"
            );
            for adv in 0..w.bidders.len() {
                for kw in 0..w.config.num_keywords {
                    assert_eq!(native.bid_of(adv, kw), sql.bid_of(adv, kw));
                    assert_eq!(sql.bid_of(adv, kw), unsharded.bid_of(adv, kw));
                }
            }
        }
        for population in [&sql, &unsharded] {
            let stats = population.handles[0].planner_stats().expect("sql program");
            assert!(stats.index_hits > 0, "expected index probes, got {stats:?}");
        }
    }
}
