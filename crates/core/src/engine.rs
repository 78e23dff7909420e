//! The keyword engine: program evaluation → winner determination → user
//! action → pricing, per Section I-B's six-step flow, for one keyword of a
//! [`Marketplace`](crate::Marketplace).
//!
//! Each keyword book of a market holds one engine, built empty by the
//! keyword's first campaign and grown in place by every later one; its
//! bidders are the campaigns. The market hands every run its click table,
//! the auction's global time and the keyword's RNG stream, and reads the
//! outcome in place. The engine owns its solver and preallocated weight,
//! assignment and charge buffers; each auction updates them in place, so a
//! run performs **no per-auction allocation** after warm-up, and a batch
//! aggregates into a [`BatchReport`].
//!
//! # Evaluate only what changed
//!
//! The engine does work per auction in proportion to what can have changed
//! since the last one, and holds a table only for what it cannot re-derive:
//!
//! * a **standing** campaign (per-click or a fixed table) is read, never
//!   asked or told an outcome: the engine keeps no copy of its table. A
//!   write through the market's update API keeps the table from before the
//!   first write since the last auction for the next one to compare.
//! * a **program** is asked at every auction and told every outcome; a
//!   targeted campaign is evaluated at every auction too, since the query
//!   decides whether it bids. The engine holds the last table of just these
//!   rows and compares each evaluation with it.
//!
//! Either way a write that leaves a table equal dirties nothing. With
//! [`EngineConfig::warm_start`] only the changed rows' weights are
//! recomputed, and an auction in which no table changed skips the solve
//! outright. Every auction is instrumented with per-phase wall-clock
//! tallies and exact cost counters ([`PhaseStats`]).
//!
//! # Solve and price from per-slot order
//!
//! Section III-E needs, of all `n` bidders, each slot's top `k`; GSP needs
//! one more, the best row an assignment of `k` left out. With method `rh`
//! under GSP or pay-your-bid pricing — the default, pruned or not — the
//! engine therefore holds **no `n × k` revenue matrix**. It keeps a
//! [`RetainedOrder`]: per slot, the best `k + 1` to `2(k + 1)` rows under
//! the solver's own ranking, and a floor no unlisted row ranks above. A
//! changed row's `k` weights are recomputed from its table
//! ([`row_weights_into`]) and the row re-ranked; an unlisted row that stays
//! under the floor costs one compare per slot. The reduced graph is the
//! union of the lists' top `k` — exactly
//! [`ssa_matching::reduced_candidates`] of the matrix that is not there —
//! its weights are kept from the previous solve for rows that were
//! candidates then and evaluated for the newcomers, and
//! [`ReducedSolver::solve_candidates`] runs the Hungarian step on it. GSP
//! reads each slot's runner-up off the slot's list, and who sits where off
//! a 2-byte slot index per row. Assignments, charges and expected revenues
//! are bit-identical to solving and pricing on the dense matrix
//! ([`ReducedSolver`]'s [`WdSolver::solve`] and [`gsp_prices_into`], which
//! remain as the oracles).
//!
//! Rows leaving a list shorten it. When a list with unlisted rows behind it
//! drops below `k + 1`, the order is rebuilt by streaming every row through
//! it — a **rescan**, `n × k` weight evaluations, counted in
//! [`PhaseStats::rescans`]. A rebuild refills every list to `2(k + 1)`, so
//! at least `k + 1` writes must each take a row off one list between two
//! rescans. The same rebuild is the cold start, follows a new campaign,
//! and runs at every auction when `warm_start` is off.
//!
//! Configurations that read whole columns keep the dense matrix: `h` and
//! `lp` solve on all `n` rows, and VCG re-solves the market without each
//! winner; there [`EngineConfig::pruned`] wraps the solver in one that
//! keeps every weight tie at a column's floor. The configuration is fixed
//! when the engine is built, and so is the weight source it asks for.

use crate::bidder::{BidderOutcome, QueryContext};
use crate::footprint::{Accountant, Component, HeapUse};
use crate::marketplace::Campaign;
use crate::pricing::{
    gsp_prices_from_order_into, gsp_prices_into, vcg_prices, PricingScheme, SlotPrice,
};
use crate::prob::{ClickRowId, ClickRows, ClickTable, PurchaseModel};
use crate::revenue::{row_weights_into, NoSlotValues};
use rand::Rng;
use ssa_bidlang::targeting::UserAttrs;
use ssa_bidlang::{AdvertiserView, BidsTable, Money, SlotId};
use ssa_matching::{
    Assignment, HungarianSolver, PrunedSolver, ReducedSolver, RetainedOrder, RevenueMatrix,
    WdSolver,
};
use ssa_simplex::NetworkSimplexSolver;
use std::borrow::Cow;
use std::time::Instant;

/// A query as the engine sees it: a keyword plus typed user attributes.
/// The market passes its `QueryRequest`s and a `ServeBatch` record's
/// queries by reference, so no query is cloned on the hot path.
pub(crate) trait EngineQuery {
    /// The keyword index queried.
    fn keyword(&self) -> usize;
    /// The typed user attributes targeting expressions evaluate against.
    fn attrs(&self) -> &UserAttrs;
}

/// A `ServeBatch` record's query, served straight off the record.
impl EngineQuery for (u64, UserAttrs) {
    fn keyword(&self) -> usize {
        self.0 as usize
    }

    fn attrs(&self) -> &UserAttrs {
        &self.1
    }
}

/// Which winner-determination algorithm the engine runs (the methods of
/// Section V, minus the program-evaluation reductions which live in the
/// workload harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WdMethod {
    /// Method LP: the winner-determination linear program solved with the
    /// (network) simplex method.
    Lp,
    /// Method H: the Hungarian algorithm on the full bipartite graph.
    Hungarian,
    /// Method RH: the Section III-E reduced bipartite graph.
    Reduced,
}

impl WdMethod {
    /// Constructs the reusable [`WdSolver`] implementing this method. The
    /// returned solver owns its scratch buffers; keep it alive across
    /// auctions to amortise allocation.
    pub fn new_solver(self) -> Box<dyn WdSolver> {
        match self {
            WdMethod::Lp => Box::new(NetworkSimplexSolver::new()),
            WdMethod::Hungarian => Box::new(HungarianSolver::new()),
            WdMethod::Reduced => Box::new(ReducedSolver::new()),
        }
    }
}

impl std::fmt::Display for WdMethod {
    /// The CLI names: `lp`, `h` and `rh`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WdMethod::Lp => "lp",
            WdMethod::Hungarian => "h",
            WdMethod::Reduced => "rh",
        })
    }
}

/// Error returned when parsing a [`WdMethod`] from its CLI name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseMethodError {
    /// The name matched none of `lp`, `h`, `rh`; carries the name as the
    /// caller spelled it.
    UnknownMethod(String),
}

impl std::fmt::Display for ParseMethodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ParseMethodError::UnknownMethod(name) = self;
        write!(
            f,
            "unknown winner-determination method {name:?} (expected lp, h or rh)"
        )
    }
}

impl std::error::Error for ParseMethodError {}

impl std::str::FromStr for WdMethod {
    type Err = ParseMethodError;

    /// Parses `lp`, `h`, `rh` (or the long names `hungarian`, `reduced`),
    /// case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lp" => Ok(WdMethod::Lp),
            "h" | "hungarian" => Ok(WdMethod::Hungarian),
            "rh" | "reduced" => Ok(WdMethod::Reduced),
            _ => Err(ParseMethodError::UnknownMethod(s.to_string())),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Winner-determination algorithm.
    pub method: WdMethod,
    /// Pricing rule.
    pub pricing: PricingScheme,
    /// Wrap a dense solver (`h`, `lp`, or any method under VCG) in the
    /// Section III-E top-k [`ssa_matching::PrunedSolver`]: winner
    /// determination runs on the union of each slot's top-k bidders (ties
    /// at the floor kept), which is bit-identical to the full solve but
    /// touches `O(k²)` rather than `n` advertisers when bids are dispersed.
    /// `rh` under GSP or pay-your-bid already solves on that union, so
    /// there it changes nothing.
    pub pruned: bool,
    /// Skip the matrix refill and solve entirely when no bidder's table
    /// changed since the engine's previous auction (the previous
    /// assignment is provably identical: solvers are deterministic and
    /// draw no randomness). Exactness-preserving; on by default.
    pub warm_start: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            method: WdMethod::Reduced,
            pricing: PricingScheme::Gsp,
            pruned: false,
            warm_start: true,
        }
    }
}

/// One auction's outcome in local bidder indexes: the assignment, clicks
/// and purchases per slot, and charges.
pub(crate) type Outcome<'a> = (&'a Assignment, &'a [bool], &'a [bool], &'a [(usize, Money)]);

/// Per-phase wall-clock tallies and solve diagnostics for a batched run,
/// following the paper's Section I-B step names: program evaluation,
/// revenue-matrix fill, winner-determination solve, pricing, and settlement
/// (user-action sampling plus bidder notification). Timings are cheap
/// [`Instant`] differences taken once per phase per auction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Nanoseconds evaluating bidding programs.
    pub program_eval_ns: u64,
    /// Nanoseconds diffing bids and (re)filling the revenue matrix.
    pub matrix_fill_ns: u64,
    /// Nanoseconds in the winner-determination solver.
    pub solve_ns: u64,
    /// Nanoseconds computing charges.
    pub pricing_ns: u64,
    /// Nanoseconds sampling user actions and notifying bidders.
    pub settlement_ns: u64,
    /// Winner-determination solves actually executed.
    pub solves: u64,
    /// Auctions whose solve was skipped because no bid changed since the
    /// engine's previous auction (warm start).
    pub warm_solves: u64,
    /// Summed over executed solves: the number of advertisers the solver
    /// actually considered (`n` for unpruned full-matrix methods, the
    /// candidate-set size for pruned/reduced ones).
    pub candidates: u64,
    /// Weights computed from a bid table and the probability models: `k`
    /// per row (re)evaluated, so `n × k` for a full fill or a rescan. An
    /// exact count, not a time.
    pub cells_evaluated: u64,
    /// Times the per-slot retained order ran short and was rebuilt from
    /// every row (see the [module docs](self)); 0 on the dense path.
    pub rescans: u64,
}

impl PhaseStats {
    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: &PhaseStats) {
        self.program_eval_ns += other.program_eval_ns;
        self.matrix_fill_ns += other.matrix_fill_ns;
        self.solve_ns += other.solve_ns;
        self.pricing_ns += other.pricing_ns;
        self.settlement_ns += other.settlement_ns;
        self.solves += other.solves;
        self.warm_solves += other.warm_solves;
        self.candidates += other.candidates;
        self.cells_evaluated += other.cells_evaluated;
        self.rescans += other.rescans;
    }

    /// Total instrumented nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.program_eval_ns
            + self.matrix_fill_ns
            + self.solve_ns
            + self.pricing_ns
            + self.settlement_ns
    }

    /// Mean candidate-set size per executed solve (0 when none ran).
    pub fn avg_candidates(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.candidates as f64 / self.solves as f64
        }
    }
}

/// Aggregate outcome of a batched run: everything the serving layer needs
/// for accounting without materialising per-auction reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchReport {
    /// Auctions run.
    pub auctions: u64,
    /// Sum of winner-determination objectives (expected revenue, cents).
    pub expected_revenue: f64,
    /// Slots that received an advertiser, summed over auctions.
    pub filled_slots: u64,
    /// Realised clicks.
    pub clicks: u64,
    /// Realised purchases.
    pub purchases: u64,
    /// Total realised revenue.
    pub realized_revenue: Money,
    /// Per-phase timings and solve diagnostics. Excluded from `PartialEq`:
    /// two runs with identical auction outcomes compare equal no matter how
    /// long each phase took or which exactness-preserving shortcuts fired.
    pub phases: PhaseStats,
}

impl PartialEq for BatchReport {
    fn eq(&self, other: &Self) -> bool {
        self.auctions == other.auctions
            && self.expected_revenue == other.expected_revenue
            && self.filled_slots == other.filled_slots
            && self.clicks == other.clicks
            && self.purchases == other.purchases
            && self.realized_revenue == other.realized_revenue
    }
}

impl BatchReport {
    /// Folds another report into this one (the aggregate of two consecutive
    /// batches); used by the `Marketplace` facade to merge per-keyword
    /// chunks into a market-wide total.
    pub fn absorb(&mut self, other: &BatchReport) {
        self.auctions += other.auctions;
        self.expected_revenue += other.expected_revenue;
        self.filled_slots += other.filled_slots;
        self.clicks += other.clicks;
        self.purchases += other.purchases;
        self.realized_revenue += other.realized_revenue;
        self.phases.absorb(&other.phases);
    }
}

/// Hot-path scratch reused across batched auctions.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Rows whose table changed in the current auction's evaluation.
    changed: Vec<usize>,
    /// The weight source, `base` and `assignment` reflect the tables of the
    /// last auction, so the warm-start path may repair only the rows whose
    /// table changed, and an auction in which none did may skip the solve
    /// outright. Cleared when the bidder count grows.
    filled: bool,
    base: NoSlotValues,
    /// One row of weights, one per slot, on its way into the source.
    row: Vec<f64>,
    assignment: Assignment,
    clicked: Vec<bool>,
    purchased: Vec<bool>,
    charges: Vec<(usize, Money)>,
    prices: Vec<SlotPrice>,
    /// The inverse of `assignment`, parallel to the bidders and rewritten
    /// only where a solve moved somebody (at most `2k` entries): each row's
    /// slot index, or [`UNSEATED`]. Read through [`seat`].
    adv_to_slot: Vec<u16>,
    /// All zero between auctions: `charges` scattered for the duration of
    /// one program notification, and empty until the first one.
    price_by_adv: Vec<Money>,
    phases: PhaseStats,
}

impl BatchScratch {
    fn new(num_slots: usize) -> Self {
        BatchScratch {
            row: vec![0.0; num_slots],
            ..BatchScratch::default()
        }
    }
}

/// One keyword's auction engine: its campaigns, their click row ids and
/// purchase rows, and the solver and buffers its auctions reuse.
#[derive(Debug)]
pub(crate) struct AuctionEngine {
    /// The campaigns. Private: a standing campaign's table changes only
    /// with a write, so writes go through [`AuctionEngine::bidder_mut`].
    bidders: Vec<Campaign>,
    /// Each campaign's click row in the market's table, parallel to
    /// `bidders`.
    click_rows: Vec<ClickRowId>,
    purchases: PurchaseModel,
    /// Fixed at construction, with the weight source it asks for.
    config: EngineConfig,
    /// Keyword universe size, surfaced to programs.
    num_keywords: usize,
    source: WeightSource,
    /// Rows evaluated at every auction, ascending: programs, and targeted
    /// campaigns.
    every_auction: Vec<usize>,
    /// Parallel to `every_auction`, the only tables held ([`table_of`]).
    held: Vec<BidsTable>,
    /// Rows of programs, ascending: the bidders told every outcome.
    programs: Vec<usize>,
    /// The [`RowState::Written`] rows, each once, with its prior table.
    written: Vec<(usize, BidsTable)>,
    /// Where each campaign's table is found, parallel to `bidders`.
    rows: Vec<RowState>,
    scratch: BatchScratch,
}

/// Where the engine finds one campaign's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowState {
    /// A program, or a targeted campaign: listed in `every_auction`, its
    /// table in `held`.
    EveryAuction,
    /// A standing untargeted campaign not written to since the last
    /// auction.
    Current,
    /// A standing untargeted campaign written to since then (in `written`).
    Written,
}

/// Row `i`'s table: held if it is evaluated at every auction, else read.
fn table_of<'a>(
    bidders: &'a [Campaign],
    every_auction: &[usize],
    held: &'a [BidsTable],
    i: usize,
) -> Cow<'a, BidsTable> {
    match every_auction.binary_search(&i) {
        Ok(at) => Cow::Borrowed(&held[at]),
        Err(_) => bidders[i].standing_table().unwrap_or_default(),
    }
}

/// The solver a config asks for: the method's own solver, optionally
/// wrapped in the top-k [`PrunedSolver`].
fn build_solver(config: EngineConfig) -> Box<dyn WdSolver> {
    if config.pruned {
        Box::new(PrunedSolver::new(config.method.new_solver()))
    } else {
        config.method.new_solver()
    }
}

/// Where winner determination and pricing read their weights from.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per engine, and the large variant is the default
enum WeightSource {
    /// `rh` under GSP or pay-your-bid, pruned or not — the default: no
    /// matrix. Each slot's best rows are kept current from the rows that
    /// changed, the reduced graph is read off them, and GSP finds its
    /// runner-up there too.
    Lists {
        order: RetainedOrder,
        solver: ReducedSolver,
        /// The reduced graph's rows at the latest solve, ascending.
        candidates: Vec<usize>,
    },
    /// Every configuration that reads whole columns: `h` and `lp` solve on
    /// all `n` rows, and VCG re-solves the market without each winner. The
    /// `n × k` matrix exists only in an engine built with one of these.
    Dense {
        matrix: RevenueMatrix,
        solver: Box<dyn WdSolver>,
    },
}

impl WeightSource {
    /// An empty source of the kind `config` needs.
    fn for_config(config: EngineConfig, num_slots: usize) -> Self {
        if config.method == WdMethod::Reduced && config.pricing != PricingScheme::Vickrey {
            WeightSource::Lists {
                order: RetainedOrder::new(num_slots),
                solver: ReducedSolver::new(),
                candidates: Vec::new(),
            }
        } else {
            WeightSource::Dense {
                matrix: RevenueMatrix::zeros(0, num_slots.max(1)),
                solver: build_solver(config),
            }
        }
    }

    /// Empties the source for a rebuild from all `n` rows: the cold start,
    /// and the rescan after a list ran short.
    fn clear(&mut self, n: usize, k: usize) {
        match self {
            WeightSource::Lists { order, solver, .. } => {
                order.clear();
                solver.forget_rows();
            }
            WeightSource::Dense { matrix, .. } => matrix.reshape(n, k),
        }
    }

    /// Puts row `i`'s newly evaluated weights in.
    fn set_row(&mut self, i: usize, row: &[f64]) {
        match self {
            WeightSource::Lists { order, solver, .. } => {
                order.update(i, row);
                solver.replace_row(i, row);
            }
            WeightSource::Dense { matrix, .. } => matrix.set_row(i, row),
        }
    }
}

/// `adv_to_slot`'s entry for a row no slot seats.
const UNSEATED: u16 = u16::MAX;

/// A full campaign vector of at least `GROW_PAST` bytes grows to `GROW_TO`
/// bytes at once ([`AuctionEngine::push`]).
const GROW_PAST: usize = 16 << 10;
const GROW_TO: usize = 256 << 10;

/// The slot row `adv` holds, read off the assignment's inverse map.
fn seat(adv_to_slot: &[u16], adv: usize) -> Option<usize> {
    let slot = adv_to_slot[adv];
    (slot != UNSEATED).then_some(usize::from(slot))
}

/// One campaign's table at this auction — empty, without running it, when
/// its targeting rejects the query, else read or, for a program, asked —
/// put in `held`, the table kept from the last time. Returns whether they
/// differ.
fn evaluate(
    bidder: &mut Campaign,
    ctx: &QueryContext,
    attrs: &UserAttrs,
    held: &mut BidsTable,
) -> bool {
    let table = match bidder.standing_table().map(Cow::into_owned) {
        _ if bidder.targeting().is_some_and(|t| !t.matches(attrs)) => BidsTable::empty(),
        Some(table) => table,
        None => bidder.on_query(ctx),
    };
    let replaced = std::mem::replace(held, table);
    replaced != *held
}

impl AuctionEngine {
    /// An engine over `num_slots` slots with no campaigns yet. The market
    /// bounds the slots by [`crate::MAX_SLOTS`], so a slot index fits the
    /// 2 bytes `adv_to_slot` keeps.
    pub(crate) fn new(num_slots: usize, num_keywords: usize, config: EngineConfig) -> Self {
        AuctionEngine {
            bidders: Vec::new(),
            click_rows: Vec::new(),
            purchases: PurchaseModel::never(0, num_slots),
            config,
            num_keywords,
            source: WeightSource::for_config(config, num_slots),
            every_auction: Vec::new(),
            held: Vec::new(),
            programs: Vec::new(),
            written: Vec::new(),
            rows: Vec::new(),
            scratch: BatchScratch::new(num_slots),
        }
    }

    /// Adds a campaign (it becomes row [`AuctionEngine::bidders`]`.len()`)
    /// whose click probabilities are row `click_row` of the market's table,
    /// with its per-slot purchase probabilities (`None`: it never
    /// purchases). Nothing is rebuilt until the next auction, which lays
    /// the weight source out for the new campaign count and solves.
    ///
    /// A full campaign vector of [`GROW_PAST`] bytes or more jumps to
    /// [`GROW_TO`] rather than doubling: every doubling leaves the buffer
    /// it outgrew resident, while capacity no campaign reaches is never
    /// touched, wherever the allocator places the buffer.
    pub(crate) fn push(
        &mut self,
        bidder: Campaign,
        click_row: ClickRowId,
        purchase_probs: Option<&[(f64, f64)]>,
    ) {
        let row = self.bidders.len();
        self.click_rows.push(click_row);
        match purchase_probs {
            Some(probs) => self.purchases.push_row(probs),
            None => self.purchases.push_never(),
        }
        let record = std::mem::size_of::<Campaign>();
        if row == self.bidders.capacity() && (GROW_PAST..GROW_TO).contains(&(row * record)) {
            self.bidders.reserve_exact(GROW_TO / record - row);
        }
        self.bidders.push(bidder);
        self.enlist(row);
        self.scratch.filled = false;
    }

    /// Gives campaign `row`, the next one without them, its per-row engine
    /// state: its place on the lists the hot step walks (with an empty held
    /// table: it has not been evaluated yet).
    fn enlist(&mut self, row: usize) {
        debug_assert_eq!(row, self.rows.len());
        let bidder = &self.bidders[row];
        let standing = bidder.standing_table().is_some();
        if !standing {
            self.programs.push(row);
        }
        if !standing || bidder.targeting().is_some() {
            self.every_auction.push(row);
            self.held.push(BidsTable::empty());
            self.rows.push(RowState::EveryAuction);
        } else {
            self.rows.push(RowState::Current);
        }
        self.scratch.adv_to_slot.push(UNSEATED);
    }

    /// The campaigns, in row order.
    pub(crate) fn bidders(&self) -> &[Campaign] {
        &self.bidders
    }

    /// Mutable access to one campaign — the only one there is. It keeps a
    /// standing campaign's table from before the first write since the last
    /// auction; if the next auction finds the table equal to it, that
    /// auction is as warm as if nobody had written.
    pub(crate) fn bidder_mut(&mut self, row: usize) -> &mut Campaign {
        if self.rows[row] == RowState::Current {
            self.rows[row] = RowState::Written;
            let before = self.bidders[row].standing_table().unwrap_or_default();
            self.written.push((row, before.into_owned()));
        }
        &mut self.bidders[row]
    }

    /// Campaign `row`'s click row in the market's table.
    pub(crate) fn click_row(&self, row: usize) -> ClickRowId {
        self.click_rows[row]
    }

    /// Purchase probability model (one row per campaign).
    pub(crate) fn purchases(&self) -> &PurchaseModel {
        &self.purchases
    }

    /// Enters the engine's heap in `ledger`: its campaign vector (not what
    /// the campaigns point to), click row ids, purchase model, weight
    /// source, scratch and row lists.
    pub(crate) fn account(&self, ledger: &mut Accountant) {
        ledger.add(Component::CampaignRecords, HeapUse::of_vec(&self.bidders));
        ledger.add(Component::ClickRowIds, HeapUse::of_vec(&self.click_rows));
        self.purchases.account(ledger);
        match &self.source {
            WeightSource::Lists {
                order,
                solver,
                candidates,
            } => {
                ledger.add(Component::RetainedOrder, order.heap_use());
                ledger.add(
                    Component::Solver,
                    solver.heap_use() + HeapUse::of_vec(candidates),
                );
            }
            WeightSource::Dense { matrix, .. } => {
                ledger.add(Component::Solver, matrix.heap_use());
            }
        }
        let scratch = &self.scratch;
        ledger.add(Component::NoSlotBase, HeapUse::of_vec(&scratch.base.base));
        let batch = HeapUse::of_vec(&scratch.changed)
            + HeapUse::of_vec(&scratch.row)
            + HeapUse::of_vec(&scratch.assignment.slot_to_adv)
            + HeapUse::of_vec(&scratch.clicked)
            + HeapUse::of_vec(&scratch.purchased)
            + HeapUse::of_vec(&scratch.charges)
            + HeapUse::of_vec(&scratch.prices)
            + HeapUse::of_vec(&scratch.adv_to_slot)
            + HeapUse::of_vec(&scratch.price_by_adv);
        ledger.add(Component::BatchScratch, batch);
        let rows = HeapUse::of_vec(&self.rows)
            + HeapUse::of_vec(&self.every_auction)
            + HeapUse::of_vec(&self.programs);
        ledger.add(Component::RowLists, rows);
        let held = HeapUse::of_vec(&self.held) + HeapUse::of_vec(&self.written);
        ledger.add(Component::HeldTables, held);
    }

    /// The last auction [`AuctionEngine::hot_step`] ran, read in place.
    pub(crate) fn outcome(&self) -> Outcome<'_> {
        let s = &self.scratch;
        (&s.assignment, &s.clicked, &s.purchased, &s.charges)
    }

    /// Runs one auction, the one with global time `time`, entirely inside
    /// the persistent scratch buffers, reading click rows from `table`, the
    /// market's. Returns the auction's expected revenue; all other outcomes
    /// are left in `self.scratch` for the caller to aggregate or read
    /// through [`AuctionEngine::outcome`].
    pub(crate) fn hot_step<R: Rng>(
        &mut self,
        table: &ClickTable,
        time: u64,
        keyword: usize,
        attrs: &UserAttrs,
        rng: &mut R,
    ) -> f64 {
        let ctx = QueryContext {
            time,
            keyword,
            num_keywords: self.num_keywords,
        };

        // Step 3: program evaluation, of the rows that can have changed.
        // Programs and targeted campaigns are visited at every auction (a
        // campaign whose targeting rejects the query's attributes is not
        // run: its empty table makes it an EXCLUDED row for winner
        // determination, the same mechanism paused campaigns use); a
        // written standing campaign's table is compared with the one it had
        // before the write. No other table can have changed.
        let t_eval = Instant::now();
        self.scratch.changed.clear();
        for (&i, held) in self.every_auction.iter().zip(&mut self.held) {
            if evaluate(&mut self.bidders[i], &ctx, attrs, held) {
                self.scratch.changed.push(i);
            }
        }
        for (i, before) in self.written.drain(..) {
            self.rows[i] = RowState::Current;
            if *self.bidders[i].standing_table().unwrap_or_default() != before {
                self.scratch.changed.push(i);
            }
        }
        let t_fill = Instant::now();
        self.scratch.phases.program_eval_ns += (t_fill - t_eval).as_nanos() as u64;

        // Step 4a: weights. With warm starts enabled and a source that
        // reflects the last auction's tables, repair only the rows whose
        // table changed (step 3 looked only at programs, targeted and
        // written rows); the repair, plus an in-order base re-sum when a
        // base value moved, is bit-identical to a rebuild from every row.
        let warm = self.config.warm_start;
        let (n, k) = (self.bidders.len(), table.num_slots());
        let repair = warm && self.scratch.filled;
        let unchanged = repair && self.scratch.changed.is_empty();
        let evaluated = if repair {
            self.scratch.changed.len()
        } else {
            n
        };
        self.scratch.phases.cells_evaluated += (evaluated * k) as u64;
        let clicks = table.rows(&self.click_rows);
        let (purchases, row) = (&self.purchases, &mut self.scratch.row);
        if repair {
            let mut resum = false;
            for &i in &self.scratch.changed {
                let table = table_of(&self.bidders, &self.every_auction, &self.held, i);
                let base = row_weights_into(&table, i, clicks, purchases, row);
                resum |= self.scratch.base.set(i, base);
                self.source.set_row(i, row);
            }
            if resum {
                self.scratch.base.resum();
            }
        }
        // A list that ran short is rebuilt from every row — the time the
        // matrix used to buy, paid only when it is needed.
        let rescan = repair
            && matches!(&self.source, WeightSource::Lists { order, .. } if order.underflowed());
        if rescan {
            self.scratch.phases.rescans += 1;
            self.scratch.phases.cells_evaluated += (n * k) as u64;
        }
        if rescan || !repair {
            self.source.clear(n, k);
            let base = &mut self.scratch.base;
            base.base.clear();
            base.base.reserve_exact(n);
            for i in 0..n {
                let table = table_of(&self.bidders, &self.every_auction, &self.held, i);
                base.base
                    .push(row_weights_into(&table, i, clicks, purchases, row));
                self.source.set_row(i, row);
            }
            base.resum();
        }
        self.scratch.filled = true;
        let t_solve = Instant::now();
        self.scratch.phases.matrix_fill_ns += (t_solve - t_fill).as_nanos() as u64;

        // Step 4b: winner determination. Unchanged weights need no solve:
        // solvers are deterministic functions of the weights and draw no
        // randomness, so the retained assignment is exactly what a fresh
        // solve would produce.
        let mut laying_ns = 0;
        if unchanged {
            self.scratch.phases.warm_solves += 1;
        } else {
            // `adv_to_slot` follows the assignment: forget the seats the
            // solve is about to take away, then record the ones it gives.
            for adv in self.scratch.assignment.slot_to_adv.iter().flatten() {
                self.scratch.adv_to_slot[*adv] = UNSEATED;
            }
            let considered = match &mut self.source {
                WeightSource::Lists {
                    order,
                    solver,
                    candidates,
                } => {
                    order.candidates_into(candidates);
                    // Laying the reduced graph out evaluates the rows that
                    // were not candidates a solve ago: matrix-fill work.
                    let t_lay = Instant::now();
                    let asked = solver.load_candidates(k, candidates, |i, row| {
                        let table = table_of(&self.bidders, &self.every_auction, &self.held, i);
                        row_weights_into(&table, i, clicks, &self.purchases, row);
                    });
                    self.scratch.phases.cells_evaluated += (asked * k) as u64;
                    laying_ns = t_lay.elapsed().as_nanos() as u64;
                    solver.solve_candidates(&mut self.scratch.assignment);
                    candidates.len()
                }
                WeightSource::Dense { matrix, solver } => {
                    solver.solve(matrix, &mut self.scratch.assignment);
                    solver
                        .last_candidates()
                        .unwrap_or_else(|| matrix.num_advertisers())
                }
            };
            for (j, adv) in self.scratch.assignment.slot_to_adv.iter().enumerate() {
                if let Some(i) = adv {
                    // Below `UNSEATED`: the market bounds the slots.
                    self.scratch.adv_to_slot[*i] = j as u16;
                }
            }
            self.scratch.phases.solves += 1;
            self.scratch.phases.candidates += considered as u64;
        }
        let expected_revenue = self.scratch.base.total_base + self.scratch.assignment.total_weight;
        let t_action = Instant::now();
        self.scratch.phases.matrix_fill_ns += laying_ns;
        self.scratch.phases.solve_ns += (t_action - t_solve).as_nanos() as u64 - laying_ns;

        // Step 5: user action.
        self.scratch.clicked.clear();
        self.scratch.clicked.resize(k, false);
        self.scratch.purchased.clear();
        self.scratch.purchased.resize(k, false);
        for (j, adv) in self.scratch.assignment.slot_to_adv.iter().enumerate() {
            let Some(adv) = *adv else { continue };
            let slot = SlotId::from_index0(j);
            let clicked = rng.gen::<f64>() < clicks.p_click(adv, slot);
            self.scratch.clicked[j] = clicked;
            // A zero-probability purchase draws nothing.
            let p_buy = self.purchases.p_purchase(adv, slot, clicked);
            self.scratch.purchased[j] = p_buy > 0.0 && rng.gen::<f64>() < p_buy;
        }

        let t_pricing = Instant::now();
        self.scratch.phases.settlement_ns += (t_pricing - t_action).as_nanos() as u64;

        // Step 6: pricing into the reused charge/price buffers.
        compute_charges_into(
            self.config.pricing,
            clicks,
            (0..n).map(|i| table_of(&self.bidders, &self.every_auction, &self.held, i)),
            &self.source,
            &self.scratch.assignment,
            &self.scratch.adv_to_slot,
            &self.scratch.clicked,
            &self.scratch.purchased,
            &mut self.scratch.prices,
            &mut self.scratch.charges,
        );
        let t_notify = Instant::now();
        self.scratch.phases.pricing_ns += (t_notify - t_pricing).as_nanos() as u64;

        // Notify the programs (standing campaigns do not listen).
        notify_programs(
            &mut self.bidders,
            &self.programs,
            &ctx,
            &self.scratch.adv_to_slot,
            &self.scratch.clicked,
            &self.scratch.purchased,
            &self.scratch.charges,
            &mut self.scratch.price_by_adv,
        );
        self.scratch.phases.settlement_ns += t_notify.elapsed().as_nanos() as u64;

        expected_revenue
    }

    /// Runs one auction per query in `queries` through the persistent
    /// pipeline, with global times from `start_time + 1` on, reading click
    /// rows from `table`, and aggregates the outcomes. Performs no
    /// per-auction revenue-matrix (or solver-scratch) allocation after
    /// warm-up, and never clones a query: attributes are read through
    /// [`EngineQuery::attrs`] by reference.
    pub(crate) fn run_batch<Q: EngineQuery, R: Rng>(
        &mut self,
        table: &ClickTable,
        queries: &[Q],
        start_time: u64,
        rng: &mut R,
    ) -> BatchReport {
        self.scratch.phases = PhaseStats::default();
        let mut report = BatchReport::default();
        for (time, query) in (start_time + 1..).zip(queries) {
            let expected = self.hot_step(table, time, query.keyword(), query.attrs(), rng);
            report.auctions += 1;
            report.expected_revenue += expected;
            report.filled_slots += self.scratch.assignment.num_assigned() as u64;
            report.clicks += self.scratch.clicked.iter().filter(|c| **c).count() as u64;
            report.purchases += self.scratch.purchased.iter().filter(|p| **p).count() as u64;
            report.realized_revenue += self.scratch.charges.iter().map(|(_, m)| *m).sum();
        }
        report.phases = self.scratch.phases;
        report
    }
}

/// Notifies every program (the rows in `programs`) of its slot, click,
/// purchase, and charge. `price_by_adv` is an all-zero scratch, sized to
/// the bidders here, that holds `charges` scattered for the duration of the
/// call, so the per-program lookup is O(1) rather than a scan of the charge
/// list (which under pay-your-bid pricing can cover every advertiser).
#[allow(clippy::too_many_arguments)] // the auction facts plus one scratch
fn notify_programs(
    bidders: &mut [Campaign],
    programs: &[usize],
    ctx: &QueryContext,
    adv_to_slot: &[u16],
    clicked: &[bool],
    purchased: &[bool],
    charges: &[(usize, Money)],
    price_by_adv: &mut Vec<Money>,
) {
    if programs.is_empty() {
        return;
    }
    price_by_adv.resize(bidders.len(), Money::ZERO);
    for &(adv, m) in charges {
        price_by_adv[adv] = m;
    }
    for &i in programs {
        let slot = seat(adv_to_slot, i);
        let (c, p) = match slot {
            Some(j) => (clicked[j], purchased[j]),
            None => (false, false),
        };
        bidders[i].on_outcome(
            ctx,
            &BidderOutcome {
                slot: slot.map(SlotId::from_index0),
                clicked: c,
                purchased: p,
                price: price_by_adv[i],
            },
        );
    }
    for &(adv, _) in charges {
        price_by_adv[adv] = Money::ZERO;
    }
}

/// Computes the per-advertiser charges for one auction into `out` (cleared
/// first). Pay-your-bid reads every row's `tables`; `adv_to_slot` is the
/// assignment's inverse map and `prices` a scratch for GSP slot prices.
// Invariants: GSP on the lists prices winners, and every winner is a
// candidate of the reduced graph it was seated from; an engine priced by
// VCG is laid out dense (`WeightSource::for_config`).
#[allow(clippy::too_many_arguments)] // the auction facts plus two sinks
#[allow(clippy::expect_used, clippy::unreachable)]
fn compute_charges_into<'a>(
    pricing: PricingScheme,
    clicks: ClickRows<'_>,
    tables: impl Iterator<Item = Cow<'a, BidsTable>>,
    source: &WeightSource,
    assignment: &Assignment,
    adv_to_slot: &[u16],
    clicked: &[bool],
    purchased: &[bool],
    prices: &mut Vec<SlotPrice>,
    out: &mut Vec<(usize, Money)>,
) {
    out.clear();
    let seated = |adv| seat(adv_to_slot, adv).is_some();
    match pricing {
        PricingScheme::PayYourBid => {
            // Everyone pays their realised OR-bid (unplaced advertisers
            // can owe money on negated-slot formulas).
            out.extend(tables.enumerate().filter_map(|(i, table)| {
                let view = match seat(adv_to_slot, i) {
                    Some(j) => AdvertiserView {
                        slot: Some(SlotId::from_index0(j)),
                        clicked: clicked[j],
                        purchased: purchased[j],
                        heavy_pattern: None,
                    },
                    None => AdvertiserView::unplaced(),
                };
                let owed = table.payment(&view);
                owed.is_positive().then_some((i, owed))
            }));
        }
        PricingScheme::Gsp => {
            let p_click = |adv, slot| clicks.p_click(adv, SlotId::from_index0(slot));
            match source {
                WeightSource::Lists { order, solver, .. } => gsp_prices_from_order_into(
                    order,
                    &|winner, slot| {
                        solver
                            .candidate_weight(winner, slot)
                            .expect("a winner is a candidate")
                    },
                    assignment,
                    seated,
                    &p_click,
                    prices,
                ),
                WeightSource::Dense { matrix, .. } => {
                    gsp_prices_into(matrix, assignment, seated, &p_click, prices)
                }
            }
            out.extend(
                prices
                    .iter()
                    .filter(|p| clicked[p.slot])
                    .map(|p| (p.winner, Money::from_f64_rounded(p.amount)))
                    .filter(|(_, m)| m.is_positive()),
            );
        }
        PricingScheme::Vickrey => {
            let WeightSource::Dense { matrix, .. } = source else {
                unreachable!("a source laid out for VCG is dense");
            };
            out.extend(
                vcg_prices(matrix, assignment)
                    .into_iter()
                    .map(|p| (p.winner, Money::from_f64_rounded(p.amount)))
                    .filter(|(_, m)| m.is_positive()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marketplace::{CampaignSpec, Marketplace, QueryRequest};
    use ssa_bidlang::{BidsTable, Formula};

    /// A one-keyword market over two slots with three per-click campaigns
    /// (10¢, 20¢ and 5¢) whose click probabilities fall with row and slot.
    fn basic_market(method: WdMethod, pricing: PricingScheme, seed: u64) -> Marketplace {
        let mut market = Marketplace::builder()
            .slots(2)
            .keywords(1)
            .seed(seed)
            .method(method)
            .pricing(pricing)
            .build()
            .expect("valid configuration");
        let advertiser = market.register_advertiser("a");
        for (i, cents) in [10, 20, 5].into_iter().enumerate() {
            let probs = (0..2).map(|j| 0.8 / (i + 1) as f64 / (j + 1) as f64);
            let spec =
                CampaignSpec::per_click(Money::from_cents(cents)).click_probs(probs.collect());
            market.add_campaign(advertiser, 0, spec).expect("accepted");
        }
        market
    }

    fn serve(market: &mut Marketplace) -> crate::AuctionResponse {
        market
            .serve(QueryRequest::new(0))
            .expect("keyword 0 exists")
    }

    #[test]
    fn all_methods_agree_on_expected_revenue() {
        let mut reference = None;
        for method in [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced] {
            let mut market = basic_market(method, PricingScheme::PayYourBid, 42);
            let response = serve(&mut market);
            match reference {
                None => reference = Some(response.expected_revenue),
                Some(r) => assert!(
                    (response.expected_revenue - r).abs() < 1e-9,
                    "{method:?} disagrees: {} vs {r}",
                    response.expected_revenue
                ),
            }
        }
    }

    #[test]
    fn realized_gsp_revenue_only_on_clicks() {
        let mut market = basic_market(WdMethod::Reduced, PricingScheme::Gsp, 7);
        let mut clicked_total = 0usize;
        let mut charged_total = 0usize;
        for _ in 0..200 {
            let response = serve(&mut market);
            clicked_total += response.placements.iter().filter(|p| p.clicked).count();
            charged_total += response.charges.len();
            for (_, m) in &response.charges {
                assert!(m.is_positive());
            }
        }
        assert!(charged_total <= clicked_total);
        assert!(charged_total > 0, "some clicks must have been charged");
    }

    #[test]
    fn time_advances_and_bidders_notified() {
        let mut market = basic_market(WdMethod::Hungarian, PricingScheme::Vickrey, 3);
        assert_eq!(market.now(), 0);
        serve(&mut market);
        serve(&mut market);
        assert_eq!(market.now(), 2);
    }

    #[test]
    fn clock_advances_consistently_across_single_and_batched_runs() {
        let mut market = basic_market(WdMethod::Reduced, PricingScheme::Gsp, 8);
        serve(&mut market);
        let queries = [0, 0, 0].map(QueryRequest::new);
        let report = market.serve_batch(&queries).expect("keyword 0 exists");
        assert_eq!(report.total.auctions, 3);
        assert_eq!(market.now(), 4);
        serve(&mut market);
        serve(&mut market);
        assert_eq!(market.now(), 6);
    }

    #[test]
    fn batch_matches_looped_run_auction() {
        // Identical RNG streams ⇒ the aggregated batch must equal the sum
        // of per-query responses, for every method and pricing scheme.
        for method in [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced] {
            for pricing in [
                PricingScheme::PayYourBid,
                PricingScheme::Gsp,
                PricingScheme::Vickrey,
            ] {
                let mut one_by_one = basic_market(method, pricing, 99);
                let mut expected = BatchReport::default();
                for _ in 0..40 {
                    let r = serve(&mut one_by_one);
                    expected.auctions += 1;
                    expected.expected_revenue += r.expected_revenue;
                    expected.filled_slots += r.placements.len() as u64;
                    expected.clicks += r.placements.iter().filter(|p| p.clicked).count() as u64;
                    expected.purchases +=
                        r.placements.iter().filter(|p| p.purchased).count() as u64;
                    expected.realized_revenue += r.realized_revenue;
                }

                let mut batched = basic_market(method, pricing, 99);
                let queries: Vec<QueryRequest> = (0..40).map(|_| QueryRequest::new(0)).collect();
                let got = batched
                    .serve_batch(&queries)
                    .expect("keyword 0 exists")
                    .total;
                assert!(
                    (got.expected_revenue - expected.expected_revenue).abs() < 1e-6,
                    "{method:?}/{pricing:?}"
                );
                assert_eq!(
                    BatchReport {
                        expected_revenue: expected.expected_revenue,
                        ..got
                    },
                    expected,
                    "{method:?}/{pricing:?}"
                );
            }
        }
    }

    #[test]
    fn wd_method_display_round_trips() {
        for method in [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced] {
            assert_eq!(method.to_string().parse::<WdMethod>(), Ok(method));
        }
        assert_eq!("Hungarian".parse(), Ok(WdMethod::Hungarian));
        assert_eq!(
            "simplex".parse::<WdMethod>(),
            Err(ParseMethodError::UnknownMethod("simplex".into()))
        );
    }

    #[test]
    fn parse_method_error_is_a_std_error() {
        let err: Box<dyn std::error::Error> =
            Box::new("nope".parse::<WdMethod>().expect_err("must fail"));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn parse_method_error_reports_the_name_as_typed() {
        for typed in ["FOO", "Simplex", "RH:2"] {
            assert_eq!(
                typed.parse::<WdMethod>(),
                Err(ParseMethodError::UnknownMethod(typed.into()))
            );
        }
        assert!("FOO"
            .parse::<WdMethod>()
            .unwrap_err()
            .to_string()
            .contains("\"FOO\""));
    }

    #[test]
    fn pay_your_bid_charges_unplaced_negated_slot_bids() {
        // An advertiser bidding on "not displayed" owes money when losing.
        let mut market = Marketplace::builder()
            .slots(1)
            .keywords(1)
            .seed(1)
            .method(WdMethod::Hungarian)
            .pricing(PricingScheme::PayYourBid)
            .default_click_probs(vec![1.0])
            .build()
            .expect("valid configuration");
        let advertiser = market.register_advertiser("a");
        let brand = BidsTable::new(vec![(Formula::no_slot(1), Money::from_cents(3))]);
        let brand = market
            .add_campaign(advertiser, 0, CampaignSpec::table(brand))
            .expect("accepted");
        let strong = CampaignSpec::per_click(Money::from_cents(50));
        let strong = market
            .add_campaign(advertiser, 0, strong)
            .expect("accepted");
        let response = serve(&mut market);
        // The strong campaign wins the slot (expected 50 > 3); the brand
        // campaign is unplaced and owes its 3¢ "not displayed" bid.
        let shown: Vec<_> = response.placements.iter().map(|p| p.campaign).collect();
        assert_eq!(shown, vec![strong]);
        assert!(response.charges.contains(&(brand, Money::from_cents(3))));
        assert!(response.charges.contains(&(strong, Money::from_cents(50))));
        assert!((response.expected_revenue - 53.0).abs() < 1e-9);
    }
}
