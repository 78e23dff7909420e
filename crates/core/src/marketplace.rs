//! The `Marketplace`: a long-lived auction *system* rather than a
//! per-keyword engine, and the one market type of the workspace.
//!
//! The paper describes a database of expressive bids that serves a stream
//! of keyword queries and absorbs incremental bid-program updates between
//! auctions. [`Marketplace`] is that surface. It owns the build
//! configuration, the advertiser roster ([`AdvertiserHandle`]), the global
//! clock, an optional mutation journal ([`crate::journal`]), one click
//! table of every click row its campaigns use, and one *keyword book* per
//! keyword: its persistent engine+solver ([`crate::engine`]) and its own
//! user-action RNG stream. A campaign is one 16-byte record, stored once
//! as the engine's bidder: advertiser, pause flag, and a per-click bid and
//! click value in `u32` cents inline; a program is one pointer to a small
//! box of owner and program, and a targeted campaign, a fixed
//! [`BidsTable`] or a per-click campaign with an ROI target or a larger
//! amount is one pointer to a box that holds the rest. Its purchase
//! probabilities are its row of the engine's purchase model; its click
//! probabilities are a 4-byte id in the engine, naming a row of the
//! market's table, which the market passes to the engine at every run.
//! Queries are served through a typed API ([`Marketplace::serve`] /
//! [`Marketplace::serve_batch`]; the one way an auction runs) and bids are
//! changed through an incremental update API
//! ([`Marketplace::update_bid`], [`Marketplace::pause_campaign`],
//! [`Marketplace::set_roi_target`]) that rewrites the record in place and
//! marks its row written: the engine holds no table for a per-click or
//! fixed-table campaign and reads it off the record whenever it needs it.
//! [`Marketplace::current_bid`] and [`Marketplace::top_bids`] read the same
//! record. Every operation is defined once and indexes the keyword's
//! book directly.
//!
//! A market is built from one value, a [`MarketConfigState`]: its slot
//! count, keyword universe, shard count and seed, how it solves and
//! prices — method, pricing rule, pruning, warm starts — and its default
//! rows. [`Marketplace::from_config`] is the one constructor, the market
//! keeps the value as supplied ([`Marketplace::config`]), and
//! [`Marketplace::builder`] only writes one setter at a time. The
//! configuration is fixed when the market is built.
//! [`Marketplace::configure`], the journalled `Configure` operation, is the
//! one way to change it: it replaces the market with a fresh build, so a
//! recovered market replays exactly the configuration that was served.
//!
//! # Shards are a partition of the books
//!
//! Everything an auction reads or writes is keyword-local — it lives in the
//! keyword's book — and keyword `k`'s RNG stream is seeded purely from
//! `(seed, k)` ([`keyword_stream_seed`]). The auctions served on a keyword
//! therefore depend only on the sub-sequence of queries on that keyword and
//! their global clock values. A marketplace configured with `shards = n`
//! ([`MarketplaceBuilder::build_sharded`]`(n)`) uses exactly that: keywords
//! are partitioned into `n` shards by a stable hash
//! ([`crate::sharded::shard_of_keyword`]), and a [`Marketplace::serve_batch`]
//! whose stream touches more than one partition hands each partition's
//! books to its own [`std::thread::scope`] worker. Nothing else knows about
//! shards: the control plane, [`Marketplace::serve`], state capture and the
//! journal are the same code at every shard count, and
//! [`MarketplaceBuilder::build`] is `build_sharded(1)`.
//!
//! Sharding is thus an *execution* strategy, not a semantic one: winners,
//! clicks and charges are **bit-identical** at every shard count
//! (`tests/sharding.rs` holds shard counts 2, 4 and 7 to a one-shard market
//! driven query by query). One caveat: the guarantee covers campaigns whose
//! bidding state is keyword-local (per-click campaigns, fixed tables, and
//! independent programs). A custom program *shared across keywords* (e.g.
//! the Section II-C ROI strategy coupling an advertiser's keywords through
//! one spend rate) observes cross-shard event ordering and is therefore not
//! shard-invariant; keep such workloads on one shard.
//!
//! # Quickstart
//!
//! ```
//! use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
//! use ssa_bidlang::Money;
//!
//! let mut market = Marketplace::builder()
//!     .slots(2)
//!     .keywords(8)
//!     .seed(7)
//!     .default_click_probs(vec![0.6, 0.3])
//!     .build_sharded(4)
//!     .expect("valid configuration");
//! let shoes = market.register_advertiser("shoes.example");
//! let books = market.register_advertiser("books.example");
//! let c1 = market
//!     .add_campaign(shoes, 3, CampaignSpec::per_click(Money::from_cents(20)))
//!     .expect("campaign accepted");
//! market
//!     .add_campaign(books, 3, CampaignSpec::per_click(Money::from_cents(10)))
//!     .expect("campaign accepted");
//!
//! let response = market.serve(QueryRequest::new(3)).expect("keyword 3 exists");
//! assert_eq!(response.placements.len(), 2);
//!
//! // A mixed-keyword stream fans out across the shards.
//! let requests: Vec<QueryRequest> = (0..64).map(|i| QueryRequest::new(i % 8)).collect();
//! let report = market.serve_batch(&requests).expect("keywords in range");
//! assert_eq!(report.total.auctions, 64);
//!
//! // Incremental update: one write to the campaign, no engine rebuild, no
//! // other keyword touched.
//! market.update_bid(c1, Money::from_cents(5)).expect("per-click campaign");
//! assert_eq!(market.current_bid(c1).unwrap(), Money::from_cents(5));
//! ```

use crate::bidder::{Bidder, BidderOutcome, QueryContext};
use crate::engine::{AuctionEngine, BatchReport, EngineConfig, EngineQuery, WdMethod};
use crate::footprint::{self, Accountant, Component, HeapUse, Ledger};
use crate::journal::{LogRecord, MutationJournal, MutationRecord, PurchaseRow, Reply};
use crate::pricing::PricingScheme;
use crate::prob::{ClickRowId, ClickTable};
use crate::sharded::shard_of_keyword;
use crate::sqlprog::{SqlProgram, SqlProgramBidder, SqlProgramError};
use crate::state::{MarketConfigState, MarketState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssa_bidlang::targeting::{CompiledTargeting, UserAttrs};
use ssa_bidlang::{BidsTable, Money, ParseError, SlotId};
use std::borrow::Cow;
use std::collections::HashMap;
use std::num::NonZeroU64;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Handles and identifiers.
// ---------------------------------------------------------------------------

/// Opaque handle to a registered advertiser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AdvertiserHandle(usize);

impl AdvertiserHandle {
    /// Registration index of the advertiser (dense, starting at 0).
    pub fn index(self) -> usize {
        self.0
    }

    /// Reassembles a handle from a registration index.
    ///
    /// Intended for external routing layers (e.g. a wire protocol carrying
    /// advertiser references between processes); a handle naming no
    /// registered advertiser is rejected with
    /// [`MarketError::UnknownAdvertiser`] by every API taking one.
    pub fn from_index(index: usize) -> Self {
        AdvertiserHandle(index)
    }
}

/// Opaque identifier of a campaign: one bidding program on one keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId {
    keyword: usize,
    index: usize,
}

impl CampaignId {
    /// Reassembles a campaign id from its `(keyword, index)` coordinates.
    ///
    /// Intended for external routing layers (e.g. a wire protocol carrying
    /// campaign references between processes): a fabricated id that names
    /// no registered campaign is rejected with
    /// [`MarketError::UnknownCampaign`] by every API taking one, so
    /// round-tripping ids through this constructor is safe.
    pub fn from_parts(keyword: usize, index: usize) -> Self {
        CampaignId { keyword, index }
    }

    /// The keyword the campaign bids on.
    pub fn keyword(self) -> usize {
        self.keyword
    }

    /// Registration index of the campaign within its keyword (dense,
    /// starting at 0).
    pub fn index(self) -> usize {
        self.index
    }
}

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Typed error surface of the [`Marketplace`] API.
#[derive(Debug, Clone, PartialEq)]
pub enum MarketError {
    /// The handle does not name a registered advertiser, or names one
    /// past the `u32` range a campaign record holds.
    UnknownAdvertiser(AdvertiserHandle),
    /// The keyword index is outside the configured keyword universe.
    UnknownKeyword {
        /// Requested keyword index.
        keyword: usize,
        /// Size of the configured keyword universe.
        num_keywords: usize,
    },
    /// The id does not name a registered campaign.
    UnknownCampaign(CampaignId),
    /// A per-slot model vector does not match the slot count.
    ModelDimension {
        /// Slots the marketplace was built with.
        expected: usize,
        /// Length of the supplied vector.
        got: usize,
    },
    /// A probability fell outside `[0, 1]`.
    InvalidProbability(f64),
    /// A click table already holds as many rows as its 4-byte ids can
    /// name.
    ClickTableFull,
    /// The campaign supplied no click model and the marketplace was built
    /// without [`MarketplaceBuilder::default_click_probs`].
    MissingClickModel,
    /// The campaign is not per-click (it runs a custom bidding program or
    /// a fixed table), so the per-click incremental update API does not
    /// apply; pause it or re-register it instead.
    NotIncremental(CampaignId),
    /// Bids must be non-negative.
    NegativeBid(Money),
    /// ROI targets must be finite and strictly positive.
    InvalidRoiTarget(f64),
    /// A campaign's value per click must be non-negative.
    NegativeClickValue(Money),
    /// The campaign's targeting expression does not parse (syntax error or
    /// hostile nesting past the depth limit). Registration is rejected as a
    /// whole; nothing about the market changes.
    InvalidTargeting(ParseError),
    /// The campaign runs a custom bidding program or fixed table, which
    /// cannot be serialized by the durability layer; the operation was
    /// rejected because a mutation journal is attached (or a state capture
    /// was requested). Only per-click campaigns are durable.
    NotDurable(CampaignId),
    /// A marketplace needs at least one slot.
    NoSlots,
    /// A marketplace needs at least one keyword.
    NoKeywords,
    /// A sharded marketplace needs at least one shard.
    NoShards,
    /// More slots than [`MAX_SLOTS`]; carries the count asked for.
    TooManySlots(usize),
    /// More keywords than [`MAX_KEYWORDS`]; carries the count asked for.
    TooManyKeywords(usize),
    /// More shards than [`MAX_SHARDS`]; carries the count asked for.
    TooManyShards(usize),
    /// [`Marketplace::restore_positions`] was not handed exactly one RNG
    /// stream per keyword: a market restored with a stream missing would
    /// serve different clicks.
    RngStreams {
        /// The market's keywords.
        keywords: usize,
        /// RNG streams handed over.
        streams: usize,
    },
    /// [`Marketplace::restore_positions`] on a journalled market: the clock
    /// and RNG positions are not journalled, so its log would replay to
    /// different auctions.
    Journalled,
    /// [`Marketplace::apply`] answered with another kind's [`Reply`]; it never does.
    MismatchedReply,
}

impl std::fmt::Display for MarketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarketError::UnknownAdvertiser(h) => {
                write!(f, "unknown advertiser handle {:?}", h.index())
            }
            MarketError::UnknownKeyword {
                keyword,
                num_keywords,
            } => write!(
                f,
                "keyword {keyword} outside the configured universe of {num_keywords}"
            ),
            MarketError::UnknownCampaign(id) => write!(
                f,
                "unknown campaign {}/{} (keyword/index)",
                id.keyword, id.index
            ),
            MarketError::ModelDimension { expected, got } => write!(
                f,
                "per-slot model has {got} entries but the marketplace has {expected} slots"
            ),
            MarketError::InvalidProbability(p) => {
                write!(f, "probability {p} outside [0, 1]")
            }
            MarketError::ClickTableFull => {
                write!(f, "a click table holds at most {} rows", u32::MAX)
            }
            MarketError::MissingClickModel => f.write_str(
                "campaign supplied no click probabilities and no default click model is configured",
            ),
            MarketError::NotIncremental(id) => write!(
                f,
                "campaign {}/{} is not per-click; \
                 the per-click incremental update API does not apply",
                id.keyword, id.index
            ),
            MarketError::NotDurable(id) => write!(
                f,
                "campaign {}/{} runs a non-per-click program, which cannot \
                 be journalled for durability",
                id.keyword, id.index
            ),
            MarketError::NegativeBid(m) => write!(f, "bid {m} is negative"),
            MarketError::NegativeClickValue(m) => write!(f, "click value {m} is negative"),
            MarketError::InvalidRoiTarget(t) => {
                write!(f, "ROI target {t} must be finite and positive")
            }
            MarketError::InvalidTargeting(err) => {
                write!(f, "invalid targeting expression: {err}")
            }
            MarketError::NoSlots => f.write_str("a marketplace needs at least one slot"),
            MarketError::NoKeywords => f.write_str("a marketplace needs at least one keyword"),
            MarketError::NoShards => f.write_str("a sharded marketplace needs at least one shard"),
            MarketError::TooManySlots(n) => {
                write!(f, "a marketplace has at most {MAX_SLOTS} slots, not {n}")
            }
            MarketError::TooManyKeywords(n) => {
                write!(
                    f,
                    "a marketplace has at most {MAX_KEYWORDS} keywords, not {n}"
                )
            }
            MarketError::TooManyShards(n) => {
                write!(f, "a marketplace has at most {MAX_SHARDS} shards, not {n}")
            }
            MarketError::RngStreams { keywords, streams } => write!(
                f,
                "a market state carries {streams} RNG streams for {keywords} keywords"
            ),
            MarketError::Journalled => f.write_str(
                "a journalled market cannot restore its clock or RNG positions: \
                 they are not journalled, so its log would replay differently",
            ),
            MarketError::MismatchedReply => f.write_str("an operation got another kind's reply"),
        }
    }
}

impl std::error::Error for MarketError {}

// ---------------------------------------------------------------------------
// Campaign specification.
// ---------------------------------------------------------------------------

/// What a campaign bids. Built with [`CampaignSpec::per_click`],
/// [`CampaignSpec::table`], or [`CampaignSpec::program`].
enum ProgramSpec {
    /// Classical single-feature campaign: a per-click bid. Supports the
    /// whole incremental update API.
    PerClick(Money),
    /// A fixed multi-feature [`BidsTable`] submitted verbatim each auction.
    Table(BidsTable),
    /// An arbitrary bidding program (anything implementing [`Bidder`]),
    /// e.g. a shared-state ROI strategy. `Send` so a keyword's book — and
    /// with it every campaign — can be served on a shard worker thread.
    Program(Box<dyn Bidder + Send>),
}

/// Declarative description of a campaign handed to
/// [`Marketplace::add_campaign`].
///
/// Per-slot click probabilities default to the market's configured
/// [`MarketConfigState::default_click_probs`]; purchase probabilities
/// default to its configured row, or to "never" (the pure click-auction
/// setting).
pub struct CampaignSpec {
    program: ProgramSpec,
    click_probs: Option<Vec<f64>>,
    purchase_probs: Option<Vec<(f64, f64)>>,
    click_value: Money,
    roi_target: Option<f64>,
    targeting: Option<String>,
}

impl CampaignSpec {
    fn new(program: ProgramSpec) -> Self {
        CampaignSpec {
            program,
            click_probs: None,
            purchase_probs: None,
            click_value: Money::ZERO,
            roi_target: None,
            targeting: None,
        }
    }

    /// A classical single-feature campaign bidding `bid` per click. Only
    /// this kind supports [`Marketplace::update_bid`] and
    /// [`Marketplace::set_roi_target`].
    pub fn per_click(bid: Money) -> Self {
        CampaignSpec::new(ProgramSpec::PerClick(bid))
    }

    /// A fixed multi-feature bidding program: the table is submitted
    /// verbatim at every auction on the campaign's keyword.
    pub fn table(bids: BidsTable) -> Self {
        CampaignSpec::new(ProgramSpec::Table(bids))
    }

    /// An arbitrary bidding program. The program sees the global market
    /// clock and the queried keyword in its [`QueryContext`] and receives
    /// outcome notifications; this is how stateful strategies (e.g. the
    /// Section II-C ROI heuristic) run on the facade. Programs must be
    /// `Send` so campaigns can migrate to shard worker threads.
    pub fn program(bidder: Box<dyn Bidder + Send>) -> Self {
        CampaignSpec::new(ProgramSpec::Program(bidder))
    }

    /// A Section II-B **SQL bidding program**: one campaign running
    /// `program`, compiled once by [`SqlProgram::compile`] from its
    /// `tables` and `program` scripts, with its own initial state bound
    /// from `params`, under the host protocol documented at
    /// [`crate::sqlprog`]. A program that errors at auction time is
    /// excluded from the matching rather than taking serving down.
    ///
    /// ```
    /// use ssa_core::marketplace::CampaignSpec;
    /// use ssa_core::SqlProgram;
    /// use ssa_minidb::Params;
    ///
    /// let program = SqlProgram::compile(
    ///     "CREATE TABLE Query (kw INT);
    ///      CREATE TABLE Bids (formula TEXT, value INT);
    ///      INSERT INTO Bids VALUES ('Click', :start);",
    ///     "CREATE TRIGGER bid AFTER INSERT ON Query
    ///      { UPDATE Bids SET value = value + 1; }",
    /// )
    /// .expect("well-formed program");
    /// let spec = CampaignSpec::sql_program(&program, &Params::new().bind("start", 10))
    ///     .expect("the parameters fit the program");
    /// ```
    pub fn sql_program(
        program: &SqlProgram,
        params: &ssa_minidb::Params,
    ) -> Result<Self, SqlProgramError> {
        let bidder = SqlProgramBidder::new(program, params)?;
        Ok(CampaignSpec::new(ProgramSpec::Program(Box::new(bidder))))
    }

    /// Per-slot click probabilities for this campaign's ad.
    pub fn click_probs(mut self, probs: Vec<f64>) -> Self {
        self.click_probs = Some(probs);
        self
    }

    /// Per-slot purchase probabilities `(p | click, p | no click)`.
    pub fn purchase_probs(mut self, probs: Vec<(f64, f64)>) -> Self {
        self.purchase_probs = Some(probs);
        self
    }

    /// The advertiser's value of a click, used by
    /// [`Marketplace::set_roi_target`] to derive the bid ceiling
    /// `value / target`.
    pub fn click_value(mut self, value: Money) -> Self {
        self.click_value = value;
        self
    }

    /// Initial ROI target (see [`Marketplace::set_roi_target`]).
    pub fn roi_target(mut self, target: f64) -> Self {
        self.roi_target = Some(target);
        self
    }

    /// Restricts the campaign to queries whose [`UserAttrs`] satisfy the
    /// given targeting expression (see [`ssa_bidlang::targeting`]), e.g.
    /// `"geo = 'us' and device in ('mobile', 'tablet')"`.
    ///
    /// The source is parsed and compiled once, inside
    /// [`Marketplace::add_campaign`]; a malformed or hostile (too deeply
    /// nested) expression rejects the registration with
    /// [`MarketError::InvalidTargeting`] and changes nothing. On queries
    /// the compiled matcher rejects, the campaign is excluded from winner
    /// determination before the matrix fill — its program does not run and
    /// it can never be displayed, exactly like a paused campaign.
    pub fn targeting(mut self, source: impl Into<String>) -> Self {
        self.targeting = Some(source.into());
        self
    }
}

impl std::fmt::Debug for CampaignSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.program {
            ProgramSpec::PerClick(bid) => format!("per-click {bid}"),
            ProgramSpec::Table(t) => format!("table[{} rows]", t.len()),
            ProgramSpec::Program(_) => "custom program".to_string(),
        };
        f.debug_struct("CampaignSpec")
            .field("program", &kind)
            .field("click_value", &self.click_value)
            .field("roi_target", &self.roi_target)
            .field("targeting", &self.targeting)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Internal campaign state.
// ---------------------------------------------------------------------------

/// A per-click campaign's bidding fields: the nominal bid, capped by the
/// ROI target at `click_value / roi_target`. The update API writes them;
/// the one-row table is derived from them whenever the engine reads it
/// ([`Campaign::standing_table`]) and is stored nowhere. A record holds
/// them in line when they fit ([`PerClick::inline`]), else in its box.
#[derive(Debug, Clone, Copy)]
struct PerClick {
    nominal: Money,
    click_value: Money,
    /// The ROI target's bits. [`check_roi_target`] admits only finite
    /// targets above zero, whose bits are never 0, so `None` costs no
    /// extra word and a target reads back exactly as it was set.
    roi_target: Option<NonZeroU64>,
}

impl PerClick {
    fn new(nominal: Money, click_value: Money, roi_target: Option<f64>) -> Self {
        let mut bid = PerClick {
            nominal,
            click_value,
            roi_target: None,
        };
        bid.set_roi_target(roi_target);
        bid
    }

    fn roi_target(&self) -> Option<f64> {
        self.roi_target.map(|bits| f64::from_bits(bits.get()))
    }

    /// Sets a target [`check_roi_target`] admitted, or clears it.
    fn set_roi_target(&mut self, target: Option<f64>) {
        self.roi_target = target.and_then(|t| NonZeroU64::new(t.to_bits()));
    }

    /// The effective bid, paused or not ([`capped_bid`]).
    fn effective_bid(&self) -> Money {
        capped_bid(self.nominal, self.click_value, self.roi_target())
    }

    /// The nominal bid and click value in line: only without an ROI
    /// target, and only while both (validated non-negative) fit in `u32`
    /// cents.
    fn inline(&self) -> Option<(u32, u32)> {
        let cents = |money: Money| u32::try_from(money.cents()).ok();
        let amounts = (cents(self.nominal)?, cents(self.click_value)?);
        self.roi_target.is_none().then_some(amounts)
    }
}

/// What a campaign bids while it is not paused.
enum CampaignKind {
    PerClick(PerClick),
    /// A fixed table.
    Table(BidsTable),
    /// A bidding program, run at every auction.
    Program(Box<dyn Bidder + Send>),
}

/// Who owns a campaign, and whether it is paused: the part every campaign
/// has, 8 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Owner {
    /// The advertiser's registration index; [`Marketplace::add_campaign`]
    /// refuses one past `u32::MAX`.
    advertiser: u32,
    paused: bool,
}

/// What an untargeted program's record points to, 24 bytes.
pub(crate) struct ProgramCampaign {
    owner: Owner,
    program: Box<dyn Bidder + Send>,
}

/// A campaign [`Campaign`] does not hold in line: a targeted campaign of
/// any kind, a fixed table, or a per-click campaign with an ROI target or
/// an amount past `u32::MAX` cents.
pub(crate) struct BoxedCampaign {
    owner: Owner,
    /// Compiled targeting matcher (`None` = the campaign bids on every
    /// query), which the engine reads through [`Campaign::targeting`]. Shared
    /// via `Arc` with every campaign of the market registered with the same
    /// text; the retained [`CompiledTargeting::source`] is what state
    /// capture and the mutation journal serialize.
    targeting: Option<Arc<CompiledTargeting>>,
    kind: CampaignKind,
}

/// One campaign, stored once: the keyword book holds it as the keyword
/// engine's bidder. Its id is the book's keyword and its row in the engine.
/// Its click and purchase probabilities are its row of the engine's models,
/// and its click row is shared with its advertiser's other campaigns when
/// they are equal. A paused campaign submits an empty table, which winner
/// determination treats as [`ssa_matching::EXCLUDED`] — it can never be
/// displayed.
///
/// 16 bytes. An untargeted per-click campaign without an ROI target whose
/// amounts fit in `u32` cents — every campaign a Section V population
/// registers — is held in line: owner, nominal bid and click value, with
/// the enum's tag in the niche of the pause flag. An untargeted program is
/// one pointer to a [`ProgramCampaign`]; every other campaign, one pointer
/// to a [`BoxedCampaign`] ([`Campaign::set_per_click`] moves a per-click
/// campaign in and out of its box).
pub(crate) enum Campaign {
    /// Owner, nominal bid and click value in cents.
    PerClick(Owner, u32, u32),
    Program(Box<ProgramCampaign>),
    Boxed(Box<BoxedCampaign>),
}

/// A per-click bid after the ROI cap: `nominal` capped at
/// `click_value / roi_target`, never negative.
fn capped_bid(nominal: Money, click_value: Money, roi_target: Option<f64>) -> Money {
    let capped = match roi_target {
        Some(target) => nominal.min(Money::from_cents(
            (click_value.as_f64() / target).floor() as i64
        )),
        None => nominal,
    };
    capped.max(Money::ZERO)
}

impl Campaign {
    /// A campaign's record, in line when its shape allows.
    fn new(owner: Owner, targeting: Option<Arc<CompiledTargeting>>, kind: CampaignKind) -> Self {
        match (targeting, kind) {
            (None, CampaignKind::PerClick(bid)) => match bid.inline() {
                Some((nominal, value)) => Campaign::PerClick(owner, nominal, value),
                None => Campaign::boxed(owner, None, CampaignKind::PerClick(bid)),
            },
            (None, CampaignKind::Program(program)) => {
                Campaign::Program(Box::new(ProgramCampaign { owner, program }))
            }
            (targeting, kind) => Campaign::boxed(owner, targeting, kind),
        }
    }

    fn boxed(owner: Owner, targeting: Option<Arc<CompiledTargeting>>, kind: CampaignKind) -> Self {
        Campaign::Boxed(Box::new(BoxedCampaign {
            owner,
            targeting,
            kind,
        }))
    }

    fn owner(&self) -> Owner {
        match self {
            Campaign::PerClick(owner, ..) => *owner,
            Campaign::Program(boxed) => boxed.owner,
            Campaign::Boxed(boxed) => boxed.owner,
        }
    }

    fn advertiser(&self) -> AdvertiserHandle {
        AdvertiserHandle(self.owner().advertiser as usize)
    }

    fn paused(&self) -> bool {
        self.owner().paused
    }

    fn owner_mut(&mut self) -> &mut Owner {
        match self {
            Campaign::PerClick(owner, ..) => owner,
            Campaign::Program(boxed) => &mut boxed.owner,
            Campaign::Boxed(boxed) => &mut boxed.owner,
        }
    }

    /// The matcher deciding which queries the campaign bids on (`None`:
    /// every query). The engine visits a targeted campaign at every
    /// auction, and on a query the matcher rejects holds an empty table for
    /// it without running it.
    pub(crate) fn targeting(&self) -> Option<&Arc<CompiledTargeting>> {
        match self {
            Campaign::Boxed(boxed) => boxed.targeting.as_ref(),
            _ => None,
        }
    }

    /// A per-click campaign's bidding fields, by value; `None` for fixed
    /// tables and programs.
    fn per_click(&self) -> Option<PerClick> {
        let cents = |cents: u32| Money::from_cents(cents.into());
        match self {
            Campaign::PerClick(_, nominal, value) => {
                Some(PerClick::new(cents(*nominal), cents(*value), None))
            }
            Campaign::Boxed(boxed) => match boxed.kind {
                CampaignKind::PerClick(bid) => Some(bid),
                _ => None,
            },
            Campaign::Program(_) => None,
        }
    }

    /// Rewrites a per-click campaign's bidding fields, in line when the
    /// campaign is untargeted and they fit, else in its box: leaving the
    /// inline shape costs one box, coming back frees it. Tables and
    /// programs are left as they are.
    fn set_per_click(&mut self, bid: PerClick) {
        match (&mut *self, bid.inline()) {
            (Campaign::PerClick(_, nominal, value), Some(amounts)) => (*nominal, *value) = amounts,
            (Campaign::PerClick(owner, ..), None) => {
                *self = Campaign::boxed(*owner, None, CampaignKind::PerClick(bid));
            }
            (Campaign::Boxed(boxed), Some((nominal, value)))
                if boxed.targeting.is_none() && matches!(boxed.kind, CampaignKind::PerClick(_)) =>
            {
                *self = Campaign::PerClick(boxed.owner, nominal, value);
            }
            (Campaign::Boxed(boxed), _) => {
                if let CampaignKind::PerClick(held) = &mut boxed.kind {
                    *held = bid;
                }
            }
            (Campaign::Program(_), _) => {}
        }
    }

    /// A fixed-table campaign's table.
    fn table(&self) -> Option<&BidsTable> {
        match self {
            Campaign::Boxed(boxed) => match &boxed.kind {
                CampaignKind::Table(table) => Some(table),
                _ => None,
            },
            _ => None,
        }
    }

    /// The program of an unpaused program campaign.
    fn running_program(&mut self) -> Option<&mut (dyn Bidder + Send)> {
        match self {
            Campaign::Program(boxed) if !boxed.owner.paused => Some(boxed.program.as_mut()),
            Campaign::Boxed(boxed) => match &mut boxed.kind {
                CampaignKind::Program(program) if !boxed.owner.paused => Some(program.as_mut()),
                _ => None,
            },
            _ => None,
        }
    }

    /// A per-click campaign's effective bid, paused or not ([`capped_bid`]).
    /// `None` for fixed tables and programs.
    fn effective_bid(&self) -> Option<Money> {
        self.per_click().map(|bid| bid.effective_bid())
    }

    /// Step 3 for a program: this auction's table, from its program, or
    /// empty while it is paused.
    pub(crate) fn on_query(&mut self, ctx: &QueryContext) -> BidsTable {
        self.running_program()
            .map_or_else(BidsTable::empty, |program| program.on_query(ctx))
    }

    /// Step 6 for a program: its program learns the outcome, unless it is
    /// paused.
    pub(crate) fn on_outcome(&mut self, ctx: &QueryContext, outcome: &BidderOutcome) {
        if let Some(program) = self.running_program() {
            program.on_outcome(ctx, outcome);
        }
    }

    /// A *standing* campaign's table, `None` for a program. Per-click and
    /// fixed-table campaigns change only through the update API, which
    /// writes through the engine's `bidder_mut`, so the engine reads their
    /// table here whenever it needs it and holds no copy: a per-click
    /// campaign derives its one-row table, a fixed table is lent, and a
    /// paused campaign submits an empty one.
    pub(crate) fn standing_table(&self) -> Option<Cow<'_, BidsTable>> {
        let table = match (self.per_click(), self.table()) {
            (None, None) => return None, // a program
            _ if self.paused() => Cow::Owned(BidsTable::empty()),
            (Some(bid), _) => Cow::Owned(BidsTable::single_feature(bid.effective_bid())),
            (None, Some(table)) => Cow::Borrowed(table),
        };
        Some(table)
    }

    /// Enters what the record points to: its box, its program's own
    /// record, its matcher unless an earlier campaign did.
    fn account(&self, ledger: &mut Accountant) {
        let boxed_size = size_of::<BoxedCampaign>();
        let (record, program, targeting) = match self {
            Campaign::PerClick(..) => return,
            Campaign::Program(boxed) => (size_of::<ProgramCampaign>(), Some(&boxed.program), None),
            Campaign::Boxed(boxed) => match &boxed.kind {
                CampaignKind::Program(p) => (boxed_size, Some(p), boxed.targeting.as_ref()),
                _ => (boxed_size, None, boxed.targeting.as_ref()),
            },
        };
        ledger.add(Component::BoxedCampaigns, HeapUse::of_bytes(record));
        if let Some(program) = program {
            let record = HeapUse::of_bytes(std::mem::size_of_val(&**program));
            ledger.add(Component::Programs, record);
        }
        if let Some(matcher) = targeting {
            account_matcher(ledger, matcher);
        }
    }
}

/// Enters a targeting matcher — its record and source text — unless an
/// earlier holder did.
fn account_matcher(ledger: &mut Accountant, matcher: &Arc<CompiledTargeting>) {
    ledger.add_shared(Component::TargetingMatchers, matcher, |matcher| {
        HeapUse::of_bytes(matcher.source().len())
    });
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match (self.per_click(), self.table()) {
            (Some(bid), _) => format!("per-click {}", bid.nominal),
            (None, Some(t)) => format!("table[{} rows]", t.len()),
            (None, None) => "custom program".to_string(),
        };
        f.debug_struct("Campaign")
            .field("advertiser", &self.advertiser())
            .field("paused", &self.paused())
            .field("kind", &kind)
            .field("targeting", &self.targeting().map(|t| t.source()))
            .finish()
    }
}

/// Advertiser names end to end in one buffer: a name costs its bytes and
/// one offset, not a `String` and an allocation of its own.
#[derive(Debug, Default)]
struct Names {
    text: String,
    /// Where each name starts in `text`, in registration order.
    starts: Vec<usize>,
}

impl Names {
    fn push(&mut self, name: &str) {
        self.starts.push(self.text.len());
        self.text.push_str(name);
    }

    fn get(&self, index: usize) -> Option<&str> {
        let start = *self.starts.get(index)?;
        let end = self.starts.get(index + 1).copied();
        self.text.get(start..end.unwrap_or(self.text.len()))
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = &str> {
        (0..self.starts.len()).map(|index| self.get(index).unwrap_or_default())
    }
}

/// Everything the marketplace holds for one keyword: the persistent engine
/// (the campaigns as its bidders, probability models, solver and matrix
/// buffers), and the keyword's RNG stream.
#[derive(Debug)]
struct KeywordBook {
    /// Built by the keyword's first campaign and grown in place by every
    /// later one; `None` exactly while the keyword has no campaigns. Boxed,
    /// so a keyword without campaigns costs a pointer, not an engine.
    engine: Option<Box<AuctionEngine>>,
    /// The keyword's own user-action RNG stream, seeded purely from
    /// `(market seed, keyword)` ([`keyword_stream_seed`]), so a keyword's
    /// outcome stream does not depend on which other keywords were queried
    /// in between — the property sharded serving relies on.
    rng: StdRng,
}

impl KeywordBook {
    fn new(rng: StdRng) -> Self {
        KeywordBook { engine: None, rng }
    }

    /// The keyword's campaigns in registration order: the engine's bidders.
    fn campaigns(&self) -> &[Campaign] {
        self.engine.as_deref().map_or(&[], AuctionEngine::bidders)
    }

    /// Serves one query on this book's keyword as the auction with
    /// (1-based) global time `time`, reading click rows from `clicks`.
    fn serve_at(
        &mut self,
        clicks: &ClickTable,
        keyword: usize,
        attrs: &UserAttrs,
        time: u64,
    ) -> AuctionResponse {
        let Some(engine) = self.engine.as_mut() else {
            return AuctionResponse {
                keyword,
                time,
                expected_revenue: 0.0,
                realized_revenue: Money::ZERO,
                placements: Vec::new(),
                charges: Vec::new(),
            };
        };
        let expected_revenue = engine.hot_step(clicks, time, keyword, attrs, &mut self.rng);
        respond(engine, keyword, time, expected_revenue)
    }

    /// Serves a run of consecutive queries on this book's keyword as one
    /// [`AuctionEngine::run_batch`] call after global time
    /// `start_time` (the clock value *before* the first of the queries). A
    /// campaign-less keyword serves `queries.len()` empty pages without
    /// touching any engine. The queries are borrowed straight from the
    /// caller's slice or record — attributes are never cloned on this path.
    fn serve_run<Q: EngineQuery>(
        &mut self,
        clicks: &ClickTable,
        queries: &[Q],
        start_time: u64,
    ) -> BatchReport {
        let Some(engine) = self.engine.as_mut() else {
            return BatchReport {
                auctions: queries.len() as u64,
                ..BatchReport::default()
            };
        };
        engine.run_batch(clicks, queries, start_time, &mut self.rng)
    }
}

/// The 64-bit SplitMix finaliser: a cheap, stable bijective mixer used for
/// per-keyword RNG-seed derivation and shard routing.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of keyword `keyword`'s user-action RNG stream under market seed
/// `seed`. Every marketplace draws clicks and purchases from one such
/// stream per keyword, so a keyword's auctions depend only on the queries
/// on that keyword — which is what makes marketplaces of every shard count
/// agree bit for bit. Exported so reference harnesses can draw from the
/// same streams.
pub fn keyword_stream_seed(seed: u64, keyword: usize) -> u64 {
    splitmix64(seed ^ splitmix64(keyword as u64 ^ 0x5EED_4B1D_0EC0_FFEE))
}

// ---------------------------------------------------------------------------
// Query-serving API types.
// ---------------------------------------------------------------------------

/// One keyword query to serve: the keyword plus the typed user attributes
/// campaign targeting expressions evaluate against.
///
/// Deliberately **not** `Copy`: the attribute bag is heap-backed, and the
/// serve paths are written to move or borrow requests rather than clone
/// them, so growing the type never introduces silent per-query clones on
/// the hot loop. `QueryRequest::new(kw)` / `kw.into()` build the legacy
/// attribute-less query bit-compatibly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryRequest {
    /// Index of the queried keyword.
    pub keyword: usize,
    /// Typed user attributes (empty for legacy keyword-only queries).
    pub attrs: UserAttrs,
}

impl QueryRequest {
    /// A query on `keyword` with no user attributes.
    pub fn new(keyword: usize) -> Self {
        QueryRequest {
            keyword,
            attrs: UserAttrs::new(),
        }
    }

    /// A query on `keyword` carrying user attributes.
    pub fn with_attrs(keyword: usize, attrs: UserAttrs) -> Self {
        QueryRequest { keyword, attrs }
    }
}

impl From<usize> for QueryRequest {
    fn from(keyword: usize) -> Self {
        QueryRequest::new(keyword)
    }
}

impl EngineQuery for QueryRequest {
    fn keyword(&self) -> usize {
        self.keyword
    }

    fn attrs(&self) -> &UserAttrs {
        &self.attrs
    }
}

// Compile-time audit: the attribute bag (and with it `QueryRequest`) must
// stay shareable across shard worker threads and cheaply duplicable —
// `Send + Sync + Clone` — or the `serve_batch` fan-out and the wire
// front-end stop building.
const _: () = {
    const fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
    assert_send_sync_clone::<UserAttrs>();
    assert_send_sync_clone::<QueryRequest>();
};

/// One ad shown in response to a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The slot the ad occupied.
    pub slot: SlotId,
    /// The campaign whose program won the slot.
    pub campaign: CampaignId,
    /// The advertiser owning the campaign.
    pub advertiser: AdvertiserHandle,
    /// Whether the user clicked the ad.
    pub clicked: bool,
    /// Whether the user purchased via the ad.
    pub purchased: bool,
    /// Amount the campaign was charged this auction.
    pub charge: Money,
}

/// Everything that happened serving one query.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionResponse {
    /// The queried keyword.
    pub keyword: usize,
    /// Global market clock value of this auction (1-based).
    pub time: u64,
    /// Expected revenue of the winning allocation.
    pub expected_revenue: f64,
    /// Total realised revenue.
    pub realized_revenue: Money,
    /// The ads shown, in slot order.
    pub placements: Vec<Placement>,
    /// Every charge of the auction. Under GSP/VCG these cover winners only;
    /// under pay-your-bid, unplaced campaigns with negated-slot formulas can
    /// owe money too.
    pub charges: Vec<(CampaignId, Money)>,
}

/// Aggregate outcome of [`Marketplace::serve_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct MarketBatchReport {
    /// Market-wide totals.
    pub total: BatchReport,
    /// Per-keyword totals (indexed by keyword).
    pub per_keyword: Vec<BatchReport>,
    /// Number of maximal same-keyword chunks the stream was split into.
    /// A chunk on a keyword with campaigns is one batched run of that
    /// keyword's persistent engine; a chunk on a campaign-less keyword
    /// serves empty pages without touching any engine.
    pub chunks: u64,
}

// ---------------------------------------------------------------------------
// Builder.
// ---------------------------------------------------------------------------

/// The most ad slots a marketplace takes. A results page shows a handful
/// (Section V's has 15), and a keyword engine keeps each campaign's slot as
/// a 2-byte index.
pub const MAX_SLOTS: usize = 1 << 10;
const _: () = assert!(MAX_SLOTS < u16::MAX as usize);

/// The most keywords a marketplace takes: every keyword's book (about a
/// kilobyte) is built with the market, before any campaign arrives.
pub const MAX_KEYWORDS: usize = 1 << 16;

/// The most shards a marketplace takes: a shard's keywords are served by
/// one worker thread per [`Marketplace::serve_batch`].
pub const MAX_SHARDS: usize = 1 << 10;

/// Writes a [`MarketConfigState`] one setter at a time; obtained from
/// [`Marketplace::builder`]. It starts from [`MarketConfigState::default`],
/// and [`MarketplaceBuilder::build_sharded`] hands what it wrote to
/// [`Marketplace::from_config`], the one constructor.
#[derive(Debug, Clone, Default)]
pub struct MarketplaceBuilder {
    config: MarketConfigState,
}

impl MarketplaceBuilder {
    /// Winner-determination method (default: [`WdMethod::Reduced`]).
    pub fn method(mut self, method: WdMethod) -> Self {
        self.config.method = method;
        self
    }

    /// Pricing rule (default: [`PricingScheme::Gsp`]).
    pub fn pricing(mut self, pricing: PricingScheme) -> Self {
        self.config.pricing = pricing;
        self
    }

    /// Number of ad slots per results page (default: 1).
    pub fn slots(mut self, num_slots: usize) -> Self {
        self.config.slots = num_slots;
        self
    }

    /// Size of the keyword universe (default: 1).
    pub fn keywords(mut self, num_keywords: usize) -> Self {
        self.config.keywords = num_keywords;
        self
    }

    /// Seed of the marketplace's user-action randomness (clicks and
    /// purchases): keyword `k` draws from its own stream seeded by
    /// [`keyword_stream_seed`]`(seed, k)`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Run dense winner determination through the Section III-E top-k
    /// [`ssa_matching::PrunedSolver`] (default: off). Bit-identical
    /// outcomes; see [`EngineConfig::pruned`].
    pub fn pruned(mut self, enabled: bool) -> Self {
        self.config.pruned = enabled;
        self
    }

    /// Skip the matrix refill and solve when no bid changed since a
    /// keyword's previous auction (default: on). Bit-identical outcomes;
    /// see [`EngineConfig::warm_start`].
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.config.warm_start = enabled;
        self
    }

    /// Click model applied to campaigns that do not supply their own
    /// [`CampaignSpec::click_probs`].
    pub fn default_click_probs(mut self, probs: Vec<f64>) -> Self {
        self.config.default_click_probs = Some(probs);
        self
    }

    /// Purchase model applied to campaigns that do not supply their own
    /// [`CampaignSpec::purchase_probs`] (default: purchases never happen).
    pub fn default_purchase_probs(mut self, probs: Vec<(f64, f64)>) -> Self {
        self.config.default_purchase_probs = Some(probs);
        self
    }

    /// Builds the marketplace on one shard: every `serve_batch` runs on the
    /// calling thread.
    pub fn build(self) -> Result<Marketplace, MarketError> {
        self.build_sharded(1)
    }

    /// Builds the marketplace with its keywords partitioned across
    /// `num_shards` shards (see the [module docs](crate::marketplace)):
    /// [`Marketplace::from_config`] of what was written, with `shards`
    /// set to `num_shards`.
    pub fn build_sharded(mut self, num_shards: usize) -> Result<Marketplace, MarketError> {
        self.config.shards = num_shards;
        Marketplace::from_config(&self.config)
    }
}

/// Checks a click row: one probability per slot, each in `[0, 1]`. Called
/// by [`ClickTable::insert`], the one way a row enters a table.
pub(crate) fn validate_click_probs(probs: &[f64], num_slots: usize) -> Result<(), MarketError> {
    if probs.len() != num_slots {
        return Err(MarketError::ModelDimension {
            expected: num_slots,
            got: probs.len(),
        });
    }
    for &p in probs {
        if !(0.0..=1.0).contains(&p) {
            return Err(MarketError::InvalidProbability(p));
        }
    }
    Ok(())
}

fn validate_purchase_probs(probs: &[(f64, f64)], num_slots: usize) -> Result<(), MarketError> {
    if probs.len() != num_slots {
        return Err(MarketError::ModelDimension {
            expected: num_slots,
            got: probs.len(),
        });
    }
    for &(pc, pn) in probs {
        if !(0.0..=1.0).contains(&pc) {
            return Err(MarketError::InvalidProbability(pc));
        }
        if !(0.0..=1.0).contains(&pn) {
            return Err(MarketError::InvalidProbability(pn));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The marketplace itself.
// ---------------------------------------------------------------------------

/// A long-lived sponsored-search marketplace: registered advertisers,
/// per-keyword campaigns, one persistent engine+solver per keyword, a typed
/// query-serving API, and an incremental update API. See the
/// [module docs](crate::marketplace) for the full picture.
#[derive(Debug)]
pub struct Marketplace {
    /// What the market was built from, as supplied: its shape, seed and
    /// default rows, and what every keyword engine solves and prices with.
    /// Changed only by [`Marketplace::configure`], which builds a new
    /// market.
    config: MarketConfigState,
    /// Registered advertisers' names, by handle.
    advertisers: Names,
    /// Every click row a campaign or the configured default registered, each
    /// once; the keyword engines hold ids into it, and every call that
    /// reads probabilities is handed it.
    clicks: ClickTable,
    /// Parallel to `advertisers`: the click row each advertiser's latest
    /// campaign registered, handed to its next campaign whose row is bit
    /// for bit the same (see [`Marketplace::click_row`]).
    click_rows: Vec<Option<ClickRowId>>,
    /// One compiled matcher per distinct targeting text, shared by every
    /// campaign registered with that text.
    matchers: HashMap<String, Arc<CompiledTargeting>>,
    /// One book per keyword, indexed by keyword.
    books: Vec<KeywordBook>,
    /// The configured default click row's id in `clicks`: the row every
    /// campaign without click probabilities of its own shares.
    default_click_row: Option<ClickRowId>,
    clock: u64,
    /// Durability hook: receives every applied mutation and served query
    /// (see [`crate::journal`]). `None` — the default — costs the hot
    /// serve path a single branch.
    journal: Option<Box<dyn MutationJournal>>,
}

impl Marketplace {
    /// Starts configuring a marketplace.
    pub fn builder() -> MarketplaceBuilder {
        MarketplaceBuilder::default()
    }

    // -- durability hook and the one mutation entry ---------------------------

    /// Attaches a mutation journal: from now on every successfully applied
    /// control-plane mutation and every served query is reported to it
    /// (see [`crate::journal`]). While a journal is attached,
    /// [`Marketplace::add_campaign`] rejects non-per-click specs with
    /// [`MarketError::NotDurable`] — they cannot be serialized, so
    /// accepting one would silently break recovery.
    pub fn set_journal(&mut self, journal: Box<dyn MutationJournal>) {
        self.journal = Some(journal);
    }

    /// Detaches and returns the journal, if one is attached.
    pub fn take_journal(&mut self) -> Option<Box<dyn MutationJournal>> {
        self.journal.take()
    }

    /// Whether a mutation journal is attached.
    pub fn journal_attached(&self) -> bool {
        self.journal.is_some()
    }

    /// Applies one operation: the one way the market changes, for its typed
    /// methods, the server and recovery alike. Each arm executes on the
    /// record's own fields, borrowed; once it succeeded, the journal is
    /// handed `op` itself, at the one site that journals. A refused record
    /// changes nothing and is not journalled.
    pub fn apply(&mut self, op: MutationRecord) -> Result<Reply, MarketError> {
        let reply = match &op {
            MutationRecord::Configure(config) => {
                let mut fresh = Self::from_config(config)?;
                fresh.journal = self.journal.take();
                *self = fresh;
                Reply::Done
            }
            MutationRecord::RegisterAdvertiser { name } => {
                self.advertisers.push(name);
                self.click_rows.push(None);
                Reply::AdvertiserRegistered(AdvertiserHandle(self.num_advertisers() - 1))
            }
            MutationRecord::AddCampaign {
                advertiser,
                keyword,
                bid_cents,
                click_value_cents,
                roi_target,
                click_probs,
                purchase_probs,
                targeting,
            } => {
                let terms = Terms {
                    click_probs: click_probs.as_deref(),
                    purchase_probs: purchase_probs.as_deref(),
                    click_value: Money::from_cents(*click_value_cents),
                    roi_target: *roi_target,
                    targeting: targeting.as_deref(),
                };
                let program = ProgramSpec::PerClick(Money::from_cents(*bid_cents));
                let (advertiser, keyword) =
                    (AdvertiserHandle(*advertiser as usize), *keyword as usize);
                Reply::CampaignAdded(self.insert_campaign(advertiser, keyword, program, terms)?)
            }
            &MutationRecord::UpdateBid {
                keyword,
                index,
                bid_cents,
            } => {
                let bid = Money::from_cents(bid_cents);
                let id = CampaignId::from_parts(keyword as usize, index as usize);
                self.write_per_click(id, check_bid(bid), |fields| fields.nominal = bid)?;
                Reply::Done
            }
            &MutationRecord::SetRoiTarget {
                keyword,
                index,
                target,
            } => {
                let check = target.map_or(Ok(()), check_roi_target);
                let id = CampaignId::from_parts(keyword as usize, index as usize);
                self.write_per_click(id, check, |fields| fields.set_roi_target(target))?;
                Reply::Done
            }
            &MutationRecord::PauseCampaign { keyword, index }
            | &MutationRecord::ResumeCampaign { keyword, index } => {
                let paused = matches!(op, MutationRecord::PauseCampaign { .. });
                let id = CampaignId::from_parts(keyword as usize, index as usize);
                self.campaign_mut(id)?.owner_mut().paused = paused;
                Reply::Done
            }
            MutationRecord::Serve { keyword, attrs } => {
                let keyword = self.check_keyword(*keyword as usize)?;
                self.clock += 1;
                let book = &mut self.books[keyword];
                Reply::Served(book.serve_at(&self.clicks, keyword, attrs, self.clock))
            }
            MutationRecord::ServeBatch { queries } => Reply::BatchServed(self.run_batch(queries)?),
        };
        if let Some(journal) = self.journal.as_mut() {
            journal.record(&op);
        }
        Ok(reply)
    }

    // -- durable state capture ----------------------------------------------

    /// The configuration this market was built from, as supplied: what a
    /// `Configure` operation carries and [`Marketplace::from_config`]
    /// builds this market's empty twin from.
    pub fn config(&self) -> MarketConfigState {
        self.config.clone()
    }

    /// The compacted log after its `Configure`, in [`MarketState::records`]'s
    /// order: applied to a [`Marketplace::from_config`] build of
    /// [`Marketplace::config`], it rebuilds this campaign book. Each
    /// `AddCampaign` carries the nominal bid, the current ROI target and
    /// every model explicitly (a campaign that never purchases, one
    /// `(0.0, 0.0)` per slot), so no configured default is resolved again.
    /// The records borrow names, rows and targeting texts from the market.
    /// [`MarketError::NotDurable`] for a campaign that is not per-click.
    pub fn compacted_log(&self) -> impl Iterator<Item = Result<LogRecord<'_>, MarketError>> + '_ {
        let advertisers = self
            .advertisers
            .iter()
            .map(|name| Ok(LogRecord::RegisterAdvertiser { name }));
        // A keyword without an engine has no campaigns.
        let engines = self.books.iter().enumerate();
        let engines =
            engines.filter_map(|(keyword, book)| Some((keyword, book.engine.as_deref()?)));
        let campaigns = engines.flat_map(move |(keyword, engine)| {
            (0..engine.bidders().len())
                .flat_map(move |index| self.campaign_records(engine, CampaignId { keyword, index }))
        });
        advertisers.chain(campaigns)
    }

    /// One campaign's part of [`Marketplace::compacted_log`]: its
    /// `AddCampaign`, then its `PauseCampaign` if it is paused.
    fn campaign_records<'a>(
        &'a self,
        engine: &'a AuctionEngine,
        id: CampaignId,
    ) -> impl Iterator<Item = Result<LogRecord<'a>, MarketError>> {
        let campaign = &engine.bidders()[id.index];
        let (keyword, index) = (id.keyword as u64, id.index as u64);
        let add = campaign
            .per_click()
            .ok_or(MarketError::NotDurable(id))
            .map(|bid| {
                let click_probs = self.clicks.row(engine.click_row(id.index));
                let purchase_probs = match engine.purchases().stored_row(id.index) {
                    Some(stored) => PurchaseRow::Stored(stored),
                    None => PurchaseRow::Never {
                        slots: click_probs.len(),
                    },
                };
                LogRecord::AddCampaign {
                    advertiser: campaign.advertiser().index() as u64,
                    keyword,
                    bid_cents: bid.nominal.cents(),
                    click_value_cents: bid.click_value.cents(),
                    roi_target: bid.roi_target(),
                    click_probs: Some(click_probs),
                    purchase_probs: Some(purchase_probs),
                    targeting: campaign.targeting().map(|t| t.source()),
                }
            });
        let pause = LogRecord::PauseCampaign { keyword, index };
        std::iter::once(add).chain(campaign.paused().then_some(Ok(pause)))
    }

    /// Each keyword's RNG stream position, indexed by keyword: with the
    /// clock, what a snapshot holds beside [`Marketplace::compacted_log`].
    pub fn rng_states(&self) -> impl ExactSizeIterator<Item = [u64; 4]> + '_ {
        self.books.iter().map(|book| book.rng.state())
    }

    /// Captures the marketplace's complete durable state as a value: its
    /// configuration, [`Marketplace::compacted_log`], clock, and the exact
    /// position of every keyword's RNG stream. [`MarketError::NotDurable`]
    /// if any campaign runs a custom program or fixed table.
    ///
    /// Its records applied to [`Marketplace::from_config`] through
    /// [`Marketplace::apply`], then [`Marketplace::restore_positions`],
    /// rebuild a marketplace that serves **bit-identical** auctions from the
    /// next query on (held tables, revenue matrices and solver scratch are
    /// execution state and are re-derived with identical outcomes).
    pub fn capture_state(&self) -> Result<MarketState, MarketError> {
        Ok(MarketState {
            config: self.config(),
            records: (self.compacted_log())
                .map(|record| record.map(MutationRecord::from))
                .collect::<Result<_, _>>()?,
            clock: self.clock,
            rng_states: self.rng_states().collect(),
        })
    }

    /// Builds the empty marketplace `config` describes — the one
    /// constructor: the builder, recovery replay and the serving layer's
    /// `Configure` all build through it. No journal is attached.
    ///
    /// Shard, slot and keyword counts of zero, or above [`MAX_SHARDS`],
    /// [`MAX_SLOTS`] and [`MAX_KEYWORDS`], are refused before anything is
    /// allocated for them, in that order; then the default click row, then
    /// the default purchase row. More shards than keywords is fine.
    pub fn from_config(config: &MarketConfigState) -> Result<Self, MarketError> {
        let (shards, slots, keywords) = (config.shards, config.slots, config.keywords);
        if shards == 0 {
            return Err(MarketError::NoShards);
        }
        if slots == 0 {
            return Err(MarketError::NoSlots);
        }
        if keywords == 0 {
            return Err(MarketError::NoKeywords);
        }
        if shards > MAX_SHARDS {
            return Err(MarketError::TooManyShards(shards));
        }
        if slots > MAX_SLOTS {
            return Err(MarketError::TooManySlots(slots));
        }
        if keywords > MAX_KEYWORDS {
            return Err(MarketError::TooManyKeywords(keywords));
        }
        let mut clicks = ClickTable::new(slots);
        let default_click_row = (config.default_click_probs.as_deref())
            .map(|probs| clicks.insert(probs))
            .transpose()?;
        if let Some(probs) = &config.default_purchase_probs {
            validate_purchase_probs(probs, slots)?;
        }
        let rng = |kw| StdRng::seed_from_u64(keyword_stream_seed(config.seed, kw));
        Ok(Marketplace {
            config: config.clone(),
            advertisers: Names::default(),
            clicks,
            click_rows: Vec::new(),
            matchers: HashMap::new(),
            books: (0..keywords).map(|kw| KeywordBook::new(rng(kw))).collect(),
            default_click_row,
            clock: 0,
            journal: None,
        })
    }

    /// Replaces this marketplace with a fresh build of `config`, carrying
    /// an attached journal over and journalling the reconfiguration like
    /// any other operation. A rejected configuration changes nothing.
    pub fn configure(&mut self, config: MarketConfigState) -> Result<(), MarketError> {
        self.apply(MutationRecord::Configure(config)).map(drop)
    }

    /// The inverse of [`Marketplace::now`] and [`Marketplace::rng_states`]:
    /// restores the clock and each keyword's RNG position, which no
    /// operation sets. Refused, changing nothing, with
    /// [`MarketError::RngStreams`] unless there is one stream per keyword,
    /// and with [`MarketError::Journalled`] while a journal is attached.
    pub fn restore_positions(
        &mut self,
        clock: u64,
        rng_states: &[[u64; 4]],
    ) -> Result<(), MarketError> {
        if self.journal.is_some() {
            return Err(MarketError::Journalled);
        }
        if rng_states.len() != self.books.len() {
            return Err(MarketError::RngStreams {
                keywords: self.books.len(),
                streams: rng_states.len(),
            });
        }
        self.clock = clock;
        for (book, rng_state) in self.books.iter_mut().zip(rng_states) {
            book.rng = StdRng::from_state(*rng_state);
        }
        Ok(())
    }

    // -- shape and configuration --------------------------------------------

    /// Number of shards the keyword universe is partitioned across.
    pub fn num_shards(&self) -> usize {
        self.config.shards
    }

    /// The shard owning `keyword`; see [`shard_of_keyword`].
    pub fn shard_of(&self, keyword: usize) -> usize {
        shard_of_keyword(keyword, self.config.shards)
    }

    /// Registers an advertiser, returning its handle. Handles are global:
    /// an advertiser can open campaigns on any keyword, whichever shard
    /// owns it.
    pub fn register_advertiser(&mut self, name: impl Into<String>) -> AdvertiserHandle {
        let handle = AdvertiserHandle(self.num_advertisers());
        // A registration is never refused, so its handle is the next one.
        let _ = self.apply(MutationRecord::RegisterAdvertiser { name: name.into() });
        handle
    }

    /// The display name an advertiser registered under.
    pub fn advertiser_name(&self, advertiser: AdvertiserHandle) -> Result<&str, MarketError> {
        self.advertisers
            .get(advertiser.0)
            .ok_or(MarketError::UnknownAdvertiser(advertiser))
    }

    /// Number of registered advertisers.
    pub fn num_advertisers(&self) -> usize {
        self.advertisers.starts.len()
    }

    /// Number of ad slots per results page.
    pub fn num_slots(&self) -> usize {
        self.config.slots
    }

    /// Size of the keyword universe.
    pub fn num_keywords(&self) -> usize {
        self.books.len()
    }

    /// Number of campaigns registered on a keyword.
    pub fn num_campaigns(&self, keyword: usize) -> Result<usize, MarketError> {
        self.check_keyword(keyword)?;
        Ok(self.books[keyword].campaigns().len())
    }

    /// The global market clock: total auctions served.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Total campaigns registered across every keyword.
    pub fn num_campaigns_total(&self) -> usize {
        self.books.iter().map(|b| b.campaigns().len()).sum()
    }

    /// What the market holds on the heap, by component: a walk of the
    /// books and their engines that runs only when called (see
    /// [`crate::footprint`]).
    pub fn footprint(&self) -> Ledger {
        let mut ledger = Accountant::default();
        ledger.add(Component::KeywordBooks, HeapUse::of_vec(&self.books));
        for engine in self.books.iter().filter_map(|book| book.engine.as_deref()) {
            ledger.add(
                Component::KeywordBooks,
                HeapUse::of_bytes(std::mem::size_of_val(engine)),
            );
            engine.account(&mut ledger);
            for campaign in engine.bidders() {
                campaign.account(&mut ledger);
            }
        }
        ledger.add(
            Component::AdvertiserNames,
            HeapUse::of_vec(&self.advertisers.starts)
                + footprint::of_string(&self.advertisers.text),
        );
        ledger.add(Component::ClickRowIds, HeapUse::of_vec(&self.click_rows));
        self.clicks.account(&mut ledger);
        let texts = self.matchers.keys().map(footprint::of_string).sum();
        ledger.add(
            Component::TargetingMatchers,
            footprint::of_map(&self.matchers) + texts,
        );
        for matcher in self.matchers.values() {
            account_matcher(&mut ledger, matcher);
        }
        // The configuration's rows as supplied; the click row is also a
        // row of the table.
        if let Some(probs) = &self.config.default_click_probs {
            ledger.add(Component::ClickRows, HeapUse::of_vec(probs));
        }
        if let Some(probs) = &self.config.default_purchase_probs {
            ledger.add(Component::PurchaseRows, HeapUse::of_vec(probs));
        }
        ledger.finish()
    }

    fn check_keyword(&self, keyword: usize) -> Result<usize, MarketError> {
        if keyword < self.books.len() {
            Ok(keyword)
        } else {
            Err(MarketError::UnknownKeyword {
                keyword,
                num_keywords: self.books.len(),
            })
        }
    }

    fn check_campaign(&self, id: CampaignId) -> Result<(), MarketError> {
        self.check_keyword(id.keyword)
            .map_err(|_| MarketError::UnknownCampaign(id))?;
        if id.index < self.books[id.keyword].campaigns().len() {
            Ok(())
        } else {
            Err(MarketError::UnknownCampaign(id))
        }
    }

    // -- campaign registration ---------------------------------------------

    /// Registers a campaign for `advertiser` on `keyword`.
    ///
    /// The keyword's engine grows by one bidder in place: the campaign's
    /// probabilities become the next row of its models, the tables it holds
    /// for the other campaigns stay valid, and the next serve lays the
    /// revenue matrix out for the new size and solves.
    ///
    /// What campaigns have in common is stored once: a campaign whose click
    /// probabilities are bit for bit those its advertiser's latest campaign
    /// registered (or the configured default) gets that row's id, any other
    /// row is appended to the market's click table (which refuses a wrong
    /// length or a probability outside `[0, 1]`), and a targeting text is
    /// compiled on its first use and its matcher shared by every later
    /// campaign with the same text. The engine stores the campaign's 4-byte
    /// row id, not the row.
    pub fn add_campaign(
        &mut self,
        advertiser: AdvertiserHandle,
        keyword: usize,
        spec: CampaignSpec,
    ) -> Result<CampaignId, MarketError> {
        let ProgramSpec::PerClick(bid) = spec.program else {
            // A table or a program is no record: it stays typed.
            let terms = Terms {
                click_probs: spec.click_probs.as_deref(),
                purchase_probs: spec.purchase_probs.as_deref(),
                click_value: spec.click_value,
                roi_target: spec.roi_target,
                targeting: spec.targeting.as_deref(),
            };
            return self.insert_campaign(advertiser, keyword, spec.program, terms);
        };
        let op = MutationRecord::AddCampaign {
            advertiser: advertiser.0 as u64,
            keyword: keyword as u64,
            bid_cents: bid.cents(),
            click_value_cents: spec.click_value.cents(),
            roi_target: spec.roi_target,
            click_probs: spec.click_probs,
            purchase_probs: spec.purchase_probs,
            targeting: spec.targeting,
        };
        match self.apply(op)? {
            Reply::CampaignAdded(id) => Ok(id),
            _ => Err(MarketError::MismatchedReply),
        }
    }

    /// Registers a campaign from an `AddCampaign` record, or a typed table or
    /// program, which a journalled market could not replay and refuses.
    fn insert_campaign(
        &mut self,
        advertiser: AdvertiserHandle,
        keyword: usize,
        program: ProgramSpec,
        terms: Terms<'_>,
    ) -> Result<CampaignId, MarketError> {
        let keyword = self.check_keyword(keyword)?;
        let index = self.books[keyword].campaigns().len();
        let id = CampaignId { keyword, index };
        if self.journal.is_some() && !matches!(program, ProgramSpec::PerClick(_)) {
            return Err(MarketError::NotDurable(id));
        }
        // A campaign record holds its advertiser in 32 bits.
        let owner = u32::try_from(advertiser.0)
            .ok()
            .filter(|_| advertiser.0 < self.advertisers.starts.len())
            .map(|advertiser| Owner {
                advertiser,
                paused: false,
            })
            .ok_or(MarketError::UnknownAdvertiser(advertiser))?;
        // `None`: purchases never happen.
        let purchase_probs = terms
            .purchase_probs
            .or(self.config.default_purchase_probs.as_deref());
        if let Some(probs) = purchase_probs {
            validate_purchase_probs(probs, self.config.slots)?;
        }
        terms.roi_target.map_or(Ok(()), check_roi_target)?;
        // Every validation precedes the first change below: a rejected
        // registration leaves the keyword's warm engine untouched.
        if let ProgramSpec::PerClick(bid) = program {
            check_bid(bid)?;
        }
        if terms.click_value.cents() < 0 {
            return Err(MarketError::NegativeClickValue(terms.click_value));
        }
        let targeting = (terms.targeting)
            .map(|source| matcher_for(&self.matchers, source))
            .transpose()?;
        // The last validation, and the first change: a row the market does
        // not hold yet enters its table.
        let click_row = Marketplace::click_row(
            &mut self.clicks,
            self.click_rows[advertiser.0],
            self.default_click_row,
            terms.click_probs,
        )?;
        if let (Some(source), Some(matcher)) = (terms.targeting, &targeting) {
            if !self.matchers.contains_key(source) {
                self.matchers.insert(source.into(), matcher.clone());
            }
        }

        self.click_rows[advertiser.0] = Some(click_row);
        let MarketConfigState {
            method,
            pricing,
            pruned,
            warm_start,
            slots,
            ..
        } = self.config;
        let config = EngineConfig {
            method,
            pricing,
            pruned,
            warm_start,
        };
        let num_keywords = self.books.len();
        let book = &mut self.books[keyword];
        let kind = match program {
            ProgramSpec::PerClick(bid) => {
                CampaignKind::PerClick(PerClick::new(bid, terms.click_value, terms.roi_target))
            }
            ProgramSpec::Table(table) => CampaignKind::Table(table),
            ProgramSpec::Program(program) => CampaignKind::Program(program),
        };
        // The next auction reads every row, the new one included.
        book.engine
            .get_or_insert_with(|| Box::new(AuctionEngine::new(slots, num_keywords, config)))
            .push(
                Campaign::new(owner, targeting, kind),
                click_row,
                purchase_probs,
            );
        Ok(id)
    }

    /// The click row a campaign registers in the market's table `clicks`:
    /// the configured `default` when the campaign brings no probabilities;
    /// otherwise the row its advertiser's `latest` campaign registered, or
    /// the default, when `probs` is bit for bit the same (so `0.0` and
    /// `-0.0` differ, and a captured row reads back exactly as it was
    /// supplied); otherwise a new row, which [`ClickTable::insert`] checks.
    fn click_row(
        clicks: &mut ClickTable,
        latest: Option<ClickRowId>,
        default: Option<ClickRowId>,
        probs: Option<&[f64]>,
    ) -> Result<ClickRowId, MarketError> {
        let Some(probs) = probs else {
            return default.ok_or(MarketError::MissingClickModel);
        };
        let same = |id: &ClickRowId| {
            let row = clicks.row(*id);
            row.len() == probs.len()
                && row
                    .iter()
                    .zip(probs)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        match latest.into_iter().chain(default).find(same) {
            Some(id) => Ok(id),
            None => clicks.insert(probs),
        }
    }

    /// The advertiser owning a campaign.
    pub fn campaign_advertiser(&self, id: CampaignId) -> Result<AdvertiserHandle, MarketError> {
        self.check_campaign(id)?;
        Ok(self.books[id.keyword].campaigns()[id.index].advertiser())
    }

    /// Whether a campaign is currently paused.
    pub fn is_paused(&self, id: CampaignId) -> Result<bool, MarketError> {
        self.check_campaign(id)?;
        Ok(self.books[id.keyword].campaigns()[id.index].paused())
    }

    // -- incremental update API --------------------------------------------

    /// Sets a per-click campaign's bid.
    ///
    /// `O(1)`: one write to the campaign, which marks its row for
    /// re-evaluation — the engine, its solver scratch, and the other
    /// campaigns are untouched.
    pub fn update_bid(&mut self, id: CampaignId, bid: Money) -> Result<(), MarketError> {
        self.apply(MutationRecord::UpdateBid {
            keyword: id.keyword as u64,
            index: id.index as u64,
            bid_cents: bid.cents(),
        })
        .map(drop)
    }

    /// Sets or clears a per-click campaign's ROI target.
    ///
    /// A target `t` caps the effective bid at `click_value / t` (paying
    /// more than that per click would push the expected return on
    /// investment below `t`); the nominal bid set by
    /// [`Marketplace::update_bid`] is preserved and the cap is re-derived
    /// on every change.
    pub fn set_roi_target(
        &mut self,
        id: CampaignId,
        target: Option<f64>,
    ) -> Result<(), MarketError> {
        self.apply(MutationRecord::SetRoiTarget {
            keyword: id.keyword as u64,
            index: id.index as u64,
            target,
        })
        .map(drop)
    }

    /// Pauses a campaign: it stops bidding (and, being excluded from the
    /// matching, can never be displayed) until resumed. Works for every
    /// campaign kind and never rebuilds the engine.
    pub fn pause_campaign(&mut self, id: CampaignId) -> Result<(), MarketError> {
        let (keyword, index) = (id.keyword as u64, id.index as u64);
        self.apply(MutationRecord::PauseCampaign { keyword, index })
            .map(drop)
    }

    /// Resumes a paused campaign.
    pub fn resume_campaign(&mut self, id: CampaignId) -> Result<(), MarketError> {
        let (keyword, index) = (id.keyword as u64, id.index as u64);
        self.apply(MutationRecord::ResumeCampaign { keyword, index })
            .map(drop)
    }

    /// Write access to a registered campaign, through its engine's
    /// accessor: the keyword's next auction compares a standing campaign's
    /// table with the one it had before the write.
    fn campaign_mut(&mut self, id: CampaignId) -> Result<&mut Campaign, MarketError> {
        self.check_campaign(id)?;
        let engine = self.books[id.keyword].engine.as_mut();
        let engine = engine.ok_or(MarketError::UnknownCampaign(id))?;
        Ok(engine.bidder_mut(id.index))
    }

    /// Rewrites a per-click campaign's bidding fields through
    /// [`Marketplace::campaign_mut`] once it exists and the write passed
    /// `check`; [`MarketError::NotIncremental`], recording nothing, otherwise.
    fn write_per_click(
        &mut self,
        id: CampaignId,
        check: Result<(), MarketError>,
        write: impl FnOnce(&mut PerClick),
    ) -> Result<(), MarketError> {
        self.check_campaign(id)?;
        check?;
        let campaign = &self.books[id.keyword].campaigns()[id.index];
        let mut fields = campaign
            .per_click()
            .ok_or(MarketError::NotIncremental(id))?;
        write(&mut fields);
        self.campaign_mut(id)?.set_per_click(fields);
        Ok(())
    }

    /// A per-click campaign's current *effective* bid: its nominal bid
    /// after the ROI cap, [`Money::ZERO`] while paused.
    /// [`MarketError::NotIncremental`] for a fixed-table or program
    /// campaign.
    pub fn current_bid(&self, id: CampaignId) -> Result<Money, MarketError> {
        self.check_campaign(id)?;
        let campaign = &self.books[id.keyword].campaigns()[id.index];
        match campaign.effective_bid() {
            Some(_) if campaign.paused() => Ok(Money::ZERO),
            Some(bid) => Ok(bid),
            None => Err(MarketError::NotIncremental(id)),
        }
    }

    /// The `limit` highest effective bids of a keyword's unpaused per-click
    /// campaigns (paused, fixed-table and program campaigns are absent):
    /// bid descending, and among equal bids the later-registered campaign
    /// (higher [`CampaignId::index`]) first.
    pub fn top_bids(
        &self,
        keyword: usize,
        limit: usize,
    ) -> Result<Vec<(CampaignId, Money)>, MarketError> {
        let keyword = self.check_keyword(keyword)?;
        let mut bids: Vec<(CampaignId, Money)> = self.books[keyword]
            .campaigns()
            .iter()
            .enumerate()
            .filter(|(_, campaign)| !campaign.paused())
            .filter_map(|(index, campaign)| {
                let bid = campaign.effective_bid()?;
                Some((CampaignId { keyword, index }, bid))
            })
            .collect();
        // One keyword: ids compare by index.
        bids.sort_unstable_by_key(|&(id, bid)| std::cmp::Reverse((bid, id)));
        bids.truncate(limit);
        Ok(bids)
    }

    // -- query serving ------------------------------------------------------

    /// Serves one query end to end (program evaluation, winner
    /// determination, user action, pricing, program notification) on the
    /// calling thread and returns the fully typed outcome.
    pub fn serve(&mut self, request: QueryRequest) -> Result<AuctionResponse, MarketError> {
        let (keyword, attrs) = (request.keyword as u64, request.attrs);
        match self.apply(MutationRecord::Serve { keyword, attrs })? {
            Reply::Served(response) => Ok(response),
            _ => Err(MarketError::MismatchedReply),
        }
    }

    /// Serves a stream of queries through the persistent per-keyword
    /// engines, aggregating outcomes.
    ///
    /// The stream is split into maximal same-keyword chunks; each chunk is
    /// one batched run of the keyword's engine, so consecutive queries on the
    /// same keyword reuse one revenue matrix and one solver scratch with no
    /// per-query allocation. A chunk's auctions carry the global clock
    /// values of their stream positions.
    ///
    /// When the chunks fall in one shard — always, on one shard — they run
    /// on the calling thread in stream order. Otherwise every shard with
    /// work runs its chunks, in stream order, on a [`std::thread::scope`]
    /// worker holding that shard's keyword books. Per-chunk reports are
    /// merged **in stream order** either way, so the aggregate — including
    /// the floating-point `expected_revenue` sums — is bit-identical at
    /// every shard count. A journalled market copies the stream into the
    /// record it journals.
    pub fn serve_batch(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<MarketBatchReport, MarketError> {
        if self.journal.is_none() {
            return self.run_batch(requests);
        }
        let queries = requests
            .iter()
            .map(|r| (r.keyword as u64, r.attrs.clone()))
            .collect();
        match self.apply(MutationRecord::ServeBatch { queries })? {
            Reply::BatchServed(report) => Ok(report),
            _ => Err(MarketError::MismatchedReply),
        }
    }

    /// The body of [`Marketplace::serve_batch`] and of a `ServeBatch`
    /// record: serves `queries`, borrowed, in stream order.
    fn run_batch<Q: EngineQuery + Sync>(
        &mut self,
        queries: &[Q],
    ) -> Result<MarketBatchReport, MarketError> {
        for query in queries {
            self.check_keyword(query.keyword())?;
        }
        let mut time = self.clock;
        let runs = || queries.chunk_by(|a, b| a.keyword() == b.keyword());
        // Counted first, so the list is allocated once at its size.
        let mut chunks: Vec<Chunk<Q>> = Vec::with_capacity(runs().count());
        chunks.extend(runs().map(|run| {
            let start_time = time;
            time += run.len() as u64;
            let keyword = run.first().map_or(0, EngineQuery::keyword);
            Chunk {
                keyword,
                queries: run,
                start_time,
            }
        }));
        self.clock = time;

        let num_shards = self.config.shards;
        let shard = |c: &Chunk<Q>| shard_of_keyword(c.keyword, num_shards);
        let one_shard = num_shards == 1
            || chunks
                .windows(2)
                .all(|pair| shard(&pair[0]) == shard(&pair[1]));
        // One report per chunk, in stream order.
        let reports: Vec<BatchReport> = if one_shard {
            chunks
                .iter()
                .map(|c| self.books[c.keyword].serve_run(&self.clicks, c.queries, c.start_time))
                .collect()
        } else {
            self.fan_out(&chunks)?
        };

        let mut out = MarketBatchReport {
            total: BatchReport::default(),
            per_keyword: vec![BatchReport::default(); self.books.len()],
            chunks: chunks.len() as u64,
        };
        for (chunk, report) in chunks.iter().zip(&reports) {
            out.per_keyword[chunk.keyword].absorb(report);
            out.total.absorb(report);
        }
        Ok(out)
    }

    /// Runs `chunks` with one scoped worker per shard that has any, each
    /// holding the disjoint `&mut` books of its shard and reading the one
    /// click table through a shared borrow, and returns the reports in
    /// chunk order. A worker's panic resumes on the caller's thread.
    fn fan_out<Q: EngineQuery + Sync>(
        &mut self,
        chunks: &[Chunk<Q>],
    ) -> Result<Vec<BatchReport>, MarketError> {
        let (num_shards, num_keywords) = (self.config.shards, self.books.len());
        let clicks = &self.clicks;
        let mut shards: Vec<ShardWork> = (0..num_shards).map(|_| ShardWork::default()).collect();
        for (keyword, book) in self.books.iter_mut().enumerate() {
            shards[shard_of_keyword(keyword, num_shards)]
                .books
                .push((keyword, book));
        }
        for (at, chunk) in chunks.iter().enumerate() {
            shards[shard_of_keyword(chunk.keyword, num_shards)]
                .chunks
                .push(at);
        }
        let mut reports = vec![BatchReport::default(); chunks.len()];
        std::thread::scope(|scope| {
            let workers: Vec<_> = shards
                .into_iter()
                .filter(|shard| !shard.chunks.is_empty())
                .map(|mut shard| {
                    scope.spawn(move || {
                        let serve = |at: usize| {
                            let chunk = &chunks[at];
                            // A shard holds the books of its keywords.
                            let book = shard
                                .books
                                .binary_search_by_key(&chunk.keyword, |(keyword, _)| *keyword)
                                .map_err(|_| MarketError::UnknownKeyword {
                                    keyword: chunk.keyword,
                                    num_keywords,
                                })?;
                            let book = &mut shard.books[book].1;
                            Ok((at, book.serve_run(clicks, chunk.queries, chunk.start_time)))
                        };
                        shard.chunks.iter().copied().map(serve).collect()
                    })
                })
                .collect();
            for worker in workers {
                let served: Result<Vec<_>, MarketError> = match worker.join() {
                    Ok(served) => served,
                    Err(panic) => std::panic::resume_unwind(panic),
                };
                for (at, report) in served? {
                    reports[at] = report;
                }
            }
            Ok(reports)
        })
    }
}

/// One shard's share of a [`Marketplace::fan_out`].
#[derive(Default)]
struct ShardWork<'a> {
    /// The shard's books with their keywords, ascending by keyword.
    books: Vec<(usize, &'a mut KeywordBook)>,
    /// Positions of the shard's chunks, ascending: stream order.
    chunks: Vec<usize>,
}

/// One maximal same-keyword run of a query stream: the queries (keyword
/// *and* user attributes) borrowed from the caller's slice or record.
struct Chunk<'a, Q> {
    keyword: usize,
    queries: &'a [Q],
    /// Global clock value before the chunk's first query.
    start_time: u64,
}

/// A campaign's terms besides its program, borrowed from a record or spec.
struct Terms<'a> {
    click_probs: Option<&'a [f64]>,
    purchase_probs: Option<&'a [(f64, f64)]>,
    click_value: Money,
    roi_target: Option<f64>,
    targeting: Option<&'a str>,
}

/// The compiled matcher of targeting text `source`: the one in a market's
/// `matchers` if the text was used before, else parsed now (the caller
/// enters it once the campaign is accepted).
fn matcher_for(
    matchers: &HashMap<String, Arc<CompiledTargeting>>,
    source: &str,
) -> Result<Arc<CompiledTargeting>, MarketError> {
    if let Some(matcher) = matchers.get(source) {
        return Ok(matcher.clone());
    }
    CompiledTargeting::parse(source)
        .map(Arc::new)
        .map_err(MarketError::InvalidTargeting)
}

fn check_bid(bid: Money) -> Result<(), MarketError> {
    let valid = bid.is_positive() || bid == Money::ZERO;
    valid.then_some(()).ok_or(MarketError::NegativeBid(bid))
}

fn check_roi_target(target: f64) -> Result<(), MarketError> {
    if target.is_finite() && target > 0.0 {
        Ok(())
    } else {
        Err(MarketError::InvalidRoiTarget(target))
    }
}

/// Reads the last auction `engine` ran (local bidder indexes) out of its
/// scratch into the typed [`AuctionResponse`] (campaign ids and advertiser
/// handles): the response's two vectors are the only allocations.
fn respond(
    engine: &AuctionEngine,
    keyword: usize,
    time: u64,
    expected_revenue: f64,
) -> AuctionResponse {
    let (assignment, clicked, purchased, charges) = engine.outcome();
    let id = |index| CampaignId { keyword, index };
    let mut placements = Vec::with_capacity(assignment.num_assigned());
    for (j, local) in assignment.slot_to_adv.iter().enumerate() {
        let Some(local) = *local else { continue };
        let charge = charges
            .iter()
            .find(|(adv, _)| *adv == local)
            .map(|(_, m)| *m)
            .unwrap_or(Money::ZERO);
        placements.push(Placement {
            slot: SlotId::from_index0(j),
            campaign: id(local),
            advertiser: engine.bidders()[local].advertiser(),
            clicked: clicked[j],
            purchased: purchased[j],
            charge,
        });
    }
    AuctionResponse {
        keyword,
        time,
        expected_revenue,
        realized_revenue: charges.iter().map(|(_, m)| *m).sum(),
        placements,
        charges: charges.iter().map(|(local, m)| (id(*local), *m)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_campaign_market() -> (Marketplace, CampaignId, CampaignId) {
        let mut market = Marketplace::builder()
            .slots(2)
            .keywords(2)
            .seed(11)
            .default_click_probs(vec![0.8, 0.4])
            .build()
            .expect("valid configuration");
        let a = market.register_advertiser("a");
        let b = market.register_advertiser("b");
        let c1 = market
            .add_campaign(a, 0, CampaignSpec::per_click(Money::from_cents(20)))
            .expect("accepted");
        let c2 = market
            .add_campaign(b, 0, CampaignSpec::per_click(Money::from_cents(10)))
            .expect("accepted");
        (market, c1, c2)
    }

    #[test]
    fn serve_places_by_descending_bid() {
        let (mut market, c1, c2) = two_campaign_market();
        let response = market.serve(QueryRequest::new(0)).expect("valid keyword");
        assert_eq!(response.time, 1);
        assert_eq!(market.now(), 1);
        assert_eq!(response.placements.len(), 2);
        assert_eq!(response.placements[0].campaign, c1);
        assert_eq!(response.placements[1].campaign, c2);
        assert!((response.expected_revenue - (0.8 * 20.0 + 0.4 * 10.0)).abs() < 1e-9);
    }

    #[test]
    fn update_bid_takes_effect_without_rebuilding() {
        let (mut market, c1, c2) = two_campaign_market();
        market.serve(QueryRequest::new(0)).expect("warm engine");
        // Flip the order incrementally; the engine must survive in place.
        market
            .update_bid(c1, Money::from_cents(1))
            .expect("per-click");
        assert_eq!(market.current_bid(c1).unwrap(), Money::from_cents(1));
        let response = market.serve(QueryRequest::new(0)).expect("valid keyword");
        assert_eq!(response.placements[0].campaign, c2);
        assert_eq!(
            market.top_bids(0, 10).unwrap(),
            vec![(c2, Money::from_cents(10)), (c1, Money::from_cents(1))]
        );
    }

    #[test]
    fn paused_campaigns_are_never_displayed() {
        for method in [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced] {
            let mut market = Marketplace::builder()
                .slots(2)
                .keywords(1)
                .method(method)
                .default_click_probs(vec![0.9, 0.5])
                .build()
                .expect("valid configuration");
            let a = market.register_advertiser("a");
            let c1 = market
                .add_campaign(a, 0, CampaignSpec::per_click(Money::from_cents(5)))
                .expect("accepted");
            let c2 = market
                .add_campaign(a, 0, CampaignSpec::per_click(Money::from_cents(9)))
                .expect("accepted");
            market.pause_campaign(c1).expect("known campaign");
            for _ in 0..5 {
                let r = market.serve(QueryRequest::new(0)).expect("valid keyword");
                assert!(
                    r.placements.iter().all(|p| p.campaign != c1),
                    "paused campaign displayed under {method:?}"
                );
            }
            // Pausing everything empties the page entirely.
            market.pause_campaign(c2).expect("known campaign");
            let r = market.serve(QueryRequest::new(0)).expect("valid keyword");
            assert!(r.placements.is_empty(), "{method:?} displayed a paused ad");
            assert_eq!(r.expected_revenue, 0.0, "{method:?}");
            // And resuming restores service.
            market.resume_campaign(c1).expect("known campaign");
            let r = market.serve(QueryRequest::new(0)).expect("valid keyword");
            assert_eq!(r.placements.len(), 1);
            assert_eq!(r.placements[0].campaign, c1);
        }
    }

    #[test]
    fn roi_target_caps_the_effective_bid() {
        let mut market = Marketplace::builder()
            .slots(1)
            .default_click_probs(vec![0.5])
            .build()
            .expect("valid configuration");
        let a = market.register_advertiser("a");
        let c = market
            .add_campaign(
                a,
                0,
                CampaignSpec::per_click(Money::from_cents(40)).click_value(Money::from_cents(60)),
            )
            .expect("accepted");
        assert_eq!(market.current_bid(c).unwrap(), Money::from_cents(40));
        // Target ROI 2.0 ⇒ never pay more than 30¢ per 60¢ click.
        market.set_roi_target(c, Some(2.0)).expect("per-click");
        assert_eq!(market.current_bid(c).unwrap(), Money::from_cents(30));
        // The nominal bid survives underneath the cap.
        market.set_roi_target(c, None).expect("per-click");
        assert_eq!(market.current_bid(c).unwrap(), Money::from_cents(40));
        // A cap below zero is floored.
        market.set_roi_target(c, Some(f64::MAX)).expect("per-click");
        assert_eq!(market.current_bid(c).unwrap(), Money::ZERO);
    }

    #[test]
    fn serve_batch_chunks_same_keyword_runs() {
        let (mut market, _, _) = two_campaign_market();
        let requests: Vec<QueryRequest> = [0, 0, 0, 1, 1, 0]
            .iter()
            .map(|&k| QueryRequest::new(k))
            .collect();
        let report = market.serve_batch(&requests).expect("valid keywords");
        assert_eq!(report.total.auctions, 6);
        assert_eq!(report.chunks, 3); // [0,0,0] [1,1] [0]
        assert_eq!(report.per_keyword[0].auctions, 4);
        assert_eq!(report.per_keyword[1].auctions, 2); // keyword 1: no campaigns
        assert_eq!(report.per_keyword[1].filled_slots, 0);
        assert_eq!(market.now(), 6);
    }

    #[test]
    fn serve_batch_matches_looped_serve() {
        let build = || {
            let (market, ..) = two_campaign_market();
            market
        };
        let requests: Vec<QueryRequest> = (0..40).map(|i| QueryRequest::new(i % 2)).collect();
        let mut looped = build();
        let mut expected = BatchReport::default();
        for request in &requests {
            let r = looped.serve(request.clone()).expect("valid keyword");
            expected.auctions += 1;
            expected.expected_revenue += r.expected_revenue;
            expected.filled_slots += r.placements.len() as u64;
            expected.clicks += r.placements.iter().filter(|p| p.clicked).count() as u64;
            expected.purchases += r.placements.iter().filter(|p| p.purchased).count() as u64;
            expected.realized_revenue += r.realized_revenue;
        }
        let mut batched = build();
        let got = batched.serve_batch(&requests).expect("valid keywords");
        assert!((got.total.expected_revenue - expected.expected_revenue).abs() < 1e-9);
        assert_eq!(
            BatchReport {
                expected_revenue: expected.expected_revenue,
                ..got.total
            },
            expected
        );
    }

    #[test]
    fn typed_errors_cover_the_api() {
        let (mut market, c1, _) = two_campaign_market();
        let ghost = AdvertiserHandle(99);
        assert_eq!(
            market.add_campaign(ghost, 0, CampaignSpec::per_click(Money::ZERO)),
            Err(MarketError::UnknownAdvertiser(ghost))
        );
        assert!(matches!(
            market.serve(QueryRequest::new(9)),
            Err(MarketError::UnknownKeyword { keyword: 9, .. })
        ));
        let bogus = CampaignId {
            keyword: 0,
            index: 77,
        };
        assert_eq!(
            market.update_bid(bogus, Money::ZERO),
            Err(MarketError::UnknownCampaign(bogus))
        );
        assert_eq!(
            market.update_bid(c1, Money::from_cents(-3)),
            Err(MarketError::NegativeBid(Money::from_cents(-3)))
        );
        assert_eq!(
            market.set_roi_target(c1, Some(-1.0)),
            Err(MarketError::InvalidRoiTarget(-1.0))
        );
        // A negative click value is refused before anything changes, and
        // a zero one (the default) is accepted.
        let owner = market.register_advertiser("values");
        let valued = |cents| {
            CampaignSpec::per_click(Money::from_cents(5)).click_value(Money::from_cents(cents))
        };
        assert_eq!(
            market.add_campaign(owner, 1, valued(-1)),
            Err(MarketError::NegativeClickValue(Money::from_cents(-1)))
        );
        assert_eq!(market.top_bids(1, 8), Ok(Vec::new()));
        assert!(market.add_campaign(owner, 1, valued(0)).is_ok());
        let a = market.register_advertiser("tables");
        let t = market
            .add_campaign(
                a,
                0,
                CampaignSpec::table(BidsTable::single_feature(Money::from_cents(2))),
            )
            .expect("accepted");
        assert_eq!(
            market.update_bid(t, Money::from_cents(9)),
            Err(MarketError::NotIncremental(t))
        );
        assert_eq!(
            Marketplace::builder().slots(0).build().err(),
            Some(MarketError::NoSlots)
        );
        assert_eq!(
            Marketplace::builder()
                .default_click_probs(vec![0.5, 0.5])
                .build()
                .err(),
            Some(MarketError::ModelDimension {
                expected: 1,
                got: 2
            })
        );
        // A refused configuration is the same error through the one
        // constructor and through the builder. Each case also breaks every
        // check after its own, so the order is pinned: shards, slots and
        // keywords of zero, then above their bounds, then the default
        // click row, then the default purchase row.
        let (huge, slots2) = (1usize << 40, MarketConfigState::default());
        let slots2 = MarketConfigState { slots: 2, ..slots2 };
        let bad_purchase = Some(vec![(0.1, 0.2), (0.3, -0.5)]);
        let broken = |shards, slots, keywords| MarketConfigState {
            shards,
            slots,
            keywords,
            default_click_probs: Some(vec![0.5; 3]),
            default_purchase_probs: Some(vec![(0.1, 0.2)]),
            ..slots2.clone()
        };
        for (config, want) in [
            (broken(0, 0, 0), MarketError::NoShards),
            (broken(huge, 0, 0), MarketError::NoSlots),
            (broken(huge, huge, 0), MarketError::NoKeywords),
            (
                broken(MAX_SHARDS + 1, huge, huge),
                MarketError::TooManyShards(MAX_SHARDS + 1),
            ),
            (
                broken(4, MAX_SLOTS + 1, huge),
                MarketError::TooManySlots(MAX_SLOTS + 1),
            ),
            (
                broken(4, 2, MAX_KEYWORDS + 1),
                MarketError::TooManyKeywords(MAX_KEYWORDS + 1),
            ),
            (
                broken(4, 2, 3),
                MarketError::ModelDimension {
                    expected: 2,
                    got: 3,
                },
            ),
            (
                MarketConfigState {
                    default_click_probs: Some(vec![0.5, 1.5]),
                    default_purchase_probs: bad_purchase.clone(),
                    ..slots2.clone()
                },
                MarketError::InvalidProbability(1.5),
            ),
            (
                MarketConfigState {
                    default_purchase_probs: Some(vec![(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]),
                    ..slots2.clone()
                },
                MarketError::ModelDimension {
                    expected: 2,
                    got: 3,
                },
            ),
            (
                MarketConfigState {
                    default_purchase_probs: bad_purchase,
                    ..slots2.clone()
                },
                MarketError::InvalidProbability(-0.5),
            ),
        ] {
            let constructed = Marketplace::from_config(&config).err();
            assert_eq!(constructed, Some(want), "{config:?}");
            assert_eq!(through_builder(&config).err(), constructed, "{config:?}");
        }
        // The market keeps its configuration as supplied, `-0.0` included,
        // so a `Configure` of it encodes the same bytes.
        let every = MarketConfigState {
            slots: 3,
            keywords: 5,
            seed: 99,
            method: WdMethod::Hungarian,
            pricing: PricingScheme::Vickrey,
            shards: 4,
            pruned: true,
            warm_start: false,
            default_click_probs: Some(vec![0.5, -0.0, 0.25]),
            default_purchase_probs: Some(vec![(0.1, -0.0), (0.0, 0.2), (-0.0, 1.0)]),
        };
        let bytes = |config: MarketConfigState| {
            let mut buf = Vec::new();
            MutationRecord::Configure(config).encode_into(&mut buf);
            buf
        };
        for market in [Marketplace::from_config(&every), through_builder(&every)] {
            let config = market.expect("valid configuration").config();
            assert_eq!(config, every);
            assert_eq!(bytes(config), bytes(every.clone()));
        }
        assert!(
            MarketError::NotIncremental(t)
                .to_string()
                .contains("is not per-click"),
            "a fixed table is not a custom program"
        );
        // Errors are std errors with readable messages.
        let err: Box<dyn std::error::Error> = Box::new(MarketError::MissingClickModel);
        assert!(err.to_string().contains("click"));
    }

    #[test]
    fn top_bids_breaks_ties_to_the_later_campaign() {
        let mut market = Marketplace::builder()
            .slots(1)
            .default_click_probs(vec![0.5])
            .build()
            .expect("valid configuration");
        let a = market.register_advertiser("a");
        let per_click = |cents| CampaignSpec::per_click(Money::from_cents(cents));
        let mut add = |spec| market.add_campaign(a, 0, spec).expect("accepted");
        let c0 = add(per_click(7));
        let c1 = add(per_click(9));
        let table = add(CampaignSpec::table(BidsTable::single_feature(
            Money::from_cents(50),
        )));
        let c3 = add(per_click(7));
        let c4 = add(per_click(9));
        let c5 = add(per_click(7));
        market.pause_campaign(c5).expect("known campaign");
        let cents = Money::from_cents;
        assert_eq!(
            market.top_bids(0, usize::MAX).unwrap(),
            vec![
                (c4, cents(9)),
                (c1, cents(9)),
                (c3, cents(7)),
                (c0, cents(7))
            ],
            "bid descending, ties to the higher index, paused and table absent"
        );
        assert_eq!(
            market.top_bids(0, 3).unwrap(),
            vec![(c4, cents(9)), (c1, cents(9)), (c3, cents(7))]
        );
        assert_eq!(market.top_bids(0, 0).unwrap(), vec![]);
        assert_eq!(market.current_bid(c5).unwrap(), Money::ZERO);
        assert_eq!(
            market.current_bid(table),
            Err(MarketError::NotIncremental(table))
        );
    }

    /// What [`Marketplace::restore_positions`] restores.
    fn positions(market: &Marketplace) -> (u64, Vec<[u64; 4]>) {
        (market.now(), market.rng_states().collect())
    }

    #[test]
    fn a_state_without_one_rng_stream_per_keyword_is_a_typed_error() {
        let (mut live, _) = populated(3, 1);
        live.serve_batch(&mixed_stream(3, 20)).expect("in range");
        let (clock, good) = positions(&live);
        let (mut market, _) = populated(3, 1);
        let fresh = positions(&market);
        for streams in [0, 2, 4] {
            let mut states = good.clone();
            states.resize(streams, [1, 2, 3, 4]);
            let keywords = 3;
            let refused = Err(MarketError::RngStreams { keywords, streams });
            assert_eq!(market.restore_positions(clock, &states), refused);
            assert_eq!(positions(&market), fresh);
        }
        market
            .restore_positions(clock, &good)
            .expect("one per keyword");
        assert_eq!(positions(&market), positions(&live));
    }

    /// The clock and the RNG positions are not journalled: a journalled
    /// market that moved them would replay its log to different auctions.
    #[test]
    fn a_journalled_market_refuses_to_restore_positions() {
        let (mut market, _) = populated(3, 1);
        market.serve_batch(&mixed_stream(3, 20)).expect("in range");
        let before = positions(&market);
        let journal = VecJournal::default();
        market.set_journal(Box::new(journal.clone()));
        let elsewhere = [[1, 2, 3, 4]; 3];
        let refused = market.restore_positions(0, &elsewhere);
        assert_eq!(refused, Err(MarketError::Journalled));
        assert_eq!(positions(&market), before);
        assert!(journal.0.lock().unwrap().is_empty());
        // Detached, the same call restores.
        market.take_journal();
        market.restore_positions(0, &elsewhere).expect("no journal");
        assert_eq!(positions(&market), (0, elsewhere.to_vec()));
    }

    #[test]
    fn sql_program_campaigns_serve_like_equivalent_static_bids() {
        // A SQL program that always bids a constant must serve exactly like
        // a per-click campaign at the same bid, auction for auction.
        let build = |sql: bool| {
            let mut market = Marketplace::builder()
                .slots(2)
                .seed(3)
                .default_click_probs(vec![0.7, 0.3])
                .build()
                .expect("valid configuration");
            let a = market.register_advertiser("a");
            let spec = if sql {
                let program = SqlProgram::compile(
                    "CREATE TABLE Query (kw INT); \
                     CREATE TABLE Bids (formula TEXT, value INT); \
                     INSERT INTO Bids VALUES ('Click', :bid);",
                    "",
                )
                .expect("well-formed program");
                CampaignSpec::sql_program(&program, &ssa_minidb::Params::new().bind("bid", 25))
                    .expect("the parameters fit the program")
            } else {
                CampaignSpec::per_click(Money::from_cents(25))
            };
            market.add_campaign(a, 0, spec).expect("accepted");
            market
                .add_campaign(a, 0, CampaignSpec::per_click(Money::from_cents(10)))
                .expect("accepted");
            market
        };
        let mut sql = build(true);
        let mut fixed = build(false);
        for _ in 0..20 {
            let r = sql.serve(QueryRequest::new(0)).expect("valid keyword");
            let t = fixed.serve(QueryRequest::new(0)).expect("valid keyword");
            assert_eq!(r, t);
        }
        // Pausing a SQL campaign excludes it like any other program.
        let id = CampaignId::from_parts(0, 0);
        sql.pause_campaign(id).expect("known campaign");
        let r = sql.serve(QueryRequest::new(0)).expect("valid keyword");
        assert!(r.placements.iter().all(|p| p.campaign != id));
    }

    #[test]
    fn rejected_registration_leaves_the_market_untouched() {
        // A failing add_campaign must be a pure no-op: same campaign count
        // and byte-for-byte identical serving as a twin market that never
        // saw the bad request (in particular, the warm engine survives).
        let (mut market, _, _) = two_campaign_market();
        let (mut twin, _, _) = two_campaign_market();
        market.serve(QueryRequest::new(0)).expect("warm engine");
        twin.serve(QueryRequest::new(0)).expect("warm engine");
        let a = market.register_advertiser("bad");
        assert_eq!(
            market.add_campaign(a, 0, CampaignSpec::per_click(Money::from_cents(-1))),
            Err(MarketError::NegativeBid(Money::from_cents(-1)))
        );
        assert_eq!(market.num_campaigns(0).unwrap(), 2);
        for _ in 0..3 {
            let r = market.serve(QueryRequest::new(0)).expect("valid keyword");
            let t = twin.serve(QueryRequest::new(0)).expect("valid keyword");
            assert_eq!(r, t);
        }
    }

    #[test]
    fn adding_a_campaign_grows_the_warm_engine_in_place() {
        let (mut market, c1, _) = two_campaign_market();
        market.serve(QueryRequest::new(0)).expect("warm engine");
        let a = market.register_advertiser("late");
        let c3 = market
            .add_campaign(a, 0, CampaignSpec::per_click(Money::from_cents(50)))
            .expect("accepted");
        // Writes after the growth land like writes before it.
        market
            .update_bid(c1, Money::from_cents(2))
            .expect("per-click");
        let response = market.serve(QueryRequest::new(0)).expect("valid keyword");
        assert_eq!(response.placements[0].campaign, c3);
        assert_eq!(market.num_campaigns(0).unwrap(), 3);
        assert_eq!(market.current_bid(c1).unwrap(), Money::from_cents(2));
    }

    // -- one market at every shard count --------------------------------------

    /// `config` written setter by setter and built.
    fn through_builder(config: &MarketConfigState) -> Result<Marketplace, MarketError> {
        let mut builder = Marketplace::builder()
            .slots(config.slots)
            .keywords(config.keywords)
            .seed(config.seed)
            .method(config.method)
            .pricing(config.pricing)
            .pruned(config.pruned)
            .warm_start(config.warm_start);
        if let Some(probs) = &config.default_click_probs {
            builder = builder.default_click_probs(probs.clone());
        }
        if let Some(probs) = &config.default_purchase_probs {
            builder = builder.default_purchase_probs(probs.clone());
        }
        builder.build_sharded(config.shards)
    }

    fn builder(keywords: usize) -> MarketplaceBuilder {
        Marketplace::builder()
            .slots(2)
            .keywords(keywords)
            .seed(99)
            .default_click_probs(vec![0.7, 0.35])
    }

    /// Two advertisers, one campaign per keyword each.
    fn populate(market: &mut Marketplace) -> Vec<CampaignId> {
        let a = market.register_advertiser("a");
        let b = market.register_advertiser("b");
        let mut ids = Vec::new();
        for kw in 0..market.num_keywords() {
            for (advertiser, cents) in [(a, 10 + kw as i64), (b, 4 + 2 * kw as i64)] {
                let spec = CampaignSpec::per_click(Money::from_cents(cents));
                ids.push(market.add_campaign(advertiser, kw, spec).expect("accepted"));
            }
        }
        ids
    }

    fn populated(keywords: usize, shards: usize) -> (Marketplace, Vec<CampaignId>) {
        let mut market = builder(keywords).build_sharded(shards).expect("valid");
        let ids = populate(&mut market);
        (market, ids)
    }

    fn mixed_stream(keywords: usize, len: usize) -> Vec<QueryRequest> {
        let mut state = 0xD15EA5Eu64;
        (0..len)
            .map(|_| {
                state = splitmix64(state);
                QueryRequest::new((state % keywords as u64) as usize)
            })
            .collect()
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        assert_eq!(
            builder(4).build_sharded(0).err(),
            Some(MarketError::NoShards)
        );
    }

    /// A configuration too large to build is refused before anything is
    /// allocated for it — one `Configure` frame used to abort the process.
    #[test]
    fn oversized_configurations_are_typed_errors() {
        let huge = 1usize << 40;
        for (built, want, message) in [
            (
                builder(4).slots(MAX_SLOTS + 1).build(),
                MarketError::TooManySlots(MAX_SLOTS + 1),
                "a marketplace has at most 1024 slots, not 1025",
            ),
            (
                builder(huge).build(),
                MarketError::TooManyKeywords(huge),
                "a marketplace has at most 65536 keywords, not 1099511627776",
            ),
            (
                builder(4).build_sharded(huge),
                MarketError::TooManyShards(huge),
                "a marketplace has at most 1024 shards, not 1099511627776",
            ),
        ] {
            let err = built.expect_err("oversized");
            assert_eq!(err, want);
            assert_eq!(err.to_string(), message);
        }
        // The bounds themselves build, and more shards than keywords is fine.
        let most_slots = Marketplace::builder().slots(MAX_SLOTS).build();
        assert_eq!(most_slots.expect("valid").num_slots(), MAX_SLOTS);
        let most_shards = builder(2).build_sharded(MAX_SHARDS).expect("valid");
        assert_eq!(most_shards.num_shards(), MAX_SHARDS);
    }

    /// A campaign is one record, the keyword engine's bidder: an untargeted
    /// per-click campaign without an ROI target whose amounts fit in `u32`
    /// cents is held in line, the enum's tag sits in the pause flag's
    /// niche, and everything else is one thin pointer.
    #[test]
    fn a_campaign_record_is_16_bytes() {
        let size = std::mem::size_of::<Campaign>();
        // 16 B since PR 54 (amounts in `u32` cents, programs boxed); 32 B
        // from PR 39 to PR 53 (every per-click field and a program's fat
        // pointer in line); 56 B before (targeting and the kind enum in
        // every record).
        assert_eq!(size, 16, "a campaign record is {size} bytes, 16 pinned");
    }

    /// A keyword without campaigns holds no engine: a market built at
    /// `MAX_KEYWORDS` costs a pointer and an RNG stream per keyword (about
    /// 1.1 KB each while the engine sat inline in the book).
    #[test]
    fn an_empty_keyword_costs_no_engine() {
        let market = Marketplace::builder()
            .keywords(MAX_KEYWORDS)
            .build()
            .expect("valid configuration");
        let books = market.footprint().get(Component::KeywordBooks).in_use;
        let per_keyword = books / MAX_KEYWORDS;
        assert!(
            per_keyword <= 64,
            "an empty keyword costs {per_keyword} B on the keyword books line, at most 64 allowed"
        );
    }

    /// The ledger enters what campaigns share once: one advertiser's click
    /// row on ten keywords is one flat row of the market's table (and
    /// eleven 4-byte ids: one per engine row, one for the advertiser), and
    /// a targeting text's matcher is one however many campaigns use it.
    #[test]
    fn a_click_row_shared_by_ten_keywords_is_counted_once() {
        let mut market = Marketplace::builder()
            .slots(2)
            .keywords(10)
            .build()
            .expect("valid configuration");
        let a = market.register_advertiser("a");
        for keyword in 0..10 {
            let spec = CampaignSpec::per_click(Money::from_cents(5)).click_probs(vec![0.5, 0.25]);
            market.add_campaign(a, keyword, spec).expect("accepted");
        }
        let ledger = market.footprint();
        let rows = ledger.get(Component::ClickRows);
        // Was 16 + 2 * 8 (the row behind an `Arc`'s counts) and 11 * 16
        // (a pointer per engine row and advertiser) before rows had ids.
        assert_eq!((rows.allocations, rows.in_use), (1, 2 * 8));
        assert_eq!(ledger.get(Component::ClickRowIds).in_use, 11 * 4);
        // 10 * 32 while a record was 32 bytes.
        assert_eq!(ledger.get(Component::CampaignRecords).in_use, 10 * 16);
        assert_eq!(ledger.get(Component::BoxedCampaigns), HeapUse::default());
        assert_eq!(ledger.get(Component::PurchaseIndex), HeapUse::default());

        // A different row is one more in the same buffer; a shared matcher
        // is entered once.
        let b = market.register_advertiser("b");
        for keyword in 0..2 {
            let spec = CampaignSpec::per_click(Money::from_cents(5))
                .click_probs(vec![0.5, 0.125])
                .targeting("device = 'mobile'");
            market.add_campaign(b, keyword, spec).expect("accepted");
        }
        let ledger = market.footprint();
        let rows = ledger.get(Component::ClickRows);
        assert_eq!((rows.allocations, rows.in_use), (1, 2 * 2 * 8));
        let boxed = std::mem::size_of::<BoxedCampaign>();
        assert_eq!(ledger.get(Component::BoxedCampaigns).in_use, 2 * boxed);
        let text = "device = 'mobile'".len();
        let matcher = 16 + std::mem::size_of::<CompiledTargeting>() + text;
        let map = footprint::of_map(&market.matchers);
        assert_eq!(
            ledger.get(Component::TargetingMatchers).in_use,
            map.in_use + text + matcher
        );
        assert_eq!(ledger.total(), ledger.lines().map(|(_, heap)| heap).sum());
    }

    /// Writes that leave a campaign's effective bid where it was keep the
    /// next auction warm: the engine keeps the record's table from before
    /// the first write and finds the table after the writes equal to it.
    #[test]
    fn writes_that_leave_the_effective_bid_unchanged_keep_the_next_auction_warm() {
        let cents = Money::from_cents;
        let mut market = Marketplace::builder()
            .slots(2)
            .default_click_probs(vec![0.8, 0.4])
            .build()
            .expect("valid configuration");
        let a = market.register_advertiser("a");
        // A 40¢ bid capped at 60¢ / 2.0 = 30¢.
        let capped = CampaignSpec::per_click(cents(40))
            .click_value(cents(60))
            .roi_target(2.0);
        let capped = market.add_campaign(a, 0, capped).expect("accepted");
        let plain = CampaignSpec::per_click(cents(10));
        let plain = market.add_campaign(a, 0, plain).expect("accepted");
        let serve = |market: &mut Marketplace| {
            let report = market.serve_batch(&[QueryRequest::new(0)]);
            let phases = report.expect("in range").total.phases;
            (phases.solves, phases.warm_solves, phases.rescans)
        };
        assert_eq!(serve(&mut market), (1, 0, 0), "the first auction solves");
        let warm = (0, 1, 0);

        market.update_bid(capped, cents(50)).expect("per-click");
        assert_eq!(serve(&mut market), warm, "raised above the cap");
        market.update_bid(plain, cents(10)).expect("per-click");
        assert_eq!(serve(&mut market), warm, "rewritten unchanged");
        market.pause_campaign(plain).expect("known campaign");
        market.resume_campaign(plain).expect("known campaign");
        assert_eq!(serve(&mut market), warm, "paused and resumed");
        assert_eq!(market.current_bid(capped).unwrap(), cents(30));
        assert_eq!(market.current_bid(plain).unwrap(), cents(10));

        // A write that moves an effective bid does solve.
        market.update_bid(capped, cents(20)).expect("per-click");
        assert_eq!(serve(&mut market), (1, 0, 0));
    }

    #[test]
    fn build_is_one_shard() {
        let market = builder(4).build().expect("valid");
        assert_eq!(market.num_shards(), 1);
        let (market, _) = populated(16, 5);
        assert_eq!(market.num_shards(), 5);
        for kw in 0..16 {
            assert_eq!(market.shard_of(kw), shard_of_keyword(kw, 5));
        }
    }

    #[test]
    fn serve_is_shard_invariant() {
        for shards in [2, 4, 7] {
            let (mut sharded, _) = populated(9, shards);
            let (mut plain, _) = populated(9, 1);
            for (t, request) in mixed_stream(9, 60).into_iter().enumerate() {
                let got = sharded.serve(request.clone()).expect("keyword in range");
                let want = plain.serve(request).expect("keyword in range");
                assert_eq!(got, want, "shards={shards} t={t}");
            }
            assert_eq!(sharded.now(), plain.now());
        }
    }

    #[test]
    fn serve_batch_is_shard_invariant() {
        let requests = mixed_stream(9, 300);
        let (mut plain, _) = populated(9, 1);
        let want = plain.serve_batch(&requests).expect("keywords in range");
        for shards in [2, 4, 7] {
            let (mut sharded, _) = populated(9, shards);
            let got = sharded.serve_batch(&requests).expect("keywords in range");
            assert_eq!(got, want, "shards={shards}");
            assert_eq!(sharded.now(), 300);
        }
    }

    #[test]
    fn incremental_updates_are_shard_invariant() {
        let (mut sharded, ids) = populated(6, 4);
        let (mut plain, plain_ids) = populated(6, 1);
        assert_eq!(ids, plain_ids);
        // Warm the engines, then update bids incrementally on both sides.
        let warm = mixed_stream(6, 24);
        sharded.serve_batch(&warm).expect("in range");
        plain.serve_batch(&warm).expect("in range");
        for (i, &id) in ids.iter().enumerate() {
            let bid = Money::from_cents(1 + (7 * i % 23) as i64);
            sharded.update_bid(id, bid).expect("per-click");
            plain.update_bid(id, bid).expect("per-click");
            assert_eq!(sharded.current_bid(id).unwrap(), bid);
        }
        sharded.pause_campaign(ids[3]).expect("known");
        plain.pause_campaign(ids[3]).expect("known");
        assert!(sharded.is_paused(ids[3]).unwrap());
        for kw in 0..6 {
            assert_eq!(
                sharded.top_bids(kw, 8).unwrap(),
                plain.top_bids(kw, 8).unwrap()
            );
        }
        // Post-update serving still matches, auction for auction.
        for request in mixed_stream(6, 40) {
            assert_eq!(
                sharded.serve(request.clone()).unwrap(),
                plain.serve(request).unwrap()
            );
        }
    }

    #[test]
    fn typed_errors_do_not_depend_on_the_shard_count() {
        let (mut m, _) = populated(4, 2);
        assert!(matches!(
            m.serve(QueryRequest::new(99)),
            Err(MarketError::UnknownKeyword { keyword: 99, .. })
        ));
        assert!(matches!(
            m.serve_batch(&[QueryRequest::new(0), QueryRequest::new(44)]),
            Err(MarketError::UnknownKeyword { keyword: 44, .. })
        ));
        let ghost = CampaignId::from_parts(99, 0);
        assert_eq!(
            m.update_bid(ghost, Money::ZERO),
            Err(MarketError::UnknownCampaign(ghost))
        );
        assert_eq!(
            m.current_bid(ghost),
            Err(MarketError::UnknownCampaign(ghost))
        );
    }

    /// Test journal: records into a shared Vec so the test can inspect
    /// what the marketplace reported.
    #[derive(Debug, Default, Clone)]
    struct VecJournal(std::sync::Arc<std::sync::Mutex<Vec<MutationRecord>>>);

    impl MutationJournal for VecJournal {
        fn record(&mut self, record: &MutationRecord) {
            self.0.lock().unwrap().push(record.clone());
        }
    }

    /// `state` rebuilt as recovery rebuilds a snapshot: its records applied
    /// to a fresh build of its configuration, then its positions restored.
    fn restored(state: &MarketState) -> Marketplace {
        let mut market = Marketplace::from_config(&state.config).expect("valid configuration");
        for record in &state.records {
            market.apply(record.clone()).expect("a captured record");
        }
        (market.restore_positions(state.clock, &state.rng_states)).expect("one per keyword");
        market
    }

    #[test]
    fn capture_state_round_trips_bit_identically() {
        for shards in [1, 2, 4] {
            let (mut live, ids) = populated(9, shards);
            // Advance mid-stream: every RNG stream and the clock move.
            live.serve_batch(&mixed_stream(9, 120)).expect("in range");
            live.update_bid(ids[2], Money::from_cents(77)).unwrap();
            live.pause_campaign(ids[5]).unwrap();
            live.set_roi_target(ids[0], Some(1.5)).unwrap();

            let state = live.capture_state().expect("per-click campaigns only");
            let mut restored = restored(&state);

            let shape = |m: &Marketplace| {
                let counts = (m.num_advertisers(), m.num_campaigns_total());
                (counts, m.num_keywords(), m.num_slots(), m.num_shards())
            };
            assert_eq!(shape(&restored), shape(&live));
            assert_eq!(restored.now(), live.now());
            for kw in 0..9 {
                assert_eq!(
                    restored.top_bids(kw, 8).unwrap(),
                    live.top_bids(kw, 8).unwrap()
                );
            }
            for &id in &ids {
                assert_eq!(restored.current_bid(id), live.current_bid(id));
                assert_eq!(restored.is_paused(id), live.is_paused(id));
            }
            // Future auctions are bit-identical: same winners, clicks,
            // purchases, and charges.
            for (t, request) in mixed_stream(9, 80).into_iter().enumerate() {
                let want = live.serve(request.clone()).expect("in range");
                let got = restored.serve(request).expect("in range");
                assert_eq!(got, want, "shards={shards} t={t}");
            }
            // And the re-captured state matches a fresh capture exactly.
            assert_eq!(
                restored.capture_state().unwrap(),
                live.capture_state().unwrap()
            );
        }
    }

    /// A journal replays into the same market — attached to a market from
    /// `build()` as well as to one from `build_sharded(3)`.
    #[test]
    fn journal_replay_reproduces_the_market() {
        let builds: [fn() -> Marketplace; 2] = [
            || builder(6).build().expect("valid"),
            || builder(6).build_sharded(3).expect("valid"),
        ];
        for build in builds {
            let journal = VecJournal::default();
            let mut live = build();
            live.set_journal(Box::new(journal.clone()));
            assert!(live.journal_attached());

            let ids = populate(&mut live);
            for request in mixed_stream(6, 30) {
                live.serve(request).expect("in range");
            }
            live.update_bid(ids[1], Money::from_cents(3)).unwrap();
            live.pause_campaign(ids[4]).unwrap();
            live.serve_batch(&mixed_stream(6, 40)).expect("in range");
            live.resume_campaign(ids[4]).unwrap();
            live.set_roi_target(ids[2], Some(2.0)).unwrap();
            live.set_roi_target(ids[2], None).unwrap();

            // Replay the journal into a fresh market of the same build.
            let mut replayed = build();
            for record in journal.0.lock().unwrap().iter() {
                replayed
                    .apply(record.clone())
                    .expect("replay applies cleanly");
            }
            assert_eq!(replayed.now(), live.now());
            assert_eq!(
                replayed.capture_state().unwrap(),
                live.capture_state().unwrap()
            );
            // Journaled serves replayed the RNG streams to the same position:
            // the next auctions agree bit for bit.
            for request in mixed_stream(6, 25) {
                assert_eq!(
                    replayed.serve(request.clone()).unwrap(),
                    live.serve(request).unwrap()
                );
            }
        }
    }

    /// Advertiser `a` brings one row to keywords 0 and 1; `b` brings rows
    /// that differ only in the sign of a zero; `c` brings none. Every
    /// campaign but `c`'s targets with one text.
    fn register_sharers(market: &mut Marketplace) -> [CampaignId; 6] {
        let [a, b, c] = ["a", "b", "c"].map(|name| market.register_advertiser(name));
        let targeted = |cents, probs: Vec<f64>| {
            CampaignSpec::per_click(Money::from_cents(cents))
                .click_probs(probs)
                .targeting("device = 'mobile'")
        };
        let mut add = |advertiser, keyword, spec| {
            market
                .add_campaign(advertiser, keyword, spec)
                .expect("accepted")
        };
        [
            add(a, 0, targeted(10, vec![0.6, 0.3])),
            add(a, 1, targeted(11, vec![0.6, 0.3])),
            add(b, 0, targeted(12, vec![0.0, 0.3])),
            add(b, 1, targeted(13, vec![-0.0, 0.3])),
            add(c, 0, CampaignSpec::per_click(Money::from_cents(14))),
            add(c, 1, CampaignSpec::per_click(Money::from_cents(15))),
        ]
    }

    /// Holds `market` to what [`register_sharers`] shares: click rows by
    /// id, matchers by pointer.
    fn assert_shared(market: &Marketplace, ids: &[CampaignId; 6], how: &str) {
        let book = |id: CampaignId| &market.books[id.keyword];
        let row = |id: CampaignId| {
            let engine = book(id).engine.as_ref().expect("registered");
            engine.click_row(id.index)
        };
        let matcher = |id: CampaignId| {
            let campaign = &book(id).campaigns()[id.index];
            campaign.targeting().expect("targeted")
        };
        let [a0, a1, b0, b1, c0, c1] = *ids;
        assert_eq!(row(a0), row(a1), "{how}: one advertiser, one row");
        assert_ne!(row(b0), row(b1), "{how}: 0.0 and -0.0 differ");
        assert!(
            market.clicks.row(row(b1))[0].is_sign_negative(),
            "{how}: -0.0 kept as supplied"
        );
        let default = market.default_click_row.expect("configured");
        assert_eq!(row(c0), default, "{how}: the default row");
        assert_eq!(row(c1), default, "{how}: the default row");
        // The default, one row for a0/a1 and one each for b0 and b1, and
        // the default as configured.
        let rows = market.footprint().get(Component::ClickRows).in_use;
        assert_eq!(rows, (4 + 1) * 2 * 8, "{how}: each row stored once");
        for id in [a1, b0, b1] {
            assert!(Arc::ptr_eq(matcher(a0), matcher(id)), "{how}: one matcher");
        }
        assert_eq!(market.matchers.len(), 1, "{how}");
    }

    #[test]
    fn shared_rows_and_matchers_survive_every_rebuild() {
        let journal = VecJournal::default();
        let mut live = builder(2).build().expect("valid");
        live.set_journal(Box::new(journal.clone()));
        let ids = register_sharers(&mut live);
        assert_shared(&live, &ids, "build()");

        let mut sharded = builder(2).build_sharded(4).expect("valid");
        assert_eq!(register_sharers(&mut sharded), ids);
        assert_shared(&sharded, &ids, "build_sharded(4)");

        let state = live.capture_state().expect("per-click campaigns only");
        let restored = restored(&state);
        assert_shared(&restored, &ids, "restored capture");
        assert_eq!(restored.capture_state().unwrap(), state);

        let mut replayed = builder(2).build().expect("valid");
        for record in journal.0.lock().unwrap().iter() {
            replayed.apply(record.clone()).expect("replays");
        }
        assert_shared(&replayed, &ids, "journal replay");
        assert_eq!(replayed.capture_state().unwrap(), state);
    }

    /// Rows registered after a keyword's engine was built and served — the
    /// market's table growing and its buffer moving under engines that
    /// hold only ids — read back bit for bit on a 2-shard market's worker
    /// threads and in its capture, as on a one-shard twin.
    #[test]
    fn click_rows_registered_after_serving_read_back_on_every_shard() {
        let build = |shards| {
            Marketplace::builder()
                .slots(3)
                .keywords(4)
                .seed(11)
                .default_click_probs(vec![0.5, 0.25, 0.125])
                .build_sharded(shards)
                .expect("valid configuration")
        };
        let (mut sharded, mut twin) = (build(2), build(1));
        // Both shards own keywords, so each batch runs on two workers.
        assert!((0..4).any(|keyword| sharded.shard_of(keyword) != sharded.shard_of(0)));
        let requests: Vec<QueryRequest> = (0..40).map(|i| QueryRequest::new(i % 4)).collect();
        // Distinct rows, -0.0 among them, so nothing is shared by accident.
        let row = |round: usize, keyword: usize| -> Vec<f64> {
            let top = 0.9 - 0.005 * (round * 4 + keyword) as f64;
            vec![top, top / 2.0, if keyword == 3 { -0.0 } else { 0.0 }]
        };
        let mut registered = Vec::new();
        for round in 0..40 {
            for market in [&mut sharded, &mut twin] {
                let advertiser = market.register_advertiser(format!("a{round}"));
                for keyword in 0..4 {
                    let bid = Money::from_cents((5 + round * 3 + keyword) as i64 % 40);
                    let spec = CampaignSpec::per_click(bid).click_probs(row(round, keyword));
                    market
                        .add_campaign(advertiser, keyword, spec)
                        .expect("accepted");
                }
            }
            registered.extend((0..4).map(|keyword| row(round, keyword)));
            let served = sharded.serve_batch(&requests).expect("in range");
            assert_eq!(served, twin.serve_batch(&requests).expect("in range"));
            assert_eq!(served.chunks, 40);
        }
        // The default (in the table and as configured) and one row per
        // campaign, 3 slots of 8 bytes each.
        let rows = sharded.footprint().get(Component::ClickRows).in_use;
        assert_eq!(rows, (2 + registered.len()) * 3 * 8);
        let (state, twin_state) = (sharded.capture_state(), twin.capture_state());
        let (state, twin_state) = (state.expect("durable"), twin_state.expect("durable"));
        assert_eq!(state.records, twin_state.records);
        let bits = |probs: &[f64]| probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let mut campaigns = 0;
        for record in &state.records {
            if let MutationRecord::AddCampaign {
                advertiser,
                keyword,
                click_probs: Some(probs),
                ..
            } = record
            {
                let expected = &registered[*advertiser as usize * 4 + *keyword as usize];
                assert_eq!(bits(probs), bits(expected));
                campaigns += 1;
            }
        }
        assert_eq!(campaigns, registered.len());
    }

    #[test]
    fn journalled_markets_reject_non_durable_campaigns() {
        let table = || CampaignSpec::table(BidsTable::single_feature(Money::from_cents(2)));
        let mut m = builder(4).build_sharded(2).expect("valid");
        m.set_journal(Box::new(VecJournal::default()));
        let a = m.register_advertiser("a");
        let err = m
            .add_campaign(a, 1, table())
            .expect_err("table campaigns are not durable");
        assert!(matches!(err, MarketError::NotDurable(_)), "{err:?}");
        // The rejection was a pure no-op.
        assert_eq!(m.num_campaigns(1).unwrap(), 0);
        // Without a journal the same spec is accepted.
        let mut free = builder(4).build_sharded(2).expect("valid");
        let a = free.register_advertiser("a");
        free.add_campaign(a, 1, table())
            .expect("accepted without a journal");
        // But capture then refuses: the campaign cannot be serialized.
        assert!(matches!(
            free.capture_state(),
            Err(MarketError::NotDurable(_))
        ));
    }

    #[test]
    fn advertisers_are_global() {
        for shards in [1, 3] {
            let (mut m, _) = populated(6, shards);
            assert_eq!(m.num_advertisers(), 2);
            let c = m.register_advertiser("late");
            assert_eq!(m.advertiser_name(c).unwrap(), "late");
            // One name per registration, whatever the shard count.
            assert_eq!(m.num_advertisers(), 3);
            assert!(m.advertisers.iter().eq(["a", "b", "late"]));
            // The new advertiser can open campaigns on any shard's keywords.
            for kw in 0..6 {
                m.add_campaign(c, kw, CampaignSpec::per_click(Money::from_cents(2)))
                    .expect("accepted on every shard");
            }
        }
    }
}
