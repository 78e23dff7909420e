//! The `Marketplace` service facade: a long-lived auction *system* rather
//! than a per-keyword engine.
//!
//! The paper describes a database of expressive bids that serves a stream
//! of keyword queries and absorbs incremental bid-program updates between
//! auctions. [`Marketplace`] is that surface: it owns registered
//! advertisers ([`AdvertiserHandle`]), per-keyword campaigns (each a
//! [`BidsTable`] bidding program — or an arbitrary [`Bidder`] — plus
//! click/purchase models), and one persistent [`AuctionEngine`]+solver per
//! keyword. Queries are served through a typed API
//! ([`Marketplace::serve`] / [`Marketplace::serve_batch`], built on
//! [`AuctionEngine::run_batch`]) and bids are changed through an
//! incremental update API ([`Marketplace::update_bid`],
//! [`Marketplace::pause_campaign`], [`Marketplace::set_roi_target`]) that
//! routes through the Section IV-B logical-update machinery
//! ([`crate::logical::AdjustmentList`]) instead of rebuilding bidder
//! vectors.
//!
//! [`AuctionEngine`] remains the documented low-level escape hatch for
//! callers that want to assemble a single-keyword auction by hand.
//!
//! # Quickstart
//!
//! ```
//! use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
//! use ssa_bidlang::Money;
//!
//! let mut market = Marketplace::builder()
//!     .slots(2)
//!     .keywords(1)
//!     .seed(7)
//!     .default_click_probs(vec![0.6, 0.3])
//!     .build()
//!     .expect("valid configuration");
//! let shoes = market.register_advertiser("shoes.example");
//! let books = market.register_advertiser("books.example");
//! let c1 = market
//!     .add_campaign(shoes, 0, CampaignSpec::per_click(Money::from_cents(20)))
//!     .expect("campaign accepted");
//! market
//!     .add_campaign(books, 0, CampaignSpec::per_click(Money::from_cents(10)))
//!     .expect("campaign accepted");
//!
//! let response = market.serve(QueryRequest::new(0)).expect("keyword 0 exists");
//! assert_eq!(response.placements.len(), 2);
//!
//! // Incremental update: O(log n) on the keyword's logical bid index, no
//! // engine rebuild.
//! market.update_bid(c1, Money::from_cents(5)).expect("per-click campaign");
//! assert_eq!(market.current_bid(c1).unwrap(), Money::from_cents(5));
//! ```

use crate::bidder::{Bidder, BidderOutcome, QueryContext};
use crate::engine::{AuctionEngine, AuctionReport, BatchReport, EngineConfig, WdMethod};
use crate::logical::AdjustmentList;
use crate::pricing::PricingScheme;
use crate::prob::{ClickModel, PurchaseModel};
use crate::sqlprog::{SqlProgramBidder, SqlProgramError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssa_bidlang::targeting::{CompiledTargeting, TargetParseError, UserAttrs};
use ssa_bidlang::{BidsTable, Money, SlotId};
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

    #[cfg(test)]
    pub(crate) fn new(keyword: usize, index: usize) -> Self {
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
    /// The handle does not name a registered advertiser.
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
    /// The campaign supplied no click model and the marketplace was built
    /// without [`MarketplaceBuilder::default_click_probs`].
    MissingClickModel,
    /// The campaign runs a custom bidding program, so the per-click
    /// incremental update API does not apply; pause it or re-register it
    /// instead.
    NotIncremental(CampaignId),
    /// Bids must be non-negative.
    NegativeBid(Money),
    /// ROI targets must be finite and strictly positive.
    InvalidRoiTarget(f64),
    /// The campaign's targeting expression does not parse (syntax error or
    /// hostile nesting past the depth limit). Registration is rejected as a
    /// whole; nothing about the market changes.
    InvalidTargeting(TargetParseError),
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
            MarketError::MissingClickModel => f.write_str(
                "campaign supplied no click probabilities and no default click model is configured",
            ),
            MarketError::NotIncremental(id) => write!(
                f,
                "campaign {}/{} runs a custom bidding program; \
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
            MarketError::InvalidRoiTarget(t) => {
                write!(f, "ROI target {t} must be finite and positive")
            }
            MarketError::InvalidTargeting(err) => {
                write!(f, "invalid targeting expression: {err}")
            }
            MarketError::NoSlots => f.write_str("a marketplace needs at least one slot"),
            MarketError::NoKeywords => f.write_str("a marketplace needs at least one keyword"),
            MarketError::NoShards => f.write_str("a sharded marketplace needs at least one shard"),
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
    /// e.g. a shared-state ROI strategy. `Send` so the marketplace — and
    /// with it every campaign — can move across threads in a sharded
    /// serving layer (see [`crate::sharded`]).
    Program(Box<dyn Bidder + Send>),
}

/// Declarative description of a campaign handed to
/// [`Marketplace::add_campaign`].
///
/// Per-slot click probabilities default to the builder-level
/// [`MarketplaceBuilder::default_click_probs`]; purchase probabilities
/// default to "never" (the pure click-auction setting).
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

    /// A Section II-B **SQL bidding program**: `tables` sets up the
    /// program's private schema/state and `program` installs its triggers,
    /// both executed by the embedded [`ssa_minidb`] engine under the host
    /// protocol documented at [`crate::sqlprog`]. The scripts are parsed
    /// once at registration (prepared statements thereafter); a program
    /// that errors at auction time is excluded from the matching rather
    /// than taking serving down.
    ///
    /// ```
    /// use ssa_core::marketplace::CampaignSpec;
    /// use ssa_minidb::Params;
    ///
    /// let spec = CampaignSpec::sql_program(
    ///     "CREATE TRIGGER bid AFTER INSERT ON Query
    ///      { UPDATE Bids SET value = value + 1; }",
    ///     "CREATE TABLE Query (kw INT);
    ///      CREATE TABLE Bids (formula TEXT, value INT);
    ///      INSERT INTO Bids VALUES ('Click', :start);",
    ///     &Params::new().bind("start", 10),
    /// )
    /// .expect("well-formed program");
    /// ```
    pub fn sql_program(
        program: &str,
        tables: &str,
        params: &ssa_minidb::Params,
    ) -> Result<Self, SqlProgramError> {
        let bidder = SqlProgramBidder::new(tables, program, params)?;
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

    /// The journalable pieces of a per-click spec, exactly as supplied
    /// (`None` for table/program specs, which cannot be serialized). Used
    /// by the sharded facade to journal `add_campaign` for durability.
    pub(crate) fn per_click_parts(&self) -> Option<PerClickParts> {
        match &self.program {
            ProgramSpec::PerClick(bid) => Some(PerClickParts {
                bid: *bid,
                click_value: self.click_value,
                roi_target: self.roi_target,
                click_probs: self.click_probs.clone(),
                purchase_probs: self.purchase_probs.clone(),
                targeting: self.targeting.clone(),
            }),
            _ => None,
        }
    }
}

/// The serializable content of a per-click [`CampaignSpec`]; see
/// [`CampaignSpec::per_click_parts`].
pub(crate) struct PerClickParts {
    pub(crate) bid: Money,
    pub(crate) click_value: Money,
    pub(crate) roi_target: Option<f64>,
    pub(crate) click_probs: Option<Vec<f64>>,
    pub(crate) purchase_probs: Option<Vec<(f64, f64)>>,
    pub(crate) targeting: Option<String>,
}

/// The one place serialized per-click parts (a journalled `AddCampaign`, a
/// snapshotted campaign) become a [`CampaignSpec`] again.
impl From<PerClickParts> for CampaignSpec {
    fn from(parts: PerClickParts) -> Self {
        CampaignSpec {
            program: ProgramSpec::PerClick(parts.bid),
            click_probs: parts.click_probs,
            purchase_probs: parts.purchase_probs,
            click_value: parts.click_value,
            roi_target: parts.roi_target,
            targeting: parts.targeting,
        }
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

/// Mutable per-campaign bid state (the part the incremental API touches).
#[derive(Debug, Clone, Copy)]
enum CampaignKind {
    PerClick {
        nominal: Money,
        click_value: Money,
        roi_target: Option<f64>,
    },
    Table,
    Program,
}

/// Campaign metadata. The campaign's click and purchase probabilities are
/// not here: their one copy is its row of the keyword engine's models.
#[derive(Debug)]
struct Campaign {
    id: CampaignId,
    advertiser: AdvertiserHandle,
    kind: CampaignKind,
    paused: bool,
    /// Compiled targeting matcher (`None` = the campaign bids on every
    /// query). Shared with the keyword's engine via `Arc`; the retained
    /// [`CompiledTargeting::source`] is what state capture and the mutation
    /// journal serialize.
    targeting: Option<Arc<CompiledTargeting>>,
}

/// What a [`CampaignBidder`] bids when it is not paused.
enum BidSource {
    /// The effective per-click bid, rewritten by the incremental update
    /// API. The one-row table is built when the engine asks for it — after
    /// a write — and the engine keeps the only copy.
    PerClick(Money),
    /// A fixed table.
    Table(BidsTable),
    /// A bidding program, run at every auction.
    Program(Box<dyn Bidder + Send>),
}

/// The engine-side representation of a campaign. A paused campaign submits
/// an empty table, which winner determination treats as
/// [`ssa_matching::EXCLUDED`] — it can never be displayed.
struct CampaignBidder {
    source: BidSource,
    paused: bool,
}

impl Bidder for CampaignBidder {
    fn on_query(&mut self, ctx: &QueryContext) -> BidsTable {
        if self.paused {
            return BidsTable::empty();
        }
        match &mut self.source {
            BidSource::PerClick(bid) => BidsTable::single_feature(*bid),
            BidSource::Table(table) => table.clone(),
            BidSource::Program(p) => p.on_query(ctx),
        }
    }

    fn on_outcome(&mut self, ctx: &QueryContext, outcome: &BidderOutcome) {
        if let BidSource::Program(p) = &mut self.source {
            if !self.paused {
                p.on_outcome(ctx, outcome);
            }
        }
    }

    /// Per-click and fixed-table campaigns change only through the update
    /// API, which writes through [`AuctionEngine::bidder_mut`].
    fn is_standing(&self) -> bool {
        !matches!(self.source, BidSource::Program(_))
    }
}

impl std::fmt::Debug for CampaignBidder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let source = match &self.source {
            BidSource::PerClick(_) => "per-click",
            BidSource::Table(_) => "table",
            BidSource::Program(_) => "custom",
        };
        f.debug_struct("CampaignBidder")
            .field("paused", &self.paused)
            .field("source", &source)
            .finish_non_exhaustive()
    }
}

/// Everything the marketplace holds for one keyword: campaign metadata, the
/// persistent engine (bidders, probability models, solver and matrix
/// buffers), and the logical bid index.
#[derive(Debug)]
struct KeywordBook {
    campaigns: Vec<Campaign>,
    /// Built by the keyword's first campaign and grown in place by every
    /// later one; `None` exactly while `campaigns` is empty.
    engine: Option<AuctionEngine<CampaignBidder>>,
    /// Sorted per-click bids (cents) of unpaused per-click campaigns — the
    /// Section IV-B adjustment list backing `update_bid` / `top_bids`.
    index: AdjustmentList,
    /// The keyword's own user-action RNG stream, seeded purely from
    /// `(market seed, keyword)` ([`keyword_stream_seed`]), so a keyword's
    /// outcome stream does not depend on which other keywords were queried
    /// in between — the property sharded serving relies on.
    rng: StdRng,
}

impl KeywordBook {
    fn new(rng: StdRng) -> Self {
        KeywordBook {
            campaigns: Vec::new(),
            engine: None,
            index: AdjustmentList::default(),
            rng,
        }
    }

    /// Write access to a registered campaign's bidder, through the engine's
    /// dirty-marking accessor.
    fn bidder_mut(&mut self, index: usize) -> &mut CampaignBidder {
        self.engine
            .as_mut()
            .expect("a registered campaign has an engine")
            .bidder_mut(index)
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
/// on that keyword — which is what makes an unsharded [`Marketplace`] and
/// a [`crate::sharded::ShardedMarketplace`] of any shard count agree bit
/// for bit. Exported so reference harnesses can draw from the same streams.
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

impl crate::engine::EngineQuery for QueryRequest {
    fn keyword(&self) -> usize {
        self.keyword
    }

    fn attrs(&self) -> &UserAttrs {
        &self.attrs
    }
}

// Compile-time audit: the attribute bag (and with it `QueryRequest`) must
// stay shareable across shard worker threads and cheaply duplicable —
// `Send + Sync + Clone` — or the sharded fan-out and the wire front-end
// stop building.
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
    /// A chunk on a keyword with campaigns is one
    /// [`AuctionEngine::run_batch`] call on that keyword's persistent
    /// engine; a chunk on a campaign-less keyword serves empty pages
    /// without touching any engine.
    pub chunks: u64,
}

// ---------------------------------------------------------------------------
// Builder.
// ---------------------------------------------------------------------------

/// Configures and constructs a [`Marketplace`]; obtained from
/// [`Marketplace::builder`].
#[derive(Debug, Clone)]
pub struct MarketplaceBuilder {
    method: WdMethod,
    pricing: PricingScheme,
    num_slots: usize,
    num_keywords: usize,
    seed: u64,
    pruned: bool,
    warm_start: bool,
    default_click_probs: Option<Vec<f64>>,
    default_purchase_probs: Option<Vec<(f64, f64)>>,
}

impl Default for MarketplaceBuilder {
    fn default() -> Self {
        let engine_defaults = EngineConfig::default();
        MarketplaceBuilder {
            method: WdMethod::Reduced,
            pricing: PricingScheme::Gsp,
            num_slots: 1,
            num_keywords: 1,
            seed: 0,
            pruned: engine_defaults.pruned,
            warm_start: engine_defaults.warm_start,
            default_click_probs: None,
            default_purchase_probs: None,
        }
    }
}

impl MarketplaceBuilder {
    /// Winner-determination method (default: [`WdMethod::Reduced`]).
    pub fn method(mut self, method: WdMethod) -> Self {
        self.method = method;
        self
    }

    /// Pricing rule (default: [`PricingScheme::Gsp`]).
    pub fn pricing(mut self, pricing: PricingScheme) -> Self {
        self.pricing = pricing;
        self
    }

    /// Number of ad slots per results page (default: 1).
    pub fn slots(mut self, num_slots: usize) -> Self {
        self.num_slots = num_slots;
        self
    }

    /// Size of the keyword universe (default: 1).
    pub fn keywords(mut self, num_keywords: usize) -> Self {
        self.num_keywords = num_keywords;
        self
    }

    /// Seed of the marketplace's user-action randomness (clicks and
    /// purchases): keyword `k` draws from its own stream seeded by
    /// [`keyword_stream_seed`]`(seed, k)`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run winner determination through the Section III-E top-k
    /// [`ssa_matching::PrunedSolver`] (default: off). Bit-identical
    /// outcomes; see [`EngineConfig::pruned`].
    pub fn pruned(mut self, enabled: bool) -> Self {
        self.pruned = enabled;
        self
    }

    /// Skip the matrix refill and solve when no bid changed since a
    /// keyword's previous auction (default: on). Bit-identical outcomes;
    /// see [`EngineConfig::warm_start`].
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// Click model applied to campaigns that do not supply their own
    /// [`CampaignSpec::click_probs`].
    pub fn default_click_probs(mut self, probs: Vec<f64>) -> Self {
        self.default_click_probs = Some(probs);
        self
    }

    /// Purchase model applied to campaigns that do not supply their own
    /// [`CampaignSpec::purchase_probs`] (default: purchases never happen).
    pub fn default_purchase_probs(mut self, probs: Vec<(f64, f64)>) -> Self {
        self.default_purchase_probs = Some(probs);
        self
    }

    /// Validates the configuration and constructs a
    /// [`crate::sharded::ShardedMarketplace`] with `num_shards` shards.
    pub fn build_sharded(
        self,
        num_shards: usize,
    ) -> Result<crate::sharded::ShardedMarketplace, MarketError> {
        crate::sharded::ShardedMarketplace::new(self, num_shards)
    }

    /// Validates the configuration and constructs the marketplace.
    pub fn build(self) -> Result<Marketplace, MarketError> {
        if self.num_slots == 0 {
            return Err(MarketError::NoSlots);
        }
        if self.num_keywords == 0 {
            return Err(MarketError::NoKeywords);
        }
        if let Some(probs) = &self.default_click_probs {
            validate_click_probs(probs, self.num_slots)?;
        }
        if let Some(probs) = &self.default_purchase_probs {
            validate_purchase_probs(probs, self.num_slots)?;
        }
        Ok(Marketplace {
            config: EngineConfig {
                method: self.method,
                pricing: self.pricing,
                pruned: self.pruned,
                warm_start: self.warm_start,
            },
            num_slots: self.num_slots,
            num_keywords: self.num_keywords,
            advertisers: Vec::new(),
            books: (0..self.num_keywords)
                .map(|kw| {
                    KeywordBook::new(StdRng::seed_from_u64(keyword_stream_seed(self.seed, kw)))
                })
                .collect(),
            default_click_probs: self.default_click_probs,
            default_purchase_probs: self.default_purchase_probs,
            seed: self.seed,
            clock: 0,
        })
    }
}

fn validate_click_probs(probs: &[f64], num_slots: usize) -> Result<(), MarketError> {
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

/// A point-in-time summary of a marketplace's shape and serving progress:
/// the payload behind an operational `Stats` call (e.g. the network
/// front-end's stats response). Cheap to produce — counts only, no
/// per-campaign detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MarketSnapshot {
    /// Registered advertisers.
    pub advertisers: usize,
    /// Campaigns registered across all keywords.
    pub campaigns: usize,
    /// Size of the keyword universe.
    pub keywords: usize,
    /// Ad slots per results page.
    pub slots: usize,
    /// Shards the keyword universe is partitioned across (1 for the
    /// single-threaded facade).
    pub shards: usize,
    /// Total auctions served so far (the global market clock).
    pub auctions: u64,
}

/// A long-lived sponsored-search marketplace: registered advertisers,
/// per-keyword campaigns, one persistent engine+solver per keyword, a typed
/// query-serving API, and an incremental update API. See the
/// [module docs](crate::marketplace) for the full picture.
#[derive(Debug)]
pub struct Marketplace {
    config: EngineConfig,
    num_slots: usize,
    num_keywords: usize,
    advertisers: Vec<String>,
    books: Vec<KeywordBook>,
    default_click_probs: Option<Vec<f64>>,
    default_purchase_probs: Option<Vec<(f64, f64)>>,
    /// The builder seed, retained so a state capture can reproduce the
    /// build (per-keyword RNG streams are seeded from it).
    seed: u64,
    clock: u64,
}

impl Marketplace {
    /// Starts configuring a marketplace.
    pub fn builder() -> MarketplaceBuilder {
        MarketplaceBuilder::default()
    }

    /// Registers an advertiser, returning its handle.
    pub fn register_advertiser(&mut self, name: impl Into<String>) -> AdvertiserHandle {
        self.advertisers.push(name.into());
        AdvertiserHandle(self.advertisers.len() - 1)
    }

    /// The display name an advertiser registered under.
    pub fn advertiser_name(&self, advertiser: AdvertiserHandle) -> Result<&str, MarketError> {
        self.advertisers
            .get(advertiser.0)
            .map(String::as_str)
            .ok_or(MarketError::UnknownAdvertiser(advertiser))
    }

    /// Number of registered advertisers.
    pub fn num_advertisers(&self) -> usize {
        self.advertisers.len()
    }

    /// Number of ad slots per results page.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Size of the keyword universe.
    pub fn num_keywords(&self) -> usize {
        self.num_keywords
    }

    /// Number of campaigns registered on a keyword.
    pub fn num_campaigns(&self, keyword: usize) -> Result<usize, MarketError> {
        self.check_keyword(keyword)?;
        Ok(self.books[keyword].campaigns.len())
    }

    /// The winner-determination method every keyword engine runs.
    pub fn method(&self) -> WdMethod {
        self.config.method
    }

    /// The pricing rule in force.
    pub fn pricing(&self) -> PricingScheme {
        self.config.pricing
    }

    /// Whether winner determination runs through the top-k
    /// [`ssa_matching::PrunedSolver`].
    pub fn pruned(&self) -> bool {
        self.config.pruned
    }

    /// Whether unchanged auctions skip the matrix refill and solve.
    pub fn warm_start(&self) -> bool {
        self.config.warm_start
    }

    /// Rewrites the engine configuration of every keyword engine, built
    /// and future. An engine notices at its next auction and lays its
    /// weight source out for the new configuration.
    fn reconfigure(&mut self, change: impl Fn(&mut EngineConfig)) {
        change(&mut self.config);
        for book in &mut self.books {
            if let Some(engine) = &mut book.engine {
                change(&mut engine.config);
            }
        }
    }

    /// Enables or disables top-k pruned winner determination on every
    /// keyword engine (built and future). Outcomes are bit-identical either
    /// way; only the solve cost changes.
    pub fn set_pruned(&mut self, enabled: bool) {
        self.reconfigure(|config| config.pruned = enabled);
    }

    /// Enables or disables warm-started assignments on every keyword engine
    /// (built and future). Outcomes are bit-identical either way.
    pub fn set_warm_start(&mut self, enabled: bool) {
        self.reconfigure(|config| config.warm_start = enabled);
    }

    /// Switches the winner-determination method of every keyword engine
    /// (built and future), from the next auction on. Unlike
    /// [`Marketplace::set_pruned`] this can change outcomes — methods may
    /// break revenue ties differently — and it is not a journalled
    /// mutation: a durable deployment reconfigures by rebuilding the market.
    pub fn set_method(&mut self, method: WdMethod) {
        self.reconfigure(|config| config.method = method);
    }

    /// Switches the pricing rule of every keyword engine (built and
    /// future), from the next auction on. Charges change with it; like
    /// [`Marketplace::set_method`], not a journalled mutation.
    pub fn set_pricing(&mut self, pricing: PricingScheme) {
        self.reconfigure(|config| config.pricing = pricing);
    }

    /// The global market clock: total auctions served.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// The seed the marketplace was built with (user-action randomness).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    // -- durable state capture (crate-internal; the public surface is
    // `ShardedMarketplace::capture_state` / `from_state`) ------------------

    /// Builder-level default click model, if one was configured.
    pub(crate) fn default_click_probs(&self) -> Option<&Vec<f64>> {
        self.default_click_probs.as_ref()
    }

    /// Builder-level default purchase model, if one was configured.
    pub(crate) fn default_purchase_probs(&self) -> Option<&Vec<(f64, f64)>> {
        self.default_purchase_probs.as_ref()
    }

    /// The durable state of every campaign on `keyword`, in registration
    /// order, borrowed from the book and the keyword engine's models;
    /// [`MarketError::NotDurable`] for a campaign that is not per-click.
    pub(crate) fn campaign_views(
        &self,
        keyword: usize,
    ) -> impl Iterator<Item = Result<crate::state::CampaignView<'_>, MarketError>> {
        let book = &self.books[keyword];
        // A keyword without an engine has no campaigns.
        book.engine.iter().flat_map(move |engine| {
            book.campaigns
                .iter()
                .enumerate()
                .map(move |(row, campaign)| {
                    let CampaignKind::PerClick {
                        nominal,
                        click_value,
                        roi_target,
                    } = campaign.kind
                    else {
                        return Err(MarketError::NotDurable(campaign.id));
                    };
                    Ok(crate::state::CampaignView {
                        keyword,
                        advertiser: campaign.advertiser.index(),
                        bid_cents: nominal.cents(),
                        click_value_cents: click_value.cents(),
                        roi_target,
                        click_probs: engine.clicks().row(row),
                        purchase_probs: engine.purchases().stored_row(row),
                        paused: campaign.paused,
                        targeting: campaign.targeting.as_ref().map(|t| t.source()),
                    })
                })
        })
    }

    /// Exact stream position of a keyword's user-action RNG.
    pub(crate) fn rng_state(&self, keyword: usize) -> [u64; 4] {
        self.books[keyword].rng.state()
    }

    /// Rewinds a keyword's user-action RNG to a captured stream position.
    pub(crate) fn set_rng_state(&mut self, keyword: usize, state: [u64; 4]) {
        self.books[keyword].rng = StdRng::from_state(state);
    }

    /// Total campaigns registered across every keyword.
    pub fn num_campaigns_total(&self) -> usize {
        self.books.iter().map(|b| b.campaigns.len()).sum()
    }

    /// A point-in-time summary of market shape and progress.
    pub fn snapshot(&self) -> MarketSnapshot {
        MarketSnapshot {
            advertisers: self.advertisers.len(),
            campaigns: self.num_campaigns_total(),
            keywords: self.num_keywords,
            slots: self.num_slots,
            shards: 1,
            auctions: self.clock,
        }
    }

    fn check_keyword(&self, keyword: usize) -> Result<usize, MarketError> {
        if keyword < self.num_keywords {
            Ok(keyword)
        } else {
            Err(MarketError::UnknownKeyword {
                keyword,
                num_keywords: self.num_keywords,
            })
        }
    }

    fn check_campaign(&self, id: CampaignId) -> Result<(), MarketError> {
        self.check_keyword(id.keyword)
            .map_err(|_| MarketError::UnknownCampaign(id))?;
        if id.index < self.books[id.keyword].campaigns.len() {
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
    pub fn add_campaign(
        &mut self,
        advertiser: AdvertiserHandle,
        keyword: usize,
        spec: CampaignSpec,
    ) -> Result<CampaignId, MarketError> {
        if advertiser.0 >= self.advertisers.len() {
            return Err(MarketError::UnknownAdvertiser(advertiser));
        }
        let keyword = self.check_keyword(keyword)?;
        let click_probs = spec
            .click_probs
            .as_deref()
            .or(self.default_click_probs.as_deref())
            .ok_or(MarketError::MissingClickModel)?;
        validate_click_probs(click_probs, self.num_slots)?;
        // `None`: purchases never happen.
        let purchase_probs = spec
            .purchase_probs
            .as_deref()
            .or(self.default_purchase_probs.as_deref());
        if let Some(probs) = purchase_probs {
            validate_purchase_probs(probs, self.num_slots)?;
        }
        if let Some(target) = spec.roi_target {
            check_roi_target(target)?;
        }
        // Every validation precedes the first change below: a rejected
        // registration leaves the keyword's warm engine untouched.
        if let ProgramSpec::PerClick(bid) = &spec.program {
            if !bid.is_positive() && *bid != Money::ZERO {
                return Err(MarketError::NegativeBid(*bid));
            }
        }
        let targeting = match &spec.targeting {
            Some(source) => Some(Arc::new(
                CompiledTargeting::parse(source).map_err(MarketError::InvalidTargeting)?,
            )),
            None => None,
        };

        let (config, num_slots, num_keywords) = (self.config, self.num_slots, self.num_keywords);
        let book = &mut self.books[keyword];
        let id = CampaignId {
            keyword,
            index: book.campaigns.len(),
        };
        let (kind, source) = match spec.program {
            ProgramSpec::PerClick(bid) => (
                CampaignKind::PerClick {
                    nominal: bid,
                    click_value: spec.click_value,
                    roi_target: spec.roi_target,
                },
                BidSource::PerClick(Money::ZERO), // set by the refresh below
            ),
            ProgramSpec::Table(table) => (CampaignKind::Table, BidSource::Table(table)),
            ProgramSpec::Program(program) => (CampaignKind::Program, BidSource::Program(program)),
        };
        book.engine
            .get_or_insert_with(|| {
                AuctionEngine::new(
                    Vec::new(),
                    ClickModel::empty(num_slots),
                    PurchaseModel::never(0, num_slots),
                    num_keywords,
                    config,
                )
            })
            .push_bidder(
                CampaignBidder {
                    source,
                    paused: false,
                },
                click_probs,
                purchase_probs,
                targeting.clone(),
            );
        book.campaigns.push(Campaign {
            id,
            advertiser,
            kind,
            paused: false,
            targeting,
        });
        if matches!(kind, CampaignKind::PerClick { .. }) {
            self.refresh_per_click(id);
        }
        Ok(id)
    }

    /// The advertiser owning a campaign.
    pub fn campaign_advertiser(&self, id: CampaignId) -> Result<AdvertiserHandle, MarketError> {
        self.check_campaign(id)?;
        Ok(self.books[id.keyword].campaigns[id.index].advertiser)
    }

    /// Whether a campaign is currently paused.
    pub fn is_paused(&self, id: CampaignId) -> Result<bool, MarketError> {
        self.check_campaign(id)?;
        Ok(self.books[id.keyword].campaigns[id.index].paused)
    }

    // -- incremental update API --------------------------------------------

    /// Sets a per-click campaign's bid.
    ///
    /// `O(log n)` on the keyword's logical bid index plus a write to the
    /// campaign's bidder that marks its row for re-evaluation — the engine,
    /// its solver scratch, and the other campaigns are untouched.
    pub fn update_bid(&mut self, id: CampaignId, bid: Money) -> Result<(), MarketError> {
        self.check_campaign(id)?;
        if !bid.is_positive() && bid != Money::ZERO {
            return Err(MarketError::NegativeBid(bid));
        }
        match &mut self.books[id.keyword].campaigns[id.index].kind {
            CampaignKind::PerClick { nominal, .. } => *nominal = bid,
            _ => return Err(MarketError::NotIncremental(id)),
        }
        self.refresh_per_click(id);
        Ok(())
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
        self.check_campaign(id)?;
        if let Some(t) = target {
            check_roi_target(t)?;
        }
        match &mut self.books[id.keyword].campaigns[id.index].kind {
            CampaignKind::PerClick { roi_target, .. } => *roi_target = target,
            _ => return Err(MarketError::NotIncremental(id)),
        }
        self.refresh_per_click(id);
        Ok(())
    }

    /// Pauses a campaign: it stops bidding (and, being excluded from the
    /// matching, can never be displayed) until resumed. Works for every
    /// campaign kind and never rebuilds the engine.
    pub fn pause_campaign(&mut self, id: CampaignId) -> Result<(), MarketError> {
        self.set_paused(id, true)
    }

    /// Resumes a paused campaign.
    pub fn resume_campaign(&mut self, id: CampaignId) -> Result<(), MarketError> {
        self.set_paused(id, false)
    }

    fn set_paused(&mut self, id: CampaignId, paused: bool) -> Result<(), MarketError> {
        self.check_campaign(id)?;
        let book = &mut self.books[id.keyword];
        book.campaigns[id.index].paused = paused;
        if matches!(book.campaigns[id.index].kind, CampaignKind::PerClick { .. }) {
            self.refresh_per_click(id);
        } else {
            book.bidder_mut(id.index).paused = paused;
        }
        Ok(())
    }

    /// A per-click campaign's current *effective* bid (nominal bid after
    /// the ROI cap; [`Money::ZERO`] while paused), read from the logical
    /// bid index.
    pub fn current_bid(&self, id: CampaignId) -> Result<Money, MarketError> {
        self.check_campaign(id)?;
        let book = &self.books[id.keyword];
        match book.campaigns[id.index].kind {
            CampaignKind::PerClick { .. } => Ok(book
                .index
                .bid(id.index)
                .map(Money::from_cents)
                .unwrap_or(Money::ZERO)),
            _ => Err(MarketError::NotIncremental(id)),
        }
    }

    /// The highest effective per-click bids on a keyword, descending — a
    /// direct read of the keyword's logical bid index.
    pub fn top_bids(
        &self,
        keyword: usize,
        limit: usize,
    ) -> Result<Vec<(CampaignId, Money)>, MarketError> {
        let keyword = self.check_keyword(keyword)?;
        let book = &self.books[keyword];
        Ok(book
            .index
            .iter_desc()
            .take(limit)
            .map(|(index, cents)| (book.campaigns[index].id, Money::from_cents(cents)))
            .collect())
    }

    /// Recomputes a per-click campaign's effective bid and pushes it into
    /// both views: the keyword's [`AdjustmentList`] (remove + insert,
    /// `O(log n)`) and the campaign's bidder, whose row the engine
    /// re-evaluates at the keyword's next auction.
    fn refresh_per_click(&mut self, id: CampaignId) {
        let book = &mut self.books[id.keyword];
        let campaign = &book.campaigns[id.index];
        let CampaignKind::PerClick {
            nominal,
            click_value,
            roi_target,
        } = campaign.kind
        else {
            unreachable!("refresh_per_click called on a non-per-click campaign");
        };
        let paused = campaign.paused;
        let effective = effective_bid(nominal, click_value, roi_target);
        book.index.remove(id.index);
        if !paused {
            book.index.insert(id.index, effective.cents());
        }
        let bidder = book.bidder_mut(id.index);
        bidder.source = BidSource::PerClick(effective);
        bidder.paused = paused;
    }

    // -- query serving ------------------------------------------------------

    /// Serves one query end to end (program evaluation, winner
    /// determination, user action, pricing, program notification) and
    /// returns the fully typed outcome.
    pub fn serve(&mut self, request: QueryRequest) -> Result<AuctionResponse, MarketError> {
        let keyword = self.check_keyword(request.keyword)?;
        self.clock += 1;
        Ok(self.serve_at(keyword, &request.attrs, self.clock))
    }

    /// Serves one query on an already-checked `keyword` as the auction
    /// with (1-based) global time `time`, leaving the market clock alone.
    ///
    /// Shard support: [`crate::sharded::ShardedMarketplace`] owns the
    /// global clock itself and aligns each shard-resident marketplace to
    /// it per query, so bidders observe market-wide time.
    pub(crate) fn serve_at(
        &mut self,
        keyword: usize,
        attrs: &UserAttrs,
        time: u64,
    ) -> AuctionResponse {
        let book = &mut self.books[keyword];
        let Some(engine) = book.engine.as_mut() else {
            return AuctionResponse {
                keyword,
                time,
                expected_revenue: 0.0,
                realized_revenue: Money::ZERO,
                placements: Vec::new(),
                charges: Vec::new(),
            };
        };
        engine.set_time(time - 1);
        let report = engine.run_auction((keyword, attrs), &mut book.rng);
        respond(&book.campaigns, keyword, time, report)
    }

    /// Serves a stream of queries through the persistent per-keyword
    /// engines, aggregating outcomes.
    ///
    /// The stream is split into maximal same-keyword chunks; each chunk is
    /// one [`AuctionEngine::run_batch`] call, so consecutive queries on the
    /// same keyword reuse one revenue matrix and one solver scratch with no
    /// per-query allocation. Auction order (and therefore each keyword's
    /// RNG stream) is exactly the order of `requests`.
    pub fn serve_batch(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<MarketBatchReport, MarketError> {
        for request in requests {
            self.check_keyword(request.keyword)?;
        }
        let mut out = MarketBatchReport {
            total: BatchReport::default(),
            per_keyword: vec![BatchReport::default(); self.num_keywords],
            chunks: 0,
        };
        let mut i = 0;
        while i < requests.len() {
            let keyword = requests[i].keyword;
            let mut j = i + 1;
            while j < requests.len() && requests[j].keyword == keyword {
                j += 1;
            }
            let chunk = self.serve_run_at(&requests[i..j], self.clock);
            self.clock += (j - i) as u64;
            out.per_keyword[keyword].absorb(&chunk);
            out.total.absorb(&chunk);
            out.chunks += 1;
            i = j;
        }
        Ok(out)
    }

    /// Serves a run of consecutive same-keyword queries (already checked)
    /// as one [`AuctionEngine::run_batch`] call starting at global time
    /// `start_time` (the clock value *before* the first of the queries),
    /// leaving the market clock alone. A campaign-less keyword serves
    /// `requests.len()` empty pages without touching any engine.
    ///
    /// This is the chunk primitive both [`Marketplace::serve_batch`] and
    /// the sharded fan-out build on. The requests are borrowed straight
    /// from the caller's slice — attributes are never cloned on this path.
    pub(crate) fn serve_run_at(
        &mut self,
        requests: &[QueryRequest],
        start_time: u64,
    ) -> BatchReport {
        let keyword = requests[0].keyword;
        debug_assert!(
            requests.iter().all(|r| r.keyword == keyword),
            "serve_run_at takes one same-keyword run"
        );
        let book = &mut self.books[keyword];
        let Some(engine) = book.engine.as_mut() else {
            return BatchReport {
                auctions: requests.len() as u64,
                ..BatchReport::default()
            };
        };
        engine.set_time(start_time);
        engine.run_batch(requests, &mut book.rng)
    }
}

fn check_roi_target(target: f64) -> Result<(), MarketError> {
    if target.is_finite() && target > 0.0 {
        Ok(())
    } else {
        Err(MarketError::InvalidRoiTarget(target))
    }
}

/// Effective per-click bid: the nominal bid capped at `click_value /
/// roi_target` (never negative).
fn effective_bid(nominal: Money, click_value: Money, roi_target: Option<f64>) -> Money {
    let capped = match roi_target {
        Some(target) => nominal.min(Money::from_cents(
            (click_value.as_f64() / target).floor() as i64
        )),
        None => nominal,
    };
    capped.max(Money::ZERO)
}

/// Maps an engine [`AuctionReport`] (local bidder indexes) to the typed
/// [`AuctionResponse`] (campaign ids and advertiser handles).
fn respond(
    campaigns: &[Campaign],
    keyword: usize,
    time: u64,
    report: AuctionReport,
) -> AuctionResponse {
    let mut placements = Vec::with_capacity(report.assignment.num_assigned());
    for (j, local) in report.assignment.slot_to_adv.iter().enumerate() {
        let Some(local) = *local else { continue };
        let campaign = &campaigns[local];
        let charge = report
            .charges
            .iter()
            .find(|(adv, _)| *adv == local)
            .map(|(_, m)| *m)
            .unwrap_or(Money::ZERO);
        placements.push(Placement {
            slot: SlotId::from_index0(j),
            campaign: campaign.id,
            advertiser: campaign.advertiser,
            clicked: report.clicked[j],
            purchased: report.purchased[j],
            charge,
        });
    }
    let charges = report
        .charges
        .iter()
        .map(|(local, m)| (campaigns[*local].id, *m))
        .collect();
    AuctionResponse {
        keyword,
        time,
        expected_revenue: report.expected_revenue,
        realized_revenue: report.realized_revenue,
        placements,
        charges,
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
        for method in [
            WdMethod::Lp,
            WdMethod::Hungarian,
            WdMethod::Reduced,
            WdMethod::ReducedParallel(2),
        ] {
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
        // Errors are std errors with readable messages.
        let err: Box<dyn std::error::Error> = Box::new(MarketError::MissingClickModel);
        assert!(err.to_string().contains("click"));
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
                CampaignSpec::sql_program(
                    "",
                    "CREATE TABLE Query (kw INT); \
                     CREATE TABLE Bids (formula TEXT, value INT); \
                     INSERT INTO Bids VALUES ('Click', :bid);",
                    &ssa_minidb::Params::new().bind("bid", 25),
                )
                .expect("well-formed program")
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
        let id = CampaignId::new(0, 0);
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
}
