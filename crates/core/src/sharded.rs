//! Sharded, multi-threaded marketplace serving.
//!
//! [`ShardedMarketplace`] scales the single-threaded
//! [`Marketplace`] facade out over worker
//! threads: the keyword universe is partitioned across `N` shards by a
//! stable hash ([`ShardedMarketplace::shard_of`]), each shard owns its
//! keywords' campaigns, persistent engines, and solver scratch, and
//! [`ShardedMarketplace::serve_batch`] fans a mixed-keyword query stream
//! out to the shards via [`std::thread::scope`] workers, merging the
//! per-shard [`BatchReport`]s back into one
//! [`MarketBatchReport`].
//!
//! Control-plane calls ([`ShardedMarketplace::register_advertiser`],
//! [`ShardedMarketplace::add_campaign`], [`ShardedMarketplace::update_bid`],
//! [`ShardedMarketplace::pause_campaign`],
//! [`ShardedMarketplace::set_roi_target`], …) route to the owning shard
//! through the same hash, so the Section IV-B incremental `O(log n)`
//! adjustment-list path is preserved per shard — an update on one keyword
//! never touches, locks, or rebuilds any other shard.
//!
//! # The equivalence guarantee
//!
//! Sharding is an *execution* strategy, not a semantic one: keyword `k`'s
//! user-action RNG stream is seeded purely from `(seed, k)`
//! ([`crate::marketplace::keyword_stream_seed`]). Since
//! per-keyword state (campaigns, engine, logical bid index, RNG) is fully
//! keyword-local, the auctions served on a keyword depend only on the
//! sub-sequence of queries on that keyword and their global clock values —
//! not on which shard runs them or what other shards do concurrently.
//! Consequently a `ShardedMarketplace` produces **bit-identical** winners,
//! clicks, and charges for every shard count, all equal to an unsharded
//! `Marketplace` built with the same configuration (the property-based
//! tests in `tests/sharding.rs` prove this for shard counts 1, 2, 4, and
//! 7).
//!
//! One caveat: the guarantee covers campaigns whose bidding state is
//! keyword-local (per-click campaigns, fixed tables, and independent
//! programs). A custom program *shared across keywords* (e.g. the Section
//! II-C ROI strategy coupling an advertiser's keywords through one spend
//! rate) observes cross-shard event ordering and is therefore not
//! shard-invariant; keep such workloads on the single-threaded facade.
//!
//! # Quickstart
//!
//! ```
//! use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
//! use ssa_core::sharded::ShardedMarketplace;
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
//! let c = market
//!     .add_campaign(shoes, 3, CampaignSpec::per_click(Money::from_cents(20)))
//!     .expect("campaign accepted");
//!
//! let requests: Vec<QueryRequest> = (0..64).map(|i| QueryRequest::new(i % 8)).collect();
//! let report = market.serve_batch(&requests).expect("keywords in range");
//! assert_eq!(report.total.auctions, 64);
//! market.update_bid(c, Money::from_cents(5)).expect("routed to shard");
//! ```

use crate::engine::{BatchReport, WdMethod};
use crate::journal::{MutationJournal, MutationRecord};
use crate::marketplace::{
    splitmix64, AdvertiserHandle, AuctionResponse, CampaignId, CampaignSpec, MarketBatchReport,
    MarketError, Marketplace, MarketplaceBuilder, PerClickParts, QueryRequest,
};
use crate::pricing::PricingScheme;
use crate::state::{CampaignView, MarketConfigState, MarketState, StateSource};
use ssa_bidlang::Money;

/// Error returned when parsing a shard count (the `--shards` CLI flag)
/// fails. The shape mirrors [`crate::ParseMethodError`]: a typed
/// [`std::error::Error`] per rejection reason instead of a panic or a
/// silent default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseShardsError {
    /// The value was not an unsigned integer.
    Invalid(String),
    /// `0` — a sharded marketplace needs at least one shard.
    Zero,
}

impl std::fmt::Display for ParseShardsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseShardsError::Invalid(raw) => write!(f, "invalid shard count {raw:?}"),
            ParseShardsError::Zero => f.write_str("shard count must be positive"),
        }
    }
}

impl std::error::Error for ParseShardsError {}

/// Parses a shard count: an unsigned integer ≥ 1, with typed errors.
pub fn parse_shards(s: &str) -> Result<usize, ParseShardsError> {
    let n: usize = s
        .trim()
        .parse()
        .map_err(|_| ParseShardsError::Invalid(s.to_string()))?;
    if n == 0 {
        return Err(ParseShardsError::Zero);
    }
    Ok(n)
}

/// The shard that owns `keyword` in a marketplace partitioned across
/// `num_shards` shards: a stable SplitMix64 hash of the keyword index
/// modulo the shard count. Stable across runs, processes, and machines, so
/// external routers (e.g. a network front-end's admission control) can
/// compute placement without holding the marketplace itself.
pub fn shard_of_keyword(keyword: usize, num_shards: usize) -> usize {
    (splitmix64(keyword as u64) % num_shards.max(1) as u64) as usize
}

/// One maximal same-keyword run of a request stream, tagged with its
/// position so per-shard results can be merged back in stream order. The
/// run is identified by its range in the request slice so workers can
/// borrow the typed requests (keyword *and* user attributes) zero-copy.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    /// Index of the chunk in the full stream (merge key).
    idx: usize,
    keyword: usize,
    /// Offset of the run's first request in the full stream.
    start: usize,
    len: usize,
    /// Global clock value before the chunk's first query.
    start_time: u64,
}

/// A sharded, multi-threaded sponsored-search marketplace: the
/// [`Marketplace`] service API with
/// keywords partitioned across shard-owned worker state. See the
/// [module docs](crate::sharded) for the partitioning scheme and the
/// equivalence guarantee.
#[derive(Debug)]
pub struct ShardedMarketplace {
    shards: Vec<Marketplace>,
    num_keywords: usize,
    clock: u64,
    /// Durability hook: receives every applied mutation and served query
    /// (see [`crate::journal`]). `None` — the default — costs the hot
    /// serve path a single branch.
    journal: Option<Box<dyn MutationJournal>>,
}

impl ShardedMarketplace {
    /// Builds a sharded marketplace from a [`MarketplaceBuilder`]
    /// configuration; equivalent to
    /// [`MarketplaceBuilder::build_sharded`].
    ///
    /// Every shard is a full [`Marketplace`] over the whole keyword
    /// universe; only the keywords a shard owns ever receive campaigns or
    /// queries.
    pub fn new(builder: MarketplaceBuilder, num_shards: usize) -> Result<Self, MarketError> {
        if num_shards == 0 {
            return Err(MarketError::NoShards);
        }
        let shards: Vec<Marketplace> = (0..num_shards)
            .map(|_| builder.clone().build())
            .collect::<Result<_, _>>()?;
        let num_keywords = shards[0].num_keywords();
        Ok(ShardedMarketplace {
            shards,
            num_keywords,
            clock: 0,
            journal: None,
        })
    }

    // -- durability hook ----------------------------------------------------

    /// Attaches a mutation journal: from now on every successfully applied
    /// control-plane mutation and every served query is reported to it
    /// (see [`crate::journal`]). While a journal is attached,
    /// [`ShardedMarketplace::add_campaign`] rejects non-per-click specs
    /// with [`MarketError::NotDurable`] — they cannot be serialized, so
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

    fn record(&mut self, record: &MutationRecord) {
        if let Some(journal) = self.journal.as_mut() {
            journal.record(record);
        }
    }

    // -- durable state capture ----------------------------------------------

    /// Captures the marketplace's complete durable state: configuration,
    /// advertisers, per-click campaign book, clock, and the exact position
    /// of every keyword's RNG stream. [`MarketError::NotDurable`] if any
    /// campaign runs a custom program or fixed table.
    ///
    /// [`ShardedMarketplace::from_state`] rebuilds a marketplace from the
    /// capture that serves **bit-identical** auctions from the next query
    /// on (held tables, revenue matrices and solver scratch are execution
    /// state and are re-derived with identical outcomes).
    pub fn capture_state(&self) -> Result<MarketState, MarketError> {
        let mut campaigns = Vec::with_capacity(self.campaign_count());
        for campaign in self.campaigns() {
            campaigns.push(campaign?.to_state());
        }
        Ok(MarketState {
            config: self.config(),
            advertisers: self.advertisers().map(str::to_string).collect(),
            campaigns,
            clock: self.clock,
            rng_states: self.rng_states().collect(),
        })
    }

    /// Builds the empty marketplace `config` describes — the one function
    /// that turns a configuration into a marketplace (state restore,
    /// recovery replay and the serving layer's `Configure` all build
    /// through it). No journal is attached.
    pub fn from_config(config: &MarketConfigState) -> Result<Self, MarketError> {
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

    /// Replaces this marketplace with a fresh build of `config`, carrying
    /// an attached journal over and journalling the reconfiguration like
    /// any other operation. A rejected configuration changes nothing.
    pub fn configure(&mut self, config: MarketConfigState) -> Result<(), MarketError> {
        let mut fresh = Self::from_config(&config)?;
        fresh.journal = self.journal.take();
        *self = fresh;
        self.record(&MutationRecord::Configure(config));
        Ok(())
    }

    /// Rebuilds a marketplace from a [`ShardedMarketplace::capture_state`]
    /// capture; see there for the bit-identity guarantee. The restored
    /// marketplace has no journal attached.
    pub fn from_state(state: &MarketState) -> Result<Self, MarketError> {
        let mut market = Self::from_config(&state.config)?;
        for name in &state.advertisers {
            market.register_advertiser(name.clone());
        }
        for campaign in &state.campaigns {
            let parts = PerClickParts {
                bid: Money::from_cents(campaign.bid_cents),
                click_value: Money::from_cents(campaign.click_value_cents),
                roi_target: campaign.roi_target,
                click_probs: Some(campaign.click_probs.clone()),
                purchase_probs: Some(campaign.purchase_probs.clone()),
                targeting: campaign.targeting.clone(),
            };
            let id = market.add_campaign(
                AdvertiserHandle::from_index(campaign.advertiser),
                campaign.keyword,
                parts.into(),
            )?;
            if campaign.paused {
                market.pause_campaign(id)?;
            }
        }
        market.clock = state.clock;
        for (kw, rng_state) in state.rng_states.iter().enumerate() {
            if kw >= market.num_keywords {
                break;
            }
            let shard = market.shard_of(kw);
            market.shards[shard].set_rng_state(kw, *rng_state);
        }
        Ok(market)
    }

    /// Number of shards the keyword universe is partitioned across.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `keyword`: a stable SplitMix64 hash of the keyword
    /// index modulo the shard count. Stable across runs and processes, so
    /// external routers can precompute placement.
    pub fn shard_of(&self, keyword: usize) -> usize {
        shard_of_keyword(keyword, self.shards.len())
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

    fn owner_mut(&mut self, keyword: usize) -> &mut Marketplace {
        let shard = self.shard_of(keyword);
        &mut self.shards[shard]
    }

    fn owner(&self, keyword: usize) -> &Marketplace {
        &self.shards[self.shard_of(keyword)]
    }

    // -- mirrored read-only configuration ----------------------------------

    /// Number of ad slots per results page.
    pub fn num_slots(&self) -> usize {
        self.shards[0].num_slots()
    }

    /// Size of the keyword universe.
    pub fn num_keywords(&self) -> usize {
        self.num_keywords
    }

    /// The winner-determination method every keyword engine runs.
    pub fn method(&self) -> WdMethod {
        self.shards[0].method()
    }

    /// The pricing rule in force.
    pub fn pricing(&self) -> PricingScheme {
        self.shards[0].pricing()
    }

    /// Whether winner determination runs through the top-k
    /// [`ssa_matching::PrunedSolver`].
    pub fn pruned(&self) -> bool {
        self.shards[0].pruned()
    }

    /// Whether unchanged auctions skip the matrix refill and solve.
    pub fn warm_start(&self) -> bool {
        self.shards[0].warm_start()
    }

    /// Enables or disables top-k pruned winner determination on every
    /// shard; see [`Marketplace::set_pruned`].
    pub fn set_pruned(&mut self, enabled: bool) {
        for shard in &mut self.shards {
            shard.set_pruned(enabled);
        }
    }

    /// Enables or disables warm-started assignments on every shard; see
    /// [`Marketplace::set_warm_start`].
    pub fn set_warm_start(&mut self, enabled: bool) {
        for shard in &mut self.shards {
            shard.set_warm_start(enabled);
        }
    }

    /// Switches the winner-determination method on every shard; see
    /// [`Marketplace::set_method`] (not journalled).
    pub fn set_method(&mut self, method: WdMethod) {
        for shard in &mut self.shards {
            shard.set_method(method);
        }
    }

    /// Switches the pricing rule on every shard; see
    /// [`Marketplace::set_pricing`] (not journalled).
    pub fn set_pricing(&mut self, pricing: PricingScheme) {
        for shard in &mut self.shards {
            shard.set_pricing(pricing);
        }
    }

    /// The global market clock: total auctions served across all shards.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Total campaigns registered across every shard (each campaign lives
    /// on exactly one shard — the one owning its keyword).
    pub fn num_campaigns_total(&self) -> usize {
        self.shards.iter().map(|s| s.num_campaigns_total()).sum()
    }

    /// A point-in-time summary of market shape and progress across all
    /// shards.
    pub fn snapshot(&self) -> crate::marketplace::MarketSnapshot {
        crate::marketplace::MarketSnapshot {
            advertisers: self.num_advertisers(),
            campaigns: self.num_campaigns_total(),
            keywords: self.num_keywords,
            slots: self.num_slots(),
            shards: self.shards.len(),
            auctions: self.clock,
        }
    }

    // -- control plane ------------------------------------------------------

    /// Registers an advertiser on every shard (handles are global — a
    /// campaign can open on any keyword regardless of which shard owns it).
    pub fn register_advertiser(&mut self, name: impl Into<String>) -> AdvertiserHandle {
        let name = name.into();
        let mut handle = None;
        for shard in &mut self.shards {
            let h = shard.register_advertiser(name.clone());
            debug_assert!(handle.is_none() || handle == Some(h), "shards diverged");
            handle = Some(h);
        }
        if self.journal.is_some() {
            self.record(&MutationRecord::RegisterAdvertiser { name });
        }
        handle.expect("a sharded marketplace has at least one shard")
    }

    /// The display name an advertiser registered under.
    pub fn advertiser_name(&self, advertiser: AdvertiserHandle) -> Result<&str, MarketError> {
        self.shards[0].advertiser_name(advertiser)
    }

    /// Number of registered advertisers.
    pub fn num_advertisers(&self) -> usize {
        self.shards[0].num_advertisers()
    }

    /// Registers a campaign on the shard owning `keyword`; see
    /// [`Marketplace::add_campaign`]. Only that shard's keyword book is
    /// rebuilt on its next serve.
    pub fn add_campaign(
        &mut self,
        advertiser: AdvertiserHandle,
        keyword: usize,
        spec: CampaignSpec,
    ) -> Result<CampaignId, MarketError> {
        self.check_keyword(keyword)?;
        // Extract the journalable parts *before* the spec is consumed; a
        // spec the journal cannot represent is rejected up front so the
        // market and its journal never diverge.
        let parts = if self.journal.is_some() {
            match spec.per_click_parts() {
                Some(parts) => Some(parts),
                None => {
                    let next = self.owner(keyword).num_campaigns(keyword)?;
                    return Err(MarketError::NotDurable(CampaignId::from_parts(
                        keyword, next,
                    )));
                }
            }
        } else {
            None
        };
        let id = self
            .owner_mut(keyword)
            .add_campaign(advertiser, keyword, spec)?;
        if let Some(parts) = parts {
            self.record(&MutationRecord::AddCampaign {
                advertiser: advertiser.index() as u64,
                keyword: keyword as u64,
                bid_cents: parts.bid.cents(),
                click_value_cents: parts.click_value.cents(),
                roi_target: parts.roi_target,
                click_probs: parts.click_probs,
                purchase_probs: parts.purchase_probs,
                targeting: parts.targeting,
            });
        }
        Ok(id)
    }

    /// Number of campaigns registered on a keyword.
    pub fn num_campaigns(&self, keyword: usize) -> Result<usize, MarketError> {
        self.check_keyword(keyword)?;
        self.owner(keyword).num_campaigns(keyword)
    }

    /// The advertiser owning a campaign.
    pub fn campaign_advertiser(&self, id: CampaignId) -> Result<AdvertiserHandle, MarketError> {
        self.check_keyword(id.keyword())
            .map_err(|_| MarketError::UnknownCampaign(id))?;
        self.owner(id.keyword()).campaign_advertiser(id)
    }

    /// Whether a campaign is currently paused.
    pub fn is_paused(&self, id: CampaignId) -> Result<bool, MarketError> {
        self.check_keyword(id.keyword())
            .map_err(|_| MarketError::UnknownCampaign(id))?;
        self.owner(id.keyword()).is_paused(id)
    }

    /// Sets a per-click campaign's bid — `O(log n)` on the owning shard's
    /// keyword-local logical bid index; see [`Marketplace::update_bid`].
    pub fn update_bid(&mut self, id: CampaignId, bid: Money) -> Result<(), MarketError> {
        self.check_keyword(id.keyword())
            .map_err(|_| MarketError::UnknownCampaign(id))?;
        self.owner_mut(id.keyword()).update_bid(id, bid)?;
        self.record(&MutationRecord::UpdateBid {
            keyword: id.keyword() as u64,
            index: id.index() as u64,
            bid_cents: bid.cents(),
        });
        Ok(())
    }

    /// Sets or clears a per-click campaign's ROI target; see
    /// [`Marketplace::set_roi_target`].
    pub fn set_roi_target(
        &mut self,
        id: CampaignId,
        target: Option<f64>,
    ) -> Result<(), MarketError> {
        self.check_keyword(id.keyword())
            .map_err(|_| MarketError::UnknownCampaign(id))?;
        self.owner_mut(id.keyword()).set_roi_target(id, target)?;
        self.record(&MutationRecord::SetRoiTarget {
            keyword: id.keyword() as u64,
            index: id.index() as u64,
            target,
        });
        Ok(())
    }

    /// Pauses a campaign on its owning shard; see
    /// [`Marketplace::pause_campaign`].
    pub fn pause_campaign(&mut self, id: CampaignId) -> Result<(), MarketError> {
        self.check_keyword(id.keyword())
            .map_err(|_| MarketError::UnknownCampaign(id))?;
        self.owner_mut(id.keyword()).pause_campaign(id)?;
        self.record(&MutationRecord::PauseCampaign {
            keyword: id.keyword() as u64,
            index: id.index() as u64,
        });
        Ok(())
    }

    /// Resumes a paused campaign.
    pub fn resume_campaign(&mut self, id: CampaignId) -> Result<(), MarketError> {
        self.check_keyword(id.keyword())
            .map_err(|_| MarketError::UnknownCampaign(id))?;
        self.owner_mut(id.keyword()).resume_campaign(id)?;
        self.record(&MutationRecord::ResumeCampaign {
            keyword: id.keyword() as u64,
            index: id.index() as u64,
        });
        Ok(())
    }

    /// A per-click campaign's current effective bid, read from the owning
    /// shard's logical bid index.
    pub fn current_bid(&self, id: CampaignId) -> Result<Money, MarketError> {
        self.check_keyword(id.keyword())
            .map_err(|_| MarketError::UnknownCampaign(id))?;
        self.owner(id.keyword()).current_bid(id)
    }

    /// The highest effective per-click bids on a keyword, descending.
    pub fn top_bids(
        &self,
        keyword: usize,
        limit: usize,
    ) -> Result<Vec<(CampaignId, Money)>, MarketError> {
        self.check_keyword(keyword)?;
        self.owner(keyword).top_bids(keyword, limit)
    }

    // -- query serving ------------------------------------------------------

    /// Serves one query on its owning shard (no worker threads involved)
    /// and returns the fully typed outcome. Identical, auction for
    /// auction, to an unsharded [`Marketplace`] serving the same stream.
    pub fn serve(&mut self, request: QueryRequest) -> Result<AuctionResponse, MarketError> {
        let keyword = self.check_keyword(request.keyword)?;
        self.clock += 1;
        let time = self.clock;
        let response = self
            .owner_mut(keyword)
            .serve_at(keyword, &request.attrs, time);
        if self.journal.is_some() {
            self.record(&MutationRecord::Serve {
                keyword: keyword as u64,
                attrs: request.attrs,
            });
        }
        Ok(response)
    }

    /// Serves a mixed-keyword query stream across all shards in parallel.
    ///
    /// The stream is split into maximal same-keyword chunks (each one
    /// [`crate::AuctionEngine::run_batch`] call on the owning shard's
    /// persistent engine, exactly as in [`Marketplace::serve_batch`]); the
    /// chunks are dealt to their owning shards, and every shard with work
    /// runs its chunks on a [`std::thread::scope`] worker. Per-chunk
    /// reports are merged back **in stream order**, so the aggregate —
    /// including the floating-point `expected_revenue` sums — is
    /// bit-identical to the unsharded serve of the same stream.
    pub fn serve_batch(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<MarketBatchReport, MarketError> {
        for request in requests {
            self.check_keyword(request.keyword)?;
        }
        // Chunk the stream and deal the chunks to their owning shards.
        let num_shards = self.shards.len();
        let mut work: Vec<Vec<Chunk>> = vec![Vec::new(); num_shards];
        let mut idx = 0;
        let mut i = 0;
        let mut time = self.clock;
        while i < requests.len() {
            let keyword = requests[i].keyword;
            let mut j = i + 1;
            while j < requests.len() && requests[j].keyword == keyword {
                j += 1;
            }
            work[self.shard_of(keyword)].push(Chunk {
                idx,
                keyword,
                start: i,
                len: j - i,
                start_time: time,
            });
            idx += 1;
            time += (j - i) as u64;
            i = j;
        }

        let num_keywords = self.num_keywords;
        let busy = work.iter().filter(|w| !w.is_empty()).count();
        // (chunk index, keyword, report) triples from every shard; merged
        // in stream order below.
        let mut chunk_reports: Vec<(usize, usize, BatchReport)> = if busy <= 1 {
            // Zero or one shard has work: serve inline, skip the threads.
            let mut out = Vec::with_capacity(idx);
            for (shard, chunks) in self.shards.iter_mut().zip(&work) {
                for c in chunks {
                    out.push((
                        c.idx,
                        c.keyword,
                        shard.serve_run_at(&requests[c.start..c.start + c.len], c.start_time),
                    ));
                }
            }
            out
        } else {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(busy);
                for (shard, chunks) in self.shards.iter_mut().zip(&work) {
                    if chunks.is_empty() {
                        continue;
                    }
                    handles.push(scope.spawn(move || {
                        chunks
                            .iter()
                            .map(|c| {
                                (
                                    c.idx,
                                    c.keyword,
                                    shard.serve_run_at(
                                        &requests[c.start..c.start + c.len],
                                        c.start_time,
                                    ),
                                )
                            })
                            .collect::<Vec<_>>()
                    }));
                }
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
        };
        chunk_reports.sort_unstable_by_key(|(idx, _, _)| *idx);

        self.clock = time;
        let mut out = MarketBatchReport {
            total: BatchReport::default(),
            per_keyword: vec![BatchReport::default(); num_keywords],
            chunks: 0,
        };
        for (_, keyword, report) in &chunk_reports {
            out.per_keyword[*keyword].absorb(report);
            out.total.absorb(report);
            out.chunks += 1;
        }
        if self.journal.is_some() {
            let queries = requests
                .iter()
                .map(|r| (r.keyword as u64, r.attrs.clone()))
                .collect();
            self.record(&MutationRecord::ServeBatch { queries });
        }
        Ok(out)
    }
}

/// The live marketplace read in place: what
/// [`ShardedMarketplace::capture_state`] copies, without the copy.
impl StateSource for ShardedMarketplace {
    fn config(&self) -> MarketConfigState {
        let shard0 = &self.shards[0];
        MarketConfigState {
            slots: shard0.num_slots(),
            keywords: self.num_keywords,
            seed: shard0.seed(),
            method: shard0.method(),
            pricing: shard0.pricing(),
            shards: self.shards.len(),
            pruned: shard0.pruned(),
            warm_start: shard0.warm_start(),
            default_click_probs: shard0.default_click_probs().cloned(),
            default_purchase_probs: shard0.default_purchase_probs().cloned(),
        }
    }

    fn advertisers(&self) -> impl ExactSizeIterator<Item = &str> {
        let shard0 = &self.shards[0];
        (0..shard0.num_advertisers()).map(move |i| {
            shard0
                .advertiser_name(AdvertiserHandle::from_index(i))
                .expect("advertiser indexes are dense")
        })
    }

    fn campaign_count(&self) -> usize {
        self.num_campaigns_total()
    }

    fn campaigns(&self) -> impl Iterator<Item = Result<CampaignView<'_>, MarketError>> {
        (0..self.num_keywords).flat_map(move |kw| self.owner(kw).campaign_views(kw))
    }

    fn clock(&self) -> u64 {
        self.clock
    }

    fn rng_states(&self) -> impl ExactSizeIterator<Item = [u64; 4]> {
        (0..self.num_keywords).map(move |kw| self.owner(kw).rng_state(kw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marketplace::Marketplace;

    fn builder(keywords: usize) -> MarketplaceBuilder {
        Marketplace::builder()
            .slots(2)
            .keywords(keywords)
            .seed(99)
            .default_click_probs(vec![0.7, 0.35])
    }

    /// A populated market: two advertisers, one campaign per keyword each.
    fn populate<M>(
        market: &mut M,
        keywords: usize,
        mut register: impl FnMut(&mut M, &str) -> AdvertiserHandle,
        mut add: impl FnMut(&mut M, AdvertiserHandle, usize, CampaignSpec) -> CampaignId,
    ) -> Vec<CampaignId> {
        let a = register(market, "a");
        let b = register(market, "b");
        let mut ids = Vec::new();
        for kw in 0..keywords {
            ids.push(add(
                market,
                a,
                kw,
                CampaignSpec::per_click(Money::from_cents(10 + kw as i64)),
            ));
            ids.push(add(
                market,
                b,
                kw,
                CampaignSpec::per_click(Money::from_cents(4 + 2 * kw as i64)),
            ));
        }
        ids
    }

    fn populated_sharded(keywords: usize, shards: usize) -> (ShardedMarketplace, Vec<CampaignId>) {
        let mut m = builder(keywords).build_sharded(shards).expect("valid");
        let ids = populate(
            &mut m,
            keywords,
            |m, n| m.register_advertiser(n),
            |m, a, kw, s| m.add_campaign(a, kw, s).expect("accepted"),
        );
        (m, ids)
    }

    fn populated_unsharded(keywords: usize) -> (Marketplace, Vec<CampaignId>) {
        let mut m = builder(keywords).build().expect("valid");
        let ids = populate(
            &mut m,
            keywords,
            |m, n| m.register_advertiser(n),
            |m, a, kw, s| m.add_campaign(a, kw, s).expect("accepted"),
        );
        (m, ids)
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

    #[test]
    fn shard_routing_is_stable_and_total() {
        let (m, _) = populated_sharded(16, 5);
        assert_eq!(m.num_shards(), 5);
        for kw in 0..16 {
            let s = m.shard_of(kw);
            assert!(s < 5);
            assert_eq!(s, m.shard_of(kw), "routing must be deterministic");
        }
        // With 16 keywords over 5 shards, more than one shard owns work.
        let owners: std::collections::HashSet<usize> = (0..16).map(|kw| m.shard_of(kw)).collect();
        assert!(owners.len() > 1);
    }

    #[test]
    fn serve_matches_unsharded_keyword_local_marketplace() {
        for shards in [1, 2, 4, 7] {
            let (mut sharded, _) = populated_sharded(9, shards);
            let (mut plain, _) = populated_unsharded(9);
            for (t, request) in mixed_stream(9, 60).into_iter().enumerate() {
                let got = sharded.serve(request.clone()).expect("keyword in range");
                let want = plain.serve(request).expect("keyword in range");
                assert_eq!(got, want, "shards={shards} t={t}");
            }
            assert_eq!(sharded.now(), plain.now());
        }
    }

    #[test]
    fn serve_batch_matches_unsharded_keyword_local_marketplace() {
        let requests = mixed_stream(9, 300);
        let (mut plain, _) = populated_unsharded(9);
        let want = plain.serve_batch(&requests).expect("keywords in range");
        for shards in [1, 2, 4, 7] {
            let (mut sharded, _) = populated_sharded(9, shards);
            let got = sharded.serve_batch(&requests).expect("keywords in range");
            assert_eq!(got, want, "shards={shards}");
            assert_eq!(sharded.now(), 300);
        }
    }

    #[test]
    fn incremental_updates_route_to_the_owning_shard() {
        let (mut sharded, ids) = populated_sharded(6, 4);
        let (mut plain, plain_ids) = populated_unsharded(6);
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
    fn typed_errors_surface_through_the_dispatch_table() {
        let (mut m, _) = populated_sharded(4, 2);
        assert!(matches!(
            m.serve(QueryRequest::new(99)),
            Err(MarketError::UnknownKeyword { keyword: 99, .. })
        ));
        assert!(matches!(
            m.serve_batch(&[QueryRequest::new(0), QueryRequest::new(44)]),
            Err(MarketError::UnknownKeyword { keyword: 44, .. })
        ));
        let ghost = CampaignId::new(99, 0);
        assert_eq!(
            m.update_bid(ghost, Money::ZERO),
            Err(MarketError::UnknownCampaign(ghost))
        );
        assert_eq!(
            m.current_bid(ghost),
            Err(MarketError::UnknownCampaign(ghost))
        );
    }

    #[test]
    fn parse_shards_is_typed() {
        assert_eq!(parse_shards("4"), Ok(4));
        assert_eq!(parse_shards(" 2 "), Ok(2));
        assert_eq!(parse_shards("0"), Err(ParseShardsError::Zero));
        assert_eq!(
            parse_shards("four"),
            Err(ParseShardsError::Invalid("four".into()))
        );
        let err: Box<dyn std::error::Error> = Box::new(ParseShardsError::Zero);
        assert!(err.to_string().contains("positive"));
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

    #[test]
    fn capture_state_round_trips_bit_identically() {
        for shards in [1, 2, 4] {
            let (mut live, ids) = populated_sharded(9, shards);
            // Advance mid-stream: every RNG stream and the clock move.
            live.serve_batch(&mixed_stream(9, 120)).expect("in range");
            live.update_bid(ids[2], Money::from_cents(77)).unwrap();
            live.pause_campaign(ids[5]).unwrap();
            live.set_roi_target(ids[0], Some(1.5)).unwrap();

            let state = live.capture_state().expect("per-click campaigns only");
            let mut restored = ShardedMarketplace::from_state(&state).expect("valid state");

            assert_eq!(restored.now(), live.now());
            assert_eq!(restored.snapshot(), live.snapshot());
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

    #[test]
    fn journal_replay_reproduces_the_market() {
        let journal = VecJournal::default();
        let mut live = builder(6).build_sharded(3).expect("valid");
        live.set_journal(Box::new(journal.clone()));
        assert!(live.journal_attached());

        let ids = populate(
            &mut live,
            6,
            |m, n| m.register_advertiser(n),
            |m, a, kw, s| m.add_campaign(a, kw, s).expect("accepted"),
        );
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
        let mut replayed = builder(6).build_sharded(3).expect("valid");
        for record in journal.0.lock().unwrap().iter() {
            crate::journal::apply(&mut replayed, record.clone()).expect("replay applies cleanly");
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

    #[test]
    fn journalled_markets_reject_non_durable_campaigns() {
        let mut m = builder(4).build_sharded(2).expect("valid");
        m.set_journal(Box::new(VecJournal::default()));
        let a = m.register_advertiser("a");
        let err = m
            .add_campaign(
                a,
                1,
                CampaignSpec::table(ssa_bidlang::BidsTable::single_feature(Money::from_cents(2))),
            )
            .expect_err("table campaigns are not durable");
        assert!(matches!(err, MarketError::NotDurable(_)), "{err:?}");
        // The rejection was a pure no-op.
        assert_eq!(m.num_campaigns(1).unwrap(), 0);
        // Without a journal the same spec is accepted.
        let mut free = builder(4).build_sharded(2).expect("valid");
        let a = free.register_advertiser("a");
        free.add_campaign(
            a,
            1,
            CampaignSpec::table(ssa_bidlang::BidsTable::single_feature(Money::from_cents(2))),
        )
        .expect("accepted without a journal");
        // But capture then refuses: the campaign cannot be serialized.
        assert!(matches!(
            free.capture_state(),
            Err(MarketError::NotDurable(_))
        ));
    }

    #[test]
    fn advertisers_are_global() {
        let (mut m, _) = populated_sharded(6, 3);
        assert_eq!(m.num_advertisers(), 2);
        let c = m.register_advertiser("late");
        assert_eq!(m.advertiser_name(c).unwrap(), "late");
        // The new advertiser can open campaigns on any shard's keywords.
        for kw in 0..6 {
            m.add_campaign(c, kw, CampaignSpec::per_click(Money::from_cents(2)))
                .expect("accepted on every shard");
        }
    }
}
