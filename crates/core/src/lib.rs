//! # ssa-core — the sponsored search auction engine
//!
//! This crate assembles the paper's full auction pipeline (Section I-B):
//!
//! 1. **Program evaluation** — bidders (anything implementing [`Bidder`])
//!    are shown the query and emit multi-feature [`BidsTable`]s.
//! 2. **Winner determination** — the bids plus the outcome-probability
//!    models are folded into an expected-revenue matrix
//!    ([`revenue::revenue_matrix`], the Theorem 2 construction), which any
//!    of the four [`WdMethod`]s solves: LP (network simplex), H (full
//!    Hungarian), RH (reduced graph), RHTALU (reduced graph over
//!    threshold-algorithm selection with logically-updated indexes).
//! 3. **User action** — clicks and purchases are sampled from the same
//!    probability models.
//! 4. **Pricing and payment** — generalised second pricing or VCG
//!    ([`pricing`]).
//!
//! Winner determination dispatches through the `ssa_matching::WdSolver`
//! trait: [`AuctionEngine`] owns a solver with persistent scratch and the
//! weights it reads — on the default `rh` path each slot's few best rows,
//! kept current from the bids that changed; for methods that read whole
//! columns a preallocated revenue matrix — and the batched entry point
//! ([`AuctionEngine::run_batch`]) updates them in place: no per-auction
//! matrix allocation on the hot path (see the [`engine`] module docs).
//!
//! Above the engine sits the [`marketplace`]: a long-lived
//! [`marketplace::Marketplace`] — the one market type — owning registered
//! advertisers, per-keyword campaigns, and one persistent engine+solver
//! per keyword (whose bidders are its campaigns), with a typed serving API
//! and an incremental update API that rewrites one campaign in place.
//! A market is built from one [`MarketConfigState`] by
//! [`marketplace::Marketplace::from_config`], the one constructor;
//! [`marketplace::Marketplace::builder`] writes that value one setter at
//! a time. `AuctionEngine` remains the documented low-level escape hatch.
//!
//! For multi-core serving, a configuration's `shards` count
//! ([`marketplace::MarketplaceBuilder::build_sharded`]) partitions the
//! marketplace's keyword books across shards by stable hash
//! ([`sharded::shard_of_keyword`]) and `serve_batch` fans out over scoped
//! threads — with bit-identical auction outcomes at every shard count (see
//! the [`marketplace`] module docs for the per-keyword-RNG equivalence
//! guarantee).
//!
//! Campaigns can be *SQL bidding programs* (Section II-B): [`sqlprog`]
//! compiles a script pair (schema + triggers, executed by the embedded
//! `ssa_minidb` engine) once as a [`SqlProgram`], and runs it per campaign
//! as a [`Bidder`], registered via
//! [`marketplace::CampaignSpec::sql_program`].
//!
//! The Section III-F heavyweight/lightweight extension lives in
//! [`heavyweight`].
//!
//! [`BidsTable`]: ssa_bidlang::BidsTable

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod bidder;
pub mod codec;
pub mod engine;
pub mod footprint;
pub mod heavyweight;
pub mod journal;
pub mod marketplace;
pub mod pricing;
pub mod prob;
pub mod revenue;
pub mod sharded;
pub mod sqlprog;
pub mod state;

pub use bidder::{Bidder, BidderOutcome, QueryContext, TableBidder};
pub use codec::CodecError;
pub use engine::{
    AuctionEngine, AuctionReport, BatchReport, EngineConfig, EngineQuery, ParseMethodError,
    PhaseStats, WdMethod,
};
pub use heavyweight::{solve_heavyweight, HeavyweightInstance, HeavyweightSolution};
pub use journal::{LogRecord, MutationJournal, MutationRecord, Reply};
pub use marketplace::{
    keyword_stream_seed, AdvertiserHandle, AuctionResponse, CampaignId, CampaignSpec,
    MarketBatchReport, MarketError, Marketplace, MarketplaceBuilder, Placement, QueryRequest,
    MAX_KEYWORDS, MAX_SHARDS, MAX_SLOTS,
};
pub use pricing::{ParsePricingError, PricingScheme, SlotPrice};
pub use prob::{ClickModel, ClickRows, PurchaseModel, SeparableClickModel};
pub use revenue::{expected_revenue, revenue_matrix, revenue_matrix_into, NoSlotValues};
pub use sharded::{parse_shards, shard_of_keyword, ParseShardsError, ShardedMarketplace};
pub use sqlprog::{SqlProgram, SqlProgramBidder, SqlProgramError};
pub use ssa_bidlang::targeting::{AttrValue, CompiledTargeting, UserAttrs};
pub use state::{MarketConfigState, MarketState};
