//! # ssa-workload — the Section V experimental workload
//!
//! Reproduces the paper's evaluation setup:
//!
//! * 15 slots; 10 keywords; queries drawn uniformly, the chosen keyword at
//!   relevance 1, the rest at 0;
//! * every bidder runs the ROI heuristic; per-keyword click values uniform
//!   in `[0, 50]` cents (each bidder has at least one non-zero value);
//! * target spending rates uniform between 1 and the bidder's maximum
//!   keyword value;
//! * the interval `[0.1, 0.9]` partitioned into 15 sub-intervals, the
//!   `j`-th highest associated with slot `j`; each advertiser's click
//!   probability for a slot drawn uniformly within that slot's interval;
//! * a slight generalisation of generalised second pricing charges
//!   advertisers who receive clicks.
//!
//! Figures 12 and 13 compare four methods. [`MarketSimulation`] serves
//! the experiment on the marketplace service API (advertisers, campaigns,
//! `serve_batch` on a one-shard `Marketplace`, every advertiser one live
//! native Figure 5 strategy, `ssa_strategy::RoiBidder`, that all its
//! keywords' campaigns forward to) under LP, H or RH.
//! [`Simulation`] is the RHTALU path — threshold-algorithm selection over
//! logically updated bids, then the Hungarian algorithm on the candidates —
//! and the independent reference the marketplace is held to auction for
//! auction. Both draw user actions from the same per-keyword RNG streams.
//!
//! [`SectionVWorkload::campaigns`] is the one source of the static
//! per-click population, and [`SectionVWorkload::records`] spells it as the
//! one stream of market operations every harness applies — in process,
//! over the wire, or journalled. [`scenario`] is the one
//! description of a single-run experiment ([`Scenario`]: population,
//! stream, transport, durability, shards, sizes) with its quick and full
//! presets, which the `reproduce` runner serves in process or over the
//! wire.
//!
//! The [`hostile`] module is the evaluation's adversarial counterpart:
//! Zipf-skewed and flash-crowd query streams, advertiser churn under
//! load, and defective targeting programs — the [`WorkloadShape`]s behind
//! `reproduce --workload <shape>`, in process or over the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod config;
pub mod hostile;
pub mod market;
pub mod scenario;
pub mod sim;
pub mod sql;

pub use config::{SectionVCampaign, SectionVConfig, SectionVWorkload, MARKET_SEED_TAG};
pub use hostile::{
    defective_targeting_sources, nearest_rank, ChurnEvent, ChurnPlan, ParseWorkloadError,
    ShardSkew, WorkloadShape,
};
pub use market::MarketSimulation;
pub use scenario::{Drive, Population, Scenario, Stream};
pub use sim::{Simulation, SimulationStats};
pub use sql::{
    programmed_market, programmed_sharded_market, ParseStrategyError, ProgramHandle,
    ProgrammedMarket, Strategy,
};
