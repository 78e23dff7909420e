//! The Section V experiment expressed on the marketplace service API.
//!
//! [`MarketSimulation`] registers a Section V population on a
//! [`Marketplace`] of the requested shard count and serves the workload's
//! query stream through `serve_batch`. It exists for equivalence checks —
//! the shared-ROI comparison with the legacy path and the shard-invariance
//! tests below; `reproduce` runs go through `ssa_bench::run`. The
//! population is chosen by [`MarketPopulation`]:
//!
//! * [`MarketPopulation::SharedRoi`] — the facade-native port of
//!   [`crate::Simulation`]: every advertiser opens one campaign per
//!   keyword, and all of an advertiser's campaigns share one
//!   [`RoiBidder`] (the Figure 5 strategy couples keywords through the
//!   advertiser-level spending rate and max/min ROI, so per-campaign state
//!   would not be faithful). On one shard this is *exactly* equivalent to
//!   the legacy [`crate::Simulation`] path for the full-matrix methods
//!   (LP / H / RH): same bids, same allocations, same sampled clicks, same
//!   GSP charges, auction for auction — the integration tests assert it.
//!   Shared strategy state observes cross-keyword event order, so this
//!   population is **not** shard-invariant; run it on one shard.
//! * [`MarketPopulation::PerClick`] — per-click campaigns frozen at the
//!   workload's initial bids ([`SectionVWorkload::populate`]). All state
//!   is keyword-local, so the stats are bit-identical at every shard
//!   count (tested below for 1, 2, 4, and 7).
//!
//! (`Simulation` remains the reference implementation and the only home of
//! the RHTALU threshold-algorithm evaluation path.)

use crate::config::SectionVWorkload;
use crate::sim::SimulationStats;
use ssa_bidlang::{BidsTable, Money};
use ssa_core::marketplace::{CampaignSpec, MarketError, Marketplace, QueryRequest};
use ssa_core::{Bidder, BidderOutcome, CampaignId, PricingScheme, QueryContext, WdMethod};
use ssa_strategy::{KeywordEntry, RoiBidder};
use std::sync::{Arc, Mutex};

/// A campaign bidding program that shares one [`RoiBidder`] across all of
/// an advertiser's per-keyword campaigns.
///
/// On a query it applies the Figure 5 adjustment for the queried keyword at
/// the global market time and emits the resulting single-row click bid; on
/// a charged click it feeds spend and value back into the shared strategy
/// state — mirroring the legacy simulation's settlement rule (zero-priced
/// clicks are not recorded).
///
/// The shared state lives behind an [`Arc`]`<`[`Mutex`]`>` so the program
/// satisfies the `Send` bound campaign programs carry (campaigns must be
/// able to migrate to shard worker threads). Note that *sharing* strategy
/// state across keywords makes the program order-sensitive: it is exactly
/// the kind of cross-keyword-coupled bidder whose results are not
/// shard-invariant, so the Section V ROI experiment runs on one shard
/// (see `ssa_core::marketplace`'s module docs).
pub struct SharedRoiProgram {
    shared: Arc<Mutex<RoiBidder>>,
}

impl SharedRoiProgram {
    /// Wraps a shared strategy handle.
    pub fn new(shared: Arc<Mutex<RoiBidder>>) -> Self {
        SharedRoiProgram { shared }
    }
}

impl Bidder for SharedRoiProgram {
    fn on_query(&mut self, ctx: &QueryContext) -> BidsTable {
        let bid = self
            .shared
            .lock()
            .expect("ROI strategy state poisoned")
            .adjust_and_bid(ctx.keyword, ctx.time);
        BidsTable::single_feature(Money::from_cents(bid))
    }

    fn on_outcome(&mut self, ctx: &QueryContext, outcome: &BidderOutcome) {
        if outcome.clicked && outcome.price.is_positive() {
            let mut shared = self.shared.lock().expect("ROI strategy state poisoned");
            let value = shared.keywords[ctx.keyword].click_value as f64;
            shared.record_click(ctx.keyword, outcome.price, value);
        }
    }
}

/// Which Section V population [`MarketSimulation`] registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketPopulation {
    /// Live Figure 5 ROI programs, one strategy state per advertiser
    /// shared across its keywords (legacy-equivalent on one shard).
    SharedRoi,
    /// Per-click campaigns frozen at the workload's initial bids
    /// (shard-count-invariant).
    PerClick,
}

/// The Section V workload running on the marketplace service API.
pub struct MarketSimulation {
    /// The generated workload.
    pub workload: SectionVWorkload,
    market: Marketplace,
    /// One shared strategy handle per advertiser ([`MarketPopulation::SharedRoi`]
    /// only; empty for the static population).
    programs: Vec<Arc<Mutex<RoiBidder>>>,
    auction_idx: usize,
    /// Aggregate counters, kept shape-compatible with the legacy
    /// [`crate::Simulation`] (`candidates` counts every advertiser per
    /// auction, as for the full-matrix methods; `ta_sorted_accesses` stays
    /// zero — the threshold algorithm lives only in the legacy path).
    pub stats: SimulationStats,
}

impl MarketSimulation {
    /// Builds the marketplace for `workload` on `shards` shards: one
    /// advertiser registration and one campaign per (advertiser, keyword)
    /// pair, engines running `method` with the paper's GSP pricing, RNG
    /// seeded exactly like the legacy simulation.
    pub fn new(
        workload: SectionVWorkload,
        method: WdMethod,
        population: MarketPopulation,
        shards: usize,
    ) -> Result<Self, MarketError> {
        let config = workload.config;
        let mut market = Marketplace::builder()
            .slots(config.num_slots)
            .keywords(config.num_keywords)
            .method(method)
            .pricing(PricingScheme::Gsp)
            .seed(config.seed ^ 0x5EED_CAFE)
            .build_sharded(shards)?;
        let programs: Vec<Arc<Mutex<RoiBidder>>> = match population {
            MarketPopulation::PerClick => Vec::new(),
            MarketPopulation::SharedRoi => workload
                .bidders
                .iter()
                .map(|params| {
                    let keywords = params
                        .keywords
                        .iter()
                        .map(|&(value, bid, roi)| KeywordEntry::new(value, bid, roi))
                        .collect();
                    Arc::new(Mutex::new(RoiBidder::new(
                        keywords,
                        params.target_spend_rate,
                    )))
                })
                .collect(),
        };
        workload.populate_with(&mut market, false, |campaign| {
            match programs.get(campaign.advertiser) {
                Some(shared) => {
                    CampaignSpec::program(Box::new(SharedRoiProgram::new(Arc::clone(shared))))
                        .click_probs(campaign.click_probs)
                }
                None => campaign.spec(),
            }
        })?;
        Ok(MarketSimulation {
            workload,
            market,
            programs,
            auction_idx: 0,
            stats: SimulationStats::default(),
        })
    }

    /// The underlying marketplace (e.g. to inspect `now()`,
    /// `num_shards()`, or `top_bids`).
    pub fn market(&self) -> &Marketplace {
        &self.market
    }

    /// Serves the next `count` queries of the workload's stream (cycled,
    /// exactly like the legacy simulation) through
    /// [`Marketplace::serve_batch`] and folds the outcome into
    /// [`MarketSimulation::stats`].
    pub fn run_auctions(&mut self, count: usize) -> &SimulationStats {
        let stream = &self.workload.query_stream;
        let requests: Vec<QueryRequest> = (0..count)
            .map(|offset| QueryRequest::new(stream[(self.auction_idx + offset) % stream.len()]))
            .collect();
        self.auction_idx += count;
        let report = self
            .market
            .serve_batch(&requests)
            .expect("workload keywords are all in range");
        self.stats.auctions += report.total.auctions;
        self.stats.total_expected_revenue += report.total.expected_revenue;
        self.stats.clicks += report.total.clicks;
        self.stats.charged_cents += report.total.realized_revenue.cents();
        self.stats.candidates +=
            report.total.auctions * self.workload.config.num_advertisers as u64;
        &self.stats
    }

    /// Current bid (cents) of advertiser `adv` on `keyword`: read from the
    /// shared strategy state, or for the static population the campaign's
    /// effective bid ([`Marketplace::current_bid`], zero while paused).
    pub fn bid_of(&self, adv: usize, keyword: usize) -> i64 {
        match self.programs.get(adv) {
            Some(shared) => {
                shared.lock().expect("ROI strategy state poisoned").keywords[keyword].bid
            }
            None => self
                .market
                .current_bid(CampaignId::from_parts(keyword, adv))
                .expect("Section V registers one campaign per advertiser per keyword")
                .cents(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SectionVConfig;

    fn workload() -> SectionVWorkload {
        SectionVWorkload::generate(SectionVConfig {
            num_advertisers: 40,
            num_slots: 5,
            num_keywords: 8,
            seed: 23,
        })
    }

    #[test]
    fn roi_population_serves_the_section_v_workload() {
        let mut sim = MarketSimulation::new(
            workload(),
            WdMethod::Reduced,
            MarketPopulation::SharedRoi,
            1,
        )
        .expect("valid");
        sim.run_auctions(60);
        assert_eq!(sim.stats.auctions, 60);
        assert_eq!(sim.market().now(), 60);
        assert!(sim.stats.total_expected_revenue > 0.0);
        assert!(
            sim.stats.clicks > 0,
            "five slots over 60 auctions must click"
        );
        assert_eq!(sim.stats.candidates, 60 * 40);
        // Strategy state is live and reachable.
        let bids: Vec<i64> = (0..40).map(|a| sim.bid_of(a, 0)).collect();
        assert!(bids.iter().any(|&b| b > 0));
    }

    #[test]
    fn static_population_serves_sharded_and_exposes_its_bids() {
        let mut sim =
            MarketSimulation::new(workload(), WdMethod::Reduced, MarketPopulation::PerClick, 4)
                .expect("valid");
        sim.run_auctions(80);
        assert_eq!(sim.stats.auctions, 80);
        assert_eq!(sim.market().now(), 80);
        assert_eq!(sim.market().num_shards(), 4);
        assert!(sim.stats.total_expected_revenue > 0.0);
        assert!(
            sim.stats.clicks > 0,
            "five slots over 80 auctions must click"
        );
        assert_eq!(sim.stats.candidates, 80 * 40);
        let (_, initial_bid, _) = sim.workload.bidders[3].keywords[2];
        assert_eq!(sim.bid_of(3, 2), initial_bid.max(0));
    }

    #[test]
    fn static_population_is_shard_count_invariant() {
        // The same workload under 1, 2, 4, and 7 shards: every stats field
        // — including the floating-point expected-revenue sum — must be
        // identical, in several incremental rounds.
        let runs: Vec<SimulationStats> = [1usize, 2, 4, 7]
            .into_iter()
            .map(|shards| {
                let mut sim = MarketSimulation::new(
                    workload(),
                    WdMethod::Reduced,
                    MarketPopulation::PerClick,
                    shards,
                )
                .expect("valid");
                for _ in 0..3 {
                    sim.run_auctions(50);
                }
                sim.stats
            })
            .collect();
        for (i, stats) in runs.iter().enumerate().skip(1) {
            assert_eq!(stats, &runs[0], "shard count #{i} diverged");
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert_eq!(
            MarketSimulation::new(workload(), WdMethod::Reduced, MarketPopulation::PerClick, 0)
                .err(),
            Some(MarketError::NoShards)
        );
    }
}
