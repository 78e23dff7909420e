//! The Section V experiment on the marketplace service API.
//!
//! [`MarketSimulation`] registers the Section V population on a
//! one-shard [`Marketplace`] and serves the workload's query stream
//! through `serve_batch`: every advertiser opens one campaign per keyword,
//! and all of an advertiser's campaigns share one [`RoiBidder`] (the
//! Figure 5 strategy couples keywords through the advertiser-level
//! spending rate and max/min ROI, so per-campaign state would not be
//! faithful). Each campaign is the crate's `SharedProgram` forwarder over
//! that one strategy, and `RoiBidder`'s own [`ssa_core::Bidder`] impl
//! settles a charged click on the queried keyword, the reference
//! simulation's rule. Figures 12 and 13 time it under LP, H and RH, and
//! under each it matches the RHTALU reference [`crate::Simulation`] auction for
//! auction: same bids, same allocations, same sampled clicks,
//! same GSP charges — the integration tests assert it. Shared strategy
//! state observes cross-keyword event order, so this population is **not**
//! shard-invariant, which is why the market has one shard; the
//! shard-invariant per-click population is [`SectionVWorkload::populate`].

use crate::config::SectionVWorkload;
use crate::sim::SimulationStats;
use crate::sql::SharedProgram;
use ssa_core::marketplace::{CampaignSpec, MarketError, Marketplace, QueryRequest};
use ssa_core::{PricingScheme, WdMethod};
use ssa_strategy::RoiBidder;
use std::sync::{Arc, Mutex};

/// The Section V workload running on the marketplace service API.
pub struct MarketSimulation {
    /// The generated workload.
    pub workload: SectionVWorkload,
    market: Marketplace,
    /// One shared strategy handle per advertiser.
    programs: Vec<Arc<Mutex<RoiBidder>>>,
    auction_idx: usize,
    /// Aggregate counters, the same shape as [`crate::Simulation`]'s
    /// (`candidates` and `ta_sorted_accesses` stay zero: the threshold
    /// algorithm runs only there).
    pub stats: SimulationStats,
}

impl MarketSimulation {
    /// Builds the one-shard marketplace for `workload`: one advertiser
    /// registration and one campaign per (advertiser, keyword) pair,
    /// engines running `method` with the paper's GSP pricing, RNG seeded
    /// exactly like the reference simulation.
    pub fn new(workload: SectionVWorkload, method: WdMethod) -> Result<Self, MarketError> {
        let config = workload.config;
        let mut market = Marketplace::builder()
            .slots(config.num_slots)
            .keywords(config.num_keywords)
            .method(method)
            .pricing(PricingScheme::Gsp)
            .seed(config.seed ^ 0x5EED_CAFE)
            .build()?;
        let programs: Vec<Arc<Mutex<RoiBidder>>> = workload
            .bidders
            .iter()
            .map(|params| Arc::new(Mutex::new(RoiBidder::from(params))))
            .collect();
        workload.populate_with(&mut market, false, |campaign| {
            let shared = Arc::clone(&programs[campaign.advertiser]);
            CampaignSpec::program(Box::new(SharedProgram(shared))).click_probs(campaign.click_probs)
        })?;
        Ok(MarketSimulation {
            workload,
            market,
            programs,
            auction_idx: 0,
            stats: SimulationStats::default(),
        })
    }

    /// The underlying marketplace (e.g. to inspect `now()` or `top_bids`).
    pub fn market(&self) -> &Marketplace {
        &self.market
    }

    /// Serves the next `count` queries of the workload's stream (cycled,
    /// exactly like the reference simulation) through
    /// [`Marketplace::serve_batch`] and folds the outcome into
    /// [`MarketSimulation::stats`].
    pub fn run_auctions(&mut self, count: usize) -> Result<&SimulationStats, MarketError> {
        let stream = &self.workload.query_stream;
        let requests: Vec<QueryRequest> = (0..count)
            .map(|offset| QueryRequest::new(stream[(self.auction_idx + offset) % stream.len()]))
            .collect();
        let report = self.market.serve_batch(&requests)?;
        self.auction_idx += count;
        self.stats.auctions += report.total.auctions;
        self.stats.total_expected_revenue += report.total.expected_revenue;
        self.stats.clicks += report.total.clicks;
        self.stats.charged_cents += report.total.realized_revenue.cents();
        Ok(&self.stats)
    }

    /// Current bid (cents) of advertiser `adv` on `keyword`, read from the
    /// shared strategy state.
    pub fn bid_of(&self, adv: usize, keyword: usize) -> i64 {
        self.programs[adv]
            .lock()
            .expect("ROI strategy state poisoned")
            .keywords[keyword]
            .bid
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
        let mut sim = MarketSimulation::new(workload(), WdMethod::Reduced).expect("valid");
        sim.run_auctions(60).expect("in range");
        assert_eq!(sim.stats.auctions, 60);
        assert_eq!(sim.market().now(), 60);
        assert!(sim.stats.total_expected_revenue > 0.0);
        assert!(
            sim.stats.clicks > 0,
            "five slots over 60 auctions must click"
        );
        // Strategy state is live and reachable.
        let bids: Vec<i64> = (0..40).map(|a| sim.bid_of(a, 0)).collect();
        assert!(bids.iter().any(|&b| b > 0));
    }
}
