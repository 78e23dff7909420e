//! Deterministic, seeded generators for the Section V workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssa_bidlang::{Money, SlotId};
use ssa_core::marketplace::{CampaignSpec, MarketError, Marketplace};
use ssa_core::prob::{ClickModel, PurchaseModel};
use ssa_strategy::RoiBidderParams;

/// The harnesses' marketplace-seed convention: a Section V market is
/// seeded with the *workload* seed XOR this tag, so user-action
/// randomness and bid randomness stay decoupled. Every harness (in
/// process, over the wire, journalled) derives the seed here, which is
/// what makes their runs of one scenario bit-identical.
pub const MARKET_SEED_TAG: u64 = 0xD1CE_D1CE;

/// The targeting program the targeted population's even-indexed
/// advertisers carry.
pub const MOBILE_ONLY: &str = "device = 'mobile'";

/// Parameters of the Section V experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionVConfig {
    /// Number of advertisers (the x-axis of Figures 12 and 13).
    pub num_advertisers: usize,
    /// Number of slots; the paper uses 15 everywhere.
    pub num_slots: usize,
    /// Number of keywords; the paper uses 10.
    pub num_keywords: usize,
    /// RNG seed; fixed seeds make the harness repeatable.
    pub seed: u64,
}

impl SectionVConfig {
    /// The paper's configuration for a given advertiser count.
    pub fn paper(num_advertisers: usize, seed: u64) -> Self {
        SectionVConfig {
            num_advertisers,
            num_slots: 15,
            num_keywords: 10,
            seed,
        }
    }

    /// Seed of the marketplace serving this workload (see
    /// [`MARKET_SEED_TAG`]).
    pub fn market_seed(&self) -> u64 {
        self.seed ^ MARKET_SEED_TAG
    }
}

/// One per-click campaign of the static Section V population: advertiser
/// `advertiser` bidding its workload-initial bid on `keyword`.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionVCampaign {
    /// Index of the owning advertiser (registered as
    /// [`SectionVCampaign::advertiser_name`]).
    pub advertiser: usize,
    /// The keyword bid on.
    pub keyword: usize,
    /// Workload-initial per-click bid.
    pub bid: Money,
    /// Value of a click to the advertiser.
    pub click_value: Money,
    /// The advertiser's per-slot click probabilities.
    pub click_probs: Vec<f64>,
    /// Targeting program source, for the targeted population.
    pub targeting: Option<&'static str>,
}

impl SectionVCampaign {
    /// The display name the owning advertiser registers under.
    pub fn advertiser_name(&self) -> String {
        format!("advertiser-{}", self.advertiser)
    }

    /// The campaign as an in-process registration.
    pub fn spec(self) -> CampaignSpec {
        let spec = CampaignSpec::per_click(self.bid)
            .click_value(self.click_value)
            .click_probs(self.click_probs);
        match self.targeting {
            Some(source) => spec.targeting(source),
            None => spec,
        }
    }
}

/// A fully materialised workload instance.
#[derive(Debug, Clone)]
pub struct SectionVWorkload {
    /// The configuration it was generated from.
    pub config: SectionVConfig,
    /// ROI bidder parameters (click values, initial bids, initial ROI,
    /// target rates).
    pub bidders: Vec<RoiBidderParams>,
    /// Click probabilities per advertiser and slot.
    pub clicks: ClickModel,
    /// Purchases never happen in the Section V workload (pure click
    /// auction).
    pub purchases: PurchaseModel,
    /// Pre-drawn query keyword stream (cycled by the simulation).
    pub query_stream: Vec<usize>,
}

impl SectionVWorkload {
    /// Generates the workload.
    ///
    /// Distributions follow Section V verbatim where specified; initial
    /// bids (`U{1..value}`) and initial ROI (`U(0.5, 2.5)`) are not given
    /// in the paper and are documented substitutions (see DESIGN.md).
    pub fn generate(config: SectionVConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = config.num_advertisers;
        let k = config.num_slots;
        let kw = config.num_keywords;

        let bidders: Vec<RoiBidderParams> = (0..n)
            .map(|_| {
                // Click values U{0..50}, at least one non-zero.
                let mut values: Vec<i64> = (0..kw).map(|_| rng.gen_range(0..=50)).collect();
                if values.iter().all(|&v| v == 0) {
                    let fix = rng.gen_range(0..kw);
                    values[fix] = rng.gen_range(1..=50);
                }
                let max_value = values.iter().copied().max().unwrap_or(0);
                // Target rates U(1, max value).
                let target_spend_rate = if max_value > 1 {
                    rng.gen_range(1.0..max_value as f64)
                } else {
                    1.0
                };
                let keywords = values
                    .iter()
                    .map(|&v| {
                        let bid = if v > 0 { rng.gen_range(1..=v) } else { 0 };
                        let roi = rng.gen_range(0.5..2.5);
                        (v, bid, roi)
                    })
                    .collect();
                RoiBidderParams {
                    keywords,
                    target_spend_rate,
                }
            })
            .collect();

        // [0.1, 0.9] split into k intervals; slot j (1-based) gets the j-th
        // highest. p(i, j) uniform within slot j's interval.
        let width = 0.8 / k as f64;
        // Invariant: every draw lies in [0.1, 0.9], a valid probability.
        #[allow(clippy::expect_used)]
        let clicks = ClickModel::from_fn(n, k, |_, j| {
            let hi = 0.9 - j as f64 * width;
            let lo = hi - width;
            rng.gen_range(lo..hi)
        })
        .expect("every draw lies in [0.1, 0.9]");
        let purchases = PurchaseModel::never(n, k);

        // Queries at a constant rate, keyword uniform.
        let query_stream: Vec<usize> = (0..4096).map(|_| rng.gen_range(0..kw)).collect();

        SectionVWorkload {
            config,
            bidders,
            clicks,
            purchases,
            query_stream,
        }
    }

    /// The static per-click population, advertiser-major: every advertiser
    /// opens one campaign per keyword at its workload-initial bid and click
    /// value. With `targeted`, every even-indexed advertiser's campaigns
    /// carry [`MOBILE_ONLY`], so desktop queries exclude half the
    /// population before the matrix fill.
    ///
    /// This is the one population source: the in-process
    /// [`SectionVWorkload::populate`] and the wire-side populate both
    /// consume it, so they cannot drift apart.
    pub fn campaigns(&self, targeted: bool) -> impl Iterator<Item = SectionVCampaign> + '_ {
        self.bidders.iter().enumerate().flat_map(move |(i, b)| {
            let click_probs: Vec<f64> = (0..self.config.num_slots)
                .map(|j| self.clicks.p_click(i, SlotId::from_index0(j)))
                .collect();
            b.keywords
                .iter()
                .enumerate()
                .map(move |(keyword, &(value, bid, _))| SectionVCampaign {
                    advertiser: i,
                    keyword,
                    bid: Money::from_cents(bid.max(0)),
                    click_value: Money::from_cents(value),
                    click_probs: click_probs.clone(),
                    targeting: (targeted && i % 2 == 0).then_some(MOBILE_ONLY),
                })
        })
    }

    /// Registers [`SectionVWorkload::campaigns`] on `market`, each
    /// advertiser once, ahead of its first campaign.
    pub fn populate(&self, market: &mut Marketplace, targeted: bool) -> Result<(), MarketError> {
        self.populate_with(market, targeted, SectionVCampaign::spec)
    }

    /// [`SectionVWorkload::populate`] with the registration of each
    /// campaign chosen by `spec` — for populations that keep the Section V
    /// shape (who bids where, under which click model) but swap the
    /// per-click bid for a program.
    pub fn populate_with(
        &self,
        market: &mut Marketplace,
        targeted: bool,
        mut spec: impl FnMut(SectionVCampaign) -> CampaignSpec,
    ) -> Result<(), MarketError> {
        let mut handles = Vec::with_capacity(self.bidders.len());
        for campaign in self.campaigns(targeted) {
            if campaign.advertiser == handles.len() {
                handles.push(market.register_advertiser(campaign.advertiser_name()));
            }
            let (advertiser, keyword) = (handles[campaign.advertiser], campaign.keyword);
            market.add_campaign(advertiser, keyword, spec(campaign))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = SectionVWorkload::generate(SectionVConfig::paper(20, 7));
        let b = SectionVWorkload::generate(SectionVConfig::paper(20, 7));
        assert_eq!(a.bidders, b.bidders);
        assert_eq!(a.query_stream, b.query_stream);
        let c = SectionVWorkload::generate(SectionVConfig::paper(20, 8));
        assert_ne!(a.bidders, c.bidders);
    }

    #[test]
    fn distributions_match_section_v() {
        let w = SectionVWorkload::generate(SectionVConfig::paper(200, 42));
        assert_eq!(w.bidders.len(), 200);
        for b in &w.bidders {
            assert_eq!(b.keywords.len(), 10);
            let max_value = b.keywords.iter().map(|&(v, _, _)| v).max().unwrap();
            assert!(max_value >= 1, "at least one non-zero click value");
            assert!(b.target_spend_rate >= 1.0);
            assert!(b.target_spend_rate <= max_value.max(1) as f64);
            for &(v, bid, roi) in &b.keywords {
                assert!((0..=50).contains(&v));
                assert!(bid <= v && bid >= 0);
                assert!((0.5..2.5).contains(&roi));
            }
        }
        // Click probabilities sit inside the right slot intervals.
        let width = 0.8 / 15.0;
        for i in 0..200 {
            for j in 0..15 {
                let p = w.clicks.p_click(i, ssa_bidlang::SlotId::from_index0(j));
                let hi = 0.9 - j as f64 * width;
                assert!(
                    p <= hi && p >= hi - width,
                    "p({i},{j}) = {p} outside interval"
                );
            }
        }
        // Query stream covers keywords.
        assert!(w.query_stream.iter().all(|&q| q < 10));
    }

    #[test]
    fn slot_intervals_are_monotone() {
        // Slot 1 must stochastically dominate slot 15.
        let w = SectionVWorkload::generate(SectionVConfig::paper(50, 3));
        for i in 0..50 {
            let top = w.clicks.p_click(i, ssa_bidlang::SlotId::new(1));
            let bottom = w.clicks.p_click(i, ssa_bidlang::SlotId::new(15));
            assert!(top > bottom);
        }
    }
}
