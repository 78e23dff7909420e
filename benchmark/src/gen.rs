//! Every input of the benchmark, made from the run's seed: advertiser
//! populations, query streams, bid updates and attribute bags. The product
//! only ever sees what these functions return.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssa_bidlang::{Money, SlotId};
use ssa_core::{CampaignId, UserAttrs};
use ssa_net::Request;
use ssa_workload::{SectionVConfig, SectionVWorkload};

/// The targeting program every fourth wire advertiser carries.
pub const TARGETING: &str = "device = 'mobile' and age >= 21";

/// Bids are drawn from the range Section V draws click values from.
const MAX_BID_CENTS: i64 = 50;

const STREAM_TAG: u64 = 0x5EED_0B5E_55ED;

/// The paper's Section V population (10 keywords, 15 slots) of
/// `advertisers` advertisers.
pub fn section_v(advertisers: usize, seed: u64) -> SectionVWorkload {
    SectionVWorkload::generate(SectionVConfig::paper(advertisers, seed))
}

/// Per-slot click probabilities of one advertiser.
pub fn click_probs(workload: &SectionVWorkload, advertiser: usize) -> Vec<f64> {
    (0..workload.config.num_slots)
        .map(|j| workload.clicks.p_click(advertiser, SlotId::from_index0(j)))
        .collect()
}

/// One per-click campaign of the wire population, in registration order.
pub struct CampaignInput {
    pub advertiser: usize,
    pub keyword: usize,
    pub bid: Money,
    pub click_value: Money,
    pub click_probs: Vec<f64>,
    pub targeting: Option<&'static str>,
}

/// The wire population: one campaign per advertiser and keyword at the
/// Section V initial bid; every fourth advertiser targets [`TARGETING`].
/// Advertiser-major order, so advertiser `i`'s campaign on keyword `k` is
/// `CampaignId::from_parts(k, i)`.
pub fn wire_campaigns(workload: &SectionVWorkload) -> Vec<CampaignInput> {
    let mut campaigns = Vec::new();
    for (advertiser, params) in workload.bidders.iter().enumerate() {
        let probs = click_probs(workload, advertiser);
        for (keyword, &(value, bid, _)) in params.keywords.iter().enumerate() {
            campaigns.push(CampaignInput {
                advertiser,
                keyword,
                bid: Money::from_cents(bid.max(0)),
                click_value: Money::from_cents(value),
                click_probs: probs.clone(),
                targeting: (advertiser % 4 == 0).then_some(TARGETING),
            });
        }
    }
    campaigns
}

/// One in-process operation: an optional bid write, then one auction.
pub struct Op {
    pub update: Option<(CampaignId, Money)>,
    pub keyword: usize,
}

/// The operation stream of an in-process workload.
pub struct OpStream {
    rng: StdRng,
    advertisers: usize,
    keywords: usize,
    /// `engine-solve`: a seeded bid write on the queried keyword precedes
    /// every auction, so the engine cannot reuse its previous assignment.
    /// `program-sql`: no writes, keywords round-robin.
    bid_writes: bool,
    issued: u64,
}

impl OpStream {
    pub fn new(workload: &SectionVWorkload, bid_writes: bool) -> Self {
        OpStream {
            rng: StdRng::seed_from_u64(workload.config.seed ^ STREAM_TAG),
            advertisers: workload.config.num_advertisers,
            keywords: workload.config.num_keywords,
            bid_writes,
            issued: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        if !self.bid_writes {
            return Op {
                update: None,
                keyword: ((self.issued - 1) % self.keywords as u64) as usize,
            };
        }
        let keyword = self.rng.gen_range(0..self.keywords);
        let campaign = CampaignId::from_parts(keyword, self.rng.gen_range(0..self.advertisers));
        let bid = Money::from_cents(self.rng.gen_range(1..=MAX_BID_CENTS));
        Op {
            update: Some((campaign, bid)),
            keyword,
        }
    }
}

/// The request stream of one wire connection: 90 % `Serve` with a
/// three-attribute bag, 10 % `UpdateBid`, all on the keywords the
/// connection owns (`k % connections == connection`). Because no other
/// connection touches those keywords, each keyword's auction order — and
/// so its outcome stream — does not depend on how connections interleave.
pub struct ConnStream {
    rng: StdRng,
    owned: Vec<u64>,
    advertisers: u64,
}

impl ConnStream {
    pub fn new(workload: &SectionVWorkload, connection: usize, connections: usize) -> Self {
        let seed = workload.config.seed ^ STREAM_TAG ^ ((connection as u64 + 1) << 40);
        ConnStream {
            rng: StdRng::seed_from_u64(seed),
            owned: (0..workload.config.num_keywords as u64)
                .filter(|k| *k as usize % connections == connection)
                .collect(),
            advertisers: workload.config.num_advertisers as u64,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let keyword = self.owned[self.rng.gen_range(0..self.owned.len())];
        if self.rng.gen_range(0..10) == 0 {
            return Request::UpdateBid {
                keyword,
                index: self.rng.gen_range(0..self.advertisers),
                bid_cents: self.rng.gen_range(1..=MAX_BID_CENTS),
            };
        }
        // One visitor in 32 is not on a mobile and one in 32 is under 21, so
        // about one query in 16 falls outside [`TARGETING`]: both outcomes
        // of the matcher occur, yet consecutive queries on a keyword rarely
        // change which campaigns take part, and most solves stay warm.
        const GEOS: [&str; 4] = ["us", "de", "jp", "br"];
        let geo = GEOS[self.rng.gen_range(0..GEOS.len())];
        let device = match self.rng.gen_range(0..32) {
            0 => ["desktop", "tablet"][self.rng.gen_range(0..2usize)],
            _ => "mobile",
        };
        let age = match self.rng.gen_range(0..32) {
            0 => self.rng.gen_range(16..21),
            _ => self.rng.gen_range(21..70),
        };
        let attrs = UserAttrs::new().geo(geo).device(device).set_int("age", age);
        Request::Serve { keyword, attrs }
    }
}
