//! Shard-invariance: on random marketplaces and random mixed-keyword
//! query streams, a [`Marketplace`] must produce **identical** winner
//! sets, clicks, and charges for every shard count — all equal to a
//! one-shard market driven query by query through `serve`, the path that
//! shares neither `serve_batch`'s chunker nor its fan-out. This is the
//! executable form of the equivalence guarantee in `ssa_core::marketplace`'s
//! module docs: sharding is an execution strategy, not a semantic one.

use proptest::prelude::*;
use ssa_bidlang::Money;
use ssa_core::marketplace::{CampaignSpec, MarketBatchReport, Marketplace, QueryRequest};
use ssa_core::{shard_of_keyword, BatchReport, CampaignId, MarketplaceBuilder, WdMethod};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// A random marketplace population plus a random query stream.
#[derive(Debug, Clone)]
struct Scenario {
    num_keywords: usize,
    num_slots: usize,
    seed: u64,
    method: WdMethod,
    /// `(advertiser, keyword, bid cents)` campaign registrations.
    campaigns: Vec<(usize, usize, i64)>,
    /// Keyword per query, in stream order.
    stream: Vec<usize>,
    /// `(campaign index, new bid cents)` incremental updates applied
    /// between the two halves of the stream.
    updates: Vec<(usize, i64)>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (1usize..=9, 1usize..=3, 0u64..10_000, 0usize..3).prop_map(
        |(num_keywords, num_slots, seed, method_idx)| {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m
            };
            let method = [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced][method_idx];
            let num_advertisers = 1 + next(4) as usize;
            let mut campaigns = Vec::new();
            for adv in 0..num_advertisers {
                for kw in 0..num_keywords {
                    // Roughly two thirds of (advertiser, keyword) pairs
                    // open a campaign; some keywords stay empty.
                    if next(3) > 0 {
                        campaigns.push((adv, kw, next(60) as i64));
                    }
                }
            }
            let stream: Vec<usize> = (0..next(120) as usize)
                .map(|_| next(num_keywords as u64) as usize)
                .collect();
            let updates: Vec<(usize, i64)> = if campaigns.is_empty() {
                Vec::new()
            } else {
                (0..next(5) as usize)
                    .map(|_| (next(campaigns.len() as u64) as usize, next(80) as i64))
                    .collect()
            };
            Scenario {
                num_keywords,
                num_slots,
                seed,
                method,
                campaigns,
                stream,
                updates,
            }
        },
    )
}

fn builder(s: &Scenario) -> MarketplaceBuilder {
    Marketplace::builder()
        .slots(s.num_slots)
        .keywords(s.num_keywords)
        .seed(s.seed)
        .method(s.method)
        .default_click_probs((0..s.num_slots).map(|j| 0.8 / (j + 1) as f64).collect())
        .default_purchase_probs(
            (0..s.num_slots)
                .map(|j| (0.2 / (j + 1) as f64, 0.0))
                .collect(),
        )
}

/// Registers the scenario's population, returning the campaign ids in
/// registration order.
fn populate(market: &mut Marketplace, s: &Scenario) -> Vec<CampaignId> {
    let handles: Vec<_> = (0..4)
        .map(|adv| market.register_advertiser(format!("adv-{adv}")))
        .collect();
    s.campaigns
        .iter()
        .map(|&(adv, kw, cents)| {
            market
                .add_campaign(
                    handles[adv],
                    kw,
                    CampaignSpec::per_click(Money::from_cents(cents)),
                )
                .expect("campaign accepted")
        })
        .collect()
}

/// What `serve_batch` must report for `stream`, worked out from `serve`
/// responses alone: one report per maximal same-keyword run (expected
/// revenue summed within the run first, as one engine batch does), folded
/// into the keyword's and the market's totals in stream order.
fn report_of_serving_one_by_one(market: &mut Marketplace, stream: &[usize]) -> MarketBatchReport {
    let mut out = MarketBatchReport {
        total: BatchReport::default(),
        per_keyword: vec![BatchReport::default(); market.num_keywords()],
        chunks: 0,
    };
    for run in stream.chunk_by(|a, b| a == b) {
        let mut report = BatchReport::default();
        for &keyword in run {
            let response = market.serve(QueryRequest::new(keyword)).expect("in range");
            let placed = &response.placements;
            report.auctions += 1;
            report.expected_revenue += response.expected_revenue;
            report.filled_slots += placed.len() as u64;
            report.clicks += placed.iter().filter(|p| p.clicked).count() as u64;
            report.purchases += placed.iter().filter(|p| p.purchased).count() as u64;
            report.realized_revenue += response.realized_revenue;
        }
        out.per_keyword[run[0]].absorb(&report);
        out.total.absorb(&report);
        out.chunks += 1;
    }
    out
}

fn requests(stream: &[usize]) -> Vec<QueryRequest> {
    stream.iter().map(|&k| QueryRequest::new(k)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `serve_batch` aggregates (auctions, filled slots, clicks,
    /// purchases, realised charges, expected revenue — totals and per
    /// keyword) are bit-identical across shard counts 1, 2, 4, 7 — more
    /// shards than keywords included — and equal to what a one-shard
    /// market reports when driven query by query through `serve`,
    /// including across incremental bid updates between batches.
    #[test]
    fn serve_batch_is_shard_invariant(s in arb_scenario()) {
        let (first, second) = s.stream.split_at(s.stream.len() / 2);

        // Reference: one shard, one `serve` per query.
        let mut reference = builder(&s).build().expect("valid");
        let ref_ids = populate(&mut reference, &s);
        let want_a = report_of_serving_one_by_one(&mut reference, first);
        for &(c, cents) in &s.updates {
            reference.update_bid(ref_ids[c], Money::from_cents(cents)).expect("per-click");
        }
        let want_b = report_of_serving_one_by_one(&mut reference, second);
        let (first, second) = (requests(first), requests(second));

        for shards in SHARD_COUNTS {
            let mut market = builder(&s).build_sharded(shards).expect("valid");
            let ids = populate(&mut market, &s);
            prop_assert_eq!(&ids, &ref_ids, "shards={}", shards);
            let got_a = market.serve_batch(&first).expect("in range");
            prop_assert_eq!(&got_a, &want_a, "first half, shards={}", shards);
            for &(c, cents) in &s.updates {
                market.update_bid(ids[c], Money::from_cents(cents)).expect("per-click");
            }
            let got_b = market.serve_batch(&second).expect("in range");
            prop_assert_eq!(&got_b, &want_b, "second half, shards={}", shards);
            prop_assert_eq!(market.now(), reference.now(), "shards={}", shards);
        }
    }

    /// Query-by-query serving agrees too: the full typed
    /// [`AuctionResponse`] — winner set (campaign per slot), click and
    /// purchase flags, and every charge — is identical at every stream
    /// position for every shard count.
    #[test]
    fn per_query_winners_clicks_and_charges_are_shard_invariant(s in arb_scenario()) {
        let mut reference = builder(&s).build().expect("valid");
        populate(&mut reference, &s);
        let want: Vec<_> = s
            .stream
            .iter()
            .map(|&k| reference.serve(QueryRequest::new(k)).expect("in range"))
            .collect();
        for shards in SHARD_COUNTS {
            let mut market = builder(&s).build_sharded(shards).expect("valid");
            populate(&mut market, &s);
            for (t, &k) in s.stream.iter().enumerate() {
                let got = market.serve(QueryRequest::new(k)).expect("in range");
                prop_assert_eq!(&got, &want[t], "shards={} t={}", shards, t);
            }
        }
    }
}

/// Three keywords on seven shards: most shards own nothing, the keywords
/// do not all land on one, so a batch touching them takes the fan-out —
/// and must still report what serving one by one on one shard reports.
#[test]
fn more_shards_than_keywords_is_shard_invariant() {
    let s = Scenario {
        num_keywords: 3,
        num_slots: 2,
        seed: 41,
        method: WdMethod::Reduced,
        campaigns: vec![(0, 0, 30), (1, 0, 20), (2, 0, 10), (0, 1, 5), (1, 2, 50)],
        stream: vec![0, 2, 2, 0, 1, 1, 2, 0, 2, 1, 0],
        updates: Vec::new(),
    };
    assert_ne!(shard_of_keyword(0, 7), shard_of_keyword(2, 7));
    let mut reference = builder(&s).build().expect("valid");
    populate(&mut reference, &s);
    let want = report_of_serving_one_by_one(&mut reference, &s.stream);
    let mut market = builder(&s).build_sharded(7).expect("valid");
    populate(&mut market, &s);
    let got = market.serve_batch(&requests(&s.stream)).expect("in range");
    assert_eq!(got, want);
    assert_eq!(market.now(), reference.now());
}
