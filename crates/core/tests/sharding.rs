//! Shard-invariance: on random marketplaces and random mixed-keyword
//! query streams, a [`ShardedMarketplace`] must produce **identical**
//! winner sets, clicks, and charges for every shard count — all equal to
//! the unsharded [`Marketplace`] running in keyword-local RNG mode on the
//! same seeded stream. This is the executable form of the sharded layer's
//! equivalence guarantee (see `ssa_core::sharded`'s module docs): sharding
//! is an execution strategy, not a semantic one.

use proptest::prelude::*;
use ssa_bidlang::Money;
use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
use ssa_core::{MarketplaceBuilder, WdMethod};

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
    (1usize..=9, 1usize..=3, 0u64..10_000, 0usize..4).prop_map(
        |(num_keywords, num_slots, seed, method_idx)| {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m
            };
            let method = [
                WdMethod::Lp,
                WdMethod::Hungarian,
                WdMethod::Reduced,
                WdMethod::ReducedParallel(2),
            ][method_idx];
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

/// Populates a market through the closure-based control plane so the same
/// code drives both `Marketplace` and `ShardedMarketplace`.
macro_rules! populate {
    ($market:expr, $s:expr) => {{
        let mut handles = Vec::new();
        for adv in 0..4 {
            handles.push($market.register_advertiser(format!("adv-{adv}")));
        }
        let mut ids = Vec::new();
        for &(adv, kw, cents) in &$s.campaigns {
            ids.push(
                $market
                    .add_campaign(
                        handles[adv],
                        kw,
                        CampaignSpec::per_click(Money::from_cents(cents)),
                    )
                    .expect("campaign accepted"),
            );
        }
        ids
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `serve_batch` aggregates (auctions, filled slots, clicks,
    /// purchases, realised charges, expected revenue — totals and per
    /// keyword) are bit-identical across shard counts 1, 2, 4, 7 and the
    /// unsharded keyword-local marketplace, including across incremental
    /// bid updates between batches.
    #[test]
    fn serve_batch_is_shard_invariant(s in arb_scenario()) {
        let mid = s.stream.len() / 2;
        let first: Vec<QueryRequest> = s.stream[..mid].iter().map(|&k| QueryRequest::new(k)).collect();
        let second: Vec<QueryRequest> = s.stream[mid..].iter().map(|&k| QueryRequest::new(k)).collect();

        // Reference: the unsharded marketplace in keyword-local RNG mode.
        let mut reference = builder(&s).build().expect("valid");
        let ref_ids = populate!(reference, s);
        let want_a = reference.serve_batch(&first).expect("in range");
        for &(c, cents) in &s.updates {
            reference.update_bid(ref_ids[c], Money::from_cents(cents)).expect("per-click");
        }
        let want_b = reference.serve_batch(&second).expect("in range");

        for shards in SHARD_COUNTS {
            let mut market = builder(&s).build_sharded(shards).expect("valid");
            let ids = populate!(market, s);
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
        populate!(reference, s);
        let want: Vec<_> = s
            .stream
            .iter()
            .map(|&k| reference.serve(QueryRequest::new(k)).expect("in range"))
            .collect();
        for shards in SHARD_COUNTS {
            let mut market = builder(&s).build_sharded(shards).expect("valid");
            populate!(market, s);
            for (t, &k) in s.stream.iter().enumerate() {
                let got = market.serve(QueryRequest::new(k)).expect("in range");
                prop_assert_eq!(&got, &want[t], "shards={} t={}", shards, t);
            }
        }
    }
}
