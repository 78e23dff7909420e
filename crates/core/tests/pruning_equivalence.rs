//! Pruning- and warm-start-invariance: top-k pruned winner determination
//! ([`EngineConfig::pruned`]) and warm-started assignments
//! ([`EngineConfig::warm_start`]) are **execution strategies, not semantic
//! ones** — on random marketplaces and query streams they must produce
//! bit-identical winner sets, clicks, and charges to the full cold solve,
//! for every [`WdMethod`], sharded and unsharded, across incremental bid
//! updates.
//!
//! Why pruning is exact: the pruned solver keeps every advertiser whose
//! weight ties the per-slot top-k floor, so any advertiser it drops is
//! *strictly* below k better advertisers in every slot and appears in no
//! optimal assignment; candidate reindexing is monotone, so each inner
//! solver's deterministic tie-breaking is preserved. Why warm starts are
//! exact: solvers are deterministic and draw no randomness, so when no
//! bids table changed since the engine's previous auction the previous
//! assignment *is* the solution.
//!
//! [`EngineConfig::pruned`]: ssa_core::EngineConfig
//! [`EngineConfig::warm_start`]: ssa_core::EngineConfig

use proptest::prelude::*;
use ssa_bidlang::Money;
use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
use ssa_core::{MarketplaceBuilder, WdMethod};

const SHARD_COUNTS: [usize; 2] = [1, 4];

const METHODS: [WdMethod; 4] = [
    WdMethod::Lp,
    WdMethod::Hungarian,
    WdMethod::Reduced,
    WdMethod::ReducedParallel(2),
];

/// A random marketplace population plus a random query stream (the
/// `sharding.rs` scenario, reused for the pruning/warm-start axes).
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
    /// between the two halves of the stream — these dirty exactly one
    /// bidder's row, the warm-start refresh's interesting case.
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
            let method = METHODS[method_idx];
            let num_advertisers = 1 + next(8) as usize;
            let mut campaigns = Vec::new();
            for adv in 0..num_advertisers {
                for kw in 0..num_keywords {
                    if next(3) > 0 {
                        // Bids from a narrow range so per-slot top-k floors
                        // are often tied — the pruning edge case that must
                        // keep every tied advertiser.
                        campaigns.push((adv, kw, next(8) as i64));
                    }
                }
            }
            let stream: Vec<usize> = (0..next(60) as usize)
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
        for adv in 0..9 {
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

/// Runs the scenario's split stream (updates in the middle) and returns
/// both halves' aggregate reports plus every per-query response.
macro_rules! run_scenario {
    ($market:expr, $s:expr, $ids:expr) => {{
        let mid = $s.stream.len() / 2;
        let first: Vec<QueryRequest> = $s.stream[..mid]
            .iter()
            .map(|&k| QueryRequest::new(k))
            .collect();
        let a = $market.serve_batch(&first).expect("in range");
        for &(c, cents) in &$s.updates {
            $market
                .update_bid($ids[c], Money::from_cents(cents))
                .expect("per-click");
        }
        let responses: Vec<_> = $s.stream[mid..]
            .iter()
            .map(|&k| $market.serve(QueryRequest::new(k)).expect("in range"))
            .collect();
        (a, responses)
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Top-k pruned winner determination is bit-identical to the full
    /// solve — aggregates, per-query winners, clicks, and charges — for
    /// every method, across incremental bid updates, sharded at 1 and 4
    /// shards and unsharded.
    #[test]
    fn pruned_serving_is_bit_identical(s in arb_scenario()) {
        let mut reference = builder(&s).pruned(false).build().expect("valid");
        let ref_ids = populate!(reference, s);
        let (want_a, want_rs) = run_scenario!(reference, s, ref_ids);

        let mut pruned = builder(&s).pruned(true).build().expect("valid");
        let ids = populate!(pruned, s);
        let (got_a, got_rs) = run_scenario!(pruned, s, ids);
        prop_assert_eq!(&got_a, &want_a, "unsharded batch halves");
        prop_assert_eq!(&got_rs, &want_rs, "unsharded per-query");

        for shards in SHARD_COUNTS {
            let mut market = builder(&s).pruned(true).build_sharded(shards).expect("valid");
            let ids = populate!(market, s);
            let (got_a, got_rs) = run_scenario!(market, s, ids);
            prop_assert_eq!(&got_a, &want_a, "shards={}", shards);
            prop_assert_eq!(&got_rs, &want_rs, "shards={}", shards);
        }
    }

    /// Warm-started serving (diff the bids, refresh dirty rows, skip the
    /// solve when nothing changed) is bit-identical to cold serving
    /// (rebuild and resolve every auction) across bid-update sequences —
    /// with and without pruning stacked on top.
    #[test]
    fn warm_start_matches_cold_start(s in arb_scenario()) {
        let mut cold = builder(&s).warm_start(false).build().expect("valid");
        let cold_ids = populate!(cold, s);
        let (want_a, want_rs) = run_scenario!(cold, s, cold_ids);

        let mut warm = builder(&s).warm_start(true).build().expect("valid");
        let ids = populate!(warm, s);
        let (got_a, got_rs) = run_scenario!(warm, s, ids);
        prop_assert_eq!(&got_a, &want_a, "warm batch halves");
        prop_assert_eq!(&got_rs, &want_rs, "warm per-query");

        let mut both = builder(&s).warm_start(true).pruned(true).build().expect("valid");
        let ids = populate!(both, s);
        let (got_a, got_rs) = run_scenario!(both, s, ids);
        prop_assert_eq!(&got_a, &want_a, "warm+pruned batch halves");
        prop_assert_eq!(&got_rs, &want_rs, "warm+pruned per-query");
    }
}

/// Deterministic sweep at the issue's advertiser counts: n ∈ {5, 50, 500},
/// all four methods, pruned+warm versus unpruned cold through `serve` and
/// `serve_batch`, and the pruned run's phase stats must show the solver
/// saw fewer candidates than n once n clears the per-slot floor size.
#[test]
fn pruned_warm_matches_unpruned_cold_at_issue_sizes() {
    for n in [5usize, 50, 500] {
        for method in METHODS {
            let slots = 3;
            let build = |pruned: bool, warm: bool| {
                let mut market = Marketplace::builder()
                    .slots(slots)
                    .keywords(2)
                    .seed(0xF1F0 + n as u64)
                    .method(method)
                    .pruned(pruned)
                    .warm_start(warm)
                    .default_click_probs((0..slots).map(|j| 0.7 / (j + 1) as f64).collect())
                    .build()
                    .expect("valid");
                let mut state = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut next = move |m: u64| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % m
                };
                let mut ids = Vec::new();
                for adv in 0..n {
                    let handle = market.register_advertiser(format!("adv-{adv}"));
                    // Advertiser-specific click curves keep weight rows
                    // generically distinct (the realistic population), so
                    // the duplicate-row tie fallback stays out of the way
                    // and pruning actually engages.
                    let shape = 0.3 + 0.6 * (adv + 1) as f64 / (n + 1) as f64;
                    let probs: Vec<f64> = (0..slots).map(|j| shape / (j + 1) as f64).collect();
                    for kw in 0..2 {
                        ids.push(
                            market
                                .add_campaign(
                                    handle,
                                    kw,
                                    CampaignSpec::per_click(Money::from_cents(1 + next(40) as i64))
                                        .click_probs(probs.clone()),
                                )
                                .expect("campaign accepted"),
                        );
                    }
                }
                (market, ids)
            };
            let (mut cold, cold_ids) = build(false, false);
            let (mut fast, fast_ids) = build(true, true);
            let stream: Vec<QueryRequest> = (0..10).map(|i| QueryRequest::new(i % 2)).collect();
            let want_a = cold.serve_batch(&stream).expect("in range");
            let got_a = fast.serve_batch(&stream).expect("in range");
            assert_eq!(got_a, want_a, "n={n} method={method} first batch");
            // Dirty one row, then serve again: the warm path must refresh
            // exactly that row and still agree with the cold rebuild.
            cold.update_bid(cold_ids[0], Money::from_cents(55))
                .expect("per-click");
            fast.update_bid(fast_ids[0], Money::from_cents(55))
                .expect("per-click");
            let want_b = cold.serve_batch(&stream).expect("in range");
            let got_b = fast.serve_batch(&stream).expect("in range");
            assert_eq!(got_b, want_b, "n={n} method={method} after update");
            let phases = got_b.total.phases;
            if n >= 50 {
                assert!(
                    phases.solves == 0 || phases.avg_candidates() < n as f64,
                    "n={n} method={method}: pruning never engaged: {phases:?}"
                );
            }
            if n >= 50 && method == WdMethod::Reduced {
                assert!(
                    phases.warm_solves > 0,
                    "n={n}: repeated identical queries never warm-started: {phases:?}"
                );
            }
        }
    }
}
