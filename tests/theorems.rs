//! Property tests for the paper's theorems, exercised through the full
//! public API.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sponsored_search::bidlang::{BidsTable, Formula, Money, SlotId};
use sponsored_search::core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
use sponsored_search::core::pricing::PricingScheme;
use sponsored_search::core::prob::{ClickModel, PurchaseModel};
use sponsored_search::core::revenue::{no_slot_revenue, revenue_matrix};
use sponsored_search::core::WdMethod;
use sponsored_search::matching::exhaustive::brute_force_assignment;
use sponsored_search::matching::max_weight_assignment;

const K: u16 = 3;

/// Arbitrary 1-dependent formulas over K slots.
fn arb_formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        (1..=K).prop_map(|j| Formula::slot(SlotId::new(j))),
        Just(Formula::click()),
        Just(Formula::purchase()),
        Just(Formula::no_slot(K)),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a & b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a | b),
            inner.prop_map(|f| !f),
        ]
    })
}

fn arb_bids_table() -> impl Strategy<Value = BidsTable> {
    proptest::collection::vec((arb_formula(), 0i64..60), 1..4)
        .prop_map(|rows| BidsTable::new(rows.into_iter().map(|(f, c)| (f, Money::from_cents(c)))))
}

/// Exhaustive expected revenue of an allocation: enumerate all click /
/// purchase worlds for each placed advertiser independently (legal because
/// the events are 1-dependent).
fn exhaustive_allocation_revenue(
    bids: &[BidsTable],
    clicks: &ClickModel,
    purchases: &PurchaseModel,
    slot_to_adv: &[Option<usize>],
) -> f64 {
    let placed: Vec<Option<usize>> = {
        let mut adv_slot = vec![None; bids.len()];
        for (j, adv) in slot_to_adv.iter().enumerate() {
            if let Some(a) = adv {
                adv_slot[*a] = Some(j);
            }
        }
        adv_slot
    };
    bids.iter()
        .enumerate()
        .map(|(i, table)| match placed[i] {
            None => no_slot_revenue(table),
            Some(j) => {
                let slot = SlotId::from_index0(j);
                let pc = clicks.p_click(i, slot);
                let mut total = 0.0;
                for clicked in [false, true] {
                    for purchased in [false, true] {
                        let pp = purchases.p_purchase(i, slot, clicked);
                        let p = (if clicked { pc } else { 1.0 - pc })
                            * (if purchased { pp } else { 1.0 - pp });
                        let view = sponsored_search::bidlang::AdvertiserView {
                            slot: Some(slot),
                            clicked,
                            purchased,
                            heavy_pattern: None,
                        };
                        total += p * table.payment(&view).as_f64();
                    }
                }
                total
            }
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 2, end to end: for OR-bids on arbitrary 1-dependent Boolean
    /// formulas, the matching-based winner determination finds the
    /// revenue-maximising allocation — verified against brute force over
    /// every allocation with the exhaustive outcome enumeration.
    #[test]
    fn theorem2_matching_is_exactly_optimal(
        tables in proptest::collection::vec(arb_bids_table(), 1..5),
        seed in 0u64..1000,
    ) {
        let n = tables.len();
        let k = K as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let clicks = ClickModel::from_fn(n, k, |_, _| rng.gen_range(0.0..1.0)).unwrap();
        let purchases = PurchaseModel::from_fn(n, k, |_, _| {
            (rng.gen_range(0.0..1.0), rng.gen_range(0.0..0.3))
        });

        let (matrix, base) = revenue_matrix(&tables, &clicks, &purchases);
        let fast = max_weight_assignment(&matrix);
        let fast_revenue = base.total_base + fast.total_weight;

        // Verify the claimed revenue against the exhaustive world
        // enumeration for the chosen allocation…
        let direct = exhaustive_allocation_revenue(
            &tables, &clicks, &purchases, &fast.slot_to_adv,
        );
        prop_assert!((fast_revenue - direct).abs() < 1e-6,
            "objective bookkeeping wrong: {fast_revenue} vs {direct}");

        // …and optimality against brute force over all allocations.
        let brute = brute_force_assignment(&matrix);
        prop_assert!((fast.total_weight - brute.total_weight).abs() < 1e-6);
    }

    /// The engine produces identical expected revenue under all three
    /// winner-determination back-ends on arbitrary multi-feature bids.
    #[test]
    fn engine_backends_agree(
        tables in proptest::collection::vec(arb_bids_table(), 1..6),
        seed in 0u64..500,
    ) {
        let k = K as usize;
        let mut reference: Option<f64> = None;
        for method in [
            WdMethod::Lp,
            WdMethod::Hungarian,
            WdMethod::Reduced,
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            use rand::Rng;
            let mut market = Marketplace::builder()
                .slots(k)
                .keywords(1)
                .seed(seed)
                .method(method)
                .pricing(PricingScheme::PayYourBid)
                .build()
                .unwrap();
            let advertiser = market.register_advertiser("a");
            for table in &tables {
                let clicks = (0..k).map(|_| rng.gen_range(0.0..1.0)).collect();
                let spec = CampaignSpec::table(table.clone()).click_probs(clicks);
                market.add_campaign(advertiser, 0, spec).unwrap();
            }
            let response = market.serve(QueryRequest::new(0)).unwrap();
            match reference {
                None => reference = Some(response.expected_revenue),
                Some(r) => prop_assert!(
                    (response.expected_revenue - r).abs() < 1e-6,
                    "{method:?}: {} vs {r}", response.expected_revenue
                ),
            }
        }
    }
}
