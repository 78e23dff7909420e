//! Property tests for the engine crate: heavyweight exactness, pricing
//! invariants, and revenue-matrix structure.

use proptest::prelude::*;
use ssa_bidlang::{BidsTable, Formula, HeavyPattern, Money, SlotId};
use ssa_core::heavyweight::{
    brute_force_heavyweight, solve_heavyweight, HeavyweightInstance, PatternClickModel,
};
use ssa_core::pricing::{gsp_prices, vcg_prices};
use ssa_core::prob::{ClickModel, PurchaseModel};
use ssa_core::revenue::revenue_matrix;
use ssa_matching::{max_weight_assignment, RevenueMatrix};

fn arb_heavyweight_instance() -> impl Strategy<Value = HeavyweightInstance> {
    (2usize..=5, 1usize..=3).prop_flat_map(|(n, k)| {
        (
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(1i64..60, n),
            proptest::collection::vec(0.05f64..0.9, n * k * (1 << k)),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(move |(is_heavy, values, probs, wants_heavy_bid)| {
                let clicks = PatternClickModel::from_fn(n, k, |adv, slot, pattern| {
                    probs[adv * k * (1 << k) + slot * (1 << k) + pattern.0 as usize]
                });
                let bids: Vec<BidsTable> = (0..n)
                    .map(|i| {
                        let mut t = BidsTable::single_feature(Money::from_cents(values[i]));
                        if wants_heavy_bid[i] {
                            // A pattern-sensitive clause: extra value if
                            // slot 1 is NOT heavyweight.
                            t.push(
                                Formula::slot(SlotId::new(1))
                                    & !Formula::heavy_in_slot(SlotId::new(1)),
                                Money::from_cents(values[i] / 2 + 1),
                            );
                        }
                        t
                    })
                    .collect();
                HeavyweightInstance {
                    is_heavy,
                    clicks,
                    purchases: PurchaseModel::never(n, k),
                    bids,
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Section III-F: the 2^k pattern decomposition is exactly optimal, and
    /// the reported pattern is consistent with the allocation it returns.
    #[test]
    fn heavyweight_solver_exact(instance in arb_heavyweight_instance()) {
        let fast = solve_heavyweight(&instance, 1);
        let slow = brute_force_heavyweight(&instance);
        prop_assert!(
            (fast.expected_revenue - slow.expected_revenue).abs() < 1e-9,
            "fast {} brute {}", fast.expected_revenue, slow.expected_revenue
        );
        // Threaded agrees with sequential.
        let par = solve_heavyweight(&instance, 3);
        prop_assert!((par.expected_revenue - fast.expected_revenue).abs() < 1e-12);
        // Pattern consistency.
        let k = instance.clicks.num_slots();
        let derived = HeavyPattern::from_slots((0..k).filter_map(|j| {
            fast.slot_to_adv[j]
                .filter(|&a| instance.is_heavy[a])
                .map(|_| SlotId::from_index0(j))
        }));
        prop_assert_eq!(derived, fast.pattern);
    }

    /// GSP invariants on arbitrary matrices: prices are non-negative, only
    /// winners are charged, and no winner pays more than its own per-click
    /// equivalent.
    #[test]
    fn gsp_invariants(
        cells in proptest::collection::vec(0.0f64..100.0, 1..36),
        k in 1usize..5,
    ) {
        let n = cells.len().div_ceil(k).max(1);
        let matrix = RevenueMatrix::from_fn(n, k, |i, j| {
            cells.get(i * k + j).copied().unwrap_or(0.0)
        });
        let assignment = max_weight_assignment(&matrix);
        let p = |_: usize, j: usize| 0.9 / (j + 1) as f64;
        let prices = gsp_prices(&matrix, &assignment, &p);
        let winners: Vec<usize> = assignment.slot_to_adv.iter().flatten().copied().collect();
        for sp in &prices {
            prop_assert!(sp.amount >= 0.0);
            prop_assert!(winners.contains(&sp.winner));
            let own_equiv = matrix.get(sp.winner, sp.slot).max(0.0) / p(sp.winner, sp.slot);
            prop_assert!(sp.amount <= own_equiv + 1e-9);
        }
    }

    /// VCG invariants: individual rationality (payment ≤ own contribution)
    /// and non-negativity.
    #[test]
    fn vcg_invariants(
        cells in proptest::collection::vec(0.0f64..100.0, 1..30),
        k in 1usize..4,
    ) {
        let n = cells.len().div_ceil(k).max(1);
        let matrix = RevenueMatrix::from_fn(n, k, |i, j| {
            cells.get(i * k + j).copied().unwrap_or(0.0)
        });
        let assignment = max_weight_assignment(&matrix);
        for sp in vcg_prices(&matrix, &assignment) {
            prop_assert!(sp.amount >= -1e-9);
            prop_assert!(sp.amount <= matrix.get(sp.winner, sp.slot) + 1e-9);
        }
    }

    /// Revenue-matrix structure: single-feature tables yield weights
    /// p_click × bid with zero no-slot base, and the weights are monotone in
    /// the click probabilities.
    #[test]
    fn revenue_matrix_single_feature_structure(
        bids_cents in proptest::collection::vec(0i64..80, 1..8),
        k in 1usize..5,
        seed in 0u64..100,
    ) {
        use rand::{Rng, SeedableRng};
        let n = bids_cents.len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let clicks = ClickModel::from_fn(n, k, |_, _| rng.gen_range(0.0..1.0)).unwrap();
        let purchases = PurchaseModel::never(n, k);
        let tables: Vec<BidsTable> = bids_cents
            .iter()
            .map(|&c| BidsTable::single_feature(Money::from_cents(c)))
            .collect();
        let (matrix, base) = revenue_matrix(&tables, &clicks, &purchases);
        prop_assert_eq!(base.total_base, 0.0);
        for (i, &cents) in bids_cents.iter().enumerate() {
            for j in 0..k {
                let expect = clicks.p_click(i, SlotId::from_index0(j)) * cents as f64;
                prop_assert!((matrix.get(i, j) - expect).abs() < 1e-9);
            }
        }
    }
}
