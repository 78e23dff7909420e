//! Cross-method equivalence: on random workloads, all three [`WdSolver`]
//! implementations (LP / H / RH) must produce assignments
//! with equal expected revenue (within LP tolerance), valid structure, and
//! self-consistent bookkeeping — and a *reused* solver must keep agreeing
//! auction after auction, which is what the batched pipeline relies on.

use proptest::prelude::*;
use ssa_bidlang::{BidsTable, Formula, Money, SlotId};
use ssa_core::prob::{ClickModel, PurchaseModel};
use ssa_core::revenue::revenue_matrix;
use ssa_core::WdMethod;
use ssa_matching::{Assignment, WdSolver};

/// A random Section II-style market: per-click bidders mixed with brand
/// ("slot 1 or nothing") bidders, random click/purchase probabilities.
fn arb_market() -> impl Strategy<Value = (Vec<BidsTable>, ClickModel, PurchaseModel)> {
    (1usize..=12, 1usize..=5, 0u64..1000).prop_map(|(n, k, seed)| {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let bids: Vec<BidsTable> = (0..n)
            .map(|i| {
                let cents = 1 + (next() * 60.0) as i64;
                if i % 4 == 3 {
                    // Brand bid: top slot or not displayed at all.
                    BidsTable::new(vec![(
                        Formula::slot(SlotId::new(1)) | Formula::no_slot(k as u16),
                        Money::from_cents(cents),
                    )])
                } else {
                    BidsTable::single_feature(Money::from_cents(cents))
                }
            })
            .collect();
        let clicks = ClickModel::from_fn(n, k, |_, _| 0.05 + 0.9 * next()).unwrap();
        let purchases = PurchaseModel::from_fn(n, k, |_, _| (0.4 * next(), 0.05 * next()));
        (bids, clicks, purchases)
    })
}

const METHODS: [WdMethod; 3] = [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three solver implementations agree on the winner-determination
    /// objective (expected revenue) of a random market.
    #[test]
    fn all_wd_solvers_agree_on_expected_revenue(
        (bids, clicks, purchases) in arb_market(),
    ) {
        let (matrix, base) = revenue_matrix(&bids, &clicks, &purchases);
        let mut reference: Option<f64> = None;
        for method in METHODS {
            let mut solver = method.new_solver();
            let assignment = solver.solve_alloc(&matrix);
            prop_assert!(assignment.is_valid(matrix.num_advertisers()));
            // Solver bookkeeping matches a recomputation from the matrix.
            prop_assert!(
                (assignment.weight_in(&matrix) - assignment.total_weight).abs() < 1e-6,
                "{}: weight bookkeeping drifted", solver.name()
            );
            let revenue = base.total_base + assignment.total_weight;
            match reference {
                None => reference = Some(revenue),
                Some(r) => prop_assert!(
                    (revenue - r).abs() < 1e-6,
                    "{} disagrees: {} vs {}", solver.name(), revenue, r
                ),
            }
        }
    }

    /// A persistent solver fed a stream of different markets produces the
    /// same result as a fresh solver per market (scratch reuse is sound).
    #[test]
    fn reused_solvers_match_fresh_solvers(
        markets in proptest::collection::vec(arb_market(), 2..5),
    ) {
        for method in METHODS {
            let mut reused = method.new_solver();
            let mut out = Assignment::default();
            for (bids, clicks, purchases) in &markets {
                let (matrix, _) = revenue_matrix(bids, clicks, purchases);
                reused.solve(&matrix, &mut out);
                let fresh = method.new_solver().solve_alloc(&matrix);
                prop_assert!(
                    (out.total_weight - fresh.total_weight).abs() < 1e-6,
                    "{}: reused {} vs fresh {}",
                    reused.name(), out.total_weight, fresh.total_weight
                );
            }
        }
    }
}
