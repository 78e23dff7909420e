//! Property tests: LP ≡ network simplex ≡ Hungarian, and Chvátal
//! integrality of the assignment LP.

mod support;

use proptest::prelude::*;
use ssa_matching::{max_weight_assignment, RevenueMatrix, EXCLUDED};
use ssa_simplex::network_simplex_assignment;
use support::lp::{assignment_lp, solve_assignment_lp};

fn arb_matrix(max_n: usize, max_k: usize) -> impl Strategy<Value = RevenueMatrix> {
    (1..=max_n, 1..=max_k).prop_flat_map(|(n, k)| {
        proptest::collection::vec(
            prop_oneof![
                6 => (0u32..2_000).prop_map(|v| v as f64 / 4.0),
                1 => Just(EXCLUDED),
                1 => Just(0.0),
            ],
            n * k,
        )
        .prop_map(move |cells| RevenueMatrix::from_fn(n, k, |i, j| cells[i * k + j]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Chvátal integrality: the tableau simplex returns an integral vertex,
    /// and its value equals the combinatorial optimum. (`extract` panics on
    /// fractional solutions, so reaching the assertion proves integrality.)
    #[test]
    fn tableau_lp_is_integral_and_optimal(m in arb_matrix(6, 4)) {
        let via_lp = solve_assignment_lp(&m).unwrap();
        let hung = max_weight_assignment(&m);
        prop_assert!((via_lp.total_weight - hung.total_weight).abs() < 1e-6,
            "lp={} hungarian={}", via_lp.total_weight, hung.total_weight);
        prop_assert!(via_lp.is_valid(m.num_advertisers()));
    }

    /// The network simplex agrees with the Hungarian method on larger
    /// instances than the tableau can handle.
    #[test]
    fn network_simplex_optimal(m in arb_matrix(30, 6)) {
        let (a, stats) = network_simplex_assignment(&m);
        let hung = max_weight_assignment(&m);
        prop_assert!((a.total_weight - hung.total_weight).abs() < 1e-6,
            "net={} hungarian={} stats={stats:?}", a.total_weight, hung.total_weight);
        prop_assert!(a.is_valid(m.num_advertisers()));
        prop_assert!((a.weight_in(&m) - a.total_weight).abs() < 1e-6);
    }

    /// The LP builder creates exactly one variable per usable pair and one
    /// constraint per advertiser and slot.
    #[test]
    fn lp_shape(m in arb_matrix(8, 4)) {
        let lp = assignment_lp(&m);
        let usable = m.iter().filter(|&(_, _, w)| w != EXCLUDED).count();
        prop_assert_eq!(lp.vars.len(), usable);
        prop_assert_eq!(
            lp.program.constraints.len(),
            m.num_advertisers() + m.num_slots()
        );
        // Each variable appears in exactly two constraints with coefficient 1.
        for v in 0..lp.vars.len() {
            let count: f64 = lp.program.constraints.iter().map(|row| row[v]).sum();
            prop_assert!((count - 2.0).abs() < 1e-12);
        }
    }
}
