//! Property-based tests for the bidding language.

mod support;

use proptest::prelude::*;
use ssa_bidlang::{
    parse_formula, AdvertiserView, BidsTable, Formula, HeavyPattern, Money, Predicate, SlotId,
};
use support::dependence::{dependence_set, is_one_dependent};
use support::two_dependent::{
    bids_revenue, encode_digraph, ordering_revenue, solve_exact, solve_local_search,
    WeightedDigraph,
};
use support::AdvertiserId;

const MAX_SLOTS: u16 = 5;

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (1..=MAX_SLOTS).prop_map(|j| Predicate::Slot(SlotId::new(j))),
        Just(Predicate::Click),
        Just(Predicate::Purchase),
        (1..=MAX_SLOTS).prop_map(|j| Predicate::HeavyInSlot(SlotId::new(j))),
    ]
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        arb_predicate().prop_map(Formula::Pred),
        Just(Formula::True),
        Just(Formula::False),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a & b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a | b),
            inner.prop_map(|f| !f),
        ]
    })
}

fn arb_view() -> impl Strategy<Value = AdvertiserView> {
    (
        proptest::option::of(1..=MAX_SLOTS),
        any::<bool>(),
        any::<bool>(),
        proptest::option::of(0u32..(1 << MAX_SLOTS)),
    )
        .prop_map(|(slot, clicked, purchased, heavy)| AdvertiserView {
            slot: slot.map(SlotId::new),
            clicked,
            purchased,
            heavy_pattern: heavy.map(HeavyPattern),
        })
}

proptest! {
    /// `Display` output reparses to a structurally identical formula.
    #[test]
    fn display_parse_roundtrip(f in arb_formula()) {
        let text = f.to_string();
        let reparsed = parse_formula(&text).unwrap_or_else(|e| {
            panic!("failed to reparse {text:?}: {e}")
        });
        prop_assert_eq!(f, reparsed);
    }

    /// Constant-folding simplification never changes semantics.
    #[test]
    fn simplify_preserves_semantics(f in arb_formula(), v in arb_view()) {
        let simplified = f.clone().simplify();
        prop_assert_eq!(f.eval(&v), simplified.eval(&v));
        prop_assert!(simplified.size() <= f.size());
    }

    /// Simplification is idempotent.
    #[test]
    fn simplify_idempotent(f in arb_formula()) {
        let once = f.simplify();
        let twice = once.clone().simplify();
        prop_assert_eq!(once, twice);
    }

    /// 1-dependence holds exactly when no heavyweight predicate occurs, and
    /// the dependence set is at most the owner singleton.
    #[test]
    fn dependence_analysis_is_syntactic(f in arb_formula()) {
        prop_assert_eq!(is_one_dependent(&f), !f.mentions_heavy());
        let owner = AdvertiserId::new(3);
        match dependence_set(&f, owner).m() {
            Some(m) => prop_assert!(m <= 1),
            None => prop_assert!(f.mentions_heavy()),
        }
    }

    /// OR-bid payments are monotone in the rows and bounded by the total.
    #[test]
    fn payment_bounded_by_max(
        rows in proptest::collection::vec((arb_formula(), 0i64..100), 0..6),
        v in arb_view(),
    ) {
        let bids = BidsTable::new(
            rows.into_iter().map(|(f, c)| (f, Money::from_cents(c))),
        );
        let p = bids.payment(&v);
        prop_assert!(p >= Money::ZERO);
        prop_assert!(p <= bids.max_payment());
    }
}

fn arb_digraph(max_n: usize) -> impl Strategy<Value = WeightedDigraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0i64..20, n * n).prop_map(move |w| {
            let mut g = WeightedDigraph::new(n);
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        g.set_weight(
                            AdvertiserId::from(i),
                            AdvertiserId::from(j),
                            Money::from_cents(w[i * n + j]),
                        );
                    }
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 3 reduction: revenue computed through the 2-dependent bid
    /// machinery equals the direct feedback-arc objective, for every
    /// assignment the exact solver returns.
    #[test]
    fn reduction_revenue_agrees(g in arb_digraph(5), k in 1u16..=3) {
        let bids = encode_digraph(&g);
        let sol = solve_exact(&bids, g.len(), k);
        prop_assert_eq!(
            sol.revenue,
            ordering_revenue(&g, &sol.ordering)
        );
        let slot_of = sol.slot_assignment(g.len());
        prop_assert_eq!(sol.revenue, bids_revenue(&bids, &slot_of));
    }

    /// The heuristic never beats the exact optimum and achieves at least the
    /// best single advertiser's outgoing weight (a trivial lower bound).
    #[test]
    fn local_search_sound(g in arb_digraph(5), k in 1u16..=3) {
        let exact = solve_exact(&encode_digraph(&g), g.len(), k);
        let heur = solve_local_search(&g, k, 20);
        prop_assert!(heur.revenue <= exact.revenue);
        let best_single = (0..g.len())
            .map(|i| ordering_revenue(&g, &[AdvertiserId::from(i)]))
            .max()
            .unwrap_or(Money::ZERO);
        prop_assert!(heur.revenue >= best_single);
    }
}
