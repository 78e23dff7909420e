//! Property-based tests for the winner-determination algorithms.

use proptest::prelude::*;
use ssa_matching::exhaustive::brute_force_assignment;
use ssa_matching::parallel::tree_top_k;
use ssa_matching::threshold::{threshold_top_k, IndexedSource, MaintainedIndex};
use ssa_matching::{
    max_weight_assignment, reduced_assignment, reduced_candidates, top_k_indices, RetainedOrder,
    RevenueMatrix, EXCLUDED,
};

/// A small matrix with optional excluded entries.
fn arb_matrix(max_n: usize, max_k: usize) -> impl Strategy<Value = RevenueMatrix> {
    (1..=max_n, 1..=max_k).prop_flat_map(|(n, k)| {
        proptest::collection::vec(
            prop_oneof![
                4 => (0u32..10_000).prop_map(|v| v as f64 / 10.0),
                1 => Just(EXCLUDED),
            ],
            n * k,
        )
        .prop_map(move |cells| RevenueMatrix::from_fn(n, k, |i, j| cells[i * k + j]))
    })
}

/// Few distinct weights, so columns are full of ties: negative, both zeros,
/// and excluded cells among them.
const PALETTE: [f64; 8] = [-3.0, -0.0, 0.0, 1.0, 2.5, 2.5, 7.0, EXCLUDED];

/// One write to a [`RetainedOrder`] and its shadow matrix.
#[derive(Debug, Clone)]
struct RowWrite {
    /// Which existing row (modulo their number) the write goes to …
    pick: usize,
    /// … unless it inserts a new row (7), or excludes the whole row (6).
    kind: u8,
    /// Indexes into [`PALETTE`], one per slot.
    cells: Vec<usize>,
}

/// `k`, the number of rows to start from — below, at and above the
/// `2(k + 1)` a list holds — and a stream of writes.
fn arb_row_writes() -> impl Strategy<Value = (usize, usize, Vec<RowWrite>)> {
    (1usize..=3).prop_flat_map(|k| {
        let cap = 2 * (k + 1);
        let write = (
            0usize..64,
            0u8..8,
            proptest::collection::vec(0usize..PALETTE.len(), k),
        )
            .prop_map(|(pick, kind, cells)| RowWrite { pick, kind, cells });
        (
            Just(k),
            prop_oneof![0usize..cap, Just(cap), cap + 1..3 * cap],
            proptest::collection::vec(write, 0..120),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The retained order is the shadow matrix's per-slot top k + 1 after
    /// every write, it asks for a rebuild only when a list really ran
    /// short, and never fails to ask when one did.
    #[test]
    fn retained_order_tracks_the_dense_top_k((k, n0, writes) in arb_row_writes()) {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut order = RetainedOrder::new(k);
        let (mut rescans, mut written) = (0usize, 0usize);
        let initial = (0..n0).map(|i| RowWrite {
            pick: 0,
            kind: 7,
            cells: (0..k).map(|j| (i * 3 + j * 5) % PALETTE.len()).collect(),
        });
        for write in initial.chain(writes) {
            let weights: Vec<f64> = match write.kind {
                6 => vec![EXCLUDED; k],
                _ => write.cells.iter().map(|&c| PALETTE[c]).collect(),
            };
            let row = if write.kind == 7 || rows.is_empty() {
                rows.push(Vec::new());
                rows.len() - 1
            } else {
                write.pick % rows.len()
            };
            rows[row] = weights;
            order.update(row, &rows[row]);
            written += 1;

            let shadow = RevenueMatrix::from_fn(rows.len(), k, |i, j| rows[i][j]);
            if order.underflowed() {
                let really_short = (0..k).any(|slot| {
                    let listed = order.top(slot).len();
                    let bidding = shadow.column(slot).iter().filter(|w| **w != EXCLUDED).count();
                    listed < k + 1 && listed < bidding
                });
                prop_assert!(really_short, "asked for a rebuild with every list long enough");
                rescans += 1;
                order.clear();
                for (i, weights) in rows.iter().enumerate() {
                    order.update(i, weights);
                }
                prop_assert!(!order.underflowed(), "a rebuilt order is whole");
            }
            let want = top_k_indices(&shadow, k + 1);
            for (slot, want) in want.iter().enumerate() {
                let bits = |entries: &[(usize, f64)]| -> Vec<(usize, u64)> {
                    entries.iter().take(k + 1).map(|&(id, w)| (id, w.to_bits())).collect()
                };
                prop_assert_eq!(bits(order.top(slot)), bits(want), "slot {}", slot);
            }
            let mut candidates = Vec::new();
            order.candidates_into(&mut candidates);
            prop_assert_eq!(candidates, reduced_candidates(&shadow));
        }
        // A rebuild refills every list, so k + 1 writes must take a row off
        // one list before the next.
        prop_assert!(rescans * (k + 1) <= written, "{} rebuilds in {} writes", rescans, written);
    }

    /// Theorem 2 machinery: the Hungarian solver is exactly optimal.
    #[test]
    fn hungarian_is_optimal(m in arb_matrix(7, 4)) {
        let fast = max_weight_assignment(&m);
        let brute = brute_force_assignment(&m);
        prop_assert!((fast.total_weight - brute.total_weight).abs() < 1e-9,
            "hungarian={} brute={}", fast.total_weight, brute.total_weight);
        prop_assert!(fast.is_valid(m.num_advertisers()));
        prop_assert!((fast.weight_in(&m) - fast.total_weight).abs() < 1e-9);
    }

    /// Section III-E: the reduced-graph method loses nothing.
    #[test]
    fn reduction_preserves_optimum(m in arb_matrix(16, 4)) {
        let full = max_weight_assignment(&m);
        let reduced = reduced_assignment(&m);
        prop_assert!(
            (full.total_weight - reduced.assignment.total_weight).abs() < 1e-9
        );
        let k = m.num_slots();
        prop_assert!(reduced.candidates.len() <= k * k);
        prop_assert!(reduced.assignment.is_valid(m.num_advertisers()));
    }

    /// The tree-network simulation agrees with the direct heap-based top-k
    /// selection, at the depth of a binary tree over `n` leaves.
    #[test]
    fn aggregation_variants_agree(m in arb_matrix(24, 3)) {
        let k = m.num_slots();
        let direct = top_k_indices(&m, k);
        let (tree, stats) = tree_top_k(&m, k);
        prop_assert_eq!(&tree, &direct);
        let n = m.num_advertisers();
        let expected_depth = if n <= 1 { 0 } else { (usize::BITS - (n - 1).leading_zeros()) as usize };
        prop_assert_eq!(stats.depth, expected_depth);
    }

    /// TA returns exactly the full-scan top-k for monotone aggregations
    /// (weighted sum and product of non-negative parameters).
    #[test]
    fn threshold_algorithm_exact(
        lists in (1usize..=3, 1usize..=30).prop_flat_map(|(m, n)| {
            proptest::collection::vec(
                proptest::collection::vec(0.0f64..100.0, n),
                m,
            )
        }),
        k in 1usize..6,
        use_product in any::<bool>(),
    ) {
        let idx: Vec<MaintainedIndex> =
            lists.iter().map(|l| MaintainedIndex::new(l.clone())).collect();
        let source = IndexedSource::new(idx.iter().collect());
        type Agg = Box<dyn Fn(&[f64]) -> f64>;
        let agg: Agg = if use_product {
            Box::new(|v: &[f64]| v.iter().product())
        } else {
            Box::new(|v: &[f64]| v.iter().enumerate().map(|(i, x)| (i + 1) as f64 * x).sum())
        };
        let (got, instr) = threshold_top_k(&source, &agg, k);

        // Reference by full scan.
        let n = lists[0].len();
        let mut scored: Vec<(usize, f64)> = (0..n).map(|o| {
            let vals: Vec<f64> = lists.iter().map(|l| l[o]).collect();
            (o, agg(&vals))
        }).collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);

        // Scores must agree exactly; ids may differ only among ties.
        prop_assert_eq!(got.len(), scored.len());
        for (g, s) in got.iter().zip(&scored) {
            prop_assert!((g.1 - s.1).abs() < 1e-9, "got {:?} want {:?}", got, scored);
        }
        prop_assert!(instr.sorted_accesses <= lists.len() * n);
    }

    /// Index updates keep the TA consistent with a fresh full scan.
    #[test]
    fn maintained_index_consistent_under_updates(
        initial in proptest::collection::vec(0.0f64..50.0, 3..20),
        updates in proptest::collection::vec((0usize..19, 0.0f64..50.0), 0..12),
    ) {
        let n = initial.len();
        let mut idx = MaintainedIndex::new(initial.clone());
        let mut shadow = initial;
        for (obj, val) in updates {
            let obj = obj % n;
            idx.update(obj, val);
            shadow[obj] = val;
        }
        let from_index: Vec<(usize, f64)> = idx.iter_desc().collect();
        let mut expected: Vec<(usize, f64)> =
            shadow.iter().copied().enumerate().collect();
        expected.sort_by(|a, b| b.1.total_cmp(&a.1).then(b.0.cmp(&a.0)));
        prop_assert_eq!(from_index.len(), expected.len());
        for (a, b) in from_index.iter().zip(&expected) {
            prop_assert!((a.1 - b.1).abs() == 0.0);
        }
    }
}
