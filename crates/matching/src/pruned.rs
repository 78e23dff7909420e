//! Top-k pruned winner determination: a [`WdSolver`] wrapper implementing
//! the Section III-E reduction around *any* inner method.
//!
//! For each slot, only an advertiser among that slot's top-k expected
//! revenues can win it: if an assignment gives slot `j` to an advertiser
//! strictly below the slot's k-th best weight, at least one strictly better
//! advertiser is unassigned (there are `k` of them and at most `k - 1`
//! other filled slots), and swapping it in strictly increases total weight.
//! [`PrunedSolver`] therefore solves on the union of the per-slot top-k
//! sets — `O(k + n log k)` selection, then a dense `|union| × k` candidate
//! matrix — and maps the assignment back to original ids.
//!
//! ## Bit-identical to the unpruned solve
//!
//! Unlike [`ReducedSolver`](crate::reduced::ReducedSolver), which keeps
//! exactly `k` advertisers per slot (breaking weight ties towards smaller
//! ids), this wrapper keeps **every advertiser tying the per-slot floor**
//! (the k-th largest weight). The exchange argument above is strict, so a
//! dropped advertiser appears in *no* maximum-weight assignment — the
//! candidate matrix retains every row any optimal solution can use. The
//! candidate list is sorted ascending, so relative row order (and with it
//! each solver's deterministic tie-breaking) is preserved under the
//! monotone reindexing.
//!
//! One residual hazard: when two *candidates* tie exactly, the inner
//! solvers pick among the equally-optimal assignments by a path-dependent
//! rule that the pruned-away rows can still influence (a dominated row's
//! augmenting pass may re-route tied winners even though it never ends up
//! assigned). With the engine's separable weights (`bid × p(slot)`), two
//! candidates can tie exactly only by having **identical weight rows** —
//! so the solver detects duplicate candidate rows and falls back to the
//! full matrix, making both paths run the identical solve. The result:
//! winners, total weight, and every downstream price are bit-identical to
//! running the inner solver on the full matrix, which the equivalence
//! suite in `ssa_core` checks through the whole serving stack. Solvers
//! draw no randomness, so RNG stream positions are untouched by
//! construction.

use crate::matrix::{Assignment, RevenueMatrix, EXCLUDED};
use crate::solver::WdSolver;
use crate::topk::TopK;

/// A [`WdSolver`] that prunes the revenue matrix to the union of per-slot
/// top-k candidates (ties at the floor kept) before delegating to `inner`.
///
/// All scratch — the per-slot heaps, the keep mask, the candidate list, and
/// the dense candidate matrix — persists across calls, so a stream of
/// same-sized auctions allocates nothing after warm-up.
#[derive(Debug)]
pub struct PrunedSolver<S = crate::solver::BoxedWdSolver> {
    collectors: Vec<TopK>,
    keep: Vec<bool>,
    candidates: Vec<usize>,
    /// Candidate ids sorted by weight row — scratch for duplicate-row
    /// detection (the exact-tie fallback).
    order: Vec<usize>,
    sub: RevenueMatrix,
    sub_out: Assignment,
    inner: S,
    last_candidates: usize,
}

impl<S: WdSolver> PrunedSolver<S> {
    /// Wraps `inner` with the top-k pruning pass.
    pub fn new(inner: S) -> Self {
        PrunedSolver {
            collectors: Vec::new(),
            keep: Vec::new(),
            candidates: Vec::new(),
            order: Vec::new(),
            sub: RevenueMatrix::zeros(0, 1),
            sub_out: Assignment::default(),
            inner,
            last_candidates: 0,
        }
    }

    /// True when two candidates have exactly equal weight rows — the one
    /// tie class separable weights can realise, and the one case where
    /// solving the reduced matrix could land on a *different*
    /// equally-optimal assignment than the full solve.
    fn has_duplicate_candidate_rows(&mut self, matrix: &RevenueMatrix, k: usize) -> bool {
        let row_cmp = |&a: &usize, &b: &usize| {
            for j in 0..k {
                match matrix.get(a, j).total_cmp(&matrix.get(b, j)) {
                    std::cmp::Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            std::cmp::Ordering::Equal
        };
        self.order.clear();
        self.order.extend_from_slice(&self.candidates);
        self.order.sort_unstable_by(row_cmp);
        self.order
            .windows(2)
            .any(|w| row_cmp(&w[0], &w[1]) == std::cmp::Ordering::Equal)
    }

    /// The wrapped solver.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Candidate ids kept by the most recent solve (ascending original
    /// advertiser ids). Equals `0..n` when pruning did not engage.
    pub fn candidates(&self) -> &[usize] {
        &self.candidates
    }
}

impl<S: WdSolver> WdSolver for PrunedSolver<S> {
    fn name(&self) -> &'static str {
        match self.inner.name() {
            "hungarian" => "pruned-hungarian",
            "reduced" => "pruned-reduced",
            "network-simplex" => "pruned-network-simplex",
            _ => "pruned",
        }
    }

    fn solve(&mut self, matrix: &RevenueMatrix, out: &mut Assignment) {
        let n = matrix.num_advertisers();
        let k = matrix.num_slots();

        // Per-slot top-k floors via persistent bounded heaps.
        if self.collectors.len() != k {
            self.collectors.resize_with(k, || TopK::new(k));
        }
        self.keep.clear();
        self.keep.resize(n, false);
        for (slot, collector) in self.collectors.iter_mut().enumerate() {
            collector.reset(k);
            let column = matrix.column(slot);
            for (adv, &w) in column.iter().enumerate() {
                collector.offer(adv, w);
            }
            // Keep everything at or above the slot's k-th best weight; a
            // partially-filled heap means fewer than k admissible entries,
            // so nothing in this column may be dropped.
            match collector.current_floor() {
                Some(floor) => {
                    for (adv, &w) in column.iter().enumerate() {
                        if w != EXCLUDED && w >= floor {
                            self.keep[adv] = true;
                        }
                    }
                }
                None => {
                    for (adv, &w) in column.iter().enumerate() {
                        if w != EXCLUDED {
                            self.keep[adv] = true;
                        }
                    }
                }
            }
        }

        // Ascending candidate union straight off the keep mask: already
        // sorted and deduplicated.
        self.candidates.clear();
        self.candidates.extend((0..n).filter(|&adv| self.keep[adv]));

        // Exact-tie fallback: duplicate candidate rows mean multiple
        // optimal assignments, and the inner solver's choice among them
        // can depend on the pruned-away rows. Solve the full matrix so
        // the tie resolves identically to the unpruned path. (A duplicate
        // of a candidate is itself a candidate — identical rows make
        // identical keep decisions — so checking candidates suffices.)
        if self.candidates.len() < n && self.has_duplicate_candidate_rows(matrix, k) {
            self.candidates.clear();
            self.candidates.extend(0..n);
        }
        self.last_candidates = self.candidates.len();

        if self.candidates.len() == n {
            // Nothing pruned — hand the original matrix to the inner solver
            // so the call is trivially identical to the unpruned path.
            self.inner.solve(matrix, out);
            return;
        }

        matrix.restrict_advertisers_into(&self.candidates, &mut self.sub);
        self.inner.solve(&self.sub, &mut self.sub_out);
        out.reset(k);
        out.total_weight = self.sub_out.total_weight;
        for (j, local) in self.sub_out.slot_to_adv.iter().enumerate() {
            out.slot_to_adv[j] = local.map(|l| self.candidates[l]);
        }
    }

    fn last_candidates(&self) -> Option<usize> {
        Some(self.last_candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::HungarianSolver;
    use crate::reduced::ReducedSolver;

    fn pseudorandom_matrix(n: usize, k: usize, seed: u64) -> RevenueMatrix {
        let mut state = seed | 1;
        RevenueMatrix::from_fn(n, k, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 / 100.0
        })
    }

    #[test]
    fn figure_9_walkthrough_prunes_sketchers() {
        let m = RevenueMatrix::from_rows(&[
            vec![9.0, 5.0], // Nike
            vec![8.0, 7.0], // Adidas
            vec![7.0, 6.0], // Reebok
            vec![7.0, 4.0], // Sketchers
        ]);
        let mut pruned = PrunedSolver::new(HungarianSolver::new());
        let mut full = HungarianSolver::new();
        let got = pruned.solve_alloc(&m);
        let want = full.solve_alloc(&m);
        assert_eq!(got, want);
        // Figure 11: slot 1's floor is 8.0 (top-2 of 9, 8, 7, 7) and
        // slot 2's is 6.0, so Sketchers (id 3) is strictly dominated
        // everywhere and pruned away — matching the paper's sub-graph.
        assert_eq!(pruned.candidates(), &[0, 1, 2]);
    }

    #[test]
    fn prunes_strictly_dominated_advertisers() {
        // One strong advertiser per slot plus a tail of strictly weaker
        // ones: the tail must be dropped.
        let m = RevenueMatrix::from_fn(20, 2, |i, j| {
            if i < 4 {
                100.0 + (i * 2 + j) as f64
            } else {
                (i + j) as f64 / 100.0
            }
        });
        let mut pruned = PrunedSolver::new(HungarianSolver::new());
        let mut full = HungarianSolver::new();
        let got = pruned.solve_alloc(&m);
        assert_eq!(got, full.solve_alloc(&m));
        assert!(pruned.last_candidates().unwrap() < 20);
        // Slot floors are 104.0 and 105.0, so only ids 2 and 3 survive.
        assert_eq!(pruned.candidates(), &[2, 3]);
    }

    #[test]
    fn matches_inner_on_pseudorandom_instances() {
        let mut pruned = PrunedSolver::new(HungarianSolver::new());
        let mut full = HungarianSolver::new();
        for (n, k, seed) in [
            (1usize, 1usize, 1u64),
            (5, 2, 2),
            (12, 3, 3),
            (40, 4, 4),
            (120, 5, 5),
            (40, 4, 6),
        ] {
            let m = pseudorandom_matrix(n, k, seed);
            let got = pruned.solve_alloc(&m);
            let want = full.solve_alloc(&m);
            assert_eq!(got, want, "n={n} k={k} seed={seed}");
            assert!(pruned.last_candidates().unwrap() <= n);
        }
    }

    #[test]
    fn wraps_reduced_solver_too() {
        let mut pruned = PrunedSolver::new(ReducedSolver::new());
        let mut full = ReducedSolver::new();
        let m = pseudorandom_matrix(60, 3, 11);
        assert_eq!(pruned.solve_alloc(&m), full.solve_alloc(&m));
        assert!(pruned.last_candidates().unwrap() < 60);
        assert_eq!(pruned.name(), "pruned-reduced");
    }

    #[test]
    fn ties_at_the_floor_are_kept() {
        // Five advertisers all tying at 7.0 in a one-slot market: a strict
        // top-1 cut would keep only id 0; the floor-inclusive cut keeps all.
        let m = RevenueMatrix::from_fn(5, 1, |_, _| 7.0);
        let mut pruned = PrunedSolver::new(HungarianSolver::new());
        let mut full = HungarianSolver::new();
        assert_eq!(pruned.solve_alloc(&m), full.solve_alloc(&m));
        assert_eq!(pruned.candidates(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn duplicate_candidate_rows_force_the_full_solve() {
        // Ids 0 and 1 tie exactly (equal weight rows) and id 3 is also a
        // candidate, while id 2 is strictly dominated. The tie means the
        // inner solver's pick among equally-optimal assignments could be
        // steered by the dominated row, so pruning must stand down and
        // hand the full matrix to the inner solver.
        let m = RevenueMatrix::from_rows(&[
            vec![9.0, 5.0],
            vec![9.0, 5.0],
            vec![0.1, 0.1],
            vec![8.0, 7.0],
        ]);
        let mut pruned = PrunedSolver::new(HungarianSolver::new());
        let mut full = HungarianSolver::new();
        assert_eq!(pruned.solve_alloc(&m), full.solve_alloc(&m));
        assert_eq!(pruned.last_candidates(), Some(4));
        assert_eq!(pruned.candidates(), &[0, 1, 2, 3]);
        // Distinct candidate rows over the same dominated tail still prune.
        let m = RevenueMatrix::from_rows(&[
            vec![9.0, 5.0],
            vec![9.0, 4.0],
            vec![0.1, 0.1],
            vec![8.0, 7.0],
        ]);
        assert_eq!(pruned.solve_alloc(&m), full.solve_alloc(&m));
        assert_eq!(pruned.candidates(), &[0, 1, 3]);
    }

    #[test]
    fn excluded_rows_are_dropped() {
        let m = RevenueMatrix::from_rows(&[vec![EXCLUDED], vec![EXCLUDED], vec![1.0]]);
        let mut pruned = PrunedSolver::new(HungarianSolver::new());
        let got = pruned.solve_alloc(&m);
        assert_eq!(got.slot_to_adv, vec![Some(2)]);
        assert_eq!(pruned.candidates(), &[2]);
    }

    #[test]
    fn empty_market() {
        let m = RevenueMatrix::zeros(0, 2);
        let mut pruned = PrunedSolver::new(HungarianSolver::new());
        let got = pruned.solve_alloc(&m);
        assert_eq!(got.slot_to_adv, vec![None, None]);
        assert_eq!(pruned.last_candidates(), Some(0));
    }
}
