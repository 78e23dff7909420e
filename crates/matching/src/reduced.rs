//! The reduced-graph winner determination method **RH** (Section III-E).
//!
//! For each slot, only the advertisers producing the top-k expected revenues
//! in that slot can participate in *some* maximum matching: "if a maximum
//! matching in the original problem assigned a slot to an advertiser who was
//! not in the top k highest bidders for that slot, we can simply reassign
//! that slot to one of these top k bidders who is not assigned any slot"
//! (the paper's exchange argument). The union of the per-slot top-k sets has
//! at most `k²` advertisers, so running the Hungarian algorithm on the
//! reduced bipartite graph costs `O(k⁵)` after an `O(n k log k)` selection
//! pass — linear in the number of advertisers.

use crate::hungarian::HungarianSolver;
use crate::matrix::{Assignment, RevenueMatrix};
use crate::solver::WdSolver;
use crate::topk::{top_k_indices, TopK};

/// Output of the reduced-graph method: the assignment plus the candidate set
/// that survived the reduction (the paper's Figure 11 sub-graph).
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedSolution {
    /// The optimal assignment, expressed in **original** advertiser ids.
    pub assignment: Assignment,
    /// Sorted original ids of the advertisers kept by the reduction.
    pub candidates: Vec<usize>,
}

/// Computes the candidate set: the union over slots of the per-slot top-k
/// advertisers (k = number of slots), sorted ascending.
pub fn reduced_candidates(matrix: &RevenueMatrix) -> Vec<usize> {
    let k = matrix.num_slots();
    let per_slot = top_k_indices(matrix, k);
    let mut candidates: Vec<usize> = per_slot.into_iter().flatten().map(|(id, _)| id).collect();
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

/// Method **RH** as a reusable [`WdSolver`]: the per-slot top-k heaps, the
/// candidate list, the reduced sub-matrix, and the inner Hungarian solver's
/// scratch all persist across calls, so a stream of same-sized auctions
/// performs no allocation after warm-up. The previous call's candidates
/// also seed the next top-k pass ([`TopK::offer_column`]): consecutive
/// auctions differ in a few bids, so the floors start where they will end
/// and the pass is one compare per entry. The seeds are a hint only — the
/// result is the same for any seeds.
#[derive(Debug, Clone)]
pub struct ReducedSolver {
    collectors: Vec<TopK>,
    candidates: Vec<usize>,
    sub: RevenueMatrix,
    sub_out: Assignment,
    inner: HungarianSolver,
}

impl Default for ReducedSolver {
    fn default() -> Self {
        ReducedSolver::new()
    }
}

impl ReducedSolver {
    /// Creates a solver with empty scratch buffers (they grow on first use).
    pub fn new() -> Self {
        ReducedSolver {
            collectors: Vec::new(),
            candidates: Vec::new(),
            sub: RevenueMatrix::zeros(0, 1),
            sub_out: Assignment::default(),
            inner: HungarianSolver::new(),
        }
    }

    /// The candidate set computed by the most recent [`WdSolver::solve`]
    /// call (sorted ascending original advertiser ids).
    pub fn candidates(&self) -> &[usize] {
        &self.candidates
    }
}

impl WdSolver for ReducedSolver {
    fn name(&self) -> &'static str {
        "reduced"
    }

    fn solve(&mut self, matrix: &RevenueMatrix, out: &mut Assignment) {
        let k = matrix.num_slots();

        // Per-slot top-k selection into persistent heaps.
        if self.collectors.len() != k {
            self.collectors.resize_with(k, || TopK::new(k));
        }
        for c in &mut self.collectors {
            c.reset(k);
        }
        // `self.candidates` still holds the previous solve's union: between
        // consecutive auctions it is nearly the answer again.
        for (slot, collector) in self.collectors.iter_mut().enumerate() {
            collector.offer_column(matrix.column(slot), &self.candidates);
        }

        // Candidate union, sorted so the sub-matrix row order (and hence
        // tie-breaking) matches `reduced_candidates`.
        self.candidates.clear();
        for c in &mut self.collectors {
            c.drain_ids_into(&mut self.candidates);
        }
        self.candidates.sort_unstable();
        self.candidates.dedup();

        // Hungarian on the reduced graph, then map back to original ids.
        matrix.restrict_advertisers_into(&self.candidates, &mut self.sub);
        self.inner.solve(&self.sub, &mut self.sub_out);
        out.reset(k);
        out.total_weight = self.sub_out.total_weight;
        for (j, local) in self.sub_out.slot_to_adv.iter().enumerate() {
            out.slot_to_adv[j] = local.map(|l| self.candidates[l]);
        }
    }

    fn last_candidates(&self) -> Option<usize> {
        Some(self.candidates.len())
    }
}

/// Winner determination via the reduced bipartite graph (method RH).
///
/// Produces exactly the same total weight as running
/// [`max_weight_assignment`](crate::max_weight_assignment) on the full
/// matrix, in
/// `O(n k log k + k⁵)` instead of `O(k² n)`. One-shot convenience over
/// [`ReducedSolver`]; construct the solver directly to amortise scratch
/// allocation across auctions.
///
/// ```
/// use ssa_matching::{reduced_assignment, max_weight_assignment, RevenueMatrix};
/// let m = RevenueMatrix::from_rows(&[
///     vec![9.0, 5.0],
///     vec![8.0, 7.0],
///     vec![7.0, 6.0],
///     vec![7.0, 4.0],
/// ]);
/// let fast = reduced_assignment(&m);
/// let full = max_weight_assignment(&m);
/// assert_eq!(fast.assignment.total_weight, full.total_weight);
/// // Figure 11: Sketchers (id 3) is pruned away.
/// assert_eq!(fast.candidates, vec![0, 1, 2]);
/// ```
pub fn reduced_assignment(matrix: &RevenueMatrix) -> ReducedSolution {
    let mut solver = ReducedSolver::new();
    let assignment = solver.solve_alloc(matrix);
    ReducedSolution {
        assignment,
        candidates: std::mem::take(&mut solver.candidates),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::brute_force_assignment;
    use crate::matrix::EXCLUDED;

    #[test]
    fn figure_9_10_11_walkthrough() {
        let m = RevenueMatrix::from_rows(&[
            vec![9.0, 5.0], // Nike
            vec![8.0, 7.0], // Adidas
            vec![7.0, 6.0], // Reebok
            vec![7.0, 4.0], // Sketchers
        ]);
        let sol = reduced_assignment(&m);
        // Figure 11 keeps Nike, Adidas, Reebok; the paper's bold edges are
        // slot1→{Nike, Adidas} and slot2→{Adidas, Reebok}.
        assert_eq!(sol.candidates, vec![0, 1, 2]);
        assert_eq!(sol.assignment.slot_to_adv, vec![Some(0), Some(1)]);
        assert_eq!(sol.assignment.total_weight, 16.0);
    }

    #[test]
    fn optimum_preserved_on_pseudorandom_instances() {
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 500) as f64 / 7.0
        };
        for n in [1usize, 3, 6, 9] {
            for k in [1usize, 2, 4] {
                let m = RevenueMatrix::from_fn(n, k, |_, _| next());
                let reduced = reduced_assignment(&m);
                let brute = brute_force_assignment(&m);
                assert!(
                    (reduced.assignment.total_weight - brute.total_weight).abs() < 1e-9,
                    "n={n} k={k}"
                );
                assert!(reduced.candidates.len() <= k * k);
            }
        }
    }

    #[test]
    fn reused_solver_matches_one_shot_and_tracks_candidates() {
        let mut solver = ReducedSolver::new();
        let mut out = Assignment::empty(1);
        let mut state = 0x5151u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 700) as f64 / 3.0
        };
        for (n, k) in [(8, 2), (3, 4), (12, 3), (0, 2), (8, 2)] {
            let m = RevenueMatrix::from_fn(n, k, |_, _| next());
            solver.solve(&m, &mut out);
            let one_shot = reduced_assignment(&m);
            assert_eq!(out, one_shot.assignment, "n={n} k={k}");
            assert_eq!(solver.candidates(), one_shot.candidates, "n={n} k={k}");
            assert_eq!(solver.candidates(), reduced_candidates(&m));
        }
    }

    #[test]
    fn candidate_bound_is_k_squared() {
        // Adversarial: every slot has a disjoint set of top bidders.
        let k = 3;
        let n = 30;
        let m = RevenueMatrix::from_fn(n, k, |i, j| {
            if i / 10 == j {
                1000.0 - (i % 10) as f64
            } else {
                (i % 10) as f64 / 100.0
            }
        });
        let candidates = reduced_candidates(&m);
        assert!(candidates.len() <= k * k);
        // Each slot's top-3 comes from its own block of ten advertisers.
        assert!(candidates.contains(&0) && candidates.contains(&10) && candidates.contains(&20));
    }

    #[test]
    fn excluded_edges_do_not_enter_candidates() {
        let m = RevenueMatrix::from_rows(&[vec![EXCLUDED], vec![EXCLUDED], vec![1.0]]);
        let sol = reduced_assignment(&m);
        assert_eq!(sol.candidates, vec![2]);
        assert_eq!(sol.assignment.slot_to_adv, vec![Some(2)]);
    }

    #[test]
    fn empty_market() {
        let m = RevenueMatrix::zeros(0, 2);
        let sol = reduced_assignment(&m);
        assert!(sol.candidates.is_empty());
        assert_eq!(sol.assignment.slot_to_adv, vec![None, None]);
    }
}
