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

use crate::heap::HeapUse;
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
///
/// A caller that already knows the candidate set — it maintains a
/// [`RetainedOrder`](crate::RetainedOrder) — skips the selection pass and
/// the full matrix with it: [`ReducedSolver::load_candidates`] lays the
/// reduced graph out from the rows the solver still holds plus the few it
/// asks for, and [`ReducedSolver::solve_candidates`] runs the same
/// Hungarian step [`WdSolver::solve`] ends in.
#[derive(Debug, Clone)]
pub struct ReducedSolver {
    collectors: Vec<TopK>,
    /// Sorted original ids of the rows of `sub`.
    candidates: Vec<usize>,
    sub: RevenueMatrix,
    /// The sub-matrix being laid out while `sub` is still read from.
    next_sub: RevenueMatrix,
    /// One candidate's weights on their way into `next_sub`.
    row: Vec<f64>,
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
            next_sub: RevenueMatrix::zeros(0, 1),
            row: Vec::new(),
            sub_out: Assignment::default(),
            inner: HungarianSolver::new(),
        }
    }

    /// The heap the solver's scratch holds: its collectors, the reduced
    /// graph being read and the one being laid out, and the inner solver's
    /// buffers.
    pub fn heap_use(&self) -> HeapUse {
        HeapUse::of_vec(&self.collectors)
            + self.collectors.iter().map(TopK::heap_use).sum()
            + HeapUse::of_vec(&self.candidates)
            + self.sub.heap_use()
            + self.next_sub.heap_use()
            + HeapUse::of_vec(&self.row)
            + HeapUse::of_vec(&self.sub_out.slot_to_adv)
            + self.inner.heap_use()
    }

    /// The candidate set of the most recent solve (sorted ascending
    /// original advertiser ids).
    pub fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// Makes `candidates` (strictly ascending original ids — what
    /// [`reduced_candidates`] would return) the reduced graph over
    /// `num_slots` slots. A candidate the solver holds from its previous
    /// reduced graph keeps its weights; for each other one `weights_of` is
    /// asked to write the row. Returns how many rows it asked for.
    pub fn load_candidates(
        &mut self,
        num_slots: usize,
        candidates: &[usize],
        mut weights_of: impl FnMut(usize, &mut [f64]),
    ) -> usize {
        debug_assert!(candidates.windows(2).all(|pair| pair[0] < pair[1]));
        if self.sub.num_slots() != num_slots {
            self.candidates.clear();
        }
        self.next_sub.reshape(candidates.len(), num_slots);
        self.row.resize(num_slots, 0.0);
        let mut asked = 0;
        // Both id lists ascend: one forward walk finds every held row.
        let mut at = 0;
        for (local, &id) in candidates.iter().enumerate() {
            while self.candidates.get(at).is_some_and(|&held| held < id) {
                at += 1;
            }
            if self.candidates.get(at) == Some(&id) {
                for slot in 0..num_slots {
                    self.next_sub.set(local, slot, self.sub.get(at, slot));
                }
            } else {
                weights_of(id, &mut self.row);
                self.next_sub.set_row(local, &self.row);
                asked += 1;
            }
        }
        std::mem::swap(&mut self.sub, &mut self.next_sub);
        self.candidates.clear();
        self.candidates.extend_from_slice(candidates);
        asked
    }

    /// Overwrites the weights held for `id`, if it is a candidate: its row
    /// changed since the reduced graph was laid out.
    pub fn replace_row(&mut self, id: usize, weights: &[f64]) {
        if let Ok(local) = self.candidates.binary_search(&id) {
            self.sub.set_row(local, weights);
        }
    }

    /// Forgets the held rows: the next [`ReducedSolver::load_candidates`]
    /// asks for every candidate's weights.
    pub fn forget_rows(&mut self) {
        self.candidates.clear();
    }

    /// The weight the reduced graph holds for candidate `id` in `slot`;
    /// `None` if `id` is not a candidate.
    pub fn candidate_weight(&self, id: usize, slot: usize) -> Option<f64> {
        let local = self.candidates.binary_search(&id).ok()?;
        Some(self.sub.get(local, slot))
    }

    /// Hungarian on the reduced graph as it stands, mapped back to original
    /// ids: the step [`WdSolver::solve`] ends in, for a graph laid out by
    /// [`ReducedSolver::load_candidates`].
    pub fn solve_candidates(&mut self, out: &mut Assignment) {
        self.inner.solve(&self.sub, &mut self.sub_out);
        out.reset(self.sub.num_slots());
        out.total_weight = self.sub_out.total_weight;
        for (j, local) in self.sub_out.slot_to_adv.iter().enumerate() {
            out.slot_to_adv[j] = local.map(|l| self.candidates[l]);
        }
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

        matrix.restrict_advertisers_into(&self.candidates, &mut self.sub);
        self.solve_candidates(out);
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

    /// The caller-supplied-candidates route is the matrix route minus the
    /// selection pass: same assignment, and only rows the solver does not
    /// already hold are asked for.
    #[test]
    fn loaded_candidates_solve_like_the_full_matrix() {
        let mut state = 0xA11CEu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 90) as f64 / 4.0
        };
        let (n, k) = (14, 3);
        let mut m = RevenueMatrix::from_fn(n, k, |_, _| next());
        let mut by_matrix = ReducedSolver::new();
        let mut by_candidates = ReducedSolver::new();
        let (mut want, mut got) = (Assignment::default(), Assignment::default());
        let mut held: Vec<usize> = Vec::new();
        for step in 0..40 {
            // One row changes per step; every fifth step it is excluded.
            let row = (step * 5) % n;
            let weights: Vec<f64> = (0..k)
                .map(|_| if step % 5 == 4 { EXCLUDED } else { next() })
                .collect();
            m.set_row(row, &weights);
            by_candidates.replace_row(row, &weights);

            by_matrix.solve(&m, &mut want);
            let candidates = reduced_candidates(&m);
            let mut asked = Vec::new();
            let count = by_candidates.load_candidates(k, &candidates, |id, out| {
                asked.push(id);
                for (slot, w) in out.iter_mut().enumerate() {
                    *w = m.get(id, slot);
                }
            });
            by_candidates.solve_candidates(&mut got);
            assert_eq!(got, want, "step {step}");
            assert_eq!(by_candidates.candidates(), by_matrix.candidates());
            assert_eq!(count, asked.len());
            assert!(asked.iter().all(|id| !held.contains(id)), "step {step}");
            for &id in &candidates {
                for slot in 0..k {
                    assert_eq!(
                        by_candidates.candidate_weight(id, slot),
                        Some(m.get(id, slot))
                    );
                }
            }
            held = candidates;
        }
        assert_eq!(by_candidates.candidate_weight(usize::MAX, 0), None);
        by_candidates.forget_rows();
        let count = by_candidates.load_candidates(k, &held, |id, out| {
            for (slot, w) in out.iter_mut().enumerate() {
                *w = m.get(id, slot);
            }
        });
        assert_eq!(count, held.len());
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
