//! Maximum-weight bipartite matching via shortest augmenting paths.
//!
//! This is the paper's method **H**: the Hungarian (Kuhn–Munkres) algorithm
//! run "in a straightforward way ... in the bipartite graph with advertisers
//! on the left and slots on the right" (Section V). We use the
//! Jonker–Volgenant formulation with dual potentials: one augmenting phase
//! per slot, each phase a Dijkstra-like scan over all advertiser columns.
//!
//! * Rows are the `k` slots, columns are the `n` advertisers plus `k`
//!   zero-weight *dummy* columns. Matching a slot to a dummy leaves it
//!   empty, which makes partial matchings (negative or [`EXCLUDED`] weights)
//!   come out naturally: a slot is filled only when doing so cannot lower
//!   the total weight.
//! * Complexity `O(k² (n + k))` — the full `n × k` matrix is scanned a
//!   constant number of times per slot, which is exactly what the
//!   reduced-graph method of Section III-E avoids.

use crate::heap::HeapUse;
use crate::matrix::{Assignment, RevenueMatrix, EXCLUDED};
use crate::solver::WdSolver;

/// Method **H** as a reusable [`WdSolver`]: the Jonker–Volgenant scratch
/// arrays (dual potentials, match/backtrack/label vectors) persist across
/// calls, so solving a stream of same-sized instances performs no
/// allocation after the first call.
#[derive(Debug, Default, Clone)]
pub struct HungarianSolver {
    u: Vec<f64>,             // slot potentials
    v: Vec<f64>,             // column potentials
    matched_row: Vec<usize>, // column -> slot (1-based, 0 = free)
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
}

impl HungarianSolver {
    /// Creates a solver with empty scratch buffers (they grow on first use).
    pub fn new() -> Self {
        HungarianSolver::default()
    }

    /// The heap the solver's scratch holds.
    pub(crate) fn heap_use(&self) -> HeapUse {
        HeapUse::of_vec(&self.u)
            + HeapUse::of_vec(&self.v)
            + HeapUse::of_vec(&self.matched_row)
            + HeapUse::of_vec(&self.way)
            + HeapUse::of_vec(&self.minv)
            + HeapUse::of_vec(&self.used)
    }

    /// Resizes every scratch vector for a `k`-slot, `cols`-column instance
    /// and resets it to its initial value, reusing existing capacity.
    fn reset_scratch(&mut self, k: usize, cols: usize) {
        self.u.clear();
        self.u.resize(k + 1, 0.0);
        self.v.clear();
        self.v.resize(cols + 1, 0.0);
        self.matched_row.clear();
        self.matched_row.resize(cols + 1, 0);
        self.way.clear();
        self.way.resize(cols + 1, 0);
        self.minv.clear();
        self.minv.resize(cols + 1, 0.0);
        self.used.clear();
        self.used.resize(cols + 1, false);
    }
}

impl WdSolver for HungarianSolver {
    fn name(&self) -> &'static str {
        "hungarian"
    }

    fn solve(&mut self, matrix: &RevenueMatrix, out: &mut Assignment) {
        let n = matrix.num_advertisers();
        let k = matrix.num_slots();
        let cols = n + k; // advertisers + one dummy per slot
        self.reset_scratch(k, cols);

        // Jonker–Volgenant with 1-based sentinel index 0 (e-maxx
        // formulation).
        for slot in 1..=k {
            self.matched_row[0] = slot;
            let mut j0 = 0usize;
            self.minv.iter_mut().for_each(|m| *m = f64::INFINITY);
            self.used.iter_mut().for_each(|u| *u = false);
            loop {
                self.used[j0] = true;
                let i0 = self.matched_row[j0];
                let mut delta = f64::INFINITY;
                let mut j1 = 0usize;
                // One pass over the columns 1..=cols, each scratch vector
                // walked as a slice. Minimisation formulation: cost =
                // -weight (slot `i0 - 1`'s weights are one contiguous
                // matrix column), excluded ∞, and the columns past the
                // advertisers are the dummies, cost 0.
                let weights = matrix.column(i0 - 1);
                let u0 = self.u[i0];
                let scan = self.used[1..]
                    .iter()
                    .zip(&self.v[1..])
                    .zip(&mut self.minv[1..])
                    .zip(&mut self.way[1..])
                    .enumerate();
                for (col, (((&used, &v), minv), way)) in scan {
                    if used {
                        continue;
                    }
                    let cost = match weights.get(col) {
                        Some(&w) if w == EXCLUDED => f64::INFINITY,
                        Some(&w) => -w,
                        None => 0.0,
                    };
                    let cur = cost - u0 - v;
                    if cur < *minv {
                        *minv = cur;
                        *way = j0;
                    }
                    if *minv < delta {
                        delta = *minv;
                        j1 = col + 1;
                    }
                }
                debug_assert!(
                    delta.is_finite(),
                    "augmenting phase stuck: dummy columns guarantee feasibility"
                );
                for j in 0..=cols {
                    if self.used[j] {
                        self.u[self.matched_row[j]] += delta;
                        self.v[j] -= delta;
                    } else {
                        self.minv[j] -= delta; // ∞ stays ∞
                    }
                }
                j0 = j1;
                if self.matched_row[j0] == 0 {
                    break;
                }
            }
            // Unwind the alternating path.
            loop {
                let j1 = self.way[j0];
                self.matched_row[j0] = self.matched_row[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        out.reset(k);
        for col in 1..=n {
            let row = self.matched_row[col];
            if row != 0 {
                let adv = col - 1;
                let slot = row - 1;
                out.slot_to_adv[slot] = Some(adv);
                out.total_weight += matrix.get(adv, slot);
            }
        }
    }
}

/// Computes a maximum-weight (partial) assignment of slots to advertisers.
///
/// Every slot is matched to at most one advertiser and vice versa; slots are
/// left empty when every available advertiser has [`EXCLUDED`] or negative
/// weight there. Ties are resolved deterministically (lowest column index).
///
/// One-shot convenience over [`HungarianSolver`]; construct the solver
/// directly to amortise scratch allocation across auctions.
///
/// ```
/// use ssa_matching::{max_weight_assignment, RevenueMatrix};
/// // The paper's Figure 9 matrix (Nike, Adidas, Reebok, Sketchers × 2 slots).
/// let m = RevenueMatrix::from_rows(&[
///     vec![9.0, 5.0],
///     vec![8.0, 7.0],
///     vec![7.0, 6.0],
///     vec![7.0, 4.0],
/// ]);
/// let a = max_weight_assignment(&m);
/// assert_eq!(a.total_weight, 16.0); // Nike → slot 1, Adidas → slot 2
/// assert_eq!(a.slot_to_adv, vec![Some(0), Some(1)]);
/// ```
pub fn max_weight_assignment(matrix: &RevenueMatrix) -> Assignment {
    HungarianSolver::new().solve_alloc(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::brute_force_assignment;

    #[test]
    fn figure9_example() {
        let m = RevenueMatrix::from_rows(&[
            vec![9.0, 5.0], // Nike
            vec![8.0, 7.0], // Adidas
            vec![7.0, 6.0], // Reebok
            vec![7.0, 4.0], // Sketchers
        ]);
        let a = max_weight_assignment(&m);
        assert_eq!(a.slot_to_adv, vec![Some(0), Some(1)]);
        assert_eq!(a.total_weight, 16.0);
        assert!(a.is_valid(4));
    }

    #[test]
    fn more_slots_than_advertisers() {
        let m = RevenueMatrix::from_rows(&[vec![3.0, 1.0, 2.0]]);
        let a = max_weight_assignment(&m);
        assert_eq!(a.slot_to_adv, vec![Some(0), None, None]);
        assert_eq!(a.total_weight, 3.0);
    }

    #[test]
    fn excluded_edges_respected() {
        let m = RevenueMatrix::from_rows(&[vec![EXCLUDED, 5.0], vec![8.0, EXCLUDED]]);
        let a = max_weight_assignment(&m);
        assert_eq!(a.slot_to_adv, vec![Some(1), Some(0)]);
        assert_eq!(a.total_weight, 13.0);
    }

    #[test]
    fn fully_excluded_slot_left_empty() {
        let m = RevenueMatrix::from_rows(&[vec![EXCLUDED, 5.0], vec![EXCLUDED, 4.0]]);
        let a = max_weight_assignment(&m);
        assert_eq!(a.slot_to_adv[0], None);
        assert_eq!(a.slot_to_adv[1], Some(0));
    }

    #[test]
    fn negative_weights_prefer_empty_slot() {
        let m = RevenueMatrix::from_rows(&[vec![-2.0], vec![-5.0]]);
        let a = max_weight_assignment(&m);
        assert_eq!(a.slot_to_adv, vec![None]);
        assert_eq!(a.total_weight, 0.0);
    }

    #[test]
    fn mixed_signs_take_only_profitable() {
        let m = RevenueMatrix::from_rows(&[vec![4.0, -1.0], vec![-3.0, -2.0]]);
        let a = max_weight_assignment(&m);
        assert_eq!(a.slot_to_adv, vec![Some(0), None]);
        assert_eq!(a.total_weight, 4.0);
    }

    #[test]
    fn empty_market() {
        let m = RevenueMatrix::zeros(0, 3);
        let a = max_weight_assignment(&m);
        assert_eq!(a.slot_to_adv, vec![None, None, None]);
        assert_eq!(a.total_weight, 0.0);
    }

    #[test]
    fn separable_matrix_sorts_by_factors() {
        // Figure 8: separable probabilities ⇒ the j-th best advertiser gets
        // the j-th best slot. Values: advertiser factors 4, 3; slot factors
        // 0.2, 0.1; identical per-click value 10.
        let m = RevenueMatrix::from_fn(2, 2, |i, j| {
            let adv = [4.0, 3.0][i];
            let slot = [0.2, 0.1][j];
            adv * slot * 10.0
        });
        let a = max_weight_assignment(&m);
        assert_eq!(a.slot_to_adv, vec![Some(0), Some(1)]);
    }

    #[test]
    fn reused_solver_matches_fresh_across_sizes() {
        // One persistent solver solving a stream of instances of varying
        // dimensions must agree with a fresh solver every time.
        let mut persistent = HungarianSolver::new();
        let mut out = Assignment::empty(1);
        let mut state = 0xABCDu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 900) as f64 / 9.0
        };
        for (n, k) in [(4, 2), (1, 3), (7, 7), (0, 2), (5, 1), (4, 2)] {
            let m = RevenueMatrix::from_fn(n, k, |_, _| next());
            persistent.solve(&m, &mut out);
            let fresh = max_weight_assignment(&m);
            assert_eq!(out, fresh, "n={n} k={k}");
        }
    }

    #[test]
    fn agrees_with_brute_force_on_small_grids() {
        // Deterministic pseudo-random matrices.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 10.0
        };
        for n in 1..=6 {
            for k in 1..=4 {
                let m = RevenueMatrix::from_fn(n, k, |_, _| next());
                let fast = max_weight_assignment(&m);
                let slow = brute_force_assignment(&m);
                assert!(
                    (fast.total_weight - slow.total_weight).abs() < 1e-9,
                    "n={n} k={k}: hungarian {} vs brute {}",
                    fast.total_weight,
                    slow.total_weight
                );
                assert!((fast.weight_in(&m) - fast.total_weight).abs() < 1e-9);
            }
        }
    }
}
