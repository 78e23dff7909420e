//! The [`WdSolver`] trait: a uniform, allocation-amortising interface over
//! every winner-determination method.
//!
//! Each of the paper's Section V methods is exposed as a struct owning its
//! own scratch state (dual potentials, heaps, sub-matrices, spanning-tree
//! bookkeeping). Constructing a solver once and calling
//! [`WdSolver::solve`] per auction keeps the hot path free of per-auction
//! allocation: the revenue matrix is filled in place by the caller and the
//! assignment is written into a caller-owned buffer.
//!
//! Implementations in this workspace:
//!
//! * [`HungarianSolver`](crate::hungarian::HungarianSolver) — method **H**;
//! * [`ReducedSolver`](crate::reduced::ReducedSolver) — method **RH**;
//! * `NetworkSimplexSolver` (in `ssa_simplex`) — method **LP**.
//!
//! The parallel tree aggregation of Section III-E is no solver here:
//! [`crate::parallel`] simulates it to check its depth.
//!
//! The free functions ([`crate::max_weight_assignment`],
//! [`crate::reduced_assignment`], …) remain as one-shot conveniences; they
//! construct a fresh solver per call.

use crate::matrix::{Assignment, RevenueMatrix};

/// A winner-determination algorithm with reusable internal scratch state.
///
/// The contract shared by all implementations:
///
/// * `solve` resets `out` to the matrix's slot count and writes a
///   maximum-weight partial assignment into it (identical total weight
///   across all implementations, up to floating-point tolerance);
/// * no per-call allocation once the solver's buffers have warmed up to the
///   problem size (growing to a larger `n`/`k` may allocate once);
/// * solvers are `Send`, so a sharded serving layer can move them across
///   threads; they are **not** `Sync` — one solver per lane.
pub trait WdSolver: std::fmt::Debug + Send {
    /// A short static label for logs and benchmark output.
    fn name(&self) -> &'static str;

    /// Solves winner determination for `revenue`, writing the result into
    /// `out` (which is reset to `revenue.num_slots()` slots first).
    fn solve(&mut self, revenue: &RevenueMatrix, out: &mut Assignment);

    /// One-shot convenience: solve into a freshly allocated [`Assignment`].
    fn solve_alloc(&mut self, revenue: &RevenueMatrix) -> Assignment {
        let mut out = Assignment::empty(revenue.num_slots());
        self.solve(revenue, &mut out);
        out
    }

    /// Number of advertisers the most recent [`WdSolver::solve`] call
    /// actually considered, when the solver prunes the matrix first
    /// ([`PrunedSolver`](crate::pruned::PrunedSolver), the reduced methods).
    /// `None` means the solver always works on the full matrix.
    fn last_candidates(&self) -> Option<usize> {
        None
    }
}

/// The trait-object form used by engines that pick a method at runtime.
pub type BoxedWdSolver = Box<dyn WdSolver>;

impl WdSolver for BoxedWdSolver {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn solve(&mut self, revenue: &RevenueMatrix, out: &mut Assignment) {
        self.as_mut().solve(revenue, out);
    }

    fn last_candidates(&self) -> Option<usize> {
        self.as_ref().last_candidates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::HungarianSolver;
    use crate::matrix::RevenueMatrix;

    /// Compile-time guard: every solver must stay `Send` (the trait
    /// requires it) so sharded serving layers can move solvers across
    /// threads. A non-`Send` field added to any implementation breaks
    /// this test at compile time.
    #[test]
    fn solvers_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<HungarianSolver>();
        assert_send::<crate::reduced::ReducedSolver>();
        assert_send::<BoxedWdSolver>();
    }

    #[test]
    fn boxed_solver_delegates() {
        let mut boxed: BoxedWdSolver = Box::new(HungarianSolver::new());
        assert_eq!(boxed.name(), "hungarian");
        let m = RevenueMatrix::from_rows(&[vec![3.0, 1.0]]);
        let a = boxed.solve_alloc(&m);
        assert_eq!(a.slot_to_adv, vec![Some(0), None]);
    }

    #[test]
    fn solve_alloc_resets_out_dimensions() {
        let mut solver = HungarianSolver::new();
        let m = RevenueMatrix::from_rows(&[vec![3.0]]);
        let mut out = Assignment::empty(5);
        out.total_weight = 99.0;
        solver.solve(&m, &mut out);
        assert_eq!(out.slot_to_adv.len(), 1);
        assert_eq!(out.total_weight, 3.0);
    }
}
