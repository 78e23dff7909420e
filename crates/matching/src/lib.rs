//! # ssa-matching — winner-determination algorithms
//!
//! Implements Section III (and the top-k machinery of Section IV-A) of
//! *Toward Expressive and Scalable Sponsored Search Auctions*:
//!
//! * [`hungarian`] — maximum-weight bipartite matching between advertisers
//!   and slots via shortest augmenting paths with dual potentials
//!   (Kuhn–Munkres / Jonker–Volgenant style). This is the paper's method
//!   **H**: it touches the full `n × k` revenue matrix.
//! * [`reduced`] — the paper's method **RH** (Section III-E): for each slot,
//!   keep only the advertisers with the top-k expected revenues (bounded
//!   min-heaps, `O(n k log k)`), then run the Hungarian algorithm on the
//!   reduced graph of at most `k²` advertisers (`O(k⁵)`).
//! * [`retained`] — [`RetainedOrder`]: each slot's best rows kept current
//!   one changed row at a time, from which [`ReducedSolver`] is handed its
//!   candidates without an `n × k` matrix or a selection pass.
//! * [`parallel`] — the binary-tree aggregation networks of Section III-E,
//!   simulated: [`parallel::tree_top_k`] verifies the `O(k log n)`
//!   combining depth. It is a check on the paper's claim, not a solver.
//! * [`threshold`] — the Fagin–Lotem–Naor threshold algorithm used in
//!   Section IV-A to find the top-k bidders per slot without scanning all
//!   advertisers, over incrementally-maintained sorted parameter indexes.
//! * [`pruned`] — [`PrunedSolver`], the Section III-E top-k reduction as a
//!   wrapper around *any* inner solver, keeping weight ties at the per-slot
//!   floor so the pruned solve stays bit-identical to the unpruned one.
//! * [`exhaustive`] — brute-force reference solvers used to validate
//!   optimality in tests.
//! * [`heap`] — [`HeapUse`], the heap bytes a solver's state holds, which
//!   memory ledgers read off [`RetainedOrder`] and [`ReducedSolver`].
//! * [`solver`] — the [`WdSolver`] trait: every method above as a reusable
//!   solver object with persistent scratch buffers, the interface the
//!   batched auction pipeline in `ssa_core` is built on.
//!
//! Weights are `f64` expected revenues. The sentinel [`EXCLUDED`]
//! (`f64::NEG_INFINITY`) marks advertiser–slot pairs that must not be
//! matched; all other weights must be finite. Matchings are *partial*: a slot
//! may stay empty when every remaining advertiser is excluded or when
//! leaving it empty is optimal (all-negative columns).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exhaustive;
pub mod heap;
pub mod hungarian;
pub mod matrix;
pub mod ordered;
pub mod parallel;
pub mod pruned;
pub mod reduced;
pub mod retained;
pub mod solver;
pub mod threshold;
pub mod topk;

pub use heap::HeapUse;
pub use hungarian::{max_weight_assignment, HungarianSolver};
pub use matrix::{Assignment, RevenueMatrix, EXCLUDED};
pub use ordered::OrderedF64;
pub use pruned::PrunedSolver;
pub use reduced::{reduced_assignment, reduced_candidates, ReducedSolution, ReducedSolver};
pub use retained::RetainedOrder;
pub use solver::{BoxedWdSolver, WdSolver};
pub use threshold::{threshold_top_k, MaintainedIndex, TaInstrumentation, TaSource};
pub use topk::{top_k_indices, TopK};
