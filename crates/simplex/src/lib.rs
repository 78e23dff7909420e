//! # ssa-simplex — the network simplex solver for winner determination
//!
//! The paper's experimental baseline ("method LP", Section V) solves the
//! winner-determination problem as a linear program with the GLPK simplex
//! solver. GLPK is not available to this reproduction, so this crate
//! implements the one LP solver the auction pipeline runs from scratch:
//!
//! * [`netsimplex`] — the *network simplex* method specialised to the
//!   transportation form of the assignment problem. This is the scalable
//!   "LP" column of Figure 12: a genuine simplex method (tree bases, dual
//!   potentials, entering-arc pricing, cycle pivots) whose per-pivot
//!   full-arc Dantzig pricing makes it roughly an order of magnitude slower
//!   than the Hungarian specialisation, as the paper observes for GLPK.
//!
//! The crate's property tests hold it to the dense reference the paper's
//! Section III-B/D argument is about: a tableau simplex with Bland's rule
//! solving the assignment LP (one variable per advertiser–slot pair), whose
//! optimum they check is integral (Chvátal) and equal to the Hungarian
//! method's. That reference is test support (`tests/support/`), not part of
//! the shipped crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod netsimplex;

pub use netsimplex::{network_simplex_assignment, NetworkSimplexSolver, NetworkSimplexStats};
