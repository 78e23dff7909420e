//! # ssa-strategy — dynamic bidding strategies
//!
//! Section II-C's ROI-equalising heuristic and Section IV-B's logical
//! update machinery:
//!
//! * [`roi`] — a native Rust implementation of the paper's Figure 5
//!   "Equalize ROI" program, exposed as a [`ssa_core::Bidder`];
//! * [`sqlroi`] — the *same* strategy as an actual SQL bidding program on
//!   the production host, [`ssa_core::SqlProgramBidder`]: Figure 5's bid
//!   trigger as the marketplace runs it plus a per-keyword settlement
//!   trigger, with no host of its own; integration tests prove the two
//!   agree bid-for-bid;
//! * [`logical`] — adjustment lists: sorted bid lists whose members all
//!   move by the same amount per auction, so one `O(1)` update to a shared
//!   adjustment variable replaces `n` individual bid updates;
//! * [`population`] — a population of ROI bidders maintained *entirely*
//!   through logical updates and critical-value triggers (the RHTALU
//!   evaluation path of Section V), plus the naive full-evaluation twin it
//!   is tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod logical;
pub mod population;
pub mod roi;
pub mod sqlroi;

pub use logical::{AdjustmentList, ListKind, LogicalBids, ProgramId};
pub use population::{LogicalRoiPopulation, NaiveRoiPopulation, RoiBidderParams, RoiPopulation};
pub use roi::{KeywordEntry, RoiBidder};
pub use sqlroi::{SqlRoiBidder, SqlRoiError};
