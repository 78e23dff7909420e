//! The keyword-local Figure 5 program both SQL program test binaries
//! serve — the shipped `ssa_core::sqlprog` texts the `program-sql`
//! population runs — and the host calls they make on it.

use ssa_bidlang::{Money, SlotId};
use ssa_core::sqlprog::{roi_params, ROI_PROGRAM, ROI_TABLES};
use ssa_core::{BidderOutcome, QueryContext, SqlProgram, SqlProgramBidder};

/// The Figure 5 program, compiled once for all its campaigns.
pub fn compiled() -> SqlProgram {
    SqlProgram::compile(ROI_TABLES, ROI_PROGRAM).expect("the Figure 5 program is well-formed")
}

/// The `i`-th campaign of `compiled`: its parameters vary with `i`, its
/// text does not.
pub fn program(compiled: &SqlProgram, i: i64) -> SqlProgramBidder {
    let params = roi_params(
        20 + i % 30,
        1 + i % 7,
        1.0 + (i % 5) as f64 * 0.25,
        0.5 + (i % 3) as f64,
    );
    SqlProgramBidder::new(compiled, &params).expect("the parameters fit the program")
}

/// An auction at `time` on the program's one keyword.
pub fn ctx(time: u64) -> QueryContext {
    QueryContext {
        time,
        keyword: 0,
        num_keywords: 1,
    }
}

/// A click in the first slot at 3 cents.
pub fn click() -> BidderOutcome {
    BidderOutcome {
        slot: Some(SlotId::new(1)),
        clicked: true,
        purchased: false,
        price: Money::from_cents(3),
    }
}
