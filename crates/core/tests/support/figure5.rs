//! The keyword-local Figure 5 program both SQL program test binaries
//! serve (`ssa_workload::sql::ROI_TABLES` / `ROI_PROGRAM`, which this crate
//! cannot depend on), and the host calls they make on it.

use ssa_bidlang::{Money, SlotId};
use ssa_core::{BidderOutcome, QueryContext, SqlProgramBidder};
use ssa_minidb::Params;

const TABLES: &str = "
CREATE TABLE Query (kw INT);
CREATE TABLE Outcome (clicked INT);
CREATE TABLE Keywords (text TEXT, formula TEXT, maxbid INT, roi FLOAT, bid INT, relevance FLOAT);
CREATE TABLE Bids (formula TEXT, value INT);
INSERT INTO Keywords VALUES ('kw', 'Click', :value, :roi, :bid, 1.0);
INSERT INTO Bids VALUES ('Click', 0);
SET amtSpent = 0.0;
SET spent = 0.0;
SET valueGained = 0.0;
SET clickValue = :value;
SET targetSpendRate = :rate;
";

const PROGRAM: &str = "
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent / time < targetSpendRate THEN
    UPDATE Keywords
    SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid < maxbid;
  ELSEIF amtSpent / time > targetSpendRate THEN
    UPDATE Keywords
    SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid > 0;
  ENDIF;

  UPDATE Bids
  SET value =
    ( SELECT SUM( K.bid )
      FROM Keywords K
      WHERE K.relevance > 0.7
        AND K.formula = Bids.formula );
}

CREATE TRIGGER settle AFTER INSERT ON Outcome
{
  IF clicked = 1 AND price > 0 THEN
    SET spent = spent + price;
    SET valueGained = valueGained + clickValue;
    SET amtSpent = amtSpent + price;
    UPDATE Keywords SET roi = valueGained / spent;
  ENDIF;
}
";

/// The `i`-th program: its parameters vary with `i`, its text does not.
pub fn program(i: i64) -> SqlProgramBidder {
    let params = Params::new()
        .bind("value", 20 + i % 30)
        .bind("bid", 1 + i % 7)
        .bind("roi", 1.0 + (i % 5) as f64 * 0.25)
        .bind("rate", 0.5 + (i % 3) as f64);
    SqlProgramBidder::new(TABLES, PROGRAM, &params).expect("the Figure 5 program is well-formed")
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
