//! The Figure 5 strategy as a real SQL bidding program, on the production
//! host.
//!
//! [`SqlRoiBidder`] is one [`SqlProgramBidder`] — the host the marketplace
//! and the `program-sql` population run — over the advertiser's private
//! `Keywords` and `Bids` tables, with two triggers: `bid`, the very text of
//! [`ssa_core::sqlprog::ROI_BID_TRIGGER`], and `settle`, which keeps each
//! keyword's spend, value and ROI, plus `amtSpent`, in SQL exactly as
//! [`crate::RoiBidder::record_click`] does in Rust. The provider's own
//! steps, through [`SqlProgramBidder::db_mut`], are the relevance write
//! before a round and publishing the clicked `keyword` and its
//! `clickValue` before settling. Every value is bound, never formatted into
//! SQL, so ROI floats stay bit-exact; integration tests hold the bidder to
//! the native [`crate::RoiBidder`] bid for bid.

use ssa_bidlang::Money;
use ssa_core::sqlprog::ROI_BID_TRIGGER;
use ssa_core::{
    Bidder, BidderOutcome, QueryContext, SqlProgram, SqlProgramBidder, SqlProgramError,
};
use ssa_minidb::{DbError, Params, Prepared, Value};
use std::fmt;

/// The multi-keyword schema and spend state; one [`KEYWORD_ROW`] per
/// keyword follows it.
const TABLES: &str = "
CREATE TABLE Query (kw INT);
CREATE TABLE Outcome (clicked INT);
CREATE TABLE Keywords (kw INT, formula TEXT, maxbid INT, roi FLOAT, bid INT, relevance FLOAT, spent FLOAT, gained FLOAT);
CREATE TABLE Bids (formula TEXT, value INT);
INSERT INTO Bids VALUES ('Click', 0);
SET amtSpent = 0.0;
SET targetSpendRate = :rate;
";

/// One keyword's row, bound as (index, click value = `maxbid`, ROI, bid).
const KEYWORD_ROW: &str = "INSERT INTO Keywords VALUES (?, 'Click', ?, ?, ?, 0.0, 0.0, 0.0);\n";

/// Per-keyword ROI settlement of a click on `keyword` worth `clickValue`.
const SETTLE: &str = "
CREATE TRIGGER settle AFTER INSERT ON Outcome
{
  IF clicked = 1 THEN
    UPDATE Keywords SET spent = spent + price, gained = gained + clickValue
    WHERE kw = keyword;
    UPDATE Keywords SET roi = gained / spent WHERE kw = keyword AND spent > 0;
    SET amtSpent = amtSpent + price;
  ENDIF;
}
";

/// Errors surfaced by the [`SqlRoiBidder`] host API.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlRoiError {
    /// The embedded database rejected a statement.
    Db(DbError),
    /// A keyword index outside the bidder's universe.
    UnknownKeyword {
        /// The requested keyword.
        keyword: usize,
        /// Keywords the bidder was built with.
        count: usize,
    },
    /// A query that should produce the bid produced no rows (e.g. the
    /// `Bids` table was emptied by a host-side mutation).
    MissingBidRow,
}

impl fmt::Display for SqlRoiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlRoiError::Db(e) => write!(f, "SQL ROI program failed: {e}"),
            SqlRoiError::UnknownKeyword { keyword, count } => {
                write!(
                    f,
                    "keyword {keyword} outside the bidder's universe of {count}"
                )
            }
            SqlRoiError::MissingBidRow => f.write_str("the Bids table has no row for the bid"),
        }
    }
}

impl std::error::Error for SqlRoiError {}

impl From<DbError> for SqlRoiError {
    fn from(e: DbError) -> Self {
        SqlRoiError::Db(e)
    }
}

/// A bidder whose strategy runs inside the SQL engine.
#[derive(Debug)]
pub struct SqlRoiBidder {
    program: SqlProgramBidder,
    /// The provider's relevance write: 1 for the bound keyword, 0
    /// elsewhere.
    relevance: Prepared,
    /// One keyword's stored bid.
    read_stored: Prepared,
    /// Keywords the bidder was built with.
    keywords: usize,
}

impl SqlRoiBidder {
    /// Assembles the bidder's program.
    ///
    /// `keywords[i] = (click_value, initial_bid, initial_roi)`; the formula
    /// for every keyword is `Click` and `maxbid = click_value`, mirroring
    /// [`crate::roi::KeywordEntry::new`].
    // Invariant: every script is static text and every value is bound.
    #[allow(clippy::expect_used)]
    pub fn new(keywords: &[(i64, i64, f64)], target_spend_rate: f64) -> Self {
        Self::assemble(keywords, target_spend_rate).expect("the Figure 5 program is well-formed")
    }

    fn assemble(
        keywords: &[(i64, i64, f64)],
        target_spend_rate: f64,
    ) -> Result<Self, SqlProgramError> {
        let tables = format!("{TABLES}{}", KEYWORD_ROW.repeat(keywords.len()));
        let mut params = Params::new().bind("rate", target_spend_rate);
        for (kw, &(value, bid, roi)) in keywords.iter().enumerate() {
            params = params.push(kw as i64).push(value).push(roi).push(bid);
        }
        // The table text depends on the keyword count, so each bidder
        // compiles its own program.
        let compiled = SqlProgram::compile(&tables, &[ROI_BID_TRIGGER, SETTLE].concat())?;
        let mut program = SqlProgramBidder::new(&compiled, &params)?;
        let db = program.db_mut();
        let mut relevance = db.prepare(
            "UPDATE Keywords SET relevance = 0.0; UPDATE Keywords SET relevance = 1.0 WHERE kw = ?",
        )?;
        let mut read_stored = db.prepare("SELECT bid FROM Keywords WHERE kw = ?")?;
        // Plan now, so no round pays planning or index-build cost.
        relevance.warm(db);
        read_stored.warm(db);
        Ok(SqlRoiBidder {
            program,
            relevance,
            read_stored,
            keywords: keywords.len(),
        })
    }

    /// The `kw` key of a keyword in the bidder's universe.
    fn key(&self, keyword: usize) -> Result<Value, SqlRoiError> {
        if keyword < self.keywords {
            Ok(Value::Int(keyword as i64))
        } else {
            Err(SqlRoiError::UnknownKeyword {
                keyword,
                count: self.keywords,
            })
        }
    }

    fn context(&self, keyword: usize, time: u64) -> QueryContext {
        QueryContext {
            time,
            keyword,
            num_keywords: self.keywords,
        }
    }

    /// The program's first error, if any (it bids nothing from then on).
    fn check(&self) -> Result<(), SqlRoiError> {
        match self.program.last_error() {
            Some(e) => Err(SqlRoiError::Db(e.clone())),
            None => Ok(()),
        }
    }

    /// Runs one auction round inside the database and returns the bid (in
    /// cents) for the query keyword.
    ///
    /// `time` is clamped to ≥ 1: the paper's clock is 1-based, and the
    /// Figure 5 trigger divides `amtSpent` by `time` — an unclamped 0
    /// would abort the program with a division-by-zero error instead of
    /// bidding.
    pub fn run_round(&mut self, keyword: usize, time: u64) -> Result<i64, SqlRoiError> {
        let key = self.key(keyword)?;
        self.relevance
            .execute(self.program.db_mut(), &Params::new().push(key))?;
        let bids = self.program.on_query(&self.context(keyword, time.max(1)));
        self.check()?;
        let row = bids.rows().first().ok_or(SqlRoiError::MissingBidRow)?;
        Ok(row.value.cents())
    }

    /// The current stored bid for a keyword (reads the private table).
    pub fn stored_bid(&mut self, keyword: usize) -> Result<i64, SqlRoiError> {
        let key = self.key(keyword)?;
        let rows = self
            .read_stored
            .query(self.program.db_mut(), &Params::new().push(key))?;
        let row = rows.first().ok_or(SqlRoiError::MissingBidRow)?;
        Ok(row[0].as_int()?)
    }

    /// Provider-side ROI bookkeeping after a click charged `price` and
    /// worth `value` to the advertiser: the `settle` trigger does it in
    /// SQL, with `value` bound bit-exact.
    pub fn record_click(
        &mut self,
        keyword: usize,
        price: Money,
        value: f64,
    ) -> Result<(), SqlRoiError> {
        let key = self.key(keyword)?;
        let db = self.program.db_mut();
        db.set_var("keyword", key);
        db.set_var("clickValue", Value::Float(value));
        // The settlement reads neither the clock nor the slot.
        let click = BidderOutcome {
            slot: None,
            clicked: true,
            purchased: false,
            price,
        };
        self.program.on_outcome(&self.context(keyword, 0), &click);
        self.check()
    }

    /// Planner counters of the private database: shows whether rounds ran
    /// on index probes (`index_hits`) or scans (`rows_scanned`), and that
    /// plan caching converged (`plans_cached` stops growing).
    pub fn planner_stats(&self) -> ssa_minidb::PlannerStats {
        self.program.planner_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roi::{KeywordEntry, RoiBidder};

    #[test]
    fn sql_round_matches_native_bid() {
        let spec = [(5i64, 4i64, 2.0f64), (6, 8, 1.0)];
        let mut sql = SqlRoiBidder::new(&spec, 1.0);
        let mut native = RoiBidder::new(
            spec.iter()
                .map(|&(v, b, r)| KeywordEntry::new(v, b, r))
                .collect(),
            1.0,
        );
        for t in 1..=20u64 {
            let kw = (t % 2) as usize;
            let sql_bid = sql.run_round(kw, t).expect("in-range keyword");
            let native_bid = native.adjust_and_bid(kw, t);
            assert_eq!(sql_bid, native_bid, "divergence at t={t} kw={kw}");
        }
    }

    #[test]
    fn sql_strategy_tracks_wins() {
        let spec = [(10i64, 2i64, 1.0f64), (10, 3, 1.0)];
        let mut sql = SqlRoiBidder::new(&spec, 0.5);
        let mut native = RoiBidder::new(
            spec.iter()
                .map(|&(v, b, r)| KeywordEntry::new(v, b, r))
                .collect(),
            0.5,
        );
        for t in 1..=30u64 {
            let kw = (t % 2) as usize;
            let (sb, nb) = (
                sql.run_round(kw, t).expect("in-range keyword"),
                native.adjust_and_bid(kw, t),
            );
            assert_eq!(sb, nb, "pre-win divergence at t={t}");
            // Simulate a click charged at half the bid every 5th auction.
            if t % 5 == 0 && sb > 0 {
                let price = Money::from_cents(sb / 2 + 1);
                sql.record_click(kw, price, 10.0).expect("in-range keyword");
                native.record_click(kw, price, 10.0);
            }
        }
    }

    #[test]
    fn settle_trigger_keeps_the_native_bookkeeping() {
        let spec = [(5i64, 4i64, 2.0f64), (6, 8, 1.0)];
        let mut sql = SqlRoiBidder::new(&spec, 1.0);
        let mut native = RoiBidder::new(
            spec.iter()
                .map(|&(v, b, r)| KeywordEntry::new(v, b, r))
                .collect(),
            1.0,
        );
        // Zero-priced clicks included: `record_click` settles what it is
        // given, in SQL as in Rust.
        for (kw, cents, value) in [(1, 3, 7.5), (0, 0, 5.0), (1, 2, 0.25), (0, 4, 5.0)] {
            let price = Money::from_cents(cents);
            sql.record_click(kw, price, value)
                .expect("in-range keyword");
            native.record_click(kw, price, value);
        }
        let db = sql.program.db_mut();
        let rows = db.query("SELECT spent, gained, roi FROM Keywords").unwrap();
        for (row, entry) in rows.iter().zip(&native.keywords) {
            let floats: Vec<f64> = row.iter().map(|v| v.as_f64().unwrap()).collect();
            assert_eq!(floats, [entry.spent, entry.value_gained, entry.roi]);
        }
        assert_eq!(db.var("amtSpent"), Some(&Value::Float(native.amt_spent)));
    }

    #[test]
    fn stored_bid_visible() {
        let mut sql = SqlRoiBidder::new(&[(5, 4, 2.0)], 1.0);
        assert_eq!(sql.stored_bid(0).unwrap(), 4);
        sql.run_round(0, 1).expect("in-range keyword"); // underspending → 5
        assert_eq!(sql.stored_bid(0).unwrap(), 5);
    }

    #[test]
    fn time_zero_is_clamped_not_a_panic() {
        // Regression: `run_round(kw, 0)` used to hit `amtSpent / time` →
        // DivisionByZero inside the trigger and abort via unwrap. The clock
        // is 1-based; 0 now behaves exactly like 1.
        let spec = [(5i64, 4i64, 2.0f64)];
        let mut at_zero = SqlRoiBidder::new(&spec, 1.0);
        let mut at_one = SqlRoiBidder::new(&spec, 1.0);
        assert_eq!(
            at_zero.run_round(0, 0).expect("clamped"),
            at_one.run_round(0, 1).expect("in-range keyword")
        );
    }

    #[test]
    fn out_of_range_and_missing_rows_are_typed_errors() {
        let mut sql = SqlRoiBidder::new(&[(5, 4, 2.0)], 1.0);
        assert_eq!(
            sql.run_round(7, 1),
            Err(SqlRoiError::UnknownKeyword {
                keyword: 7,
                count: 1
            })
        );
        assert_eq!(
            sql.stored_bid(7),
            Err(SqlRoiError::UnknownKeyword {
                keyword: 7,
                count: 1
            })
        );
        assert_eq!(
            sql.record_click(7, Money::from_cents(1), 5.0),
            Err(SqlRoiError::UnknownKeyword {
                keyword: 7,
                count: 1
            })
        );
        // Regression: an empty Bids table is an error value, not an
        // `rows[0][0]` panic.
        let mut gutted = SqlRoiBidder::new(&[(5, 4, 2.0)], 1.0);
        gutted.program.db_mut().run("DELETE FROM Bids").unwrap();
        assert_eq!(gutted.run_round(0, 1), Err(SqlRoiError::MissingBidRow));
        gutted.program.db_mut().run("DELETE FROM Keywords").unwrap();
        assert_eq!(gutted.stored_bid(0), Err(SqlRoiError::MissingBidRow));
    }
}
