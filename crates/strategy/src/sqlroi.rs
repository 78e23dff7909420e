//! The Figure 5 strategy executed as a real SQL bidding program.
//!
//! [`SqlRoiBidder`] owns a private [`Database`] holding the advertiser's
//! `Keywords` and `Bids` tables plus the trigger program, exactly as
//! Section II-B prescribes ("the bidding program can be stored with its
//! private tables to improve locality"). The host engine plays the search
//! provider: before each auction it sets the shared variables and the
//! per-keyword relevance, inserts into `Query` to fire the trigger, and
//! reads the resulting `Bids` table.
//!
//! Every host-side statement is **prepared once** at construction
//! ([`Database::prepare`]) and executed with bound parameters per round —
//! no SQL text is formatted or re-parsed on the auction hot path, and ROI
//! floats reach the database bit-exact instead of through string
//! interpolation.
//!
//! Integration tests assert that this bidder and the native
//! [`crate::RoiBidder`] emit identical bids over long auction sequences.

use ssa_bidlang::{BidsTable, Money};
use ssa_core::{Bidder, BidderOutcome, QueryContext};
use ssa_minidb::{Database, DbError, Params, Prepared, Value, NO_PARAMS};
use std::fmt;

/// Figure 5 (line 11's comparison corrected to `>`).
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
#[derive(Debug, Clone)]
pub struct SqlRoiBidder {
    db: Database,
    /// Prepared host statements (parse once, run every round).
    clear_query: Prepared,
    reset_relevance: Prepared,
    raise_relevance: Prepared,
    read_bid: Prepared,
    read_stored: Prepared,
    write_roi: Prepared,
    /// Keyword key values (`'kw{i}'`), precomputed so rounds bind instead
    /// of formatting.
    names: Vec<Value>,
    /// Click value per keyword (cents); the provider-maintained statistic
    /// used to update ROI.
    click_values: Vec<i64>,
    target_spend_rate: f64,
    amt_spent: f64,
    value_gained: Vec<f64>,
    spent_per_keyword: Vec<f64>,
    last_keyword: usize,
}

impl SqlRoiBidder {
    /// Creates the bidder's private database.
    ///
    /// `keywords[i] = (click_value, initial_bid, initial_roi)`; the formula
    /// for every keyword is `Click` and `maxbid = click_value`, mirroring
    /// [`crate::roi::KeywordEntry::new`].
    pub fn new(keywords: &[(i64, i64, f64)], target_spend_rate: f64) -> Self {
        let mut db = Database::new();
        db.run("CREATE TABLE Query (q TEXT)").unwrap();
        db.run(
            "CREATE TABLE Keywords (text TEXT, formula TEXT, maxbid INT, roi FLOAT, bid INT, \
             relevance FLOAT)",
        )
        .unwrap();
        db.run("CREATE TABLE Bids (formula TEXT, value INT)")
            .unwrap();
        let names: Vec<Value> = (0..keywords.len())
            .map(|i| Value::from(format!("kw{i}")))
            .collect();
        let mut seed_keyword = db
            .prepare("INSERT INTO Keywords VALUES (?, 'Click', ?, ?, ?, 0.0)")
            .expect("static statement parses");
        for (name, (value, bid, roi)) in names.iter().zip(keywords) {
            seed_keyword
                .execute(
                    &mut db,
                    &Params::new()
                        .push(name.clone())
                        .push(*value)
                        .push(*roi)
                        .push(*bid),
                )
                .unwrap();
        }
        db.insert("Bids", vec!["Click".into(), Value::Int(0)])
            .unwrap();
        db.run(PROGRAM).unwrap();
        let clear_query = db
            .prepare("DELETE FROM Query")
            .expect("static statement parses");
        let reset_relevance = db
            .prepare("UPDATE Keywords SET relevance = 0.0")
            .expect("static statement parses");
        let raise_relevance = db
            .prepare("UPDATE Keywords SET relevance = 1.0 WHERE text = ?")
            .expect("static statement parses");
        let read_bid = db
            .prepare("SELECT value FROM Bids WHERE formula = 'Click'")
            .expect("static statement parses");
        let read_stored = db
            .prepare("SELECT bid FROM Keywords WHERE text = ?")
            .expect("static statement parses");
        let write_roi = db
            .prepare("UPDATE Keywords SET roi = :roi WHERE text = :kw")
            .expect("static statement parses");
        // Plan the Query trigger now and build the indexes it wants (the
        // per-round host statements key on `Keywords.text` too), so no
        // auction pays planning or index-build cost.
        db.warm_plans();
        SqlRoiBidder {
            db,
            clear_query,
            reset_relevance,
            raise_relevance,
            read_bid,
            read_stored,
            write_roi,
            names,
            click_values: keywords.iter().map(|(v, _, _)| *v).collect(),
            target_spend_rate,
            amt_spent: 0.0,
            value_gained: vec![0.0; keywords.len()],
            spent_per_keyword: vec![0.0; keywords.len()],
            last_keyword: 0,
        }
    }

    fn name(&self, keyword: usize) -> Result<Value, SqlRoiError> {
        self.names
            .get(keyword)
            .cloned()
            .ok_or(SqlRoiError::UnknownKeyword {
                keyword,
                count: self.names.len(),
            })
    }

    /// Runs one auction round inside the database and returns the bid (in
    /// cents) for the query keyword.
    ///
    /// `time` is clamped to ≥ 1: the paper's clock is 1-based, and the
    /// Figure 5 trigger divides `amtSpent` by `time` — an unclamped 0
    /// would abort the program with a division-by-zero error instead of
    /// bidding.
    pub fn run_round(&mut self, keyword: usize, time: u64) -> Result<i64, SqlRoiError> {
        let name = self.name(keyword)?;
        // Provider-maintained shared variables (Section II-B).
        self.db.set_var("amtSpent", Value::Float(self.amt_spent));
        self.db.set_var("time", Value::Int(time.max(1) as i64));
        self.db
            .set_var("targetSpendRate", Value::Float(self.target_spend_rate));
        // Relevance: 1 for the query keyword, 0 elsewhere.
        self.reset_relevance.execute(&mut self.db, NO_PARAMS)?;
        self.raise_relevance
            .execute(&mut self.db, &Params::new().push(name))?;
        // The activation table is host-managed scratch: clear it so a
        // long-lived bidder's memory stays flat across rounds.
        self.clear_query.execute(&mut self.db, NO_PARAMS)?;
        self.db.insert("Query", vec!["q".into()])?;
        let rows = self.read_bid.query(&mut self.db, NO_PARAMS)?;
        let row = rows.first().ok_or(SqlRoiError::MissingBidRow)?;
        Ok(row[0].as_int()?)
    }

    /// The current stored bid for a keyword (reads the private table).
    pub fn stored_bid(&mut self, keyword: usize) -> Result<i64, SqlRoiError> {
        let name = self.name(keyword)?;
        let rows = self
            .read_stored
            .query(&mut self.db, &Params::new().push(name))?;
        let row = rows.first().ok_or(SqlRoiError::MissingBidRow)?;
        Ok(row[0].as_int()?)
    }

    /// Provider-side ROI bookkeeping after a click. The updated ROI is
    /// bound as a parameter — bit-exact, no float-to-text round trip.
    pub fn record_click(
        &mut self,
        keyword: usize,
        price: Money,
        value: f64,
    ) -> Result<(), SqlRoiError> {
        let name = self.name(keyword)?;
        self.spent_per_keyword[keyword] += price.as_f64();
        self.value_gained[keyword] += value;
        self.amt_spent += price.as_f64();
        if self.spent_per_keyword[keyword] > 0.0 {
            let roi = self.value_gained[keyword] / self.spent_per_keyword[keyword];
            self.write_roi.execute(
                &mut self.db,
                &Params::new().bind("roi", roi).bind("kw", name),
            )?;
        }
        Ok(())
    }

    /// Planner counters of the private database: shows whether rounds ran
    /// on index probes (`index_hits`) or scans (`rows_scanned`), and that
    /// plan caching converged (`plans_cached` stops growing).
    pub fn planner_stats(&self) -> ssa_minidb::PlannerStats {
        self.db.planner_stats()
    }
}

impl Bidder for SqlRoiBidder {
    fn on_query(&mut self, ctx: &QueryContext) -> BidsTable {
        self.last_keyword = ctx.keyword;
        let bid = self
            .run_round(ctx.keyword, ctx.time)
            .expect("Figure 5 program runs on its own schema");
        BidsTable::single_feature(Money::from_cents(bid))
    }

    fn on_outcome(&mut self, _ctx: &QueryContext, outcome: &BidderOutcome) {
        if outcome.clicked {
            let value = self.click_values[self.last_keyword] as f64;
            self.record_click(self.last_keyword, outcome.price, value)
                .expect("Figure 5 bookkeeping runs on its own schema");
        }
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
        gutted.db.run("DELETE FROM Bids").unwrap();
        assert_eq!(gutted.run_round(0, 1), Err(SqlRoiError::MissingBidRow));
        gutted.db.run("DELETE FROM Keywords").unwrap();
        assert_eq!(gutted.stored_bid(0), Err(SqlRoiError::MissingBidRow));
    }
}
