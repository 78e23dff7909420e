//! SQL bidding programs as first-class campaign programs.
//!
//! Section II-B of the paper makes *SQL bidding programs* the expressive
//! core of the system: advertisers submit "simple SQL updates without
//! recursion and side-effects", activated by triggers when an auction
//! begins, reading provider-maintained shared variables and emitting a
//! Bids table. [`SqlProgramBidder`] is that contract executed for real by
//! the [`ssa_minidb`] engine, packaged as a [`crate::Bidder`] so a SQL
//! program can be registered on a [`crate::marketplace::Marketplace`] via
//! [`crate::marketplace::CampaignSpec::sql_program`] like any other
//! campaign — and migrate to shard worker threads (`SqlProgramBidder` is
//! `Send`).
//!
//! # The host protocol
//!
//! The advertiser supplies two scripts:
//!
//! * **`tables`** — schema and initial data. It must create a
//!   single-column `Query` table (the trigger activation channel) and a
//!   `Bids` table whose first two columns are the formula text and the bid
//!   value in cents. An optional single-column `Outcome` table opts into
//!   post-auction settlement notifications. The script is executed once at
//!   construction through the prepared-statement layer, so `?`/`:name`
//!   placeholders in it are bound from the `params` argument — numeric
//!   initial state round-trips exactly instead of being string-formatted.
//! * **`program`** — the bidding program proper, normally `CREATE
//!   TRIGGER … AFTER INSERT ON Query { … }` (and, if settlement matters,
//!   a second trigger on `Outcome`).
//!
//! Programs are "simple SQL updates without recursion and side-effects":
//! that is minidb's parse rule. A trigger body may hold only `UPDATE`,
//! `DELETE`, `SET`, `IF` and `SELECT`, so [`SqlProgramBidder::new`] refuses
//! a script installing any other before running anything, with
//! [`DbError::TriggerBody`] naming the statement and the trigger. Triggers
//! fire only on `INSERT`, so no trigger fires another.
//!
//! Per auction the host (the marketplace engine) then:
//!
//! 1. sets the shared variables `time` (the global auction clock) and
//!    `keyword` (the queried keyword's index),
//! 2. clears `Query` and inserts the keyword index into it — firing the
//!    program with exactly one fresh activation row (activation tables
//!    are host-managed scratch, cleared between auctions so long-lived
//!    campaigns stay memory-flat) —
//! 3. reads `SELECT` of the `Bids` table and submits one bid row per
//!    `(formula, value)` pair (formula texts are parsed once and cached).
//!
//! After the auction resolves, if `Outcome` exists, the host sets the
//! shared variables `slot` (1-based slot won, 0 if none), `clicked`,
//! `purchased` (0/1), and `price` (cents charged) and inserts `clicked`
//! into `Outcome` — firing the settlement trigger, which can keep ROI
//! statistics entirely in SQL.
//!
//! # One compiled program, many campaigns
//!
//! Registering the same `tables`/`program` text for another campaign costs
//! that campaign's rows, indexes and variable values, 16 bytes a value, and
//! nothing else: the scripts are interned by [`ssa_minidb`] (parsed once
//! per distinct text, and every program holds its two, so a text stays
//! compiled while any campaign runs it), the installed triggers are the
//! ones the interned script owns, names included, the three host
//! statements above are prepared from fixed texts, the catalog — table
//! names and column lists — is the interned *shape* all programs built
//! from one `tables` script have in common, every lowered plan holds that
//! shape, and the variable names (`time`, `price`, …) are one interned
//! list. A Figure 5 program costs about 0.95 KB resident built and 1.16 KB
//! once it has served (`tests/sqlprog_footprint.rs`).
//! [`SqlProgramBidder::new`] plans (or adopts) all of it — trigger bodies
//! and host statements — so registration, not the first auction, pays for
//! planning.
//!
//! A program that errors mid-auction (type error, overflow, deleted
//! tables, …) submits **no bids** from that auction on: defective
//! programs are excluded from the matching rather than taking the
//! marketplace down. The first error is retained in
//! [`SqlProgramBidder::last_error`] for diagnosis.

use crate::bidder::{Bidder, BidderOutcome, QueryContext};
use ssa_bidlang::{parse_formula, BidsTable, Formula, Money};
use ssa_minidb::{Database, DbError, Params, Prepared, Text, Value, NO_PARAMS};
use std::fmt;

/// Why a pair of scripts could not be assembled into a
/// [`SqlProgramBidder`].
#[derive(Debug, Clone, PartialEq)]
pub enum SqlProgramError {
    /// A script failed to parse or execute.
    Db(DbError),
    /// The `tables` script did not create a required table.
    MissingTable(&'static str),
    /// `Query`/`Outcome` must have exactly one column (the host inserts a
    /// single activation value).
    ActivationArity {
        /// The offending table.
        table: &'static str,
        /// Columns it was declared with.
        got: usize,
    },
    /// `Bids` needs at least a formula column and a value column.
    BidsArity {
        /// Columns it was declared with.
        got: usize,
    },
}

impl fmt::Display for SqlProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlProgramError::Db(e) => write!(f, "SQL program rejected: {e}"),
            SqlProgramError::MissingTable(t) => {
                write!(f, "the tables script must create a {t} table")
            }
            SqlProgramError::ActivationArity { table, got } => write!(
                f,
                "{table} must have exactly one column (the host's activation value), found {got}"
            ),
            SqlProgramError::BidsArity { got } => write!(
                f,
                "Bids must have at least two columns (formula, value), found {got}"
            ),
        }
    }
}

impl std::error::Error for SqlProgramError {}

impl From<DbError> for SqlProgramError {
    fn from(e: DbError) -> Self {
        SqlProgramError::Db(e)
    }
}

/// A Section II-B SQL bidding program executing inside its own private
/// [`Database`], speaking the host protocol described in the
/// [module docs](crate::sqlprog).
pub struct SqlProgramBidder {
    db: Database,
    /// The `tables` and `program` scripts. Nothing executes them again;
    /// they are held so the next campaign registering the same texts finds
    /// them still interned — and installs these very trigger bodies —
    /// instead of parsing its own.
    _scripts: [Prepared; 2],
    /// `SELECT` of the first two Bids columns — prepared once.
    read_bids: Prepared,
    /// Clears the activation tables between auctions so a long-lived
    /// campaign's memory stays flat (prepared once each).
    clear_query: Prepared,
    /// `Some` exactly when the program opted into settlement via an
    /// `Outcome` table.
    clear_outcome: Option<Prepared>,
    /// Formula text → parsed formula, in first-seen order. Programs emit a
    /// small, stable set of formulas (Figure 5 emits one), so a linear
    /// search beats a hash map's buckets; parsing each text once keeps the
    /// hot path free of the formula parser.
    formulas: Vec<(Text, Formula)>,
    /// First execution error, if any; once set the program bids nothing.
    error: Option<Box<DbError>>,
}

impl SqlProgramBidder {
    /// Assembles a program: parses both scripts (which refuses a trigger
    /// body breaking the program contract), runs `tables` (with `params`
    /// bound through the prepared-statement layer), then `program`, then
    /// validates the host protocol's table contract.
    pub fn new(tables: &str, program: &str, params: &Params) -> Result<Self, SqlProgramError> {
        let mut db = Database::new();
        let mut tables = db.prepare(tables)?;
        let mut program = db.prepare(program)?;
        tables.execute(&mut db, params)?;
        program.execute(&mut db, NO_PARAMS)?;
        let columns = |table| db.table(table).map(|t| t.schema().len());
        // `Query` and `Outcome` hold one activation value, if they exist.
        let activation = |table: &'static str| match columns(table) {
            Ok(got) if got != 1 => Err(SqlProgramError::ActivationArity { table, got }),
            found => Ok(found.is_ok()),
        };
        if !activation("Query")? {
            return Err(SqlProgramError::MissingTable("Query"));
        }
        match columns("Bids") {
            Err(_) => return Err(SqlProgramError::MissingTable("Bids")),
            Ok(got) if got < 2 => return Err(SqlProgramError::BidsArity { got }),
            Ok(_) => {}
        }
        let has_outcome = activation("Outcome")?;
        let mut read_bids = db.prepare("SELECT * FROM Bids")?;
        let mut clear_query = db.prepare("DELETE FROM Query")?;
        let mut clear_outcome = has_outcome
            .then(|| db.prepare("DELETE FROM Outcome"))
            .transpose()?;
        // Lower every trigger body and host statement to a plan (and build
        // the indexes those plans ask for) now, so registration — not the
        // first auction — pays for planning. For every program after the
        // first of its text and schema this adopts the plans already there.
        db.warm_plans();
        for statement in [&mut read_bids, &mut clear_query]
            .into_iter()
            .chain(&mut clear_outcome)
        {
            statement.warm(&mut db);
        }
        Ok(SqlProgramBidder {
            db,
            _scripts: [tables, program],
            read_bids,
            clear_query,
            clear_outcome,
            formulas: Vec::new(),
            error: None,
        })
    }

    /// The program's private database — the host-side escape hatch for
    /// inspecting (or, in tests, perturbing) program state.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Read-only view of the program's private database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Planner counters of the program's private database — exposes
    /// whether trigger executions ran on index probes or full scans.
    pub fn planner_stats(&self) -> ssa_minidb::PlannerStats {
        self.db.planner_stats()
    }

    /// The first error the program hit at auction time, if any. A failed
    /// program stops bidding (it submits empty tables) but stays
    /// registered.
    pub fn last_error(&self) -> Option<&DbError> {
        self.error.as_deref()
    }

    /// Runs one auction round: publish shared variables, fire the Query
    /// trigger, read the Bids table.
    fn round(&mut self, ctx: &QueryContext) -> Result<BidsTable, DbError> {
        self.db.set_var("time", Value::Int(ctx.time as i64));
        self.db.set_var("keyword", Value::Int(ctx.keyword as i64));
        // Each auction starts from a clean activation table: the trigger
        // sees exactly one fresh Query row, and a campaign serving millions
        // of auctions does not accumulate rows.
        self.clear_query.execute(&mut self.db, NO_PARAMS)?;
        self.db
            .insert("Query", vec![Value::Int(ctx.keyword as i64)])?;
        let rows = self.read_bids.query(&mut self.db, NO_PARAMS)?;
        let mut bids = Vec::with_capacity(rows.len());
        for row in rows {
            // Re-check the row shape on every read: the host can reshape
            // Bids through `db_mut`, and a defective program must surface
            // a typed error (and bid nothing), never a panic.
            if row.len() < 2 {
                return Err(DbError::Type(format!(
                    "Bids rows need (formula, value), found {} column(s)",
                    row.len()
                )));
            }
            let text = row[0].as_text()?;
            let formula = match self.formulas.iter().find(|(seen, _)| seen.as_str() == text) {
                Some((_, f)) => f.clone(),
                None => {
                    let parsed = parse_formula(text)
                        .map_err(|e| DbError::Type(format!("bad bid formula {text:?}: {e}")))?;
                    if self.formulas.capacity() == 0 {
                        self.formulas.reserve_exact(1);
                    }
                    self.formulas.push((Text::from(text), parsed.clone()));
                    parsed
                }
            };
            // A negative bid is a defective program, not a bid table
            // invariant to trip over on the serving thread.
            let cents = row[1].as_int()?;
            if cents < 0 {
                return Err(DbError::Type(format!(
                    "Bids value must be non-negative cents, found {cents}"
                )));
            }
            bids.push((formula, Money::from_cents(cents)));
        }
        Ok(BidsTable::new(bids))
    }

    /// Publishes the auction outcome and fires the settlement trigger.
    fn settle(&mut self, outcome: &BidderOutcome) -> Result<(), DbError> {
        let clicked = i64::from(outcome.clicked);
        self.db.set_var(
            "slot",
            Value::Int(outcome.slot.map(|s| s.position() as i64).unwrap_or(0)),
        );
        self.db.set_var("clicked", Value::Int(clicked));
        self.db
            .set_var("purchased", Value::Int(i64::from(outcome.purchased)));
        self.db.set_var("price", Value::Int(outcome.price.cents()));
        if let Some(clear) = &mut self.clear_outcome {
            clear.execute(&mut self.db, NO_PARAMS)?;
        }
        self.db.insert("Outcome", vec![Value::Int(clicked)])
    }
}

impl Bidder for SqlProgramBidder {
    fn on_query(&mut self, ctx: &QueryContext) -> BidsTable {
        if self.error.is_some() {
            return BidsTable::empty();
        }
        match self.round(ctx) {
            Ok(bids) => bids,
            Err(e) => {
                self.error = Some(Box::new(e));
                BidsTable::empty()
            }
        }
    }

    fn on_outcome(&mut self, _ctx: &QueryContext, outcome: &BidderOutcome) {
        if self.clear_outcome.is_none() || self.error.is_some() {
            return;
        }
        if let Err(e) = self.settle(outcome) {
            self.error = Some(Box::new(e));
        }
    }
}

impl fmt::Debug for SqlProgramBidder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SqlProgramBidder")
            .field("tables", &self.db.table_names())
            .field("has_outcome", &self.clear_outcome.is_some())
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_bidlang::SlotId;

    const TABLES: &str = "
        CREATE TABLE Query (kw INT);
        CREATE TABLE Bids (formula TEXT, value INT);
        INSERT INTO Bids VALUES ('Click', :start);
    ";

    const PROGRAM: &str = "
        CREATE TRIGGER bid AFTER INSERT ON Query
        {
          UPDATE Bids SET value = value + 1;
        }
    ";

    fn ctx(time: u64) -> QueryContext {
        QueryContext {
            time,
            keyword: 0,
            num_keywords: 1,
        }
    }

    #[test]
    fn fires_the_trigger_and_reads_bids() {
        let mut b =
            SqlProgramBidder::new(TABLES, PROGRAM, &Params::new().bind("start", 7)).unwrap();
        let bids = b.on_query(&ctx(1));
        assert_eq!(bids.len(), 1);
        assert_eq!(bids.rows()[0].formula, Formula::click());
        assert_eq!(bids.rows()[0].value, Money::from_cents(8));
        assert_eq!(b.on_query(&ctx(2)).rows()[0].value, Money::from_cents(9));
        assert!(b.last_error().is_none());
    }

    #[test]
    fn shared_variables_are_visible() {
        let program = "
            CREATE TRIGGER bid AFTER INSERT ON Query
            { UPDATE Bids SET value = time * 10 + keyword; }
        ";
        let mut b =
            SqlProgramBidder::new(TABLES, program, &Params::new().bind("start", 0)).unwrap();
        let bids = b.on_query(&QueryContext {
            time: 4,
            keyword: 2,
            num_keywords: 3,
        });
        assert_eq!(bids.rows()[0].value, Money::from_cents(42));
    }

    #[test]
    fn settlement_trigger_sees_the_outcome() {
        let tables = "
            CREATE TABLE Query (kw INT);
            CREATE TABLE Bids (formula TEXT, value INT);
            CREATE TABLE Outcome (clicked INT);
            CREATE TABLE Spend (total INT);
            INSERT INTO Bids VALUES ('Click', 5);
            INSERT INTO Spend VALUES (0);
        ";
        let program = "
            CREATE TRIGGER settle AFTER INSERT ON Outcome
            {
              IF clicked = 1 THEN
                UPDATE Spend SET total = total + price;
              ENDIF;
            }
        ";
        let mut b = SqlProgramBidder::new(tables, program, &Params::new()).unwrap();
        b.on_query(&ctx(1));
        b.on_outcome(
            &ctx(1),
            &BidderOutcome {
                slot: Some(SlotId::new(1)),
                clicked: true,
                purchased: false,
                price: Money::from_cents(3),
            },
        );
        b.on_outcome(&ctx(2), &BidderOutcome::lost());
        assert_eq!(
            b.db_mut().query("SELECT total FROM Spend").unwrap()[0][0],
            Value::Int(3)
        );
    }

    #[test]
    fn defective_programs_bid_nothing_but_stay_up() {
        // The program divides by a value that reaches zero: from the first
        // failing auction on, the bidder submits empty tables.
        let tables = "
            CREATE TABLE Query (kw INT);
            CREATE TABLE Bids (formula TEXT, value INT);
            INSERT INTO Bids VALUES ('Click', 6);
        ";
        let program = "
            CREATE TRIGGER bid AFTER INSERT ON Query
            { UPDATE Bids SET value = value / (3 - time); }
        ";
        let mut b = SqlProgramBidder::new(tables, program, &Params::new()).unwrap();
        assert_eq!(b.on_query(&ctx(1)).len(), 1); // 6 / 2 = 3
        assert_eq!(b.on_query(&ctx(2)).len(), 1); // 3 / 1 = 3
        assert!(b.on_query(&ctx(3)).is_empty(), "division by zero");
        assert_eq!(b.last_error(), Some(&DbError::DivisionByZero));
        assert!(b.on_query(&ctx(4)).is_empty(), "stays excluded");
    }

    #[test]
    fn activation_tables_stay_flat_across_auctions() {
        let tables = "
            CREATE TABLE Query (kw INT);
            CREATE TABLE Outcome (clicked INT);
            CREATE TABLE Bids (formula TEXT, value INT);
            INSERT INTO Bids VALUES ('Click', 5);
        ";
        let mut b = SqlProgramBidder::new(tables, "", &Params::new()).unwrap();
        for t in 1..=50 {
            b.on_query(&ctx(t));
            b.on_outcome(&ctx(t), &BidderOutcome::lost());
        }
        assert_eq!(b.db().table("Query").unwrap().len(), 1);
        assert_eq!(b.db().table("Outcome").unwrap().len(), 1);
    }

    #[test]
    fn a_program_that_reshapes_bids_errors_instead_of_panicking() {
        // A trigger body that would drop and recreate Bids with too few
        // columns is refused as minidb parses it, at registration, before
        // either script runs.
        let tables = "
            CREATE TABLE Query (kw INT);
            CREATE TABLE Bids (formula TEXT, value INT);
            INSERT INTO Bids VALUES ('Click', 5);
        ";
        let program = "
            CREATE TRIGGER sabotage AFTER INSERT ON Query
            {
              DROP TABLE Bids;
              CREATE TABLE Bids (formula TEXT);
              INSERT INTO Bids VALUES ('Click');
            }
        ";
        assert_eq!(
            SqlProgramBidder::new(tables, program, &Params::new()).unwrap_err(),
            SqlProgramError::Db(DbError::TriggerBody {
                trigger: "sabotage".to_string(),
                statement: "DROP TABLE Bids".to_string(),
                position: program.find("DROP").unwrap(),
            })
        );
        // The host can still reshape Bids: a typed error, no bids, no panic.
        let mut b = SqlProgramBidder::new(tables, "", &Params::new()).unwrap();
        b.db_mut()
            .run("DROP TABLE Bids; CREATE TABLE Bids (formula TEXT)")
            .unwrap();
        b.db_mut().run("INSERT INTO Bids VALUES ('Click')").unwrap();
        assert!(b.on_query(&ctx(1)).is_empty());
        assert!(matches!(b.last_error(), Some(DbError::Type(_))));
        assert!(b.on_query(&ctx(2)).is_empty(), "stays excluded");
    }

    #[test]
    fn a_trigger_that_grows_its_own_table_is_refused_at_registration() {
        let tables = "
            CREATE TABLE Query (kw INT);
            CREATE TABLE Bids (formula TEXT, value INT);
            CREATE TABLE Log (t INT, n INT);
            INSERT INTO Bids VALUES ('Click', 5);
        ";
        let probe = "
            CREATE TRIGGER bid AFTER INSERT ON Query
            {
              INSERT INTO Log VALUES (time, 0);
              UPDATE Log SET n = n + 1;
              UPDATE Bids SET value = value + 1;
            }
        ";
        let err = SqlProgramBidder::new(tables, probe, &Params::new()).unwrap_err();
        assert!(matches!(
            &err,
            SqlProgramError::Db(DbError::TriggerBody { trigger, statement, .. })
                if trigger == "bid" && statement == "INSERT INTO Log"
        ));
        assert!(
            err.to_string()
                .starts_with("SQL program rejected: INSERT INTO Log at byte "),
            "{err}"
        );
        // Behind IF blocks, in either script, it is found all the same.
        let hidden = "
            IF 1 = 1 THEN
              CREATE TRIGGER bid AFTER INSERT ON Query
              { IF time > 0 THEN INSERT INTO Log VALUES (time, 0); ENDIF; }
            ENDIF
        ";
        for (tables, program) in [(tables, hidden), (&format!("{tables} {hidden}"), "")] {
            assert!(matches!(
                SqlProgramBidder::new(tables, program, &Params::new()),
                Err(SqlProgramError::Db(DbError::TriggerBody { trigger, statement, .. }))
                    if trigger == "bid" && statement == "INSERT INTO Log"
            ));
        }
    }

    #[test]
    fn protocol_violations_are_typed_errors() {
        assert_eq!(
            SqlProgramBidder::new(
                "CREATE TABLE Bids (formula TEXT, value INT)",
                "",
                &Params::new()
            )
            .unwrap_err(),
            SqlProgramError::MissingTable("Query")
        );
        assert_eq!(
            SqlProgramBidder::new("CREATE TABLE Query (a INT, b INT)", "", &Params::new())
                .unwrap_err(),
            SqlProgramError::ActivationArity {
                table: "Query",
                got: 2
            }
        );
        assert_eq!(
            SqlProgramBidder::new(
                "CREATE TABLE Query (kw INT); CREATE TABLE Bids (formula TEXT)",
                "",
                &Params::new()
            )
            .unwrap_err(),
            SqlProgramError::BidsArity { got: 1 }
        );
        assert!(matches!(
            SqlProgramBidder::new("CREATE SOMETHING", "", &Params::new()),
            Err(SqlProgramError::Db(DbError::Parse { .. }))
        ));
        // Error text is readable.
        let err: Box<dyn std::error::Error> = Box::new(SqlProgramError::MissingTable("Bids"));
        assert!(err.to_string().contains("Bids"));
    }

    #[test]
    fn duplicate_column_names_are_refused_at_registration() {
        // Column names are case-insensitive, so `a` and `A` collide. Both
        // scripts are parsed when the program registers, so a `program`
        // script that would create such a table is refused there too,
        // before either script runs.
        let duplicate = SqlProgramError::Db(DbError::DuplicateColumn("A".to_string()));
        let tables = "
            CREATE TABLE Query (kw INT);
            CREATE TABLE Bids (formula TEXT, value INT);
            CREATE TABLE Stats (a INT, A INT);
        ";
        assert_eq!(
            SqlProgramBidder::new(tables, "", &Params::new()).unwrap_err(),
            duplicate
        );
        let program = "
            CREATE TABLE Scratch (a INT, A INT);
            CREATE TRIGGER bid AFTER INSERT ON Query { UPDATE Bids SET value = 1; }
        ";
        assert_eq!(
            SqlProgramBidder::new(TABLES, program, &Params::new().bind("start", 1)).unwrap_err(),
            duplicate
        );
    }

    #[test]
    fn bad_formula_text_disables_the_program() {
        let tables = "
            CREATE TABLE Query (kw INT);
            CREATE TABLE Bids (formula TEXT, value INT);
            INSERT INTO Bids VALUES ('NotAFormula!!', 5);
        ";
        let mut b = SqlProgramBidder::new(tables, "", &Params::new()).unwrap();
        assert!(b.on_query(&ctx(1)).is_empty());
        assert!(matches!(b.last_error(), Some(DbError::Type(_))));
    }

    #[test]
    fn a_program_record_is_pinned_at_its_size() {
        // 312 B while a `has_outcome` flag restated `clear_outcome` and the
        // formulas sat in a hash map; they are a vector of pairs now. 280 B
        // while the error sat inline and the database kept a vector of
        // every catalog shape it had been through. 232 B while the database
        // kept its detours.
        assert_eq!(std::mem::size_of::<SqlProgramBidder>(), 216);
    }

    #[test]
    fn negative_bid_value_disables_the_program() {
        // 5 → -5 on the first auction: a typed error and no bids, never a
        // panic inside the bid table on the serving thread.
        let program = "
            CREATE TRIGGER bid AFTER INSERT ON Query
            { UPDATE Bids SET value = value - 10; }
        ";
        let mut b =
            SqlProgramBidder::new(TABLES, program, &Params::new().bind("start", 5)).unwrap();
        assert!(b.on_query(&ctx(1)).is_empty());
        assert!(matches!(b.last_error(), Some(DbError::Type(_))));
        assert!(b.on_query(&ctx(2)).is_empty(), "stays excluded");
    }
}
