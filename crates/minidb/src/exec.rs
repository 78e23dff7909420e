//! The database: its state, catalog, triggers, DDL and host API. Every
//! other statement runs on the planned executor ([`crate::plan`]).
//!
//! Semantics notes (all deliberate, see crate docs):
//!
//! * `UPDATE`/`DELETE` use **snapshot semantics**: predicates and SET
//!   expressions are evaluated against the pre-statement state, then all
//!   mutations are applied. This matches SQL and matters for the paper's
//!   Figure 5 program, whose `WHERE roi = (SELECT MAX(K.roi) FROM Keywords
//!   K)` subquery scans the very table being updated.
//! * Predicates use three-valued logic; a NULL predicate does not match.
//! * `AFTER INSERT` triggers fire once per inserted row batch. A trigger
//!   body holds only `UPDATE`, `DELETE`, `SET`, `IF` and `SELECT` (the
//!   parser refuses anything else), so a firing never fires another:
//!   Section II-B requires bidding programs to be "simple SQL updates
//!   without recursion".

use crate::ast::Statement;
use crate::error::{DbError, DbResult};
use crate::plan::{self, PlannedScript, PlannerCounters};
use crate::prepared::{Prepared, NO_PARAMS};
use crate::script::{CatalogShape, Script, Trigger};
use crate::table::{push_exact, Row, Schema, Table};
use crate::value::Value;
use crate::vars::Vars;
use std::sync::Arc;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// `CREATE TABLE` / `CREATE TRIGGER` succeeded.
    Created,
    /// `DROP TABLE` succeeded.
    Dropped,
    /// Number of rows inserted.
    Inserted(usize),
    /// Number of rows updated.
    Updated(usize),
    /// Number of rows deleted.
    Deleted(usize),
    /// Rows returned by a `SELECT`.
    Rows(Vec<Row>),
    /// A control statement (`IF`, `SET`) completed.
    Done,
}

#[derive(Debug, Clone)]
pub(crate) struct TriggerDef {
    /// The trigger its defining script owns — the same `Arc` in every
    /// database that ran that script, body and plan cache included.
    pub(crate) trigger: Arc<Trigger>,
    /// Owner-local memo of the planned body. Living inside `Database`, it
    /// needs no lock: repeat firings compare one pointer and go. The body's
    /// shared plan cache stays the source of truth that `warm_plans` and
    /// firings after DDL refill this memo from.
    ready: Option<Arc<ReadyTrigger>>,
}

impl TriggerDef {
    /// The memo, if it was planned at `db`'s catalog shape.
    fn ready_in(&self, db: &Database) -> Option<&Arc<ReadyTrigger>> {
        self.ready.as_ref().filter(|ready| ready.planned.fits(db))
    }
}

/// What one firing executes. The body and its plan are shared by every
/// database running the program; this pairing sits behind a database-local
/// `Arc`, so the per-firing clone bumps a count only this database's thread
/// touches and leaves the shared counts — one cache line for a whole
/// population — alone.
#[derive(Debug)]
struct ReadyTrigger {
    trigger: Arc<Trigger>,
    planned: Arc<PlannedScript>,
}

/// An in-memory database: tables, triggers, and host scalar variables.
///
/// What a database owns is its *state*: rows, indexes, variable values,
/// 16 bytes a value. Everything else is shared with every database that
/// ran the same text over the same catalog shape (`script.rs`): the
/// catalog — table names, spellings, column lists — is the interned shape,
/// triggers (names and bodies) and lowered plans live in the scripts, and
/// the list of variable names is interned once per process.
#[derive(Debug, Clone)]
pub struct Database {
    /// The catalog: which tables exist and what their columns are.
    pub(crate) shape: Arc<CatalogShape>,
    /// Rows and indexes of each table of `shape`, in its order.
    pub(crate) tables: Vec<Table>,
    pub(crate) triggers: Box<[TriggerDef]>,
    pub(crate) vars: Vars,
    /// `CREATE TABLE`s and `DROP TABLE`s executed here. How plans in flight
    /// notice DDL that ended on their own shape — see
    /// [`Database::exec_planned_seq`].
    pub(crate) ddl_epoch: u64,
    pub(crate) counters: PlannerCounters,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database {
            shape: CatalogShape::empty(),
            tables: Vec::new(),
            triggers: Box::default(),
            vars: Vars::default(),
            ddl_epoch: 0,
            counters: PlannerCounters::default(),
        }
    }

    /// Parses and executes a script; returns one outcome per statement.
    ///
    /// The text is resolved through the script interner, so it is parsed
    /// only if no [`Prepared`] of the same text is alive in the process.
    /// Nothing holds *this* call's script once it returns: its statements
    /// are planned afresh every time, and the triggers it creates are this
    /// database's own. Callers on a hot path —
    /// and hosts installing one program in many databases — should
    /// [`Database::prepare`] once and execute the returned [`Prepared`]
    /// plan instead.
    pub fn run(&mut self, sql: &str) -> DbResult<Vec<ExecOutcome>> {
        let script = Script::intern(sql)?;
        script
            .statements
            .iter()
            .map(|stmt| self.execute(stmt))
            .collect()
    }

    /// Resolves a script to a [`Prepared`] plan whose `?`/`:name`
    /// placeholders are bound per execution — see [`crate::prepared`]. The
    /// text is parsed at most once while any handle prepared from it is
    /// alive, whichever database prepared it.
    pub fn prepare(&self, sql: &str) -> DbResult<Prepared> {
        Prepared::parse(sql)
    }

    /// Runs a single-`SELECT` script and returns its rows.
    pub fn query(&mut self, sql: &str) -> DbResult<Vec<Row>> {
        single_select(self.run(sql)?)
    }

    /// Executes one parsed statement (with no parameters bound). The
    /// statement is lowered through the planner; plans from this entry
    /// point are transient — [`Database::prepare`] caches them.
    pub(crate) fn execute(&mut self, stmt: &Statement) -> DbResult<ExecOutcome> {
        let plan = plan::plan_statement(self, stmt, &[]);
        self.ensure_plan_indexes(&plan.index_reqs);
        self.exec_planned(stmt, &plan, NO_PARAMS)
    }

    /// Runs a DDL statement — `CREATE TABLE`, `DROP TABLE` or `CREATE
    /// TRIGGER` — which moves the catalog and has no plan of its own. A
    /// `CREATE TRIGGER` installs `shared`, its script's trigger, if given,
    /// and a trigger of this database's own otherwise. Any other statement
    /// is refused with a parse error: it belongs to the planner.
    pub(crate) fn exec_ddl(
        &mut self,
        stmt: &Statement,
        shared: Option<&Arc<Trigger>>,
    ) -> DbResult<ExecOutcome> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::try_new(columns.iter().cloned())?;
                self.create_table(name, schema)?;
                Ok(ExecOutcome::Created)
            }
            Statement::DropTable { name } => {
                let pos = self.table_position(name)?;
                self.tables.remove(pos);
                let mut kept = std::mem::take(&mut self.triggers).into_vec();
                kept.retain(|t| !t.trigger.is_on(name));
                self.triggers = kept.into_boxed_slice();
                let shape = self.shape.without_table(pos);
                self.enter_shape(shape);
                Ok(ExecOutcome::Dropped)
            }
            Statement::CreateTrigger { name, table, body } => {
                if self.triggers.iter().any(|t| t.trigger.is_named(name)) {
                    return Err(DbError::TriggerExists(name.clone()));
                }
                self.table_position(table)?;
                let trigger = shared
                    .cloned()
                    .unwrap_or_else(|| Arc::new(Trigger::new(name, table, body)));
                let def = TriggerDef {
                    trigger,
                    ready: None,
                };
                push_exact(&mut self.triggers, def);
                Ok(ExecOutcome::Created)
            }
            _ => Err(DbError::Parse {
                message: "not a DDL statement".to_string(),
                position: 0,
            }),
        }
    }

    /// Sets a host scalar variable (e.g. `amtSpent`, `time`); names are
    /// case-insensitive. Overwriting a variable allocates nothing.
    pub fn set_var(&mut self, name: &str, value: Value) {
        self.vars.set_named(name, value);
    }

    /// Reads a host scalar variable.
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.vars.find(name)
    }

    /// Host access to a table.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        Ok(&self.tables[self.table_position(name)?])
    }

    /// Host-side table creation.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> DbResult<()> {
        let pos = match self.shape.search(name) {
            Ok(_) => return Err(DbError::TableExists(name.to_string())),
            Err(pos) => pos,
        };
        let shape = self.shape.with_table(pos, name, &Arc::new(schema));
        self.tables.reserve_exact(1);
        self.tables.insert(
            pos,
            Table::with_schema(Arc::clone(&shape.tables()[pos].schema)),
        );
        self.enter_shape(shape);
        Ok(())
    }

    /// The position of the table called `name` (in any case).
    pub(crate) fn table_position(&self, name: &str) -> DbResult<usize> {
        self.shape
            .position(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Moves to `shape` after a table was created or dropped, `tables`
    /// already holding one entry per table of it. Trigger memos go too: a
    /// shape this database had before (a table dropped and recreated as it
    /// was) revalidates the plans that held it, but not the indexes the
    /// dropped table took with it — refilling the memo from the plan cache
    /// rebuilds them.
    fn enter_shape(&mut self, shape: Arc<CatalogShape>) {
        self.shape = shape;
        self.ddl_epoch += 1;
        for trigger in &mut self.triggers {
            trigger.ready = None;
        }
    }

    /// `true` if both databases fire the very same compiled triggers: the
    /// same number of them (at least one), each pair one shared body and
    /// one shared planned script. Databases that installed one program text
    /// over one catalog shape do; a diagnostic for tests of that sharing,
    /// which is otherwise invisible.
    pub fn shares_triggers_with(&self, other: &Database) -> bool {
        !self.triggers.is_empty()
            && self.triggers.len() == other.triggers.len()
            && self.triggers.iter().zip(&other.triggers).all(|(a, b)| {
                Arc::ptr_eq(&a.trigger, &b.trigger)
                    && matches!((&a.ready, &b.ready), (Some(a), Some(b))
                        if Arc::ptr_eq(&a.planned, &b.planned))
            })
    }

    /// Host-side insert; fires `AFTER INSERT` triggers like SQL inserts do.
    pub fn insert(&mut self, table: &str, row: Row) -> DbResult<()> {
        let pos = self.table_position(table)?;
        self.tables[pos].insert(row)?;
        self.fire_triggers(pos)
    }

    /// Names of all tables (display form), sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.shape.tables().iter().map(|t| &*t.display).collect();
        names.sort_unstable();
        names
    }

    // ---- trigger firing ---------------------------------------------------

    /// Fires the `AFTER INSERT` triggers of the table at `pos`. A body
    /// cannot insert or run DDL, so it neither fires a trigger nor changes
    /// the trigger list or the catalog: the loop walks `self.triggers` in
    /// place, and a memo missing at this shape is refilled in its slot.
    pub(crate) fn fire_triggers(&mut self, pos: usize) -> DbResult<()> {
        for slot in 0..self.triggers.len() {
            let def = &self.triggers[slot];
            if !def.trigger.is_on(&self.shape.tables()[pos].display) {
                continue;
            }
            let ready = match def.ready_in(self) {
                Some(ready) => Arc::clone(ready),
                None => {
                    let trigger = Arc::clone(&def.trigger);
                    let ready = self.ready_trigger(trigger);
                    self.triggers[slot].ready = Some(Arc::clone(&ready));
                    ready
                }
            };
            // Stored trigger bodies never see the firing statement's
            // parameters — host scalar variables are their channel.
            let body = ready
                .trigger
                .body
                .statements
                .iter()
                .zip(ready.planned.plans());
            self.exec_planned_seq(body, NO_PARAMS, |_| ())?;
        }
        Ok(())
    }

    /// Plans every stored trigger body now (instead of on first firing) —
    /// or adopts the plan another database of the same catalog shape
    /// already lowered for the same body — and materialises the indexes
    /// those plans request. Campaign hosts call this once after installing
    /// a bidding program, so the first auction pays no planning cost.
    pub fn warm_plans(&mut self) {
        for slot in 0..self.triggers.len() {
            let def = &self.triggers[slot];
            if def.ready_in(self).is_none() {
                let trigger = Arc::clone(&def.trigger);
                self.triggers[slot].ready = Some(self.ready_trigger(trigger));
            }
        }
    }

    /// Pairs a trigger with its body's plan for the current catalog shape
    /// (lowered now, or adopted), building the indexes the plan probes.
    fn ready_trigger(&mut self, trigger: Arc<Trigger>) -> Arc<ReadyTrigger> {
        let planned = self.cached_script(&trigger.body);
        Arc::new(ReadyTrigger { trigger, planned })
    }
}

/// The rows of a script that is exactly one `SELECT`: what
/// [`Database::query`] and [`Prepared::query`] return.
pub(crate) fn single_select(mut outcomes: Vec<ExecOutcome>) -> DbResult<Vec<Row>> {
    match (outcomes.len(), outcomes.pop()) {
        (1, Some(ExecOutcome::Rows(rows))) => Ok(rows),
        _ => Err(DbError::Parse {
            message: "query expects exactly one SELECT statement".to_string(),
            position: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_keywords() -> Database {
        let mut db = Database::new();
        db.run(
            "CREATE TABLE Keywords (\
               text TEXT, formula TEXT, maxbid INT, roi FLOAT, bid INT, relevance FLOAT)",
        )
        .unwrap();
        // The paper's Figure 4.
        db.run(
            "INSERT INTO Keywords VALUES \
               ('boot', 'Click AND Slot1', 5, 2.0, 4, 0.8), \
               ('shoe', 'Click', 6, 1.0, 8, 0.2)",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_where_and_projection() {
        let mut db = db_with_keywords();
        let rows = db
            .query("SELECT text, bid FROM Keywords WHERE relevance > 0.5")
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Text("boot".into()), Value::Int(4)]]);
        let star = db.query("SELECT * FROM Keywords").unwrap();
        assert_eq!(star.len(), 2);
        assert_eq!(star[0].len(), 6);
    }

    #[test]
    fn aggregates() {
        let mut db = db_with_keywords();
        let rows = db
            .query("SELECT MAX(roi), MIN(bid), SUM(bid), COUNT(*), AVG(maxbid) FROM Keywords")
            .unwrap();
        assert_eq!(
            rows[0],
            vec![
                Value::Float(2.0),
                Value::Int(4),
                Value::Int(12),
                Value::Int(2),
                Value::Float(5.5),
            ]
        );
    }

    #[test]
    fn empty_aggregates_follow_paper_semantics() {
        let mut db = db_with_keywords();
        let rows = db
            .query("SELECT SUM(bid), COUNT(*), MAX(bid) FROM Keywords WHERE bid > 100")
            .unwrap();
        assert_eq!(rows[0], vec![Value::Int(0), Value::Int(0), Value::Null]);
    }

    #[test]
    fn update_with_correlated_subquery() {
        let mut db = db_with_keywords();
        db.run("CREATE TABLE Bids (formula TEXT, value INT)")
            .unwrap();
        db.run("INSERT INTO Bids VALUES ('Click AND Slot1', 0), ('Click', 99)")
            .unwrap();
        // Figure 5 lines 22–27.
        db.run(
            "UPDATE Bids SET value = \
               ( SELECT SUM( K.bid ) FROM Keywords K \
                 WHERE K.relevance > 0.7 AND K.formula = Bids.formula )",
        )
        .unwrap();
        let rows = db.query("SELECT value FROM Bids").unwrap();
        // Figure 6: Click∧Slot1 → 4; Click → 0 (empty SUM).
        assert_eq!(rows, vec![vec![Value::Int(4)], vec![Value::Int(0)]]);
    }

    #[test]
    fn update_snapshot_semantics() {
        // WHERE roi = (SELECT MAX(roi) …) over the table being updated must
        // see the pre-update state for every row.
        let mut db = db_with_keywords();
        db.run(
            "UPDATE Keywords SET bid = bid + 1 \
             WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K ) \
               AND relevance > 0 AND bid < maxbid",
        )
        .unwrap();
        let rows = db.query("SELECT text, bid FROM Keywords").unwrap();
        assert_eq!(rows[0], vec![Value::Text("boot".into()), Value::Int(5)]);
        assert_eq!(rows[1], vec![Value::Text("shoe".into()), Value::Int(8)]);
    }

    #[test]
    fn if_elseif_with_host_vars() {
        let mut db = db_with_keywords();
        db.set_var("amtSpent", Value::Int(10));
        db.set_var("time", Value::Int(5));
        db.set_var("targetSpendRate", Value::Int(3));
        // 10/5 = 2 < 3 → underspending branch.
        db.run(
            "IF amtSpent / time < targetSpendRate THEN \
               UPDATE Keywords SET bid = bid + 1 WHERE relevance > 0; \
             ELSEIF amtSpent / time > targetSpendRate THEN \
               UPDATE Keywords SET bid = bid - 1 WHERE relevance > 0; \
             ENDIF",
        )
        .unwrap();
        let rows = db.query("SELECT bid FROM Keywords").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(5)], vec![Value::Int(9)]]);
    }

    #[test]
    fn triggers_fire_on_insert() {
        let mut db = Database::new();
        db.run("CREATE TABLE Query (text TEXT)").unwrap();
        db.run("CREATE TABLE Log (n INT)").unwrap();
        db.run("INSERT INTO Log VALUES (0)").unwrap();
        db.run("CREATE TRIGGER t AFTER INSERT ON Query { UPDATE Log SET n = n + 1; }")
            .unwrap();
        db.run("INSERT INTO Query VALUES ('boots')").unwrap();
        db.run("INSERT INTO Query VALUES ('shoes')").unwrap();
        let rows = db.query("SELECT n FROM Log").unwrap();
        assert_eq!(rows[0][0], Value::Int(2));
        // Host-side insert also fires.
        db.insert("Query", vec!["sneaker".into()]).unwrap();
        assert_eq!(db.query("SELECT n FROM Log").unwrap()[0][0], Value::Int(3));
    }

    #[test]
    fn trigger_recursion_capped() {
        // A body that would fire its own trigger is refused as it is
        // parsed: nothing is installed, and inserting fires nothing.
        let mut db = Database::new();
        db.run("CREATE TABLE a (n INT)").unwrap();
        let sql = "CREATE TRIGGER loopy AFTER INSERT ON a { INSERT INTO a VALUES (1); }";
        assert_eq!(
            db.run(sql),
            Err(DbError::TriggerBody {
                trigger: "loopy".to_string(),
                statement: "INSERT INTO a".to_string(),
                position: sql.find("INSERT INTO").unwrap(),
            })
        );
        db.run("INSERT INTO a VALUES (0)").unwrap();
        assert_eq!(db.table("a").unwrap().len(), 1);
    }

    #[test]
    fn delete_and_drop() {
        let mut db = db_with_keywords();
        db.run("DELETE FROM Keywords WHERE relevance < 0.5")
            .unwrap();
        assert_eq!(db.table("Keywords").unwrap().len(), 1);
        db.run("DROP TABLE Keywords").unwrap();
        assert!(matches!(
            db.run("SELECT * FROM Keywords"),
            Err(DbError::NoSuchTable(_))
        ));
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut db = Database::new();
        db.run("CREATE TABLE t (a INT, b TEXT, c FLOAT)").unwrap();
        db.run("INSERT INTO t (c, a) VALUES (1.5, 7)").unwrap();
        let rows = db.query("SELECT * FROM t").unwrap();
        assert_eq!(rows[0], vec![Value::Int(7), Value::Null, Value::Float(1.5)]);
    }

    #[test]
    fn three_valued_logic_in_predicates() {
        let mut db = Database::new();
        db.run("CREATE TABLE t (a INT)").unwrap();
        db.run("INSERT INTO t VALUES (1), (NULL)").unwrap();
        // NULL comparison does not match, NOT(NULL) does not match.
        assert_eq!(db.query("SELECT a FROM t WHERE a > 0").unwrap().len(), 1);
        assert_eq!(
            db.query("SELECT a FROM t WHERE NOT (a > 0)").unwrap().len(),
            0
        );
        // OR with a definite true side matches despite NULL.
        assert_eq!(
            db.query("SELECT a FROM t WHERE a > 0 OR 1 = 1")
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn errors_surface() {
        let mut db = Database::new();
        assert!(matches!(
            db.run("SELECT * FROM missing"),
            Err(DbError::NoSuchTable(_))
        ));
        db.run("CREATE TABLE t (a INT)").unwrap();
        assert!(db.run("SELECT b FROM t").is_ok());
        db.run("INSERT INTO t VALUES (1)").unwrap();
        assert!(matches!(
            db.run("SELECT b FROM t"),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(
            db.run("CREATE TABLE t (a INT)"),
            Err(DbError::TableExists(_))
        ));
        assert!(matches!(
            db.run("INSERT INTO t VALUES (1, 2)"),
            Err(DbError::Arity { .. })
        ));
        assert!(matches!(
            db.run("SELECT SUM(a), a FROM t"),
            Err(DbError::Type(_))
        ));
    }

    #[test]
    fn duplicate_columns_are_a_typed_error_on_every_path() {
        let mut db = Database::new();
        assert_eq!(
            db.run("CREATE TABLE t (a INT, A INT)"),
            Err(DbError::DuplicateColumn("A".to_string()))
        );
        let assembled = Statement::CreateTable {
            name: "t".to_string(),
            columns: vec![
                ("a".to_string(), crate::ValueType::Int),
                ("A".to_string(), crate::ValueType::Int),
            ],
        };
        assert_eq!(
            db.execute(&assembled),
            Err(DbError::DuplicateColumn("A".to_string()))
        );
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn a_catalog_keeps_its_parents_and_a_plan_keeps_its_shape() {
        // A catalog that only grew holds every shape on its way.
        let mut db = Database::new();
        db.run("CREATE TABLE exec_test_a (x INT)").unwrap();
        let first = Arc::clone(&db.shape);
        db.run("CREATE TABLE exec_test_b (y INT)").unwrap();
        let parent_of = |shape: &CatalogShape| shape._parent.as_ref().map(Arc::as_ptr);
        assert_eq!(parent_of(&db.shape), Some(Arc::as_ptr(&first)));
        assert_eq!(parent_of(&first), Some(Arc::as_ptr(&CatalogShape::empty())));

        // A memoised plan holds the shape it was lowered at: with no other
        // database of that shape alive, dropping the table and creating it
        // again as it was comes back to that very shape, and nothing is
        // replanned. (A `Weak` keeps the allocation, so the address cannot
        // be reused by another shape, without keeping the shape alive.)
        let mut db = Database::new();
        db.run("CREATE TABLE exec_test_kept (x INT)").unwrap();
        let mut read = db.prepare("SELECT x FROM exec_test_kept").unwrap();
        read.execute(&mut db, NO_PARAMS).unwrap();
        let lowered_at = Arc::downgrade(&db.shape);
        let plans = db.planner_stats().plans_cached;
        db.run("DROP TABLE exec_test_kept").unwrap();
        db.run("CREATE TABLE exec_test_kept (x INT)").unwrap();
        assert_eq!(lowered_at.as_ptr(), Arc::as_ptr(&db.shape));
        db.run("INSERT INTO exec_test_kept VALUES (7)").unwrap();
        assert_eq!(
            read.query(&mut db, NO_PARAMS).unwrap(),
            vec![vec![Value::Int(7)]]
        );
        assert_eq!(db.planner_stats().plans_cached, plans);
    }

    #[test]
    fn vars_are_case_insensitive() {
        let mut db = Database::new();
        db.set_var("AmtSpent", Value::Int(5));
        assert_eq!(db.var("amtspent"), Some(&Value::Int(5)));
        db.run("SET amtSpent = amtSpent + 1").unwrap();
        assert_eq!(db.var("AMTSPENT"), Some(&Value::Int(6)));
    }
}
