//! Prepared statements: parse once, bind parameters, run many.
//!
//! Re-parsing SQL text on every auction round is the single largest cost of
//! running bidding programs at marketplace scale (and string-interpolating
//! values into SQL invites precision loss and injection). This module is
//! the standard fix: [`Database::prepare`] parses a script once into a
//! [`Prepared`] plan; each execution binds a fresh [`Params`] set — `?`
//! positional placeholders bound in order, `:name` placeholders bound by
//! name — and runs the script's plan, lowered once and memoised in the
//! handle. A handle from [`crate::Template::prepare`] comes lowered at the
//! template's catalog, so it and its clones run in every instance of the
//! template without lowering again.
//!
//! ```
//! use ssa_minidb::{Database, Params, Value};
//!
//! let mut db = Database::new();
//! db.run("CREATE TABLE Keywords (text TEXT, bid INT)").unwrap();
//! db.run("INSERT INTO Keywords VALUES ('boot', 4)").unwrap();
//!
//! let mut bump = db
//!     .prepare("UPDATE Keywords SET bid = bid + :delta WHERE text = ?")
//!     .unwrap();
//! let mut read = db.prepare("SELECT bid FROM Keywords WHERE text = ?").unwrap();
//! for _ in 0..3 {
//!     bump.execute(&mut db, &Params::new().push("boot").bind("delta", 2))
//!         .unwrap();
//! }
//! let rows = read.query(&mut db, &Params::new().push("boot")).unwrap();
//! assert_eq!(rows[0][0], Value::Int(10));
//! ```
//!
//! Parameters are bound to the prepared statements themselves: stored
//! trigger bodies fired by a prepared `INSERT` run with an empty binding
//! environment. A `?`/`:name` inside a `CREATE TRIGGER` body is rejected
//! at parse time (the body outlives any binding that could supply it);
//! host scalar variables are the channel for values shared with
//! triggers.

use crate::ast::ParamRef;
use crate::error::{DbError, DbResult};
use crate::exec::{single_select, Database, ExecOutcome};
use crate::plan::PlannedScript;
use crate::script::Script;
use crate::table::Row;
use crate::value::Value;
use std::sync::Arc;

/// Values bound to a prepared statement's parameters for one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    pub(crate) positional: Vec<Value>,
    named: Vec<(String, Value)>,
}

/// The shared empty binding environment: what plain `run`/`execute` paths
/// and trigger bodies evaluate under, and what hosts pass to a prepared
/// statement that has no placeholders instead of building a fresh
/// [`Params::new`] per call.
pub const NO_PARAMS: &Params = &Params {
    positional: Vec::new(),
    named: Vec::new(),
};

impl Params {
    /// An empty parameter set.
    pub fn new() -> Self {
        Params::default()
    }

    /// Appends the next positional (`?`) value.
    pub fn push(mut self, value: impl Into<Value>) -> Self {
        self.positional.push(value.into());
        self
    }

    /// Binds a named (`:name`) value; names are case-insensitive. Binding
    /// the same name again replaces the earlier value.
    pub fn bind(mut self, name: &str, value: impl Into<Value>) -> Self {
        let key = name.to_ascii_lowercase();
        let value = value.into();
        match self.named.iter_mut().find(|(n, _)| *n == key) {
            Some(slot) => slot.1 = value,
            None => self.named.push((key, value)),
        }
        self
    }

    /// Resolves a parameter reference.
    pub(crate) fn resolve(&self, param: &ParamRef) -> DbResult<Value> {
        match param {
            ParamRef::Positional(i) => self.positional.get(*i).cloned(),
            ParamRef::Named(n) => self
                .named
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, v)| v.clone()),
        }
        .ok_or_else(|| DbError::UnboundParameter(param.to_string()))
    }
}

/// A script parsed once and executable many times with fresh parameter
/// bindings. Created by [`Database::prepare`] or
/// [`crate::Template::prepare`]; cheap to clone and `Send + Sync`, so
/// prepared plans migrate with their owners across shard worker threads.
/// Clones share the parsed script and the plan memoised at the time.
#[derive(Debug, Clone)]
pub struct Prepared {
    script: Arc<Script>,
    /// This handle's memo of the planned script — revalidated against the
    /// database's catalog shape on every execution and lowered again where
    /// it does not fit.
    planned: Option<Arc<PlannedScript>>,
}

impl Prepared {
    pub(crate) fn new(script: Script, planned: Option<Arc<PlannedScript>>) -> Prepared {
        Prepared {
            script: Arc::new(script),
            planned,
        }
    }

    /// The parsed statements.
    #[cfg(test)]
    pub(crate) fn statements(&self) -> &[crate::ast::Statement] {
        &self.script.statements
    }

    /// Validates `params` against the script's placeholder signature.
    pub(crate) fn check(&self, params: &Params) -> DbResult<()> {
        self.script.check(params)
    }

    /// Points the memo at the planned script of `script` for `db` and
    /// returns it: the memo is kept when it is still valid for `db`'s
    /// catalog shape, else lowered again. Either way `db` ends up with the
    /// indexes the plan probes — a database of the memo's catalog (another
    /// instance of one template) is not necessarily the one whose indexes
    /// were built. Takes the handle's fields apart so the caller can keep
    /// reading the script while the plan is borrowed.
    fn plan_for<'m>(
        memo: &'m mut Option<Arc<PlannedScript>>,
        script: &Script,
        db: &mut Database,
    ) -> &'m PlannedScript {
        let planned = match memo.take() {
            Some(planned) if planned.fits(db) => {
                db.ensure_plan_indexes(&planned.index_reqs);
                planned
            }
            _ => db.plan_script(script),
        };
        memo.insert(planned)
    }

    /// Plans the script against `db` now, unless its memo fits `db`'s
    /// catalog, and builds the indexes it probes, so the first execution
    /// pays neither.
    pub fn warm(&mut self, db: &mut Database) {
        Self::plan_for(&mut self.planned, &self.script, db);
    }

    /// Executes the script against `db` with `params` bound; returns one
    /// outcome per statement (the prepared twin of [`Database::run`]).
    ///
    /// Takes `&mut self` to memoise the planned script in this handle:
    /// repeat executions — the auction serving path — take no lock and
    /// touch no reference count. They compare one shape pointer and check
    /// that `db` has each index the plan probes (a table lookup per index;
    /// most statements probe none): a valid memo says the plan fits `db`'s
    /// shape, not that `db` is where its indexes were built.
    pub fn execute(&mut self, db: &mut Database, params: &Params) -> DbResult<Vec<ExecOutcome>> {
        self.check(params)?;
        let planned = Self::plan_for(&mut self.planned, &self.script, db);
        db.execute_planned_script(&self.script.statements, planned, params)
    }

    /// Runs a single-`SELECT` prepared script and returns its rows (the
    /// prepared twin of [`Database::query`]).
    pub fn query(&mut self, db: &mut Database, params: &Params) -> DbResult<Vec<Row>> {
        single_select(self.execute(db, params)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.run("CREATE TABLE t (a INT, b TEXT, c FLOAT)").unwrap();
        db
    }

    #[test]
    fn prepare_reports_the_signature() {
        let db = db();
        let p = db
            .prepare("INSERT INTO t VALUES (?, :name, ?); SELECT a FROM t WHERE b = :name")
            .unwrap();
        assert_eq!(p.script.positional, 2);
        assert_eq!(p.script.named, ["name".to_string()]);
        assert_eq!(p.statements().len(), 2);
    }

    #[test]
    fn execute_binds_positional_and_named() {
        let mut db = db();
        let mut insert = db.prepare("INSERT INTO t VALUES (?, ?, :f)").unwrap();
        let mut select = db
            .prepare("SELECT a, c FROM t WHERE b = ? AND a >= :floor")
            .unwrap();
        for i in 0..3i64 {
            insert
                .execute(
                    &mut db,
                    &Params::new().push(i).push("row").bind("f", 0.5 * i as f64),
                )
                .unwrap();
        }
        let rows = select
            .query(&mut db, &Params::new().push("row").bind("floor", 1))
            .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Float(0.5)],
                vec![Value::Int(2), Value::Float(1.0)],
            ]
        );
    }

    #[test]
    fn float_binding_is_exact() {
        // The whole point versus string interpolation: an arbitrary f64
        // round-trips bit-for-bit through a bound parameter.
        let mut db = db();
        let exact = 0.1f64 + 0.2f64; // not representable as a short decimal
        db.prepare("INSERT INTO t VALUES (1, 'x', ?)")
            .unwrap()
            .execute(&mut db, &Params::new().push(exact))
            .unwrap();
        let rows = db.query("SELECT c FROM t").unwrap();
        assert_eq!(rows[0][0], Value::Float(exact));
    }

    #[test]
    fn arity_and_unbound_are_typed_errors() {
        let mut db = db();
        let mut p = db.prepare("INSERT INTO t VALUES (?, ?, :f)").unwrap();
        assert_eq!(
            p.execute(&mut db, &Params::new().push(1).bind("f", 0.0)),
            Err(DbError::ParamArity {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            p.execute(&mut db, &Params::new().push(1).push("b")),
            Err(DbError::UnboundParameter(":f".to_string()))
        );
        // Running a parameterised script through the unprepared path leaves
        // every placeholder unbound.
        db.run("INSERT INTO t VALUES (1, 'x', 0.0)").unwrap();
        assert_eq!(
            db.run("SELECT a FROM t WHERE a = ?"),
            Err(DbError::UnboundParameter("?1".to_string()))
        );
    }

    #[test]
    fn trigger_bodies_do_not_capture_statement_params() {
        let mut db = db();
        db.run("CREATE TABLE Log (n INT)").unwrap();
        db.run("INSERT INTO Log VALUES (0)").unwrap();
        // The trigger body references the host var `inc`, not a parameter.
        db.run("CREATE TRIGGER tick AFTER INSERT ON t { UPDATE Log SET n = n + inc; }")
            .unwrap();
        db.set_var("inc", Value::Int(5));
        let mut insert = db.prepare("INSERT INTO t VALUES (?, 'x', 0.0)").unwrap();
        insert.execute(&mut db, &Params::new().push(1)).unwrap();
        assert_eq!(db.query("SELECT n FROM Log").unwrap()[0][0], Value::Int(5));
        // A trigger body that *does* name a parameter is rejected up
        // front: the stored body outlives any binding environment.
        db.run("CREATE TABLE u (a INT)").unwrap();
        for bad in [
            "CREATE TRIGGER bad AFTER INSERT ON u { UPDATE Log SET n = ?; }",
            "CREATE TRIGGER bad AFTER INSERT ON u { UPDATE Log SET n = :v; }",
        ] {
            assert!(
                matches!(db.run(bad), Err(DbError::Parse { message, .. })
                    if message.contains("trigger bodies")),
                "{bad} accepted"
            );
        }
        // The signature of a mixed script counts only bindable
        // placeholders — a trigger definition alongside a parameterised
        // statement does not inflate the arity.
        let mut mixed = db
            .prepare(
                "CREATE TRIGGER ok AFTER INSERT ON u { UPDATE Log SET n = n + inc; }; \
                 INSERT INTO u VALUES (?)",
            )
            .unwrap();
        assert_eq!(mixed.script.positional, 1);
        mixed.execute(&mut db, &Params::new().push(4)).unwrap();
        assert_eq!(db.query("SELECT n FROM Log").unwrap()[0][0], Value::Int(10));
    }

    #[test]
    fn prepared_if_and_setvar_bind() {
        let mut db = db();
        db.run("INSERT INTO t VALUES (1, 'x', 0.0)").unwrap();
        let mut p = db
            .prepare(
                "SET goal = :goal; \
                 IF goal > 0 THEN UPDATE t SET a = a + :goal; \
                 ELSE UPDATE t SET a = 0; ENDIF",
            )
            .unwrap();
        p.execute(&mut db, &Params::new().bind("goal", 10)).unwrap();
        assert_eq!(db.query("SELECT a FROM t").unwrap()[0][0], Value::Int(11));
        p.execute(&mut db, &Params::new().bind("goal", -1)).unwrap();
        assert_eq!(db.query("SELECT a FROM t").unwrap()[0][0], Value::Int(0));
    }

    #[test]
    fn rebinding_a_name_replaces_it() {
        let params = Params::new().bind("x", 1).bind("X", 2);
        assert_eq!(
            params.resolve(&ParamRef::Named("x".into())).unwrap(),
            Value::Int(2)
        );
    }
}
