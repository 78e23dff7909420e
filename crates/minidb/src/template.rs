//! Programs compiled once: a [`Template`] and the databases instantiated
//! from it (crate docs, "Compile once per program").
//!
//! DDL runs once, at compile time, so the catalog must not depend on data:
//! DDL inside an `IF` block, DDL after a data statement of its own script,
//! and `CREATE TABLE` or `DROP TABLE` after a data statement of an earlier
//! script are refused with [`DbError::DdlAfterData`]. A later script may
//! still create triggers: each script's data statements run with the
//! triggers created before them, as if the scripts ran in order.

use crate::ast::{ColumnRef, Expr, Node, Statement};
use crate::error::{DbError, DbResult};
use crate::exec::Database;
use crate::parser::parse_script;
use crate::plan::PlannedScript;
use crate::prepared::{Params, Prepared, NO_PARAMS};
use crate::script::Script;
use crate::table::Table;
use std::sync::Arc;

/// SQL scripts compiled once — parsed, their DDL run into one catalog that
/// names every variable the scripts and their host use, every data
/// statement and trigger body lowered against it — and shared through
/// `Arc`s by every database instantiated from them.
///
/// ```
/// use ssa_minidb::{Params, Template, Value, NO_PARAMS};
///
/// let template = Template::compile(
///     &[
///         "CREATE TABLE Query (kw INT); CREATE TABLE Bids (value INT);
///          INSERT INTO Bids VALUES (:start)",
///         "CREATE TRIGGER bid AFTER INSERT ON Query { UPDATE Bids SET value = value + 1; }",
///     ],
///     &[],
/// )
/// .unwrap();
/// let mut read = template.prepare("SELECT value FROM Bids").unwrap();
/// let mut db = template.instantiate(&Params::new().bind("start", 7)).unwrap();
/// db.insert("Query", vec![Value::Int(0)]).unwrap();
/// assert_eq!(read.query(&mut db, NO_PARAMS).unwrap()[0][0], Value::Int(8));
/// ```
#[derive(Debug)]
pub struct Template {
    /// The scripts' catalog, variable names and triggers, every trigger
    /// body planned; its tables stay empty.
    db: Database,
    /// Each script's data statements, planned at the template's catalog.
    setup: Vec<Setup>,
}

/// One script's data statements and the triggers live while they run.
#[derive(Debug)]
struct Setup {
    script: Script,
    planned: Arc<PlannedScript>,
    /// How many of the template's triggers were created before the script's
    /// data statements.
    triggers: usize,
}

impl Template {
    /// Compiles `scripts`, in order, with the variables `host` sets or
    /// reads named in the catalog beside those the scripts use — so no
    /// instance ever grows a catalog of its own by setting one.
    pub fn compile(scripts: &[&str], host: &[&str]) -> DbResult<Template> {
        let parsed = scripts
            .iter()
            .map(|sql| parse_script(sql))
            .collect::<DbResult<Vec<_>>>()?;
        let mut db = Database::new();
        let mut data_scripts = Vec::with_capacity(parsed.len());
        let mut earlier_data = false;
        for statements in parsed {
            let mut data = Vec::new();
            for stmt in statements {
                if !stmt.is_ddl() {
                    let mut nested = None;
                    stmt.visit(&mut |node| match node {
                        Node::Statement(inner) if inner.is_ddl() => _ = nested.get_or_insert(inner),
                        _ => {}
                    });
                    if let Some(ddl) = nested {
                        return Err(ddl_after_data(ddl));
                    }
                    data.push(stmt);
                    continue;
                }
                db.exec_ddl(&stmt)?;
                let moves_tables = !matches!(stmt, Statement::CreateTrigger { .. });
                if !data.is_empty() || (earlier_data && moves_tables) {
                    return Err(ddl_after_data(&stmt));
                }
            }
            earlier_data |= !data.is_empty();
            data_scripts.push((Script::from(data), db.triggers.len()));
        }
        let names = variable_names(&db, data_scripts.iter().map(|(script, _)| script), host);
        db.declare_vars(names.iter().map(String::as_str));
        db.warm_plans();
        let setup = data_scripts
            .into_iter()
            .map(|(script, triggers)| Setup {
                planned: db.plan_script(&script),
                script,
                triggers,
            })
            .collect();
        Ok(Template { db, setup })
    }

    /// A database of the template's catalog, triggers and plans, whose
    /// state the scripts' data statements set up: those of the first script
    /// with `params` bound, those of the others with no parameters.
    pub fn instantiate(&self, params: &Params) -> DbResult<Database> {
        let mut db = Database {
            shape: Arc::clone(&self.db.shape),
            tables: self.db.tables.clone(),
            triggers: Box::default(),
            vars: self.db.vars.clone(),
            counters: self.db.counters.clone(),
        };
        for (i, setup) in self.setup.iter().enumerate() {
            let params = if i == 0 { params } else { NO_PARAMS };
            setup.script.check(params)?;
            if db.triggers.len() != setup.triggers {
                db.triggers = self.db.triggers[..setup.triggers].into();
            }
            let planned = setup.script.statements.iter().zip(setup.planned.plans());
            db.exec_planned_seq(planned, params, |_| ())?;
        }
        if db.triggers.len() != self.db.triggers.len() {
            db.triggers = self.db.triggers.clone();
        }
        Ok(db)
    }

    /// Parses `sql` and lowers it at the template's catalog: the handle,
    /// and every clone of it, runs in any instance without lowering again.
    pub fn prepare(&self, sql: &str) -> DbResult<Prepared> {
        let script = Script::parse(sql)?;
        let planned = PlannedScript::lower(&self.db, &script);
        Ok(Prepared::new(script, Some(Arc::new(planned))))
    }

    /// A table of the template's catalog: empty, of every instance's schema.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.db.table(name)
    }
}

fn ddl_after_data(ddl: &Statement) -> DbError {
    let statement = match ddl {
        Statement::CreateTable { name, .. } => format!("CREATE TABLE {name}"),
        Statement::DropTable { name } => format!("DROP TABLE {name}"),
        Statement::CreateTrigger { name, .. } => format!("CREATE TRIGGER {name}"),
        _ => String::new(),
    };
    DbError::DdlAfterData { statement }
}

/// The variables of a compiled program, the host's first: every name the
/// data statements and trigger bodies set, and every unqualified name they
/// read that no table of the catalog has as a column.
fn variable_names<'s>(
    db: &'s Database,
    scripts: impl Iterator<Item = &'s Script>,
    host: &[&str],
) -> Vec<String> {
    let mut names: Vec<String> = host.iter().map(|name| name.to_string()).collect();
    let is_column = |name: &str| {
        let mut tables = db.shape.tables().iter();
        tables.any(|table| table.schema.index_of(name).is_some())
    };
    let mut note = |node: Node<'_>| match node {
        Node::Statement(Statement::SetVar { name, .. }) => names.push(name.clone()),
        Node::Expr(Expr::Column(ColumnRef {
            qualifier: None,
            column,
        })) if !is_column(column) => names.push(column.clone()),
        _ => {}
    };
    let bodies = db.triggers.iter().map(|def| &def.trigger.body);
    for stmt in scripts.chain(bodies).flat_map(|script| &script.statements) {
        stmt.visit(&mut note);
    }
    names
}
