//! Scripts, triggers and catalogs: what the executor derives from SQL text.
//!
//! A [`Script`] is a parsed text — the statement list (plain data,
//! [`crate::ast`]) and its placeholder signature — parsed on every
//! [`crate::Database::run`] and [`crate::Database::prepare`]; a
//! [`crate::Prepared`] handle and its clones share one behind an `Arc`. A
//! [`Trigger`] is what `CREATE TRIGGER` installs, held by `Arc` so the
//! instances of one [`crate::Template`] fire its bodies, not copies. A
//! [`CatalogShape`] is a catalog, held by `Arc` too: a plan is valid
//! exactly where the shape it was lowered at is the database's.

use crate::ast::{Expr, Node, ParamRef, Statement};
use crate::error::{DbError, DbResult};
use crate::parser::parse_script;
use crate::prepared::Params;
use crate::table::Schema;
use crate::vars::VarNames;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A script — a whole SQL text, or one trigger's body — with its
/// placeholder signature.
#[derive(Debug)]
pub(crate) struct Script {
    pub(crate) statements: Vec<Statement>,
    /// Number of `?` placeholders.
    pub(crate) positional: usize,
    /// Names of `:name` placeholders (lowercased, sorted, deduplicated).
    pub(crate) named: Vec<String>,
}

impl From<Vec<Statement>> for Script {
    fn from(statements: Vec<Statement>) -> Script {
        let mut positional = 0;
        let mut named = BTreeSet::new();
        for stmt in &statements {
            stmt.visit(&mut |node| match node {
                Node::Expr(Expr::Param(ParamRef::Positional(i))) => {
                    positional = positional.max(i + 1)
                }
                Node::Expr(Expr::Param(ParamRef::Named(n))) => {
                    named.insert(n.clone());
                }
                _ => {}
            });
        }
        Script {
            statements,
            positional,
            named: named.into_iter().collect(),
        }
    }
}

impl Script {
    /// Parses `sql`.
    pub(crate) fn parse(sql: &str) -> DbResult<Script> {
        parse_script(sql).map(Script::from)
    }

    /// Validates `params` against the placeholder signature: exact
    /// positional arity, every named placeholder bound.
    pub(crate) fn check(&self, params: &Params) -> DbResult<()> {
        if params.positional.len() != self.positional {
            return Err(DbError::ParamArity {
                expected: self.positional,
                got: params.positional.len(),
            });
        }
        for name in &self.named {
            params.resolve(&ParamRef::Named(name.clone()))?;
        }
        Ok(())
    }
}

/// `CREATE TRIGGER name AFTER INSERT ON table { body }`, shared by every
/// database instantiated from the template that installed it: they read
/// its names from here rather than keeping copies.
#[derive(Debug)]
pub(crate) struct Trigger {
    /// Lowercase.
    name: Box<str>,
    /// Lowercase.
    table: Box<str>,
    pub(crate) body: Script,
}

impl Trigger {
    pub(crate) fn new(name: &str, table: &str, body: &[Statement]) -> Trigger {
        Trigger {
            name: name.to_ascii_lowercase().into(),
            table: table.to_ascii_lowercase().into(),
            body: Script::from(body.to_vec()),
        }
    }

    /// `true` if this trigger is called `name` (case-insensitively).
    pub(crate) fn is_named(&self, name: &str) -> bool {
        self.name.eq_ignore_ascii_case(name)
    }

    /// `true` if this trigger watches `table` (case-insensitively).
    pub(crate) fn is_on(&self, table: &str) -> bool {
        self.table.eq_ignore_ascii_case(table)
    }
}

/// A catalog's *shape* — which tables exist, under which spelling, with
/// which column names and types, and which host variables it names — and
/// the description every database of that shape shares. It is everything
/// planning reads from a database and everything about a table except its
/// rows and indexes; a database holds its shape plus one [`crate::Table`]
/// of rows and indexes per entry of [`CatalogShape::tables`], in the same
/// order, and one value slot per variable name, so a plan lowered at a
/// shape names tables and variables by position.
///
/// A shape is never changed: DDL, or a variable set for the first time,
/// builds a new one, so a plan holding the old shape no longer fits.
#[derive(Debug, Default)]
pub(crate) struct CatalogShape {
    /// Sorted by [`CatalogTable::key`].
    tables: Vec<CatalogTable>,
    pub(crate) vars: VarNames,
}

/// One table of a [`CatalogShape`].
#[derive(Debug, Clone)]
pub(crate) struct CatalogTable {
    /// The lowercase name tables are ordered and looked up by.
    key: Box<str>,
    /// The spelling the table was created with.
    pub(crate) display: Box<str>,
    pub(crate) schema: Arc<Schema>,
}

impl CatalogShape {
    /// This shape plus a table `display` of `schema` at `pos`, the slot a
    /// failed [`CatalogShape::search`] for `display` returned.
    pub(crate) fn with_table(&self, pos: usize, display: &str, schema: Schema) -> CatalogShape {
        let table = CatalogTable {
            key: display.to_ascii_lowercase().into(),
            display: display.into(),
            schema: Arc::new(schema),
        };
        let mut shape = self.with_vars(self.vars.clone());
        shape.tables.insert(pos, table);
        shape
    }

    /// This shape without the table at `pos`.
    pub(crate) fn without_table(&self, pos: usize) -> CatalogShape {
        let mut shape = self.with_vars(self.vars.clone());
        shape.tables.remove(pos);
        shape
    }

    /// This shape with `vars` for its variable names.
    pub(crate) fn with_vars(&self, vars: VarNames) -> CatalogShape {
        CatalogShape {
            tables: self.tables.clone(),
            vars,
        }
    }

    /// Where the table called `name` (in any case) sits: `Ok(position)`, or
    /// `Err(position)` it would be created at.
    pub(crate) fn search(&self, name: &str) -> Result<usize, usize> {
        let folded = || name.bytes().map(|b| b.to_ascii_lowercase());
        self.tables
            .binary_search_by(|table| table.key.bytes().cmp(folded()))
    }

    /// The position of the table called `name` (in any case).
    pub(crate) fn position(&self, name: &str) -> Option<usize> {
        self.search(name).ok()
    }

    /// The tables, in catalog-key order.
    pub(crate) fn tables(&self) -> &[CatalogTable] {
        &self.tables
    }
}
