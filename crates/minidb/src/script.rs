//! Scripts, compiled once per distinct text.
//!
//! A marketplace runs the same bidding program for thousands of campaigns.
//! Everything the engine derives from a program's *text* — the statement
//! list (plain data, [`crate::ast`]), its placeholder signature, the
//! triggers it installs, the lowered plan — is identical for all of them,
//! so it lives in one [`Script`] that every database running the text
//! shares:
//!
//! * [`crate::Database::prepare`] and [`crate::Database::run`] resolve SQL
//!   text to its `Arc<Script>` through a process-wide table of [`Weak`]
//!   references. A text somebody still holds a [`crate::Prepared`] of is
//!   never parsed again; a text nobody holds any more costs nothing — its
//!   entry is removed when the last handle drops, so one-off statements
//!   cannot grow the table.
//! * Each `CREATE TRIGGER` among its statements becomes a shared
//!   [`Trigger`] whose body is a [`Script`] too; the statement's plan
//!   installs that very `Arc`, so all databases that executed one defining
//!   script fire one shared body through one shared plan cache.
//!
//! Holding a [`crate::Prepared`] is the one way to keep a text compiled: a
//! host that installs the same program in many databases prepares it,
//! executes the handle, and keeps it for as long as later databases should
//! share (a trigger keeps its own body alive, not the script around it).
//!
//! Plans are valid for a catalog *shape*, not for one database. The shape
//! — tables, their spelling, column names and types, all that planning
//! reads — is interned too, and it *is* the catalog: a database holds its
//! shape and, per table, only rows and indexes. Databases that ran the same
//! DDL hold the same `Arc<CatalogShape>`, and a plan, which holds the shape
//! it was lowered at, is reused wherever that `Arc` is the database's.

use crate::ast::{Expr, ParamRef, Select, SelectItem, Statement};
use crate::error::DbResult;
use crate::parser::parse_script;
use crate::plan::PlanCache;
use crate::table::Schema;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

// ---------------------------------------------------------------------------
// The weak interner.
// ---------------------------------------------------------------------------

/// Text → live shared value. Holds only [`Weak`] references: the table
/// never keeps a value alive, and a value's `Drop` removes its own entry
/// (see [`WeakInterner::forget`]).
///
/// Keys are SQL text from outside the program, so the map keeps the
/// collision-resistant default hasher.
pub(crate) struct WeakInterner<T> {
    map: Mutex<HashMap<Arc<str>, Weak<T>>>,
}

impl<T> WeakInterner<T> {
    pub(crate) fn new() -> Self {
        WeakInterner {
            map: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<Arc<str>, Weak<T>>> {
        // Every critical section is one map operation; a panic inside one
        // cannot leave the map half-updated, so poison carries no meaning.
        self.map
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The live value interned under `key`, if any.
    pub(crate) fn get(&self, key: &str) -> Option<Arc<T>> {
        self.lock().get(key).and_then(Weak::upgrade)
    }

    /// Interns the value `make` builds for `key`, unless another thread
    /// interned one since the caller's [`WeakInterner::get`] missed — then
    /// that one wins and `make` never runs.
    pub(crate) fn insert_with(&self, key: &str, make: impl FnOnce(Arc<str>) -> T) -> Arc<T> {
        let key: Arc<str> = Arc::from(key);
        let mut map = self.lock();
        match map.entry(Arc::clone(&key)) {
            Entry::Occupied(mut entry) => entry.get().upgrade().unwrap_or_else(|| {
                // A dead entry whose value's `Drop` has not run yet.
                let value = Arc::new(make(key));
                entry.insert(Arc::downgrade(&value));
                value
            }),
            Entry::Vacant(entry) => {
                let value = Arc::new(make(key));
                entry.insert(Arc::downgrade(&value));
                value
            }
        }
    }

    /// Removes `key`'s entry if it still points at `dead`. Called from the
    /// value's `Drop`: by then no strong reference is left, but a racing
    /// thread may already have replaced the entry with a fresh value, which
    /// must stay.
    pub(crate) fn forget(&self, key: &str, dead: &T) {
        let mut map = self.lock();
        if map
            .get(key)
            .is_some_and(|entry| std::ptr::eq(entry.as_ptr(), dead))
        {
            map.remove(key);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

// ---------------------------------------------------------------------------
// Scripts.
// ---------------------------------------------------------------------------

static SCRIPTS: std::sync::LazyLock<WeakInterner<Script>> =
    std::sync::LazyLock::new(WeakInterner::new);

/// Number of distinct script texts currently interned, i.e. held alive by
/// some [`crate::Prepared`] in this process. A diagnostic:
/// it returns to its earlier value once those holders are dropped.
pub fn interned_scripts() -> usize {
    SCRIPTS.len()
}

/// A script — a whole SQL text, or one trigger's body — with everything
/// derived from its statements alone: the placeholder signature, the
/// triggers it installs, and the cache of the plan lowered from it.
/// Immutable and shared by every database that runs the text.
#[derive(Debug)]
pub(crate) struct Script {
    pub(crate) statements: Vec<Statement>,
    /// Number of `?` placeholders.
    pub(crate) positional: usize,
    /// Names of `:name` placeholders (lowercased, sorted, deduplicated).
    pub(crate) named: Vec<String>,
    /// What the `CREATE TRIGGER`s among the statements install, in
    /// statement order.
    pub(crate) triggers: Vec<Arc<Trigger>>,
    /// The lowered plan, filled on first execution by whichever database
    /// gets there first and revalidated against each database's catalog
    /// shape.
    pub(crate) plans: PlanCache,
    /// The text the script is interned under; `None` for a trigger body.
    key: Option<Arc<str>>,
}

/// `CREATE TRIGGER name AFTER INSERT ON table { body }`, shared by every
/// database that installs it: they read its names from here rather than
/// keeping copies.
#[derive(Debug)]
pub(crate) struct Trigger {
    /// Lowercase.
    name: Box<str>,
    /// Lowercase.
    table: Box<str>,
    pub(crate) body: Script,
}

impl From<Vec<Statement>> for Script {
    fn from(statements: Vec<Statement>) -> Script {
        let mut derived = Derived::default();
        for stmt in &statements {
            derived.statement(stmt);
        }
        Script {
            statements,
            positional: derived.positional,
            named: derived.named.into_iter().collect(),
            triggers: derived.triggers,
            plans: Mutex::new(None),
            key: None,
        }
    }
}

impl Script {
    /// Resolves `sql` to its shared script, parsing it only if no live
    /// script of the same text exists. Text that fails to parse is never
    /// interned.
    pub(crate) fn intern(sql: &str) -> DbResult<Arc<Script>> {
        if let Some(live) = SCRIPTS.get(sql) {
            return Ok(live);
        }
        // Parse outside the table's lock: concurrent `run`s of different
        // texts must not serialise on it.
        let statements = parse_script(sql)?;
        Ok(SCRIPTS.insert_with(sql, |key| {
            let mut script = Script::from(statements);
            script.key = Some(key);
            script
        }))
    }
}

impl Drop for Script {
    fn drop(&mut self) {
        if let Some(key) = &self.key {
            SCRIPTS.forget(key, self);
        }
    }
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

    /// `true` if this is what `CREATE TRIGGER name AFTER INSERT ON table {
    /// body }` installs.
    pub(crate) fn is(&self, name: &str, table: &str, body: &[Statement]) -> bool {
        self.is_named(name) && self.is_on(table) && self.body.statements == body
    }
}

/// What [`Script::from`] derives from the statements in one walk.
#[derive(Default)]
struct Derived {
    positional: usize,
    named: BTreeSet<String>,
    triggers: Vec<Arc<Trigger>>,
}

impl Derived {
    fn statement(&mut self, stmt: &Statement) {
        match stmt {
            Statement::CreateTable { .. } | Statement::DropTable { .. } => {}
            // Trigger bodies cannot contain parameters (the parser rejects
            // them), so a trigger adds only itself.
            Statement::CreateTrigger { name, table, body } => {
                self.triggers
                    .push(Arc::new(Trigger::new(name, table, body)));
            }
            Statement::Insert { rows, .. } => rows.iter().flatten().for_each(|e| self.expr(e)),
            Statement::Update {
                sets, where_clause, ..
            } => {
                sets.iter().for_each(|s| self.expr(&s.value));
                where_clause.iter().for_each(|w| self.expr(w));
            }
            Statement::Delete { where_clause, .. } => {
                where_clause.iter().for_each(|w| self.expr(w))
            }
            Statement::Select(select) => self.select(select),
            Statement::If { arms, else_block } => {
                for (cond, block) in arms {
                    self.expr(cond);
                    block.iter().for_each(|s| self.statement(s));
                }
                else_block.iter().flatten().for_each(|s| self.statement(s));
            }
            Statement::SetVar { value, .. } => self.expr(value),
        }
    }

    fn select(&mut self, select: &Select) {
        for item in &select.items {
            match item {
                SelectItem::Expr(e) | SelectItem::Agg(_, Some(e)) => self.expr(e),
                SelectItem::Agg(_, None) | SelectItem::Star => {}
            }
        }
        select.where_clause.iter().for_each(|w| self.expr(w));
    }

    fn expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Literal(_) | Expr::Column(_) => {}
            Expr::Param(ParamRef::Positional(i)) => self.positional = self.positional.max(i + 1),
            Expr::Param(ParamRef::Named(n)) => {
                self.named.insert(n.clone());
            }
            Expr::Arith(a, _, b) | Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Expr::Not(inner) | Expr::Neg(inner) => self.expr(inner),
            Expr::Subquery(select) => self.select(select),
        }
    }
}

// ---------------------------------------------------------------------------
// Catalog shapes.
// ---------------------------------------------------------------------------

static SHAPES: std::sync::LazyLock<WeakInterner<CatalogShape>> =
    std::sync::LazyLock::new(WeakInterner::new);

/// A catalog's *shape* — which tables exist, under which spelling, with
/// which column names and types — and the catalog description every
/// database of that shape shares. It is everything planning reads from a
/// database and everything about a table except its rows and indexes; a
/// database holds its shape plus one [`crate::Table`] of rows and indexes
/// per entry of [`CatalogShape::tables`], in the same order, so a plan
/// lowered at a shape names tables by position.
///
/// Shapes are interned, so two databases that ran the same DDL hold the
/// same `Arc` and validate the same planned script, while a database whose
/// DDL diverges holds another and replans on its own. A plan holds the
/// shape it was lowered at: while the plan lives, a database that comes
/// back to that catalog (a table dropped and recreated as it was) comes
/// back to that very `Arc`, and the plan is valid again.
#[derive(Debug)]
pub(crate) struct CatalogShape {
    key: Arc<str>,
    /// Sorted by [`CatalogTable::key`].
    tables: Vec<CatalogTable>,
    /// The shape this one was first interned from by adding a table, kept
    /// alive by it: a catalog that only ever grew holds its whole history,
    /// so the next database running the same DDL finds every shape on the
    /// way interned.
    pub(crate) _parent: Option<Arc<CatalogShape>>,
}

/// One table of a [`CatalogShape`].
#[derive(Debug)]
pub(crate) struct CatalogTable {
    /// The lowercase name tables are ordered and looked up by.
    key: Box<str>,
    /// The spelling the table was created with.
    pub(crate) display: Box<str>,
    pub(crate) schema: Arc<Schema>,
}

impl CatalogShape {
    /// Interns the shape of a catalog listing `tables` as `(display name,
    /// columns)` in catalog-key order, with `parent` if it is new.
    fn intern(tables: &[(&str, &Arc<Schema>)], parent: Option<&Arc<Self>>) -> Arc<Self> {
        use std::fmt::Write;
        // `{:?}` escapes quotes, so the rendering is injective whatever the
        // names contain (host-side `create_table` takes arbitrary strings).
        let mut key = String::new();
        for (display, schema) in tables {
            let _ = write!(key, "{display:?}(");
            for column in schema.columns() {
                let _ = write!(key, "{:?} {},", column.name, column.ty);
            }
            key.push(')');
        }
        if let Some(live) = SHAPES.get(&key) {
            return live;
        }
        SHAPES.insert_with(&key, |key| CatalogShape {
            key,
            tables: tables
                .iter()
                .map(|&(display, schema)| CatalogTable {
                    key: display.to_ascii_lowercase().into(),
                    display: display.into(),
                    schema: Arc::clone(schema),
                })
                .collect(),
            _parent: parent.cloned(),
        })
    }

    /// The shape of a catalog with no tables, where every database starts.
    /// Pinned for the life of the process, so creating a database costs a
    /// reference count rather than an interner lookup.
    pub(crate) fn empty() -> Arc<CatalogShape> {
        static EMPTY: std::sync::LazyLock<Arc<CatalogShape>> =
            std::sync::LazyLock::new(|| CatalogShape::intern(&[], None));
        Arc::clone(&EMPTY)
    }

    /// This shape plus a table `display` of `schema` at `pos`, the slot a
    /// failed [`CatalogShape::search`] for `display` returned.
    pub(crate) fn with_table(
        self: &Arc<Self>,
        pos: usize,
        display: &str,
        schema: &Arc<Schema>,
    ) -> Arc<CatalogShape> {
        let mut listing = self.listing();
        listing.insert(pos, (display, schema));
        CatalogShape::intern(&listing, Some(self))
    }

    /// This shape without the table at `pos`.
    pub(crate) fn without_table(&self, pos: usize) -> Arc<CatalogShape> {
        let mut listing = self.listing();
        listing.remove(pos);
        CatalogShape::intern(&listing, None)
    }

    fn listing(&self) -> Vec<(&str, &Arc<Schema>)> {
        self.tables
            .iter()
            .map(|table| (&*table.display, &table.schema))
            .collect()
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

impl Drop for CatalogShape {
    fn drop(&mut self) {
        SHAPES.forget(&self.key, self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forget_leaves_a_replacement_entry_alone() {
        let interner: WeakInterner<u32> = WeakInterner::new();
        let first = interner.insert_with("k", |_| 1);
        let stale: &u32 = &first;
        // Same key, same live value: a second insert returns the first.
        assert!(Arc::ptr_eq(&first, &interner.insert_with("k", |_| 2)));
        // Forgetting on behalf of some other (dead) value is a no-op…
        interner.forget("k", &7);
        assert_eq!(interner.len(), 1);
        // …and on behalf of the entry's own value removes it.
        interner.forget("k", stale);
        assert_eq!(interner.len(), 0);
        assert!(interner.get("k").is_none());
    }

    #[test]
    fn a_dead_entry_is_replaced_not_resurrected() {
        let interner: WeakInterner<u32> = WeakInterner::new();
        drop(interner.insert_with("k", |_| 1));
        // `u32` has no forgetting `Drop`, so the dead entry lingers — the
        // state a racing thread sees between the last strong reference
        // going away and the value's `Drop` running.
        assert_eq!(interner.len(), 1);
        assert!(interner.get("k").is_none());
        assert_eq!(*interner.insert_with("k", |_| 2), 2);
    }
}
