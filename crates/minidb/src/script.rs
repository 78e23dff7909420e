//! Parsed scripts, compiled once per distinct text.
//!
//! A marketplace runs the same bidding program for thousands of campaigns.
//! Everything the engine derives from a program's *text* — the statement
//! list, its placeholder signature, the lowered plan — is identical for all
//! of them, so it lives in one [`Script`] that every database running the
//! text shares:
//!
//! * [`crate::Database::prepare`] and [`crate::Database::run`] resolve SQL
//!   text to its `Arc<Script>` through a process-wide table of [`Weak`]
//!   references. A text somebody still holds a [`crate::Prepared`] of is
//!   never parsed again; a text nobody holds any more costs nothing — its
//!   entry is removed when the last handle drops, so one-off statements
//!   cannot grow the table.
//! * A `CREATE TRIGGER` body is a nested [`Script`] inside its defining
//!   script's AST, carrying the trigger's name and table. Installing the
//!   trigger stores that very `Arc`, so all databases that executed one
//!   defining script fire one shared body through one shared plan cache.
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
//! DDL hold the same shape, and a plan is reused wherever the shape ids
//! match.

use crate::ast::{Expr, ParamRef, Select, SelectItem, Statement};
use crate::error::DbResult;
use crate::parser::parse_script;
use crate::plan::PlanCache;
use crate::table::Schema;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A parsed script — a whole SQL text, or one `CREATE TRIGGER` body — with
/// everything derived from the text alone: the statements, the placeholder
/// signature, and the cache of the plan lowered from them. Immutable and
/// shared by every database that runs the text; dereferences to its
/// statements.
#[derive(Debug)]
pub struct Script {
    statements: Vec<Statement>,
    /// Number of `?` placeholders.
    positional: usize,
    /// Names of `:name` placeholders (lowercased, sorted, deduplicated).
    named: Vec<String>,
    /// The lowered plan, filled on first execution by whichever database
    /// gets there first and revalidated against each database's catalog
    /// shape.
    pub(crate) plans: PlanCache,
    origin: Origin,
}

/// Where a [`Script`] came from.
#[derive(Debug)]
enum Origin {
    /// A whole text, interned under it.
    Text(Arc<str>),
    /// The body of `CREATE TRIGGER name AFTER INSERT ON table` (both names
    /// lowercase). It lives inside its defining script's AST instead of the
    /// interner, and every database that installs it reads the trigger's
    /// names from here rather than keeping copies.
    Trigger { name: Box<str>, table: Box<str> },
}

impl Script {
    fn new(statements: Vec<Statement>, origin: Origin) -> Script {
        let mut positional = 0usize;
        let mut named = BTreeSet::new();
        for stmt in &statements {
            collect_statement_params(stmt, &mut positional, &mut named);
        }
        Script {
            statements,
            positional,
            named: named.into_iter().collect(),
            plans: Mutex::new(None),
            origin,
        }
    }

    /// Wraps the statements of `CREATE TRIGGER name AFTER INSERT ON table`.
    pub(crate) fn trigger_body(name: &str, table: &str, statements: Vec<Statement>) -> Script {
        let origin = Origin::Trigger {
            name: name.to_ascii_lowercase().into(),
            table: table.to_ascii_lowercase().into(),
        };
        Script::new(statements, origin)
    }

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
        Ok(SCRIPTS.insert_with(sql, |key| Script::new(statements, Origin::Text(key))))
    }

    /// `true` if this is the body of a trigger called `name`
    /// (case-insensitively).
    pub(crate) fn is_trigger_named(&self, name: &str) -> bool {
        matches!(&self.origin, Origin::Trigger { name: own, .. } if own.eq_ignore_ascii_case(name))
    }

    /// `true` if this is the body of a trigger on `table` (case-insensitively).
    pub(crate) fn is_trigger_on(&self, table: &str) -> bool {
        matches!(&self.origin, Origin::Trigger { table: own, .. } if own.eq_ignore_ascii_case(table))
    }

    /// The parsed statements, in script order.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    pub(crate) fn positional_params(&self) -> usize {
        self.positional
    }

    pub(crate) fn named_params(&self) -> &[String] {
        &self.named
    }
}

impl Drop for Script {
    fn drop(&mut self) {
        if let Origin::Text(key) = &self.origin {
            SCRIPTS.forget(key, self);
        }
    }
}

impl std::ops::Deref for Script {
    type Target = [Statement];

    fn deref(&self) -> &[Statement] {
        &self.statements
    }
}

/// Scripts compare by their statements: the plan cache is derived state.
impl PartialEq for Script {
    fn eq(&self, other: &Self) -> bool {
        self.statements == other.statements
    }
}

fn collect_statement_params(
    stmt: &Statement,
    positional: &mut usize,
    named: &mut BTreeSet<String>,
) {
    let mut on_expr = |e: &Expr| collect_expr_params(e, positional, named);
    match stmt {
        Statement::CreateTable { .. } | Statement::DropTable { .. } => {}
        Statement::CreateTrigger { .. } => {
            // Trigger bodies cannot contain parameters (the parser rejects
            // them), so there is nothing to collect.
        }
        Statement::Insert { rows, .. } => {
            for row in rows {
                for e in row {
                    on_expr(e);
                }
            }
        }
        Statement::Update {
            sets, where_clause, ..
        } => {
            for s in sets {
                on_expr(&s.value);
            }
            if let Some(w) = where_clause {
                on_expr(w);
            }
        }
        Statement::Delete { where_clause, .. } => {
            if let Some(w) = where_clause {
                on_expr(w);
            }
        }
        Statement::Select(select) => collect_select_params(select, positional, named),
        Statement::If { arms, else_block } => {
            for (cond, block) in arms {
                collect_expr_params(cond, positional, named);
                for s in block {
                    collect_statement_params(s, positional, named);
                }
            }
            if let Some(block) = else_block {
                for s in block {
                    collect_statement_params(s, positional, named);
                }
            }
        }
        Statement::SetVar { value, .. } => on_expr(value),
        Statement::Explain(_) => {
            // EXPLAIN only plans its inner statement — parameters are never
            // resolved, so they contribute nothing to the binding signature.
        }
    }
}

fn collect_select_params(select: &Select, positional: &mut usize, named: &mut BTreeSet<String>) {
    for item in &select.items {
        match item {
            SelectItem::Expr(e) => collect_expr_params(e, positional, named),
            SelectItem::Agg(_, Some(e)) => collect_expr_params(e, positional, named),
            SelectItem::Agg(_, None) | SelectItem::Star => {}
        }
    }
    if let Some(w) = &select.where_clause {
        collect_expr_params(w, positional, named);
    }
}

fn collect_expr_params(expr: &Expr, positional: &mut usize, named: &mut BTreeSet<String>) {
    match expr {
        Expr::Literal(_) | Expr::Column(_) => {}
        Expr::Param(ParamRef::Positional(i)) => *positional = (*positional).max(i + 1),
        Expr::Param(ParamRef::Named(n)) => {
            named.insert(n.clone());
        }
        Expr::Arith(a, _, b) | Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            collect_expr_params(a, positional, named);
            collect_expr_params(b, positional, named);
        }
        Expr::Not(inner) | Expr::Neg(inner) => collect_expr_params(inner, positional, named),
        Expr::Subquery(select) => collect_select_params(select, positional, named),
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
/// stamped with a shape's id names tables by position.
///
/// Shapes are interned, so two databases that ran the same DDL carry the
/// same [`CatalogShape::id`] and validate the same planned script, while a
/// database whose DDL diverges gets another id and replans on its own. Ids
/// are minted from a counter and never reused: a shape that died and was
/// interned again gets a fresh id, which merely invalidates plans stamped
/// with the old one.
#[derive(Debug)]
pub(crate) struct CatalogShape {
    id: u64,
    key: Arc<str>,
    /// Sorted by [`CatalogTable::key`].
    tables: Vec<CatalogTable>,
    /// The shape this one was first interned from by adding a table, kept
    /// alive by it: a catalog that only ever grew holds its whole history.
    pub(crate) parent: Option<Arc<CatalogShape>>,
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
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        SHAPES.insert_with(&key, |key| CatalogShape {
            // Relaxed: the id publishes nothing but itself.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            key,
            tables: tables
                .iter()
                .map(|&(display, schema)| CatalogTable {
                    key: display.to_ascii_lowercase().into(),
                    display: display.into(),
                    schema: Arc::clone(schema),
                })
                .collect(),
            parent: parent.cloned(),
        })
    }

    /// The shape of a catalog with no tables, where every database starts.
    /// Pinned for the life of the process: scripts that begin with DDL are
    /// planned against it, and it would otherwise die (and come back under
    /// a new id, invalidating those plans) whenever no database happens to
    /// be empty.
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

    /// The id plans are stamped with and databases compare against.
    pub(crate) fn id(&self) -> u64 {
        self.id
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
