//! Query planning: logical → physical plans, secondary-index selection,
//! and the planned executor — the one executor every statement other than
//! DDL runs on ([`crate::exec`] holds the database and its DDL). The
//! pipeline is layered:
//!
//! 1. **Logical plan** — `plan_statement` lowers a parsed statement
//!    once: the target table is resolved to its catalog position, every column
//!    reference to a `(scope depth, offset)` pair, every expression to a
//!    flat compiled op sequence (`crate::compile`), and parameter slots
//!    stay symbolic so one plan serves every binding.
//! 2. **Physical plan** — a tiny planner picks the access path per
//!    table scan: an equality conjunct `col = key` over an `INT`/`TEXT`
//!    column whose key is row-independent becomes an
//!    `AccessKind::IndexEq` probe against a sorted-array index
//!    (`crate::index`); anything else stays a full scan.
//! 3. **Execution** — [`Database`] methods here run the planned form,
//!    creating requested indexes on demand (maintained incrementally by
//!    [`crate::table::Table`] afterwards) and updating
//!    [`PlannerStats`] counters.
//!
//! A plan holds the catalog *shape* it was lowered at
//! (`crate::script::CatalogShape`: tables, column names and types,
//! variable names — all that planning reads), and is valid exactly where
//! that `Arc` is the database's shape. The instances of one
//! [`crate::Template`] hold its shape, so the plans lowered once for it run
//! in all of them; `CREATE TABLE`/`DROP TABLE`, or a variable set for the
//! first time, gives a database a shape of its own, and a plan lowered at
//! another one is transparently replanned, so cached plans never observe a
//! renamed schema. Because a shape fixes the catalog's table and variable
//! lists, a plan names tables and variables by their position in them: a
//! database holds its tables and variable values in the shape's order.
//!
//! **Equivalence guarantee**: for every script, the planned executor
//! produces bit-identical outcomes — rows, errors, trigger effects, and
//! final table contents — to a tree-walking interpreter that scans every
//! table, the reference minidb's own tests hold it to (it is compiled into
//! test builds only). The planner only emits an index probe when it can
//! prove the remaining conjuncts cannot raise an error the scan would have
//! surfaced on a row the probe skips; probes whose key type does not match
//! the column fall back to a scan at run time.

use crate::ast::{AggFunc, CmpOp, Expr, Select, SelectItem, Statement};
use crate::compile::{
    compile_conjunction, compile_expr, infallible_type, resolve_static, scope_independent, CScope,
    CompiledExpr, EvalCx, Resolution, STy,
};
use crate::error::{DbError, DbResult};
use crate::exec::{Database, ExecOutcome};
use crate::prepared::Params;
use crate::script::{CatalogShape, Script};
use crate::table::{Row, Table};
use crate::value::{ArithOp, Value, ValueType};
use std::cell::Cell;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Counters and planned scripts.
// ---------------------------------------------------------------------------

/// Monotonic planner counters for one [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerStats {
    /// Number of statement executions answered by an index probe.
    pub index_hits: u64,
    /// Rows examined by full-scan access paths.
    pub rows_scanned: u64,
    /// Statement plans lowered for this database's owners (prepared
    /// handles, triggers) and memoised by them. An instance of a
    /// [`crate::Template`] starts at the count of plans its template
    /// lowered for it: its setup statements and trigger bodies.
    pub plans_cached: u64,
}

/// Interior-mutability counters so read-only execution paths can count.
/// Plain `Cell`s, not atomics: `rows_scanned` ticks once per scanned row on
/// the serving path, where a locked read-modify-write per row is measurable
/// at marketplace scale. A database is owned by one thread at a time (it is
/// `Send` but not `Sync`), so unsynchronised counters are sound.
#[derive(Debug, Default, Clone)]
pub(crate) struct PlannerCounters {
    pub(crate) index_hits: Cell<u64>,
    pub(crate) rows_scanned: Cell<u64>,
    pub(crate) plans_cached: Cell<u64>,
}

impl PlannerCounters {
    pub(crate) fn bump(cell: &Cell<u64>, by: u64) {
        cell.set(cell.get() + by);
    }
}

/// A whole script (prepared statement list or trigger body) planned at one
/// catalog shape. Memoising the script as a unit means executing it costs
/// one shape comparison, not one per statement — the per-statement shape
/// check in [`Database::exec_planned`] still catches DDL executed
/// mid-script.
#[derive(Debug)]
pub(crate) struct PlannedScript {
    /// The shape the script was lowered at, kept alive by it.
    shape: Arc<CatalogShape>,
    /// Stored inline (not `Arc`-boxed per statement): the script is the
    /// sharing unit, and one contiguous allocation keeps the serving path's
    /// cold-cache footprint down.
    plans: Vec<StmtPlan>,
    /// Every `(table position, column ordinal)` the script's plans probe,
    /// sorted and deduplicated: what a database running this script must
    /// index.
    pub(crate) index_reqs: Vec<(usize, usize)>,
}

impl PlannedScript {
    /// Lowers `script` against `db`'s catalog. Pure: builds no index and
    /// counts nothing.
    pub(crate) fn lower(db: &Database, script: &Script) -> PlannedScript {
        let plans: Vec<StmtPlan> = script
            .statements
            .iter()
            .map(|stmt| plan_statement(db, stmt))
            .collect();
        let mut index_reqs: Vec<(usize, usize)> = plans
            .iter()
            .flat_map(|p| p.index_reqs.iter().copied())
            .collect();
        index_reqs.sort();
        index_reqs.dedup();
        PlannedScript {
            shape: Arc::clone(&db.shape),
            plans,
            index_reqs,
        }
    }

    /// The statement plans, in script order.
    pub(crate) fn plans(&self) -> &[StmtPlan] {
        &self.plans
    }

    /// `true` if the script was lowered at `db`'s catalog shape. Owners
    /// that memoise a script (prepared statements, trigger definitions)
    /// check this before reusing it.
    pub(crate) fn fits(&self, db: &Database) -> bool {
        Arc::ptr_eq(&self.shape, &db.shape)
    }
}

// ---------------------------------------------------------------------------
// Plan structures.
// ---------------------------------------------------------------------------

/// A fully lowered statement: the catalog shape it was planned at, the
/// executable form, and the indexes it wants materialised.
#[derive(Debug)]
pub(crate) struct StmtPlan {
    shape: Arc<CatalogShape>,
    kind: PlanKind,
    /// `(table position, column ordinal)` pairs this plan probes.
    pub(crate) index_reqs: Vec<(usize, usize)>,
}

#[derive(Debug)]
enum PlanKind {
    /// DDL runs unplanned through `Database::exec_ddl` (and may move the
    /// catalog shape), whatever shape it was planned at.
    Ddl,
    /// Planning already diagnosed the statement's first runtime error.
    Raise(DbError),
    Insert(PlannedInsert),
    Update(PlannedUpdate),
    Delete(PlannedDelete),
    Select(PlannedSelect),
    If {
        arms: Vec<(CompiledExpr, PlannedBlock)>,
        else_block: Option<PlannedBlock>,
    },
    SetVar {
        name: String,
        /// The variable's slot in the catalog's names; `None` if it is set
        /// here for the first time.
        slot: Option<usize>,
        value: CompiledExpr,
    },
}

#[derive(Debug)]
struct PlannedBlock {
    /// Source + plan pairs; nested plans revalidate their shape at
    /// execution (DDL earlier in the block may have invalidated them).
    stmts: Vec<(Statement, StmtPlan)>,
}

// A `table` field below is a position in the catalog shape the plan was
// lowered at; plans execute only on a database of that shape.

#[derive(Debug)]
struct PlannedInsert {
    table: usize,
    schema_len: usize,
    rows: Vec<PRow>,
}

#[derive(Debug)]
struct PRow {
    exprs: Vec<CompiledExpr>,
    map: RowMap,
}

/// How one VALUES tuple maps onto the schema.
#[derive(Debug)]
enum RowMap {
    /// No column list: values align with the schema positionally.
    Direct,
    /// Explicit column list: `slots[i]` is the schema offset of value `i`.
    Mapped(Vec<usize>),
    /// The column list itself is invalid; the error fires *after* this
    /// tuple's expressions evaluate, matching the interpreter's order.
    Err(DbError),
}

#[derive(Debug)]
struct PlannedUpdate {
    table: usize,
    access: AccessPlan,
    sets: Vec<(usize, CompiledExpr)>,
}

#[derive(Debug)]
struct PlannedDelete {
    table: usize,
    access: AccessPlan,
}

/// A planned SELECT (also the body of a scalar subquery op).
#[derive(Debug)]
pub(crate) struct PlannedSelect {
    /// Pre-diagnosed error (missing table, or aggregates mixed with plain
    /// columns), raised before any row work — exactly like the interpreter.
    error: Option<DbError>,
    table: usize,
    access: AccessPlan,
    proj: Proj,
}

#[derive(Debug)]
enum Proj {
    Rows(Vec<PItem>),
    Aggs(Vec<PAgg>),
}

#[derive(Debug)]
enum PItem {
    Star,
    Expr(CompiledExpr),
}

#[derive(Debug)]
enum PAgg {
    CountStar,
    Over(AggFunc, CompiledExpr),
    /// `*` under a non-COUNT aggregate: errors at this item's turn.
    StarError,
}

#[derive(Debug)]
struct AccessPlan {
    kind: AccessKind,
    /// The whole WHERE clause, compiled — used by scans and by the run-time
    /// fallback when a probe key's type does not match the column.
    full_pred: Option<CompiledExpr>,
}

#[derive(Debug)]
enum AccessKind {
    Scan,
    IndexEq {
        col: usize,
        /// Row-independent probe key, evaluated once per statement (only
        /// when the table is non-empty, matching interpreter error order).
        key: CompiledExpr,
        /// Remaining conjuncts (all statically infallible), evaluated on
        /// each probed row.
        residual: Option<CompiledExpr>,
    },
}

// ---------------------------------------------------------------------------
// Planning.
// ---------------------------------------------------------------------------

/// Lowers one statement against the current catalog. Pure: reads the
/// database, never mutates it (no index creation, no counters).
fn plan_statement(db: &Database, stmt: &Statement) -> StmtPlan {
    let kind = plan_kind(db, stmt);
    let mut reqs = Vec::new();
    collect_reqs_kind(&kind, &mut reqs);
    reqs.sort();
    reqs.dedup();
    StmtPlan {
        shape: Arc::clone(&db.shape),
        kind,
        index_reqs: reqs,
    }
}

fn plan_kind(db: &Database, stmt: &Statement) -> PlanKind {
    match stmt {
        Statement::CreateTable { .. }
        | Statement::DropTable { .. }
        | Statement::CreateTrigger { .. } => PlanKind::Ddl,
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let Some(pos) = db.shape.position(table) else {
                return PlanKind::Raise(DbError::NoSuchTable(table.clone()));
            };
            let schema = &*db.shape.tables()[pos].schema;
            let planned_rows = rows
                .iter()
                .map(|exprs| {
                    let compiled = exprs.iter().map(|e| compile_expr(e, db, &[])).collect();
                    let map = match columns {
                        None => RowMap::Direct,
                        Some(cols) => {
                            if cols.len() != exprs.len() {
                                RowMap::Err(DbError::Arity {
                                    expected: cols.len(),
                                    got: exprs.len(),
                                })
                            } else {
                                match cols
                                    .iter()
                                    .map(|c| {
                                        schema
                                            .index_of(c)
                                            .ok_or_else(|| DbError::NoSuchColumn(c.clone()))
                                    })
                                    .collect::<DbResult<Vec<usize>>>()
                                {
                                    Ok(slots) => RowMap::Mapped(slots),
                                    Err(e) => RowMap::Err(e),
                                }
                            }
                        }
                    };
                    PRow {
                        exprs: compiled,
                        map,
                    }
                })
                .collect();
            PlanKind::Insert(PlannedInsert {
                table: pos,
                schema_len: schema.len(),
                rows: planned_rows,
            })
        }
        Statement::Update {
            table,
            sets,
            where_clause,
        } => {
            let Some(pos) = db.shape.position(table) else {
                return PlanKind::Raise(DbError::NoSuchTable(table.clone()));
            };
            let described = &db.shape.tables()[pos];
            let schema = &*described.schema;
            let mut set_plans = Vec::with_capacity(sets.len());
            let scopes = [CScope {
                name: &described.display,
                alias: None,
                schema,
            }];
            // Set targets resolve before any row work, like the interpreter.
            let mut set_indices = Vec::with_capacity(sets.len());
            for s in sets {
                match schema.index_of(&s.column) {
                    Some(idx) => set_indices.push(idx),
                    None => return PlanKind::Raise(DbError::NoSuchColumn(s.column.clone())),
                }
            }
            for (s, idx) in sets.iter().zip(set_indices) {
                set_plans.push((idx, compile_expr(&s.value, db, &scopes)));
            }
            let access = plan_access(db, where_clause.as_ref(), &scopes, 0);
            PlanKind::Update(PlannedUpdate {
                table: pos,
                access,
                sets: set_plans,
            })
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let Some(pos) = db.shape.position(table) else {
                return PlanKind::Raise(DbError::NoSuchTable(table.clone()));
            };
            let described = &db.shape.tables()[pos];
            let scopes = [CScope {
                name: &described.display,
                alias: None,
                schema: &described.schema,
            }];
            let access = plan_access(db, where_clause.as_ref(), &scopes, 0);
            PlanKind::Delete(PlannedDelete { table: pos, access })
        }
        Statement::Select(select) => PlanKind::Select(plan_select(db, select, &[])),
        Statement::If { arms, else_block } => PlanKind::If {
            arms: arms
                .iter()
                .map(|(cond, block)| (compile_expr(cond, db, &[]), plan_block(db, block)))
                .collect(),
            else_block: else_block.as_ref().map(|b| plan_block(db, b)),
        },
        Statement::SetVar { name, value } => PlanKind::SetVar {
            name: name.clone(),
            slot: db.shape.vars.slot(name),
            value: compile_expr(value, db, &[]),
        },
    }
}

fn plan_block(db: &Database, block: &[Statement]) -> PlannedBlock {
    PlannedBlock {
        stmts: block
            .iter()
            .map(|s| (s.clone(), plan_statement(db, s)))
            .collect(),
    }
}

/// Plans a SELECT given the statically known outer scopes (empty for a
/// top-level statement; the enclosing rows' scopes for a subquery).
pub(crate) fn plan_select(db: &Database, select: &Select, outer: &[CScope<'_>]) -> PlannedSelect {
    let dummy = |error: DbError| PlannedSelect {
        error: Some(error),
        table: 0,
        access: AccessPlan {
            kind: AccessKind::Scan,
            full_pred: None,
        },
        proj: Proj::Rows(Vec::new()),
    };
    let Some(pos) = db.shape.position(&select.from) else {
        return dummy(DbError::NoSuchTable(select.from.clone()));
    };
    let described = &db.shape.tables()[pos];
    let has_agg = select
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Agg(..)));
    if has_agg
        && select
            .items
            .iter()
            .any(|i| !matches!(i, SelectItem::Agg(..)))
    {
        return dummy(DbError::Type(
            "cannot mix aggregates with plain columns (no GROUP BY)".to_string(),
        ));
    }
    let mut scopes: Vec<CScope<'_>> = outer.to_vec();
    scopes.push(CScope {
        name: &described.display,
        alias: select.alias.as_deref(),
        schema: &described.schema,
    });
    let scan_depth = scopes.len() - 1;
    let access = plan_access(db, select.where_clause.as_ref(), &scopes, scan_depth);
    let proj = if has_agg {
        Proj::Aggs(
            select
                .items
                .iter()
                // Every item is an aggregate: mixing was refused above.
                .filter_map(|item| match item {
                    SelectItem::Agg(AggFunc::Count, None) => Some(PAgg::CountStar),
                    SelectItem::Agg(_, None) => Some(PAgg::StarError),
                    SelectItem::Agg(f, Some(e)) => {
                        Some(PAgg::Over(*f, compile_expr(e, db, &scopes)))
                    }
                    SelectItem::Star | SelectItem::Expr(_) => None,
                })
                .collect(),
        )
    } else {
        Proj::Rows(
            select
                .items
                .iter()
                // No item is an aggregate: `has_agg` is false.
                .filter_map(|item| match item {
                    SelectItem::Star => Some(PItem::Star),
                    SelectItem::Expr(e) => Some(PItem::Expr(compile_expr(e, db, &scopes))),
                    SelectItem::Agg(..) => None,
                })
                .collect(),
        )
    };
    PlannedSelect {
        error: None,
        table: pos,
        access,
        proj,
    }
}

fn plan_access(
    db: &Database,
    where_clause: Option<&Expr>,
    scopes: &[CScope<'_>],
    scan_depth: usize,
) -> AccessPlan {
    let Some(pred) = where_clause else {
        return AccessPlan {
            kind: AccessKind::Scan,
            full_pred: None,
        };
    };
    let full = compile_expr(pred, db, scopes);
    let mut conjuncts = Vec::new();
    flatten_and(pred, &mut conjuncts);
    for i in 0..conjuncts.len() {
        let Some((col, key_expr)) = eq_probe(conjuncts[i], scopes, scan_depth) else {
            continue;
        };
        // Rows the probe skips never evaluate the residual conjuncts, so
        // every one of them must be provably error-free (and a truth value,
        // or the interpreter's per-row condition check would have fired).
        let others: Vec<&Expr> = conjuncts
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, c)| *c)
            .collect();
        if !others
            .iter()
            .all(|c| matches!(infallible_type(c, scopes), Some(STy::Bool | STy::Null)))
        {
            continue;
        }
        let residual = if others.is_empty() {
            None
        } else {
            Some(compile_conjunction(&others, db, scopes))
        };
        return AccessPlan {
            kind: AccessKind::IndexEq {
                col,
                key: compile_expr(key_expr, db, scopes),
                residual,
            },
            full_pred: Some(full),
        };
    }
    AccessPlan {
        kind: AccessKind::Scan,
        full_pred: Some(full),
    }
}

fn flatten_and<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::And(a, b) = expr {
        flatten_and(a, out);
        flatten_and(b, out);
    } else {
        out.push(expr);
    }
}

/// Checks whether a conjunct has the shape `col = key` (either side) with
/// `col` an indexable column of the scanned table and `key` independent of
/// the scanned row. Returns the column ordinal and the key expression.
fn eq_probe<'e>(
    conjunct: &'e Expr,
    scopes: &[CScope<'_>],
    scan_depth: usize,
) -> Option<(usize, &'e Expr)> {
    let Expr::Cmp(l, CmpOp::Eq, r) = conjunct else {
        return None;
    };
    for (col_side, key_side) in [(&**l, &**r), (&**r, &**l)] {
        let Expr::Column(cref) = col_side else {
            continue;
        };
        let Resolution::Cell { depth, col } = resolve_static(cref, scopes) else {
            continue;
        };
        if depth != scan_depth {
            continue;
        }
        let column = &scopes[depth].schema.columns()[col];
        if !matches!(column.ty, ValueType::Int | ValueType::Text) {
            continue;
        }
        if scope_independent(key_side, scopes, scan_depth) {
            return Some((col, key_side));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Index requirements.
// ---------------------------------------------------------------------------

fn collect_reqs_kind(kind: &PlanKind, out: &mut Vec<(usize, usize)>) {
    match kind {
        PlanKind::Ddl | PlanKind::Raise(_) => {}
        PlanKind::Insert(pi) => {
            for prow in &pi.rows {
                for ce in &prow.exprs {
                    collect_reqs_expr(ce, out);
                }
            }
        }
        PlanKind::Update(pu) => {
            collect_reqs_access(pu.table, &pu.access, out);
            for (_, ce) in &pu.sets {
                collect_reqs_expr(ce, out);
            }
        }
        PlanKind::Delete(pd) => collect_reqs_access(pd.table, &pd.access, out),
        PlanKind::Select(ps) => collect_reqs_select(ps, out),
        PlanKind::If { arms, else_block } => {
            for (cond, block) in arms {
                collect_reqs_expr(cond, out);
                for (_, plan) in &block.stmts {
                    out.extend(&plan.index_reqs);
                }
            }
            if let Some(block) = else_block {
                for (_, plan) in &block.stmts {
                    out.extend(&plan.index_reqs);
                }
            }
        }
        PlanKind::SetVar { value, .. } => collect_reqs_expr(value, out),
    }
}

fn collect_reqs_select(ps: &PlannedSelect, out: &mut Vec<(usize, usize)>) {
    if ps.error.is_some() {
        return;
    }
    collect_reqs_access(ps.table, &ps.access, out);
    match &ps.proj {
        Proj::Rows(items) => {
            for item in items {
                if let PItem::Expr(ce) = item {
                    collect_reqs_expr(ce, out);
                }
            }
        }
        Proj::Aggs(aggs) => {
            for agg in aggs {
                if let PAgg::Over(_, ce) = agg {
                    collect_reqs_expr(ce, out);
                }
            }
        }
    }
}

fn collect_reqs_access(table: usize, access: &AccessPlan, out: &mut Vec<(usize, usize)>) {
    if let AccessKind::IndexEq {
        col, key, residual, ..
    } = &access.kind
    {
        out.push((table, *col));
        collect_reqs_expr(key, out);
        if let Some(r) = residual {
            collect_reqs_expr(r, out);
        }
    }
    if let Some(p) = &access.full_pred {
        collect_reqs_expr(p, out);
    }
}

fn collect_reqs_expr(ce: &CompiledExpr, out: &mut Vec<(usize, usize)>) {
    for sub in ce.subqueries() {
        collect_reqs_select(sub, out);
    }
}

// ---------------------------------------------------------------------------
// Planned execution.
// ---------------------------------------------------------------------------

/// Folds pre-filtered (non-NULL) aggregate inputs; shared verbatim by both
/// the interpreter and the planned executor so the two cannot diverge.
pub(crate) fn fold_aggregate(func: AggFunc, values: Vec<Value>) -> DbResult<Value> {
    match func {
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Sum => {
            // Paper Figure 6 semantics: empty SUM is 0.
            let mut acc = Value::Int(0);
            for v in &values {
                acc = acc.arith(ArithOp::Add, v)?;
            }
            Ok(acc)
        }
        AggFunc::Avg => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let mut sum = 0.0;
            for v in &values {
                sum += v.as_f64()?;
            }
            Ok(Value::Float(sum / values.len() as f64))
        }
        AggFunc::Max | AggFunc::Min => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let ord = v.compare(&b)?.ok_or_else(|| {
                            DbError::Type("NULL slipped into aggregate".to_string())
                        })?;
                        let take_new = if func == AggFunc::Max {
                            ord.is_gt()
                        } else {
                            ord.is_lt()
                        };
                        if take_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

/// Runs the candidate rows of `access` over `table`, calling `on_match`
/// (with the row's scope still pushed on `cx`) for every row the predicate
/// accepts. Preserves the interpreter's row order and error order.
fn for_each_match<'a>(
    cx: &mut EvalCx<'a>,
    table: &'a Table,
    access: &AccessPlan,
    mut on_match: impl FnMut(&mut EvalCx<'a>, usize, &'a [Value]) -> DbResult<()>,
) -> DbResult<()> {
    let db = cx.db;
    match &access.kind {
        AccessKind::Scan => scan_matches(cx, table, access.full_pred.as_ref(), &mut on_match),
        AccessKind::IndexEq {
            col, key, residual, ..
        } => {
            // An empty table evaluates nothing at all (the interpreter's
            // per-row loop never runs), so the key must not run either.
            if table.is_empty() {
                return Ok(());
            }
            let key_value = key.eval(cx)?;
            let Some(postings) = table.index_lookup(*col, &key_value) else {
                // Key type ≠ column type: equality semantics across types
                // (numeric widening, type errors) are the scan's business.
                return scan_matches(cx, table, access.full_pred.as_ref(), &mut on_match);
            };
            PlannerCounters::bump(&db.counters.index_hits, 1);
            for &ridx in postings {
                match_row(cx, ridx, table.row(ridx), residual.as_ref(), &mut on_match)?;
            }
            Ok(())
        }
    }
}

/// Calls `on_match` on `row` if `pred` accepts it, the row's scope pushed
/// on `cx` meanwhile.
#[inline]
fn match_row<'a>(
    cx: &mut EvalCx<'a>,
    ridx: usize,
    row: &'a [Value],
    pred: Option<&CompiledExpr>,
    on_match: &mut impl FnMut(&mut EvalCx<'a>, usize, &'a [Value]) -> DbResult<()>,
) -> DbResult<()> {
    cx.scopes.push(row);
    let result = match pred.map_or(Ok(true), |p| p.eval_predicate(cx)) {
        Ok(true) => on_match(cx, ridx, row),
        Ok(false) => Ok(()),
        Err(e) => Err(e),
    };
    cx.scopes.pop();
    result
}

fn scan_matches<'a>(
    cx: &mut EvalCx<'a>,
    table: &'a Table,
    pred: Option<&CompiledExpr>,
    on_match: &mut impl FnMut(&mut EvalCx<'a>, usize, &'a [Value]) -> DbResult<()>,
) -> DbResult<()> {
    let db = cx.db;
    for (ridx, row) in table.rows().enumerate() {
        PlannerCounters::bump(&db.counters.rows_scanned, 1);
        match_row(cx, ridx, row, pred, on_match)?;
    }
    Ok(())
}

/// Executes a planned SELECT in the given evaluation context (empty scopes
/// for a top-level statement; the outer rows for a scalar subquery).
pub(crate) fn run_planned_select<'a>(
    ps: &PlannedSelect,
    cx: &mut EvalCx<'a>,
) -> DbResult<Vec<Row>> {
    if let Some(e) = &ps.error {
        return Err(e.clone());
    }
    let db = cx.db;
    let table = &db.tables[ps.table];
    let mut matched: Vec<&'a [Value]> = Vec::new();
    for_each_match(cx, table, &ps.access, |_cx, _ridx, row| {
        matched.push(row);
        Ok(())
    })?;
    match &ps.proj {
        Proj::Aggs(aggs) => {
            let mut out = Vec::with_capacity(aggs.len());
            for agg in aggs {
                match agg {
                    PAgg::CountStar => out.push(Value::Int(matched.len() as i64)),
                    PAgg::StarError => {
                        return Err(DbError::Type(
                            "only COUNT accepts '*' as its argument".to_string(),
                        ))
                    }
                    PAgg::Over(func, ce) => {
                        let mut values = Vec::with_capacity(matched.len());
                        for row in &matched {
                            cx.scopes.push(row);
                            let v = ce.eval(cx);
                            cx.scopes.pop();
                            let v = v?;
                            if !v.is_null() {
                                values.push(v);
                            }
                        }
                        out.push(fold_aggregate(*func, values)?);
                    }
                }
            }
            Ok(vec![out])
        }
        Proj::Rows(items) => {
            let mut rows_out = Vec::with_capacity(matched.len());
            for row in matched {
                cx.scopes.push(row);
                let mut out = Vec::new();
                let mut failed = None;
                for item in items {
                    match item {
                        PItem::Star => out.extend(row.iter().cloned()),
                        PItem::Expr(ce) => match ce.eval(cx) {
                            Ok(v) => out.push(v),
                            Err(e) => {
                                failed = Some(e);
                                break;
                            }
                        },
                    }
                }
                cx.scopes.pop();
                if let Some(e) = failed {
                    return Err(e);
                }
                rows_out.push(out);
            }
            Ok(rows_out)
        }
    }
}

impl Database {
    /// Lowers `script` at this database's catalog for an owner to memoise,
    /// counts its plans and builds the indexes they probe.
    pub(crate) fn plan_script(&mut self, script: &Script) -> Arc<PlannedScript> {
        let planned = PlannedScript::lower(self, script);
        PlannerCounters::bump(&self.counters.plans_cached, planned.plans.len() as u64);
        self.ensure_plan_indexes(&planned.index_reqs);
        Arc::new(planned)
    }

    /// Executes a whole pre-planned script: the fast path for owners that
    /// memoise their [`PlannedScript`] (see [`crate::Prepared::execute`]).
    /// The caller has already revalidated the script's shape; the
    /// per-statement check in [`Database::exec_planned`] still catches DDL
    /// executed mid-script.
    pub(crate) fn execute_planned_script(
        &mut self,
        statements: &[Statement],
        script: &PlannedScript,
        params: &Params,
    ) -> DbResult<Vec<ExecOutcome>> {
        let mut outcomes = Vec::with_capacity(statements.len());
        let planned = statements.iter().zip(script.plans());
        self.exec_planned_seq(planned, params, |outcome| outcomes.push(outcome))?;
        Ok(outcomes)
    }

    /// Executes planned statements in order: a prepared script, a trigger
    /// body, an `IF` block.
    pub(crate) fn exec_planned_seq<'p>(
        &mut self,
        planned: impl Iterator<Item = (&'p Statement, &'p StmtPlan)>,
        params: &Params,
        mut outcome: impl FnMut(ExecOutcome),
    ) -> DbResult<()> {
        for (stmt, plan) in planned {
            outcome(self.exec_planned(stmt, plan, params)?);
        }
        Ok(())
    }

    /// Executes a statement against a plan, transparently replanning when
    /// the catalog has moved since the plan was built (DDL has no plan to
    /// go stale).
    pub(crate) fn exec_planned(
        &mut self,
        source: &Statement,
        plan: &StmtPlan,
        params: &Params,
    ) -> DbResult<ExecOutcome> {
        if !Arc::ptr_eq(&plan.shape, &self.shape) && !matches!(plan.kind, PlanKind::Ddl) {
            let fresh = plan_statement(self, source);
            self.ensure_plan_indexes(&fresh.index_reqs);
            return self.exec_plan_kind(source, &fresh, params);
        }
        self.exec_plan_kind(source, plan, params)
    }

    /// Builds the indexes `reqs` name, positions taken at this database's
    /// current catalog shape.
    pub(crate) fn ensure_plan_indexes(&mut self, reqs: &[(usize, usize)]) {
        for &(table, col) in reqs {
            if let Some(table) = self.tables.get_mut(table) {
                table.ensure_index(col);
            }
        }
    }

    fn exec_plan_kind(
        &mut self,
        source: &Statement,
        plan: &StmtPlan,
        params: &Params,
    ) -> DbResult<ExecOutcome> {
        // Indexes were materialised when the plan was lowered or its memo
        // checked (plan_script, or the replan above) — execution only
        // probes them.
        match &plan.kind {
            PlanKind::Ddl => self.exec_ddl(source),
            PlanKind::Raise(e) => Err(e.clone()),
            PlanKind::SetVar { name, slot, value } => {
                let v = {
                    let mut cx = EvalCx::new(&*self, params);
                    value.eval(&mut cx)?
                };
                match slot {
                    Some(slot) => self.vars[*slot] = Some(v),
                    None => self.set_var(name, v),
                }
                Ok(ExecOutcome::Done)
            }
            PlanKind::If { arms, else_block } => {
                for (cond, block) in arms {
                    let hit = {
                        let mut cx = EvalCx::new(&*self, params);
                        cond.eval_predicate(&mut cx)?
                    };
                    if hit {
                        return self.exec_planned_block(block, params);
                    }
                }
                if let Some(block) = else_block {
                    return self.exec_planned_block(block, params);
                }
                Ok(ExecOutcome::Done)
            }
            PlanKind::Select(ps) => {
                let rows = {
                    let mut cx = EvalCx::new(&*self, params);
                    run_planned_select(ps, &mut cx)?
                };
                Ok(ExecOutcome::Rows(rows))
            }
            PlanKind::Insert(pi) => self.exec_planned_insert(pi, params),
            PlanKind::Update(pu) => self.exec_planned_update(pu, params),
            PlanKind::Delete(pd) => self.exec_planned_delete(pd, params),
        }
    }

    fn exec_planned_block(
        &mut self,
        block: &PlannedBlock,
        params: &Params,
    ) -> DbResult<ExecOutcome> {
        let planned = block.stmts.iter().map(|(stmt, plan)| (stmt, plan));
        self.exec_planned_seq(planned, params, |_| ())?;
        Ok(ExecOutcome::Done)
    }

    fn exec_planned_insert(
        &mut self,
        pi: &PlannedInsert,
        params: &Params,
    ) -> DbResult<ExecOutcome> {
        // Evaluate before mutating (expressions may read other tables),
        // mapping each tuple onto the schema in interpreter order.
        let mut materialised: Vec<Row> = Vec::with_capacity(pi.rows.len());
        {
            let mut cx = EvalCx::new(&*self, params);
            for prow in &pi.rows {
                let mut values = Vec::with_capacity(prow.exprs.len());
                for ce in &prow.exprs {
                    values.push(ce.eval(&mut cx)?);
                }
                let row = match &prow.map {
                    RowMap::Direct => values,
                    RowMap::Mapped(slots) => {
                        let mut full = vec![Value::Null; pi.schema_len];
                        for (slot, v) in slots.iter().zip(values) {
                            full[*slot] = v;
                        }
                        full
                    }
                    RowMap::Err(e) => return Err(e.clone()),
                };
                materialised.push(row);
            }
        }
        let count = materialised.len();
        let t = &mut self.tables[pi.table];
        for row in materialised {
            t.insert(row)?;
        }
        self.fire_triggers(pi.table)?;
        Ok(ExecOutcome::Inserted(count))
    }

    fn exec_planned_update(
        &mut self,
        pu: &PlannedUpdate,
        params: &Params,
    ) -> DbResult<ExecOutcome> {
        // Phase 1 (immutable): snapshot semantics — find matches and compute
        // new values, interleaved per row exactly like the interpreter.
        let mut planned_rows: Vec<(usize, Vec<(usize, Value)>)> = Vec::new();
        {
            let mut cx = EvalCx::new(&*self, params);
            let db = cx.db;
            let t = &db.tables[pu.table];
            for_each_match(&mut cx, t, &pu.access, |cx, ridx, _row| {
                let mut assignments = Vec::with_capacity(pu.sets.len());
                for (cidx, ce) in &pu.sets {
                    assignments.push((*cidx, ce.eval(cx)?));
                }
                planned_rows.push((ridx, assignments));
                Ok(())
            })?;
        }
        // Phase 2 (mutable): apply.
        let count = planned_rows.len();
        let t = &mut self.tables[pu.table];
        for (ridx, assignments) in planned_rows {
            for (cidx, value) in assignments {
                t.set_cell(ridx, cidx, value)?;
            }
        }
        Ok(ExecOutcome::Updated(count))
    }

    fn exec_planned_delete(
        &mut self,
        pd: &PlannedDelete,
        params: &Params,
    ) -> DbResult<ExecOutcome> {
        let mut doomed: Vec<usize> = Vec::new();
        {
            let mut cx = EvalCx::new(&*self, params);
            let db = cx.db;
            let t = &db.tables[pd.table];
            for_each_match(&mut cx, t, &pd.access, |_cx, ridx, _row| {
                doomed.push(ridx);
                Ok(())
            })?;
        }
        let count = doomed.len();
        self.tables[pd.table].delete_rows(&doomed);
        Ok(ExecOutcome::Deleted(count))
    }

    // ---- public planner API ----------------------------------------------

    /// Current planner counters (monotonic since the database was created).
    pub fn planner_stats(&self) -> PlannerStats {
        PlannerStats {
            index_hits: self.counters.index_hits.get(),
            rows_scanned: self.counters.rows_scanned.get(),
            plans_cached: self.counters.plans_cached.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecOutcome;
    use crate::value::Value;

    fn seeded() -> Database {
        let mut db = Database::new();
        db.run("CREATE TABLE Keywords (Text TEXT, Bid INT)")
            .unwrap();
        for (t, b) in [("boot", 4), ("shoe", 7), ("boot", 9), ("sock", 1)] {
            db.run(&format!("INSERT INTO Keywords VALUES ('{t}', {b})"))
                .unwrap();
        }
        db
    }

    #[test]
    fn mixed_case_references_share_one_index() {
        let mut db = seeded();
        // Same logical query under three casings of the table and column.
        let spellings = [
            "SELECT Bid FROM Keywords WHERE Text = 'boot'",
            "SELECT Bid FROM keywords WHERE text = 'boot'",
            "SELECT Bid FROM KEYWORDS WHERE TEXT = 'boot'",
        ];
        let before = db.planner_stats();
        let mut results = Vec::new();
        for sql in spellings {
            results.push(db.query(sql).unwrap());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(results[0].len(), 2);
        let after = db.planner_stats();
        assert_eq!(
            after.index_hits - before.index_hits,
            3,
            "every casing must hit the same index"
        );
        assert_eq!(
            after.rows_scanned, before.rows_scanned,
            "index probes must not scan"
        );
    }

    #[test]
    fn planned_and_interpreted_agree_on_triggers_and_errors() {
        let script = "CREATE TABLE Stats (clicks INT, cost FLOAT);\
                      CREATE TABLE Keywords (word TEXT, bid INT);\
                      CREATE TRIGGER t AFTER INSERT ON Stats { \
                        UPDATE Keywords SET bid = bid + (SELECT COUNT(*) FROM Stats) \
                        WHERE word = 'boot' };\
                      INSERT INTO Keywords VALUES ('boot', 10), ('shoe', 20);\
                      INSERT INTO Stats VALUES (3, 1.5);\
                      INSERT INTO Stats VALUES (4, 2.5)";
        let mut auto = Database::new();
        let mut scan = Database::new();
        assert_eq!(
            auto.run(script).unwrap(),
            scan.run_reference(script).unwrap()
        );
        let probe = "SELECT word, bid FROM Keywords WHERE word = 'boot'";
        assert_eq!(
            auto.query(probe).unwrap(),
            scan.query_reference(probe).unwrap()
        );
        assert_eq!(
            auto.query(probe).unwrap()[0][1],
            Value::Int(13),
            "trigger must have fired twice (10 + 1 + 2)"
        );
        // Errors are identical too, down to the message.
        for bad in [
            "SELECT missing FROM Keywords",
            "SELECT * FROM Keywords WHERE word = 3",
            "UPDATE Keywords SET bid = bid + 'x' WHERE word = 'boot'",
            "SELECT * FROM Nowhere WHERE a = 1",
        ] {
            assert_eq!(auto.run(bad), scan.run_reference(bad), "statement: {bad}");
        }
        assert_eq!(
            auto.query(probe).unwrap(),
            scan.query_reference(probe).unwrap()
        );
    }

    #[test]
    fn prepared_plans_are_cached_once() {
        let mut db = seeded();
        let mut stmt = db
            .prepare("SELECT Bid FROM Keywords WHERE Text = ?")
            .unwrap();
        let params = crate::prepared::Params::new().push("boot");
        stmt.execute(&mut db, &params).unwrap();
        let after_first = db.planner_stats().plans_cached;
        for _ in 0..10 {
            stmt.execute(&mut db, &params).unwrap();
        }
        assert_eq!(
            db.planner_stats().plans_cached,
            after_first,
            "repeat executions must reuse the cached plan"
        );
    }

    #[test]
    fn type_mismatched_keys_fall_back_identically() {
        // Float key probing an INT column: the index cannot answer, so the
        // planned path falls back to a scan and must agree with the
        // interpreter (numeric equality across Int/Float is true).
        let mut auto = seeded();
        let mut scan = seeded();
        let float_key = "SELECT Text FROM Keywords WHERE Bid = 4.0";
        assert_eq!(auto.run(float_key), scan.run_reference(float_key));
        assert_eq!(auto.query(float_key).unwrap().len(), 1);
        // Int key probing a TEXT column: both engines raise the same error.
        let bad_key = "SELECT Text FROM Keywords WHERE Text = 3";
        let a = auto.run(bad_key);
        assert!(a.is_err());
        assert_eq!(a, scan.run_reference(bad_key));
    }

    #[test]
    fn ddl_invalidates_stale_plans() {
        let mut db = seeded();
        let mut stmt = db
            .prepare("SELECT Bid FROM Keywords WHERE Text = ?")
            .unwrap();
        let params = crate::prepared::Params::new().push("boot");
        assert_eq!(
            stmt.execute(&mut db, &params).unwrap(),
            vec![ExecOutcome::Rows(vec![
                vec![Value::Int(4)],
                vec![Value::Int(9)]
            ])]
        );
        db.run("DROP TABLE Keywords").unwrap();
        db.run("CREATE TABLE Keywords (Other INT, Text TEXT, Bid INT)")
            .unwrap();
        db.run("INSERT INTO Keywords VALUES (0, 'boot', 42)")
            .unwrap();
        // The cached plan is stale (column positions moved); execution must
        // replan against the new catalog rather than read the wrong cell.
        assert_eq!(
            stmt.execute(&mut db, &params).unwrap(),
            vec![ExecOutcome::Rows(vec![vec![Value::Int(42)]])]
        );
    }
}
