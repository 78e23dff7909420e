#![cfg(test)]
//! The reference interpreter: the oracle the planned executor is held to.
//!
//! It walks the parsed statements directly — every `WHERE` a full scan of
//! its table, every expression evaluated by recursion over the AST — and
//! never plans, probes or builds an index, so the equivalence suite
//! (`crate::planner_equivalence`) compares the planner with something
//! other than itself. It is compiled into test builds only, and tests call
//! it by name: `Database::run_reference`, `query_reference` and
//! `insert_reference`, and `Prepared::execute_reference` and
//! `query_reference`, are the twins of the production entry points. The
//! triggers an insert fires run here too. DDL has one home,
//! `Database::exec_ddl`, which both executors call.

use crate::ast::{AggFunc, CmpOp, ColumnRef, Expr, Select, SelectItem, SetClause, Statement};
use crate::error::{DbError, DbResult};
use crate::exec::{single_select, Database, ExecOutcome};
use crate::parser::parse_script;
use crate::plan::{self, PlannerCounters};
use crate::prepared::{Params, Prepared, NO_PARAMS};
use crate::table::{Row, Schema, Table};
use crate::value::Value;
use std::sync::Arc;

impl Database {
    /// The reference twin of [`Database::run`].
    pub(crate) fn run_reference(&mut self, sql: &str) -> DbResult<Vec<ExecOutcome>> {
        parse_script(sql)?
            .iter()
            .map(|stmt| self.interpret(stmt, NO_PARAMS))
            .collect()
    }

    /// The reference twin of [`Database::query`].
    pub(crate) fn query_reference(&mut self, sql: &str) -> DbResult<Vec<Row>> {
        single_select(self.run_reference(sql)?)
    }

    /// The reference twin of [`Database::insert`].
    pub(crate) fn insert_reference(&mut self, table: &str, row: Row) -> DbResult<()> {
        let pos = self.table_position(table)?;
        self.tables[pos].insert(row)?;
        self.fire_reference_triggers(pos)
    }

    /// The spelling and contents of the table at `pos`.
    fn table_at(&self, pos: usize) -> (&str, &Table) {
        (&self.shape.tables()[pos].display, &self.tables[pos])
    }

    fn interpret(&mut self, stmt: &Statement, params: &Params) -> DbResult<ExecOutcome> {
        match stmt {
            Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::CreateTrigger { .. } => self.exec_ddl(stmt),
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let inserted = self.interpret_insert(table, columns.as_deref(), rows, params)?;
                Ok(ExecOutcome::Inserted(inserted))
            }
            Statement::Update {
                table,
                sets,
                where_clause,
            } => {
                let updated = self.interpret_update(table, sets, where_clause.as_ref(), params)?;
                Ok(ExecOutcome::Updated(updated))
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let deleted = self.interpret_delete(table, where_clause.as_ref(), params)?;
                Ok(ExecOutcome::Deleted(deleted))
            }
            Statement::Select(select) => {
                let rows = Evaluator::global(self, params).run_select(select)?;
                Ok(ExecOutcome::Rows(rows))
            }
            Statement::If { arms, else_block } => {
                for (cond, block) in arms {
                    if Evaluator::global(self, params).eval_predicate(cond)? {
                        return self.interpret_block(block, params);
                    }
                }
                if let Some(block) = else_block {
                    return self.interpret_block(block, params);
                }
                Ok(ExecOutcome::Done)
            }
            Statement::SetVar { name, value } => {
                let v = Evaluator::global(self, params).eval(value)?;
                self.set_var(name, v);
                Ok(ExecOutcome::Done)
            }
        }
    }

    fn interpret_block(&mut self, block: &[Statement], params: &Params) -> DbResult<ExecOutcome> {
        for stmt in block {
            self.interpret(stmt, params)?;
        }
        Ok(ExecOutcome::Done)
    }

    fn interpret_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<Expr>],
        params: &Params,
    ) -> DbResult<usize> {
        let pos = self.table_position(table)?;
        // Evaluate before mutating (expressions may read other tables).
        let mut materialised: Vec<Row> = Vec::with_capacity(rows.len());
        {
            let evaluator = Evaluator::global(self, params);
            let schema = self.tables[pos].schema();
            for exprs in rows {
                let mut values = Vec::with_capacity(exprs.len());
                for e in exprs {
                    values.push(evaluator.eval(e)?);
                }
                let row = match columns {
                    None => values,
                    Some(cols) => {
                        if cols.len() != values.len() {
                            return Err(DbError::Arity {
                                expected: cols.len(),
                                got: values.len(),
                            });
                        }
                        let mut full = vec![Value::Null; schema.len()];
                        for (col, v) in cols.iter().zip(values) {
                            let idx = schema
                                .index_of(col)
                                .ok_or_else(|| DbError::NoSuchColumn(col.clone()))?;
                            full[idx] = v;
                        }
                        full
                    }
                };
                materialised.push(row);
            }
        }
        let count = materialised.len();
        let t = &mut self.tables[pos];
        for row in materialised {
            t.insert(row)?;
        }
        self.fire_reference_triggers(pos)?;
        Ok(count)
    }

    /// Fires the `AFTER INSERT` triggers of the table at `pos` on the
    /// interpreter: no trigger memo is read or filled. A body changes
    /// neither the trigger list nor the catalog, so they are walked in
    /// place.
    fn fire_reference_triggers(&mut self, pos: usize) -> DbResult<()> {
        for slot in 0..self.triggers.len() {
            let trigger = Arc::clone(&self.triggers[slot].trigger);
            if trigger.is_on(&self.shape.tables()[pos].display) {
                for stmt in &trigger.body.statements {
                    self.interpret(stmt, NO_PARAMS)?;
                }
            }
        }
        Ok(())
    }

    fn interpret_update(
        &mut self,
        table: &str,
        sets: &[SetClause],
        where_clause: Option<&Expr>,
        params: &Params,
    ) -> DbResult<usize> {
        let pos = self.table_position(table)?;
        // Phase 1 (immutable): find matching rows, compute new values
        // against the snapshot.
        let mut planned: Vec<(usize, Vec<(usize, Value)>)> = Vec::new();
        {
            let (display, t) = self.table_at(pos);
            let schema = t.schema();
            let set_indices: Vec<usize> = sets
                .iter()
                .map(|s| {
                    schema
                        .index_of(&s.column)
                        .ok_or_else(|| DbError::NoSuchColumn(s.column.clone()))
                })
                .collect::<DbResult<_>>()?;
            for (ridx, row) in t.rows().enumerate() {
                PlannerCounters::bump(&self.counters.rows_scanned, 1);
                let evaluator = Evaluator::with_row(self, display, None, schema, row, params);
                let matches = match where_clause {
                    None => true,
                    Some(p) => evaluator.eval_predicate(p)?,
                };
                if !matches {
                    continue;
                }
                let mut assignments = Vec::with_capacity(sets.len());
                for (set, &cidx) in sets.iter().zip(&set_indices) {
                    assignments.push((cidx, evaluator.eval(&set.value)?));
                }
                planned.push((ridx, assignments));
            }
        }
        // Phase 2 (mutable): apply.
        let count = planned.len();
        let t = &mut self.tables[pos];
        for (ridx, assignments) in planned {
            for (cidx, value) in assignments {
                t.set_cell(ridx, cidx, value)?;
            }
        }
        Ok(count)
    }

    fn interpret_delete(
        &mut self,
        table: &str,
        where_clause: Option<&Expr>,
        params: &Params,
    ) -> DbResult<usize> {
        let pos = self.table_position(table)?;
        let mut doomed: Vec<usize> = Vec::new();
        {
            let (display, t) = self.table_at(pos);
            for (ridx, row) in t.rows().enumerate() {
                PlannerCounters::bump(&self.counters.rows_scanned, 1);
                let evaluator = Evaluator::with_row(self, display, None, t.schema(), row, params);
                let matches = match where_clause {
                    None => true,
                    Some(p) => evaluator.eval_predicate(p)?,
                };
                if matches {
                    doomed.push(ridx);
                }
            }
        }
        let count = doomed.len();
        self.tables[pos].delete_rows(&doomed);
        Ok(count)
    }
}

impl Prepared {
    /// The reference twin of [`Prepared::execute`]: the same signature
    /// check, then every statement on the interpreter. Nothing is planned
    /// or memoised.
    pub(crate) fn execute_reference(
        &self,
        db: &mut Database,
        params: &Params,
    ) -> DbResult<Vec<ExecOutcome>> {
        self.check(params)?;
        self.statements()
            .iter()
            .map(|stmt| db.interpret(stmt, params))
            .collect()
    }

    /// The reference twin of [`Prepared::query`].
    pub(crate) fn query_reference(&self, db: &mut Database, params: &Params) -> DbResult<Vec<Row>> {
        single_select(self.execute_reference(db, params)?)
    }
}

/// One table-row scope for name resolution.
struct RowScope<'a> {
    name: &'a str,
    alias: Option<&'a str>,
    schema: &'a Schema,
    row: &'a [Value],
}

/// Expression evaluator over a database plus a stack of row scopes
/// (outermost first) and the statement's parameter bindings.
struct Evaluator<'a> {
    db: &'a Database,
    scopes: Vec<RowScope<'a>>,
    params: &'a Params,
}

impl<'a> Evaluator<'a> {
    fn global(db: &'a Database, params: &'a Params) -> Self {
        Evaluator {
            db,
            scopes: Vec::new(),
            params,
        }
    }

    fn with_row(
        db: &'a Database,
        name: &'a str,
        alias: Option<&'a str>,
        schema: &'a Schema,
        row: &'a [Value],
        params: &'a Params,
    ) -> Self {
        Evaluator {
            db,
            scopes: vec![RowScope {
                name,
                alias,
                schema,
                row,
            }],
            params,
        }
    }

    fn resolve_column(&self, cref: &ColumnRef) -> DbResult<Value> {
        match &cref.qualifier {
            Some(q) => {
                for scope in self.scopes.iter().rev() {
                    // SQL scoping: an alias *replaces* the table name — a
                    // scope with `FROM Keywords K` answers to `K` only, so
                    // that an outer `Keywords.x` reference skips past it
                    // (needed by self-join-style correlated subqueries).
                    let matches = match scope.alias {
                        Some(a) => a.eq_ignore_ascii_case(q),
                        None => scope.name.eq_ignore_ascii_case(q),
                    };
                    if matches {
                        let idx = scope
                            .schema
                            .index_of(&cref.column)
                            .ok_or_else(|| DbError::NoSuchColumn(format!("{q}.{}", cref.column)))?;
                        return Ok(scope.row[idx].clone());
                    }
                }
                Err(DbError::NoSuchColumn(format!("{q}.{}", cref.column)))
            }
            None => {
                for scope in self.scopes.iter().rev() {
                    if let Some(idx) = scope.schema.index_of(&cref.column) {
                        return Ok(scope.row[idx].clone());
                    }
                }
                self.db
                    .var(&cref.column)
                    .cloned()
                    .ok_or_else(|| DbError::NoSuchColumn(cref.column.clone()))
            }
        }
    }

    fn eval(&self, expr: &Expr) -> DbResult<Value> {
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Param(p) => self.params.resolve(p),
            Expr::Column(cref) => self.resolve_column(cref),
            Expr::Arith(a, op, b) => self.eval(a)?.arith(*op, &self.eval(b)?),
            Expr::Neg(inner) => match self.eval(inner)? {
                Value::Int(v) => v.checked_neg().map(Value::Int).ok_or(DbError::Overflow),
                Value::Float(v) => Ok(Value::Float(-v)),
                Value::Null => Ok(Value::Null),
                other => Err(DbError::Type(format!("cannot negate {other}"))),
            },
            Expr::Cmp(a, op, b) => {
                let left = self.eval(a)?;
                let right = self.eval(b)?;
                match left.compare(&right)? {
                    None => Ok(Value::Null),
                    Some(ord) => {
                        let result = match op {
                            CmpOp::Eq => ord.is_eq(),
                            CmpOp::Neq => ord.is_ne(),
                            CmpOp::Lt => ord.is_lt(),
                            CmpOp::Le => ord.is_le(),
                            CmpOp::Gt => ord.is_gt(),
                            CmpOp::Ge => ord.is_ge(),
                        };
                        Ok(Value::Bool(result))
                    }
                }
            }
            Expr::And(a, b) => {
                let left = self.eval_truth(a)?;
                let right = self.eval_truth(b)?;
                // Kleene AND.
                Ok(match (left, right) {
                    (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                    (Some(true), Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                })
            }
            Expr::Or(a, b) => {
                let left = self.eval_truth(a)?;
                let right = self.eval_truth(b)?;
                Ok(match (left, right) {
                    (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                    (Some(false), Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                })
            }
            Expr::Not(inner) => Ok(match self.eval_truth(inner)? {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            }),
            Expr::Subquery(select) => self.eval_scalar_subquery(select),
        }
    }

    fn eval_truth(&self, expr: &Expr) -> DbResult<Option<bool>> {
        match self.eval(expr)? {
            Value::Bool(b) => Ok(Some(b)),
            Value::Null => Ok(None),
            other => Err(DbError::Type(format!("expected a condition, got {other}"))),
        }
    }

    /// Predicate position: NULL is not a match.
    fn eval_predicate(&self, expr: &Expr) -> DbResult<bool> {
        Ok(self.eval_truth(expr)?.unwrap_or(false))
    }

    fn eval_scalar_subquery(&self, select: &Select) -> DbResult<Value> {
        let mut rows = self.run_select(select)?;
        match rows.len() {
            0 => Ok(Value::Null),
            1 => {
                let row = rows.pop().expect("checked length");
                if row.len() != 1 {
                    Err(DbError::NonScalarSubquery)
                } else {
                    Ok(row.into_iter().next().expect("checked length"))
                }
            }
            _ => Err(DbError::NonScalarSubquery),
        }
    }

    fn run_select(&self, select: &Select) -> DbResult<Vec<Row>> {
        let (display, table) = self.db.table_at(self.db.table_position(&select.from)?);
        let schema = table.schema();

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
            return Err(DbError::Type(
                "cannot mix aggregates with plain columns (no GROUP BY)".to_string(),
            ));
        }

        let mut matched: Vec<&[Value]> = Vec::new();
        for row in table.rows() {
            PlannerCounters::bump(&self.db.counters.rows_scanned, 1);
            let inner = self.child_scope(display, select.alias.as_deref(), schema, row);
            let ok = match &select.where_clause {
                None => true,
                Some(p) => inner.eval_predicate(p)?,
            };
            if ok {
                matched.push(row);
            }
        }

        if has_agg {
            let mut out = Vec::with_capacity(select.items.len());
            for item in &select.items {
                let SelectItem::Agg(func, inner_expr) = item else {
                    unreachable!("checked homogeneous aggregates");
                };
                out.push(self.eval_aggregate(
                    *func,
                    inner_expr.as_ref(),
                    display,
                    select.alias.as_deref(),
                    schema,
                    &matched,
                )?);
            }
            return Ok(vec![out]);
        }

        let mut rows_out = Vec::with_capacity(matched.len());
        for row in matched {
            let inner = self.child_scope(display, select.alias.as_deref(), schema, row);
            let mut out = Vec::new();
            for item in &select.items {
                match item {
                    SelectItem::Star => out.extend(row.iter().cloned()),
                    SelectItem::Expr(e) => out.push(inner.eval(e)?),
                    SelectItem::Agg(..) => unreachable!("handled above"),
                }
            }
            rows_out.push(out);
        }
        Ok(rows_out)
    }

    fn child_scope(
        &self,
        name: &'a str,
        alias: Option<&'a str>,
        schema: &'a Schema,
        row: &'a [Value],
    ) -> Evaluator<'a> {
        let mut scopes: Vec<RowScope<'a>> = Vec::with_capacity(self.scopes.len() + 1);
        for s in &self.scopes {
            scopes.push(RowScope {
                name: s.name,
                alias: s.alias,
                schema: s.schema,
                row: s.row,
            });
        }
        scopes.push(RowScope {
            name,
            alias,
            schema,
            row,
        });
        Evaluator {
            db: self.db,
            scopes,
            params: self.params,
        }
    }

    fn eval_aggregate(
        &self,
        func: AggFunc,
        inner: Option<&Expr>,
        name: &'a str,
        alias: Option<&'a str>,
        schema: &'a Schema,
        rows: &[&'a [Value]],
    ) -> DbResult<Value> {
        // COUNT(*) counts rows without evaluating anything.
        if func == AggFunc::Count && inner.is_none() {
            return Ok(Value::Int(rows.len() as i64));
        }
        let expr = inner
            .ok_or_else(|| DbError::Type("only COUNT accepts '*' as its argument".to_string()))?;
        let mut values = Vec::with_capacity(rows.len());
        for row in rows {
            let scope = self.child_scope(name, alias, schema, row);
            let v = scope.eval(expr)?;
            if !v.is_null() {
                values.push(v);
            }
        }
        // The fold itself is shared with the planned executor so the two
        // paths cannot diverge on aggregate semantics.
        plan::fold_aggregate(func, values)
    }
}
