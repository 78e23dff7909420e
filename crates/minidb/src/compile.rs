//! Compiled expressions: the `Expr` tree lowered to a flat op sequence.
//!
//! The reference interpreter minidb's tests check the planner against
//! walks the AST for every row; this module lowers an expression **once**
//! — resolving every column reference
//! to a `(scope depth, column offset)` pair against the statically known
//! scope stack — into a postfix op sequence evaluated by a small stack
//! machine with no name resolution and no AST recursion (scalar subqueries,
//! which carry their own plans, are the one re-entry point).
//!
//! Lowering is *total*: references that cannot resolve compile to ops that
//! raise the exact error the interpreter would raise at the same point in
//! evaluation order. `AND`/`OR` compile to non-short-circuit Kleene ops
//! (`a, TRUTH, b, TRUTH, AND`) so that both operands are always evaluated —
//! including their errors — exactly as the interpreter does.

use crate::ast::{CmpOp, ColumnRef, Expr};
use crate::error::{DbError, DbResult};
use crate::exec::Database;
use crate::plan::{run_planned_select, PlannedSelect};
use crate::prepared::Params;
use crate::table::Schema;
use crate::value::{ArithOp, Value, ValueType};

/// One op of the expression stack machine.
#[derive(Debug)]
pub(crate) enum Op {
    /// Push a literal value.
    PushLiteral(Value),
    /// Push a bound parameter (`?n` / `:name`).
    PushParam(crate::ast::ParamRef),
    /// Push the cell at `(scope depth, column offset)` — depths are absolute
    /// in the runtime scope stack, outermost first.
    PushColumn {
        /// Absolute scope depth.
        depth: usize,
        /// Column offset within that scope's row.
        col: usize,
    },
    /// Push a host scalar variable (the unqualified-name fallback).
    PushVar {
        /// The variable's slot in the catalog the expression was lowered
        /// at.
        slot: usize,
        /// Original spelling, for the `NoSuchColumn` error of an unset
        /// variable.
        display: String,
    },
    /// Pop two, apply arithmetic, push.
    Arith(ArithOp),
    /// Pop one, negate, push.
    Neg,
    /// Pop two, compare (three-valued), push `Bool`/`Null`.
    Cmp(CmpOp),
    /// Pop one, require `Bool`/`Null` (truth position), push it back.
    Truth,
    /// Pop two truth values, push their Kleene AND.
    AndK,
    /// Pop two truth values, push their Kleene OR.
    OrK,
    /// Pop one truth value, push its Kleene NOT.
    NotK,
    /// Run a planned scalar subquery, push its value.
    Subquery(Box<PlannedSelect>),
    /// Raise a lazily-diagnosed lowering error (e.g. an unresolvable
    /// qualified column) at exactly the evaluation point where the
    /// interpreter would raise it.
    Raise(DbError),
}

/// A compiled expression: a postfix op sequence, plus a pre-classified
/// evaluation shape so the (very common) tiny expressions — a lone leaf, or
/// `leaf ⊕ leaf` — skip the stack machine entirely.
#[derive(Debug)]
pub(crate) struct CompiledExpr {
    ops: Vec<Op>,
    shape: Shape,
}

/// Static evaluation shape of an op sequence. Fast shapes evaluate in
/// exactly the stack machine's order (left leaf, right leaf, combine) so
/// values *and errors* are bit-identical to the general path.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One push op: the expression is a single leaf.
    Leaf,
    /// `[leaf, Truth]`: a leaf in condition position.
    LeafTruth,
    /// `[leaf, leaf, Cmp(op)]` — optionally followed by `Truth`, which is
    /// the identity after a comparison (a `Cmp` yields only `Bool` or
    /// `NULL`, both of which `Truth` passes through unchanged).
    CmpLeaves(CmpOp),
    /// `[leaf, leaf, Arith(op)]`.
    ArithLeaves(ArithOp),
    /// Anything else: run the stack machine.
    General,
}

fn is_leaf(op: &Op) -> bool {
    matches!(
        op,
        Op::PushLiteral(_) | Op::PushParam(_) | Op::PushColumn { .. } | Op::PushVar { .. }
    )
}

fn classify(ops: &[Op]) -> Shape {
    match ops {
        [l] if is_leaf(l) => Shape::Leaf,
        [l, Op::Truth] if is_leaf(l) => Shape::LeafTruth,
        [a, b, Op::Cmp(op)] | [a, b, Op::Cmp(op), Op::Truth] if is_leaf(a) && is_leaf(b) => {
            Shape::CmpLeaves(*op)
        }
        [a, b, Op::Arith(op)] if is_leaf(a) && is_leaf(b) => Shape::ArithLeaves(*op),
        _ => Shape::General,
    }
}

/// How many operands `op` pops, and how many values it pushes.
fn stack_effect(op: &Op) -> (usize, usize) {
    match op {
        Op::PushLiteral(_)
        | Op::PushParam(_)
        | Op::PushColumn { .. }
        | Op::PushVar { .. }
        | Op::Subquery(_)
        // A `Raise` stands where a value would be pushed; nothing after it runs.
        | Op::Raise(_) => (0, 1),
        Op::Neg | Op::Truth | Op::NotK => (1, 1),
        Op::Arith(_) | Op::Cmp(_) | Op::AndK | Op::OrK => (2, 1),
    }
}

impl CompiledExpr {
    /// Wraps an op sequence after checking its stack effect: no op pops
    /// below the depth the expression started at, and exactly one value is
    /// left. That is the invariant every pop of the general path rests on.
    fn from_ops(ops: Vec<Op>) -> DbResult<Self> {
        let unbalanced = || {
            DbError::Type("internal error: a compiled expression must leave one value".to_string())
        };
        let mut depth = 0usize;
        for op in &ops {
            let (pops, pushes) = stack_effect(op);
            depth = depth.checked_sub(pops).ok_or_else(unbalanced)? + pushes;
        }
        if depth != 1 {
            return Err(unbalanced());
        }
        let shape = classify(&ops);
        Ok(CompiledExpr { ops, shape })
    }

    /// An expression that raises `e` when evaluated — what a lowering that
    /// failed its stack check compiles to instead of a panic.
    fn raising(e: DbError) -> Self {
        CompiledExpr {
            ops: vec![Op::Raise(e)],
            shape: Shape::General,
        }
    }
}

/// Evaluates a push op directly to its value (fast-shape path).
fn leaf_value(op: &Op, cx: &EvalCx<'_>) -> DbResult<Value> {
    match op {
        Op::PushLiteral(v) => Ok(v.clone()),
        Op::PushParam(p) => cx.params.resolve(p),
        Op::PushColumn { depth, col } => Ok(cx.scopes[*depth][*col].clone()),
        Op::PushVar { slot, display } => match cx.db.vars.get(*slot) {
            Some(Some(v)) => Ok(v.clone()),
            // Never set here: the error a name nobody set raises.
            _ => Err(DbError::NoSuchColumn(display.clone())),
        },
        // Never reached: `classify` marks only the push ops above as leaves.
        other => Err(DbError::Type(format!("not a leaf operand: {other:?}"))),
    }
}

/// Entries an [`InlineStack`] holds without a heap allocation. Real
/// statements nest a scan inside at most a couple of subqueries and push a
/// handful of operands, so the spill vector stays empty (and unallocated)
/// in practice.
const INLINE: usize = 8;

/// A stack stored inline up to [`INLINE`] entries, spilling to the heap
/// beyond: the row scopes and operand values an evaluation holds, kept
/// without a per-statement heap allocation on the serving path.
pub(crate) struct InlineStack<T> {
    len: usize,
    inline: [T; INLINE],
    spill: Vec<T>,
}

impl<T: Default> InlineStack<T> {
    fn new() -> Self {
        InlineStack {
            len: 0,
            inline: std::array::from_fn(|_| T::default()),
            spill: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, value: T) {
        if self.len < INLINE {
            self.inline[self.len] = value;
        } else {
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Pops the top entry. [`CompiledExpr::from_ops`] verified that no op
    /// pops below the depth its expression started at, and scopes pop what
    /// they pushed, so the stack never runs dry; the default only keeps
    /// release builds total.
    pub(crate) fn pop(&mut self) -> T {
        debug_assert!(self.len > 0, "stack underflow");
        let Some(len) = self.len.checked_sub(1) else {
            return T::default();
        };
        self.len = len;
        match self.inline.get_mut(len) {
            Some(slot) => std::mem::take(slot),
            None => self.spill.pop().unwrap_or_default(),
        }
    }
}

impl<T> std::ops::Index<usize> for InlineStack<T> {
    type Output = T;

    fn index(&self, depth: usize) -> &T {
        match self.inline.get(depth) {
            Some(entry) => entry,
            None => &self.spill[depth - INLINE],
        }
    }
}

/// The runtime context compiled expressions evaluate in: the database (for
/// variables, subquery tables, and counters), the statement's parameter
/// bindings, the scope stack of row slices (outermost first, matching the
/// depths baked into `PushColumn`), and the operand stack.
pub(crate) struct EvalCx<'a> {
    pub(crate) db: &'a Database,
    pub(crate) params: &'a Params,
    pub(crate) scopes: InlineStack<&'a [Value]>,
    stack: InlineStack<Value>,
}

impl<'a> EvalCx<'a> {
    pub(crate) fn new(db: &'a Database, params: &'a Params) -> Self {
        EvalCx {
            db,
            params,
            scopes: InlineStack::new(),
            stack: InlineStack::new(),
        }
    }
}

fn cmp_holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Neq => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

fn kleene_and(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn kleene_or(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

impl CompiledExpr {
    /// Evaluates to a value, leaving `cx`'s stack balanced even on error.
    /// Fast shapes never touch the stack; evaluation order (and therefore
    /// which error surfaces) is identical to the general machine.
    pub(crate) fn eval(&self, cx: &mut EvalCx<'_>) -> DbResult<Value> {
        match self.shape {
            Shape::Leaf => leaf_value(&self.ops[0], cx),
            Shape::LeafTruth => match leaf_value(&self.ops[0], cx)? {
                v @ (Value::Bool(_) | Value::Null) => Ok(v),
                other => Err(DbError::Type(format!("expected a condition, got {other}"))),
            },
            Shape::CmpLeaves(op) => {
                let lhs = leaf_value(&self.ops[0], cx)?;
                let rhs = leaf_value(&self.ops[1], cx)?;
                Ok(match lhs.compare(&rhs)? {
                    None => Value::Null,
                    Some(ord) => Value::Bool(cmp_holds(op, ord)),
                })
            }
            Shape::ArithLeaves(op) => {
                let lhs = leaf_value(&self.ops[0], cx)?;
                let rhs = leaf_value(&self.ops[1], cx)?;
                lhs.arith(op, &rhs)
            }
            Shape::General => {
                let base = cx.stack.len;
                let result = self.eval_inner(cx);
                if result.is_err() {
                    while cx.stack.len > base {
                        cx.stack.pop();
                    }
                }
                result
            }
        }
    }

    fn eval_inner(&self, cx: &mut EvalCx<'_>) -> DbResult<Value> {
        for op in &self.ops {
            match op {
                Op::PushLiteral(v) => cx.stack.push(v.clone()),
                Op::PushParam(p) => {
                    let v = cx.params.resolve(p)?;
                    cx.stack.push(v);
                }
                Op::PushColumn { depth, col } => cx.stack.push(cx.scopes[*depth][*col].clone()),
                Op::PushVar { .. } => {
                    let v = leaf_value(op, cx)?;
                    cx.stack.push(v);
                }
                Op::Arith(op) => {
                    let rhs = cx.stack.pop();
                    let lhs = cx.stack.pop();
                    cx.stack.push(lhs.arith(*op, &rhs)?);
                }
                Op::Neg => {
                    let v = cx.stack.pop();
                    cx.stack.push(match v {
                        Value::Int(i) => {
                            i.checked_neg().map(Value::Int).ok_or(DbError::Overflow)?
                        }
                        Value::Float(f) => Value::Float(-f),
                        Value::Null => Value::Null,
                        other => return Err(DbError::Type(format!("cannot negate {other}"))),
                    });
                }
                Op::Cmp(op) => {
                    let rhs = cx.stack.pop();
                    let lhs = cx.stack.pop();
                    cx.stack.push(match lhs.compare(&rhs)? {
                        None => Value::Null,
                        Some(ord) => Value::Bool(cmp_holds(*op, ord)),
                    });
                }
                Op::Truth => {
                    let v = cx.stack.pop();
                    match v {
                        Value::Bool(_) | Value::Null => cx.stack.push(v),
                        other => {
                            return Err(DbError::Type(format!("expected a condition, got {other}")))
                        }
                    }
                }
                Op::AndK => {
                    let rhs = cx.stack.pop();
                    let lhs = cx.stack.pop();
                    cx.stack.push(kleene_and(&lhs, &rhs));
                }
                Op::OrK => {
                    let rhs = cx.stack.pop();
                    let lhs = cx.stack.pop();
                    cx.stack.push(kleene_or(&lhs, &rhs));
                }
                Op::NotK => {
                    let v = cx.stack.pop();
                    cx.stack.push(match v {
                        Value::Bool(b) => Value::Bool(!b),
                        _ => Value::Null,
                    });
                }
                Op::Subquery(select) => {
                    let mut rows = run_planned_select(select, cx)?;
                    let v = match rows.as_mut_slice() {
                        [] => Value::Null,
                        [row] => match row.as_mut_slice() {
                            [v] => std::mem::replace(v, Value::Null),
                            _ => return Err(DbError::NonScalarSubquery),
                        },
                        _ => return Err(DbError::NonScalarSubquery),
                    };
                    cx.stack.push(v);
                }
                Op::Raise(e) => return Err(e.clone()),
            }
        }
        Ok(cx.stack.pop())
    }

    /// Predicate position: NULL (and only NULL) is "no match"; any
    /// non-boolean value is the interpreter's condition type error.
    pub(crate) fn eval_predicate(&self, cx: &mut EvalCx<'_>) -> DbResult<bool> {
        match self.eval(cx)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(DbError::Type(format!("expected a condition, got {other}"))),
        }
    }

    /// The planned subqueries embedded in this expression (for
    /// index-requirement collection).
    pub(crate) fn subqueries(&self) -> impl Iterator<Item = &PlannedSelect> {
        self.ops.iter().filter_map(|op| match op {
            Op::Subquery(s) => Some(&**s),
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Compilation.
// ---------------------------------------------------------------------------

/// One statically-known name scope (a table being scanned), mirroring the
/// interpreter's `RowScope` minus the row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CScope<'a> {
    /// Display name of the table.
    pub(crate) name: &'a str,
    /// Alias, which *replaces* the name for qualified lookups.
    pub(crate) alias: Option<&'a str>,
    /// The table's schema.
    pub(crate) schema: &'a Schema,
}

/// Where a column reference lands under the interpreter's resolution rules.
pub(crate) enum Resolution {
    /// A table cell at an absolute scope depth.
    Cell {
        /// Absolute scope depth (outermost = 0).
        depth: usize,
        /// Column offset.
        col: usize,
    },
    /// Falls through every scope to the host-variable namespace.
    Var(String),
    /// Cannot resolve: raises `NoSuchColumn` with this display name.
    Missing(String),
}

/// Resolves a column reference against the static scope stack, replicating
/// `Evaluator::resolve_column` exactly (innermost-first; aliases replace
/// table names; unqualified misses fall back to host variables).
pub(crate) fn resolve_static(cref: &ColumnRef, scopes: &[CScope<'_>]) -> Resolution {
    match &cref.qualifier {
        Some(q) => {
            for (depth, scope) in scopes.iter().enumerate().rev() {
                let matches = match scope.alias {
                    Some(a) => a.eq_ignore_ascii_case(q),
                    None => scope.name.eq_ignore_ascii_case(q),
                };
                if matches {
                    return match scope.schema.index_of(&cref.column) {
                        Some(col) => Resolution::Cell { depth, col },
                        None => Resolution::Missing(format!("{q}.{}", cref.column)),
                    };
                }
            }
            Resolution::Missing(format!("{q}.{}", cref.column))
        }
        None => {
            for (depth, scope) in scopes.iter().enumerate().rev() {
                if let Some(col) = scope.schema.index_of(&cref.column) {
                    return Resolution::Cell { depth, col };
                }
            }
            Resolution::Var(cref.column.clone())
        }
    }
}

/// Lowers one expression against the static scope stack. Total: resolution
/// failures become `Raise` ops at their evaluation position.
pub(crate) fn compile_expr(expr: &Expr, db: &Database, scopes: &[CScope<'_>]) -> CompiledExpr {
    let mut ops = Vec::new();
    emit(expr, db, scopes, &mut ops);
    CompiledExpr::from_ops(ops).unwrap_or_else(CompiledExpr::raising)
}

/// Lowers a list of conjuncts into one Kleene-AND chain (the planner's
/// residual predicate). Kleene AND is associative and commutative over
/// truth values, so any grouping of the same conjuncts is equivalent.
pub(crate) fn compile_conjunction(
    conjuncts: &[&Expr],
    db: &Database,
    scopes: &[CScope<'_>],
) -> CompiledExpr {
    let mut ops = Vec::new();
    for (i, c) in conjuncts.iter().enumerate() {
        emit(c, db, scopes, &mut ops);
        ops.push(Op::Truth);
        if i > 0 {
            ops.push(Op::AndK);
        }
    }
    CompiledExpr::from_ops(ops).unwrap_or_else(CompiledExpr::raising)
}

fn emit(expr: &Expr, db: &Database, scopes: &[CScope<'_>], ops: &mut Vec<Op>) {
    match expr {
        Expr::Literal(v) => ops.push(Op::PushLiteral(v.clone())),
        Expr::Param(p) => ops.push(Op::PushParam(p.clone())),
        Expr::Column(cref) => match resolve_static(cref, scopes) {
            Resolution::Cell { depth, col } => ops.push(Op::PushColumn { depth, col }),
            Resolution::Var(name) => match db.shape.vars.slot(&name) {
                Some(slot) => ops.push(Op::PushVar {
                    slot,
                    display: name,
                }),
                // No variable of that name in this catalog: reading it fails
                // here exactly as reading an unset one does.
                None => ops.push(Op::Raise(DbError::NoSuchColumn(name))),
            },
            Resolution::Missing(display) => ops.push(Op::Raise(DbError::NoSuchColumn(display))),
        },
        Expr::Arith(a, op, b) => {
            emit(a, db, scopes, ops);
            emit(b, db, scopes, ops);
            ops.push(Op::Arith(*op));
        }
        Expr::Neg(inner) => {
            emit(inner, db, scopes, ops);
            ops.push(Op::Neg);
        }
        Expr::Cmp(a, op, b) => {
            emit(a, db, scopes, ops);
            emit(b, db, scopes, ops);
            ops.push(Op::Cmp(*op));
        }
        Expr::And(a, b) => {
            // Non-short-circuit, like the interpreter: both sides are
            // evaluated and truth-checked (in order) before combining.
            emit(a, db, scopes, ops);
            ops.push(Op::Truth);
            emit(b, db, scopes, ops);
            ops.push(Op::Truth);
            ops.push(Op::AndK);
        }
        Expr::Or(a, b) => {
            emit(a, db, scopes, ops);
            ops.push(Op::Truth);
            emit(b, db, scopes, ops);
            ops.push(Op::Truth);
            ops.push(Op::OrK);
        }
        Expr::Not(inner) => {
            emit(inner, db, scopes, ops);
            ops.push(Op::Truth);
            ops.push(Op::NotK);
        }
        Expr::Subquery(select) => {
            ops.push(Op::Subquery(Box::new(crate::plan::plan_select(
                db, select, scopes,
            ))));
        }
    }
}

// ---------------------------------------------------------------------------
// Static analysis for the planner.
// ---------------------------------------------------------------------------

/// A static value type: the runtime value is this type *or NULL*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum STy {
    Int,
    Float,
    Text,
    Bool,
    /// Statically NULL.
    Null,
}

fn sty_of(ty: ValueType) -> STy {
    match ty {
        ValueType::Int => STy::Int,
        ValueType::Float => STy::Float,
        ValueType::Text => STy::Text,
        ValueType::Bool => STy::Bool,
    }
}

fn numeric(ty: STy) -> bool {
    matches!(ty, STy::Int | STy::Float)
}

/// Conservative infallibility analysis: `Some(ty)` means evaluating the
/// expression can never return an error (its value is `ty` or NULL);
/// `None` means it *might* error. Used by the planner: every residual
/// conjunct of an index probe must be infallible, because rows the probe
/// skips never evaluate the residual — an error there would otherwise
/// surface under a scan but not under the probe.
pub(crate) fn infallible_type(expr: &Expr, scopes: &[CScope<'_>]) -> Option<STy> {
    match expr {
        Expr::Literal(v) => match v {
            Value::Int(_) => Some(STy::Int),
            Value::Float(_) => Some(STy::Float),
            Value::Text(_) => Some(STy::Text),
            Value::Bool(_) => Some(STy::Bool),
            Value::Null => Some(STy::Null),
        },
        Expr::Param(_) => None, // unknown type, possibly unbound
        Expr::Column(cref) => match resolve_static(cref, scopes) {
            Resolution::Cell { depth, col } => Some(sty_of(scopes[depth].schema.columns()[col].ty)),
            // Variables may be missing or of any type.
            Resolution::Var(_) | Resolution::Missing(_) => None,
        },
        // Arithmetic can overflow or divide by zero; keep it fallible.
        Expr::Arith(..) => None,
        Expr::Neg(inner) => match infallible_type(inner, scopes)? {
            STy::Float => Some(STy::Float), // -f64 never errors
            STy::Null => Some(STy::Null),
            _ => None, // INT negation can overflow; others are type errors
        },
        Expr::Cmp(a, _, b) => {
            let ta = infallible_type(a, scopes)?;
            let tb = infallible_type(b, scopes)?;
            let comparable = ta == STy::Null
                || tb == STy::Null
                || (numeric(ta) && numeric(tb))
                || (ta == STy::Text && tb == STy::Text)
                || (ta == STy::Bool && tb == STy::Bool);
            comparable.then_some(STy::Bool)
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            let ta = infallible_type(a, scopes)?;
            let tb = infallible_type(b, scopes)?;
            (matches!(ta, STy::Bool | STy::Null) && matches!(tb, STy::Bool | STy::Null))
                .then_some(STy::Bool)
        }
        Expr::Not(inner) => {
            matches!(infallible_type(inner, scopes)?, STy::Bool | STy::Null).then_some(STy::Bool)
        }
        Expr::Subquery(_) => None,
    }
}

/// `true` if evaluating `expr` cannot read the scan scope at `scan_depth`
/// (so the planner may hoist it out of the per-row loop as an index probe
/// key). Subqueries are conservatively rejected.
pub(crate) fn scope_independent(expr: &Expr, scopes: &[CScope<'_>], scan_depth: usize) -> bool {
    match expr {
        Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Column(cref) => match resolve_static(cref, scopes) {
            Resolution::Cell { depth, .. } => depth != scan_depth,
            // Variables are read from the database, not the scan row; a
            // missing reference raises the same error probed once or per row.
            Resolution::Var(_) | Resolution::Missing(_) => true,
        },
        Expr::Arith(a, _, b) | Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            scope_independent(a, scopes, scan_depth) && scope_independent(b, scopes, scan_depth)
        }
        Expr::Not(inner) | Expr::Neg(inner) => scope_independent(inner, scopes, scan_depth),
        Expr::Subquery(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i64) -> Op {
        Op::PushLiteral(Value::Int(i))
    }

    #[test]
    fn from_ops_rejects_unbalanced_sequences() {
        // Pops below the starting depth.
        assert!(CompiledExpr::from_ops(vec![lit(1), Op::Arith(ArithOp::Add)]).is_err());
        assert!(CompiledExpr::from_ops(vec![Op::Neg, lit(1)]).is_err());
        // Leaves nothing, or more than one value.
        assert!(CompiledExpr::from_ops(Vec::new()).is_err());
        assert!(CompiledExpr::from_ops(vec![lit(1), lit(2)]).is_err());
        // Balanced sequences pass, a `Raise` standing in for a value.
        assert!(CompiledExpr::from_ops(vec![lit(1), lit(2), Op::Arith(ArithOp::Add)]).is_ok());
        let missing = Op::Raise(DbError::NoSuchColumn("x".to_string()));
        assert!(CompiledExpr::from_ops(vec![missing, lit(2), Op::Cmp(CmpOp::Eq)]).is_ok());
    }

    #[test]
    fn a_rejected_sequence_compiles_to_an_error_not_a_panic() {
        let db = Database::new();
        let params = Params::new();
        let mut cx = EvalCx::new(&db, &params);
        let bad = CompiledExpr::from_ops(vec![Op::NotK]).unwrap_or_else(CompiledExpr::raising);
        assert!(matches!(bad.eval(&mut cx), Err(DbError::Type(_))));
    }
}
