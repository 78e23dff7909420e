//! Abstract syntax for the SQL dialect.

use crate::value::{ArithOp, Value, ValueType};

/// A possibly-qualified column reference (`bid`, `K.roi`, `Bids.formula`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Optional table name or alias qualifier.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `MAX(expr)` — NULL on empty input.
    Max,
    /// `MIN(expr)` — NULL on empty input.
    Min,
    /// `SUM(expr)` — **0 on empty input** (paper Figure 6 semantics).
    Sum,
    /// `COUNT(expr)` / `COUNT(*)` — 0 on empty input.
    Count,
    /// `AVG(expr)` — NULL on empty input.
    Avg,
}

/// A statement parameter placeholder, bound to a [`Value`] at execution
/// time through the prepared-statement API (`crate::prepared`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamRef {
    /// The `n`-th `?` in the statement, 0-based in statement order.
    Positional(usize),
    /// A `:name` parameter (name stored lowercased).
    Named(String),
}

impl std::fmt::Display for ParamRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamRef::Positional(i) => write!(f, "?{}", i + 1),
            ParamRef::Named(n) => write!(f, ":{n}"),
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// A `?` / `:name` parameter placeholder (prepared statements).
    Param(ParamRef),
    /// Column (or host scalar variable, resolved at evaluation time).
    Column(ColumnRef),
    /// Arithmetic.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// Comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// A scalar subquery: `( SELECT agg(e) FROM t [WHERE p] )`.
    Subquery(Box<Select>),
}

/// A projection item in a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain expression.
    Expr(Expr),
    /// An aggregate over an expression (`None` = `COUNT(*)`).
    Agg(AggFunc, Option<Expr>),
    /// `*` — all columns.
    Star,
}

/// A SELECT statement (also used as a scalar subquery).
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// Source table name.
    pub from: String,
    /// Optional alias for the source table (`FROM Keywords K`).
    pub alias: Option<String>,
    /// Optional filter.
    pub where_clause: Option<Expr>,
}

/// One `SET col = expr` clause in an UPDATE.
#[derive(Debug, Clone, PartialEq)]
pub struct SetClause {
    /// Target column.
    pub column: String,
    /// New value expression (evaluated against the pre-update row).
    pub value: Expr,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE, …)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, ValueType)>,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Table name.
        name: String,
    },
    /// `CREATE TRIGGER name AFTER INSERT ON table { body }`
    CreateTrigger {
        /// Trigger name.
        name: String,
        /// Watched table.
        table: String,
        /// Statements run after each insert.
        body: Vec<Statement>,
    },
    /// `INSERT INTO table [(cols)] VALUES (exprs), …`
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// One or more value tuples.
        rows: Vec<Vec<Expr>>,
    },
    /// `UPDATE table SET … [WHERE p]`
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<SetClause>,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
    /// `DELETE FROM table [WHERE p]`
    Delete {
        /// Target table.
        table: String,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
    /// `SELECT …`
    Select(Select),
    /// `IF c THEN … [ELSEIF c THEN …]* [ELSE …] ENDIF`
    If {
        /// `(condition, block)` arms in order.
        arms: Vec<(Expr, Vec<Statement>)>,
        /// Optional ELSE block.
        else_block: Option<Vec<Statement>>,
    },
    /// `SET var = expr` — assigns a host scalar variable.
    SetVar {
        /// Variable name.
        name: String,
        /// New value.
        value: Expr,
    },
}

/// A node of a statement tree, as [`Statement::visit`] reaches it.
pub(crate) enum Node<'a> {
    Statement(&'a Statement),
    Expr(&'a Expr),
}

impl Statement {
    /// `true` for `CREATE TABLE`, `DROP TABLE` and `CREATE TRIGGER`: the
    /// statements that change the catalog or the trigger list rather than
    /// data.
    pub(crate) fn is_ddl(&self) -> bool {
        matches!(
            self,
            Statement::CreateTable { .. }
                | Statement::DropTable { .. }
                | Statement::CreateTrigger { .. }
        )
    }

    /// Calls `f` on this statement, on the statements of its `IF` blocks,
    /// and on every expression among them, subqueries included, parents
    /// before children. A trigger body is not visited: it is a script of its
    /// own.
    pub(crate) fn visit<'a>(&'a self, f: &mut impl FnMut(Node<'a>)) {
        f(Node::Statement(self));
        match self {
            Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::CreateTrigger { .. } => {}
            Statement::Insert { rows, .. } => rows.iter().flatten().for_each(|e| e.visit(f)),
            Statement::Update {
                sets, where_clause, ..
            } => {
                sets.iter().for_each(|s| s.value.visit(f));
                where_clause.iter().for_each(|w| w.visit(f));
            }
            Statement::Delete { where_clause, .. } => where_clause.iter().for_each(|w| w.visit(f)),
            Statement::Select(select) => select.visit(f),
            Statement::If { arms, else_block } => {
                for (cond, block) in arms {
                    cond.visit(f);
                    block.iter().for_each(|s| s.visit(f));
                }
                else_block.iter().flatten().for_each(|s| s.visit(f));
            }
            Statement::SetVar { value, .. } => value.visit(f),
        }
    }
}

impl Select {
    fn visit<'a>(&'a self, f: &mut impl FnMut(Node<'a>)) {
        for item in &self.items {
            match item {
                SelectItem::Expr(e) | SelectItem::Agg(_, Some(e)) => e.visit(f),
                SelectItem::Agg(_, None) | SelectItem::Star => {}
            }
        }
        self.where_clause.iter().for_each(|w| w.visit(f));
    }
}

impl Expr {
    fn visit<'a>(&'a self, f: &mut impl FnMut(Node<'a>)) {
        f(Node::Expr(self));
        match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => {}
            Expr::Arith(a, _, b) | Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Not(inner) | Expr::Neg(inner) => inner.visit(f),
            Expr::Subquery(select) => select.visit(f),
        }
    }
}
