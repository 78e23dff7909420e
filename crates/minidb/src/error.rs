//! Error types for the relational engine.

use std::fmt;

/// Any error from lexing, parsing, or executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// Lexical error (bad character, unterminated string, malformed number).
    Lex {
        /// What went wrong.
        message: String,
        /// Byte offset in the input.
        position: usize,
    },
    /// Syntax error.
    Parse {
        /// What went wrong.
        message: String,
        /// Byte offset in the input.
        position: usize,
    },
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column (possibly qualified).
    NoSuchColumn(String),
    /// Unknown scalar variable.
    NoSuchVariable(String),
    /// A table with this name already exists.
    TableExists(String),
    /// A trigger with this name already exists.
    TriggerExists(String),
    /// A `CREATE TABLE` names the same column twice (ignoring case).
    DuplicateColumn(String),
    /// Type error during evaluation.
    Type(String),
    /// Division by zero.
    DivisionByZero,
    /// Integer arithmetic overflowed 64 bits.
    Overflow,
    /// Expression or statement nesting exceeded the parser's depth limit
    /// (untrusted advertiser programs must not be able to overflow the
    /// stack).
    NestingTooDeep {
        /// The configured maximum nesting depth.
        limit: usize,
    },
    /// A statement referenced a parameter (`?` or `:name`) with no bound
    /// value.
    UnboundParameter(String),
    /// A prepared statement was executed with the wrong number of
    /// positional parameters.
    ParamArity {
        /// Positional placeholders in the statement.
        expected: usize,
        /// Positional values supplied.
        got: usize,
    },
    /// A scalar subquery returned more than one row/column.
    NonScalarSubquery,
    /// Wrong number of values in an INSERT.
    Arity {
        /// Columns expected.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A `CREATE TRIGGER` body holds a statement other than `UPDATE`,
    /// `DELETE`, `SET`, `IF` and `SELECT` (Section II-B: bidding programs
    /// are "simple SQL updates without recursion and side-effects"), so no
    /// trigger can insert, fire another or change the catalog.
    TriggerBody {
        /// The trigger whose body holds it.
        trigger: String,
        /// The refused statement, named by its leading words (e.g.
        /// `INSERT INTO Log`).
        statement: String,
        /// Byte offset of the statement in the input.
        position: usize,
    },
    /// DDL a [`crate::Template`] cannot run once, ahead of its scripts'
    /// data statements: inside an `IF` block, after a data statement of its
    /// own script, or — `CREATE TABLE`, `DROP TABLE` — of an earlier one.
    DdlAfterData {
        /// The refused statement, named by its leading words (e.g.
        /// `CREATE TABLE Log`).
        statement: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Lex { message, position } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            DbError::Parse { message, position } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::NoSuchVariable(v) => write!(f, "no such variable: {v}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::TriggerExists(t) => write!(f, "trigger already exists: {t}"),
            DbError::DuplicateColumn(c) => write!(f, "duplicate column: {c}"),
            DbError::Type(msg) => write!(f, "type error: {msg}"),
            DbError::DivisionByZero => write!(f, "division by zero"),
            DbError::Overflow => write!(f, "integer arithmetic overflow"),
            DbError::NestingTooDeep { limit } => {
                write!(f, "nesting deeper than the {limit}-level parser limit")
            }
            DbError::UnboundParameter(p) => write!(f, "unbound parameter {p}"),
            DbError::ParamArity { expected, got } => {
                write!(
                    f,
                    "prepared statement has {expected} positional parameters, {got} values bound"
                )
            }
            DbError::NonScalarSubquery => {
                write!(f, "scalar subquery returned more than one value")
            }
            DbError::Arity { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            DbError::TriggerBody {
                trigger,
                statement,
                position,
            } => write!(
                f,
                "{statement} at byte {position}: the body of trigger {trigger} \
                 may hold only UPDATE, DELETE, SET, IF and SELECT"
            ),
            DbError::DdlAfterData { statement } => write!(
                f,
                "{statement}: a compiled program runs its DDL once, before its data \
                 statements, so DDL must come first and stay outside IF"
            ),
        }
    }
}

impl std::error::Error for DbError {}

/// Convenience result alias.
pub type DbResult<T> = Result<T, DbError>;
