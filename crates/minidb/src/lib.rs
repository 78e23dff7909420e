//! # ssa-minidb — a small relational engine for bidding programs
//!
//! Section II-B of the paper lets advertisers submit *bidding programs*:
//! "programs can … be written using simple SQL updates without recursion and
//! side-effects. SQL triggers can be used to activate programs when an
//! auction begins". This crate is the from-scratch substrate that executes
//! those programs: an in-memory relational engine with
//!
//! * typed 16-byte [`Value`]s (integers, floats, [`Text`] stored inline up
//!   to 14 bytes, booleans, NULL),
//! * [`Table`]s with named, typed columns,
//! * a SQL dialect covering `CREATE TABLE`, `CREATE TRIGGER … AFTER
//!   INSERT ON … { … }`, `INSERT`, `UPDATE … SET … WHERE`, `DELETE`,
//!   `SELECT` with aggregates (`MAX`/`MIN`/`SUM`/`COUNT`/`AVG`), scalar
//!   subqueries (correlated on the row being updated), and
//!   `IF/ELSEIF/ELSE/ENDIF` blocks. SQL text is the only input: the parser
//!   and its statement tree are private,
//! * trigger bodies that are the paper's bidding programs: the parser
//!   refuses any statement in a `CREATE TRIGGER` body other than `UPDATE`,
//!   `DELETE`, `SET`, `IF` and `SELECT` (`IF` blocks included) with
//!   [`DbError::TriggerBody`], so a trigger never inserts, never fires
//!   another trigger and never changes the catalog,
//! * a planned executor ([`plan`]) with snapshot semantics for updates and
//!   `AFTER INSERT` trigger firing,
//! * host-visible scalar variables (`amtSpent`, `time`,
//!   `targetSpendRate`, …) that the auction engine sets before each run,
//! * a [`prepared`] statement layer ([`Database::prepare`] → [`Prepared`]
//!   plus [`Params`] binding of `?`/`:name` placeholders) so hot paths
//!   parse each program once and run it many times,
//! * a compile step ([`Template::compile`] → [`Template::instantiate`]) so
//!   a program installed in many databases is parsed, run as DDL and
//!   planned once.
//!
//! The paper's Figure 5 "Equalize ROI" program runs unmodified (up to the
//! obvious typo on its line 11 — see `tests/figure5.rs`).
//!
//! ## Query planning and compiled triggers
//!
//! Execution is layered, not interpreted from the AST on every run:
//!
//! 1. **Logical lowering** — the parser outputs a plain-data statement
//!    tree; each statement of a [`Prepared`] script or trigger body is
//!    lowered once into a plan ([`plan`] module) and memoised by its owner —
//!    for a compiled program, once for every database running it (see
//!    "Compile once per program" below).
//! 2. **Flat tables, sorted-array indexes** — a [`Table`] keeps its cells
//!    in one row-major vector and maintains sorted-array indexes on
//!    `INT`/`TEXT` columns incrementally through every `INSERT`, `UPDATE`,
//!    and `DELETE`. Indexes are created on demand by the planner the first
//!    time a plan needs one.
//! 3. **Access-path planning** — a tiny planner turns `WHERE col = key`
//!    into an index lookup when it can prove the result (including errors)
//!    is identical to a scan; everything else stays a full scan.
//!    [`Database::planner_stats`] counts the choices as they run: index
//!    probes, rows scanned and plans cached.
//! 4. **Compiled predicates** — expressions are compiled to a flat
//!    postfix op sequence over [`Value`]s, so the per-row hot loop never
//!    recurses through the AST.
//!
//! The planned pipeline is the one executor: every statement a
//! [`Database`] or [`Prepared`] runs, and every trigger firing, goes
//! through it, and there is no mode to switch. A firing runs its body's
//! memoised plan in place: since a body cannot insert or run DDL, it
//! neither fires another trigger nor moves the catalog or the trigger list
//! under the firing. The planned pipeline is bit-for-bit
//! equivalent to a tree-walking interpreter that scans every table — same
//! rows, same errors, same trigger side effects — which the crate's
//! planner-equivalence unit tests check property-style. That interpreter
//! is test code: it is compiled only into this crate's test build, where
//! tests call it by name as their oracle. Read [`Database::planner_stats`]
//! for `index_hits` / `rows_scanned` / `plans_cached` counters.
//!
//! ## Compile once per program
//!
//! A marketplace runs one bidding program for thousands of campaigns, each
//! in a [`Database`] of its own. What a database owns is its state — rows,
//! indexes, variable values, each value 16 bytes. Everything derived from
//! the program's text is compiled once into a [`Template`] its owner holds:
//! [`Template::compile`] parses the scripts, runs their DDL into one
//! catalog (tables, column names and types, and the names of the variables
//! the program and its host use: all that planning reads), and lowers every
//! data statement and trigger body against it. Every database
//! [`Template::instantiate`] makes holds that catalog, those triggers and
//! those plans by `Arc`, and builds the indexes the plans probe on its own
//! tables; [`Template::prepare`] lowers a host statement at the same
//! catalog, so one handle, cloned, runs in every instance.
//!
//! A database that moves its own catalog — DDL run through
//! [`Database::run`], or a variable set for the first time — takes a
//! catalog of its own and replans alone. An ad-hoc [`Database::run`] or
//! [`Database::prepare`] parses per call and lowers per handle; there is no
//! process-wide state. Owners (a [`Prepared`] handle, a trigger inside a
//! database) memoise the planned script they last ran, so the serving path
//! takes no lock and touches no shared reference count.
//!
//! ```
//! use ssa_minidb::Database;
//!
//! let mut db = Database::new();
//! db.run("CREATE TABLE Keywords (text TEXT, bid INT)").unwrap();
//! db.run("INSERT INTO Keywords VALUES ('boot', 4)").unwrap();
//! db.run("UPDATE Keywords SET bid = bid + 1 WHERE text = 'boot'").unwrap();
//! let rows = db.query("SELECT bid FROM Keywords").unwrap();
//! assert_eq!(rows[0][0].as_int().unwrap(), 5);
//! ```
//!
//! Deviation from ISO SQL, chosen to match the paper's Figure 6 expectation:
//! `SUM` over an empty set is `0` (not NULL); `COUNT` is `0`; `MAX`, `MIN`
//! and `AVG` over an empty set are NULL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

mod ast;
mod compile;
pub mod error;
pub mod exec;
mod index;
mod lexer;
mod parser;
pub mod plan;
mod planner_equivalence;
pub mod prepared;
mod reference;
mod script;
pub mod table;
mod template;
pub mod value;
mod vars;

pub use error::{DbError, DbResult};
pub use exec::{Database, ExecOutcome};
pub use plan::PlannerStats;
pub use prepared::{Params, Prepared, NO_PARAMS};
pub use table::{Column, Row, Schema, Table};
pub use template::Template;
pub use value::{Text, Value, ValueType};
