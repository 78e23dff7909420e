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
//!   parse each program once and run it many times.
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
//!    lowered once into a plan ([`plan`] module), cached in a script every
//!    database running the same text shares (see "Compile once per text"
//!    below).
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
//! ## Compile once per text
//!
//! A marketplace runs one bidding program for thousands of campaigns, each
//! in a [`Database`] of its own. What a database owns is its state — rows,
//! indexes, variable values, each value 16 bytes; everything derived from
//! SQL *text* is compiled or interned once and shared (`script.rs`):
//!
//! * **Script interning** — [`Database::prepare`] and [`Database::run`]
//!   resolve their text through a process-wide table of weak references. A
//!   text that a [`Prepared`] handle still holds is not parsed again: the
//!   caller gets the same statements and the same plan cache. The script
//!   owns a shared trigger per `CREATE TRIGGER` in it, so every database
//!   that executed one prepared defining script fires one body — a host
//!   installing a program in many databases prepares it once and keeps the
//!   handle. The table never keeps a script alive and drops an entry with
//!   its last holder, so one-off statements cannot grow it
//!   ([`interned_scripts`] counts it).
//! * **A shared catalog** — the catalog's *shape* (its tables, their
//!   spelling, column names and types: all that planning reads) is
//!   interned, and a database holds it plus one table of rows and indexes
//!   per entry, in the shape's order. A plan holds the shape it was lowered
//!   at, runs where that shape is the database's, and names tables by
//!   position in it. Databases that ran the same DDL validate the same
//!   planned script; one whose DDL diverges (a script that recreates a
//!   table with other columns, say) moves to another shape and replans
//!   alone. A plan keeps its shape alive, so a database coming back to a
//!   catalog it had finds the plans valid again, whoever else exists.
//! * **Shared names** — trigger names live in the shared trigger bodies,
//!   and variable names, and the ordered list of them a database has set,
//!   are interned once per process: a database holds that list and one
//!   value per name, so setting or reading one it has allocates nothing.
//! * **Indexes stay private** — a database that adopts a plan a sibling
//!   lowered still builds the indexes that plan probes on its own tables.
//!
//! Each owner (a [`Prepared`] handle, a trigger inside a database) memoises
//! the planned script it last ran, so the serving path takes no lock and
//! touches no shared reference count. Sharing is invisible in
//! [`Database::planner_stats`]: `plans_cached` counts the statement plans a
//! database's owners memoised, lowered here or adopted alike, so a
//! database reports the same numbers with or without siblings
//! ([`Database::shares_triggers_with`] and
//! [`Prepared::shares_script_with`] are how to see the sharing).
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
pub mod value;
mod vars;

pub use error::{DbError, DbResult};
pub use exec::{Database, ExecOutcome};
pub use plan::PlannerStats;
pub use prepared::{Params, Prepared, NO_PARAMS};
pub use script::interned_scripts;
pub use table::{Column, Row, Schema, Table};
pub use value::{Text, Value, ValueType};
