//! Robustness: the lexer/parser/executor must return errors, never panic,
//! on arbitrary input.

use proptest::prelude::*;
use ssa_minidb::{Database, DbError};

/// Hostile nesting depths: a typed error, never a stack overflow. This is
/// the untrusted-advertiser-program guarantee — `(((((…`, `NOT NOT …`,
/// nested `IF`s, and nested subqueries are all cut off at the parser's
/// depth limit long before the stack is at risk.
#[test]
fn hostile_nesting_is_a_typed_error() {
    let mut db = Database::new();
    db.run("CREATE TABLE t (a INT)").unwrap();
    let cases = [
        format!(
            "SELECT {}1{} FROM t",
            "(".repeat(50_000),
            ")".repeat(50_000)
        ),
        format!("SELECT * FROM t WHERE {}a > 0", "NOT ".repeat(50_000)),
        // Spaced so the `--` line-comment rule does not swallow the chain.
        format!("SELECT {}1 FROM t", "- ".repeat(50_000)),
        format!(
            "{}UPDATE t SET a = 1;{}",
            "IF 1 = 1 THEN ".repeat(50_000),
            " ENDIF;".repeat(50_000)
        ),
        format!(
            "SELECT {}MAX(a){} FROM t",
            "(SELECT ".repeat(50_000),
            " FROM t)".repeat(50_000)
        ),
    ];
    for sql in &cases {
        assert!(
            matches!(db.run(sql), Err(DbError::NestingTooDeep { .. })),
            "input of {} bytes not rejected by the depth limit",
            sql.len()
        );
    }
    // The engine stays usable afterwards.
    assert!(db.run("SELECT COUNT(*) FROM t").is_ok());
}

/// Lowering-targeted hostiles: statements that parse fine but stress the
/// planner — deep-but-legal predicates, unknown columns discovered at
/// plan time, type-confused index keys, and `EXPLAIN` stacked on itself.
/// Every one must come back as `Ok` or a typed error, never a panic. (The
/// crate's unit tests hold the reference interpreter to the same cases.)
#[test]
fn hostile_lowering_is_a_typed_error() {
    let deep_pred = format!("SELECT * FROM t WHERE a = 1 {}", "AND a = 1 ".repeat(2_000));
    let cases = [
        deep_pred.as_str(),
        // Unknown identifiers only detectable during lowering.
        "UPDATE t SET ghost = 1 WHERE a = 1",
        "SELECT * FROM t WHERE ghost = 1",
        "SELECT * FROM t WHERE a = ghost",
        "INSERT INTO t (ghost) VALUES (1)",
        // Type-confused equality keys the index must refuse or fall
        // back from.
        "SELECT * FROM t WHERE a = 'word'",
        "SELECT * FROM t WHERE a = 1.0 AND a = 'word'",
        "SELECT * FROM t WHERE a = (SELECT 'word' FROM t)",
        // EXPLAIN stacked on itself and on failing statements.
        "EXPLAIN EXPLAIN EXPLAIN SELECT * FROM t WHERE a = 1",
        "EXPLAIN SELECT ghost FROM t",
        "EXPLAIN UPDATE nowhere SET a = 1",
        "EXPLAIN IF 1 = 1 THEN UPDATE t SET a = 2 WHERE a = 1; ENDIF",
    ];
    let mut db = Database::new();
    db.run("CREATE TABLE t (a INT)").unwrap();
    db.run("INSERT INTO t VALUES (1), (0)").unwrap();
    for sql in cases {
        let _ = db.run(sql);
        // The engine must stay usable after each hostile statement.
        assert!(
            db.run("SELECT COUNT(*) FROM t").is_ok(),
            "engine wedged after {sql:?}"
        );
    }
}

/// One trigger-body statement of each kind, and whether a body may hold
/// it (Section II-B: `UPDATE`, `DELETE`, `SET`, `IF` and `SELECT` only).
fn body_statement() -> impl Strategy<Value = (&'static str, bool)> {
    prop_oneof![
        Just(("UPDATE t SET a = a + 1 WHERE a > 0", true)),
        Just(("DELETE FROM t WHERE a < 0", true)),
        Just(("SET x = x + 1", true)),
        Just(("SELECT MAX(a) FROM t", true)),
        Just(("IF x > 1 THEN UPDATE t SET a = 0; ENDIF", true)),
        Just(("INSERT INTO t VALUES (1)", false)),
        Just(("CREATE TABLE u (b INT)", false)),
        Just(("DROP TABLE t", false)),
        Just((
            "CREATE TRIGGER inner AFTER INSERT ON t { SET x = 1; }",
            false
        )),
        Just(("EXPLAIN SELECT a FROM t", false)),
        Just(("VACUUM t", false)),
    ]
}

/// Where in the body a statement sits: directly, or in an `IF`, `ELSEIF`,
/// `ELSE` or nested `IF` block.
const PLACEMENTS: [&str; 5] = [
    "{s};",
    "IF x > 0 THEN {s}; ENDIF;",
    "IF x > 0 THEN SET x = 0; ELSEIF x < 0 THEN {s}; ENDIF;",
    "IF x > 0 THEN SET x = 0; ELSE {s}; ENDIF;",
    "IF x > 0 THEN IF x > 1 THEN {s}; ENDIF; ENDIF;",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Trigger bodies drawn from every statement kind, at every `IF`
    /// depth: the script parses exactly when every statement conforms,
    /// and otherwise is the typed refusal — never a panic.
    #[test]
    fn trigger_bodies_parse_exactly_when_they_conform(
        statements in proptest::collection::vec(
            (body_statement(), 0..PLACEMENTS.len()),
            0..6,
        ),
    ) {
        let body: String = statements
            .iter()
            .map(|((text, _), placement)| PLACEMENTS[*placement].replace("{s}", text))
            .collect::<Vec<_>>()
            .join(" ");
        let sql = format!("CREATE TRIGGER fuzz AFTER INSERT ON t {{ {body} }}");
        let conforms = statements.iter().all(|((_, ok), _)| *ok);
        match Database::new().prepare(&sql) {
            Ok(_) => prop_assert!(conforms, "accepted: {}", sql),
            Err(DbError::TriggerBody { trigger, .. }) => {
                prop_assert!(!conforms, "refused: {}", sql);
                prop_assert_eq!(trigger, "fuzz");
            }
            Err(other) => prop_assert!(false, "{} failed with {:?}", sql, other),
        }
    }

    /// Arbitrary byte soup: `run` returns Ok or Err but never panics.
    #[test]
    fn arbitrary_input_never_panics(input in ".{0,200}") {
        let mut db = Database::new();
        let _ = db.run(&input);
    }

    /// SQL-shaped fragments assembled at random: still no panics, and the
    /// database stays usable afterwards.
    #[test]
    fn sql_shaped_fragments_never_panic(
        pieces in proptest::collection::vec(
            prop_oneof![
                Just("SELECT"), Just("*"), Just("FROM"), Just("t"), Just("WHERE"),
                Just("a"), Just("="), Just("1"), Just("("), Just(")"), Just(","),
                Just("UPDATE"), Just("SET"), Just("INSERT"), Just("INTO"),
                Just("VALUES"), Just("IF"), Just("THEN"), Just("ENDIF"),
                Just("EXPLAIN"),
                Just("AND"), Just("OR"), Just("NOT"), Just("MAX"), Just("'x'"),
                Just(";"), Just("+"), Just("-"), Just("/"), Just("0"),
            ],
            0..24,
        ),
    ) {
        let mut db = Database::new();
        db.run("CREATE TABLE t (a INT)").unwrap();
        db.run("INSERT INTO t VALUES (1), (0)").unwrap();
        let script = pieces.join(" ");
        let _ = db.run(&script);
        // Whatever happened, the engine must still answer queries.
        let rows = db.query("SELECT COUNT(*) FROM t");
        prop_assert!(rows.is_ok());
    }
}
