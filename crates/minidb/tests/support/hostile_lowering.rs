//! Statements that parse but stress lowering, over `t (a INT)` holding two
//! rows and an empty `e (a INT)`: the cases `tests/fuzz_parser.rs` runs on
//! the planner and the crate's unit tests hold the reference interpreter
//! to.

/// Subquery levels and `AND` terms just inside the parser's nesting limit
/// (64): one more of either is `NestingTooDeep`.
const DEEPEST: usize = 62;

/// `DEEPEST` scalar subqueries nested in each other's `WHERE`. The inner
/// ones scan the empty `e`, so lowering is stressed, not evaluation.
fn nested_subqueries() -> String {
    let mut query = "SELECT MAX(a) FROM e".to_string();
    for _ in 1..DEEPEST {
        query = format!("SELECT MAX(a) FROM e WHERE a = ({query})");
    }
    format!("SELECT * FROM t WHERE a = ({query})")
}

/// `DEEPEST` conjuncts after `head`, alternating an unknown column with an
/// index-eligible equality.
fn mixed_chain(head: &str) -> String {
    let mut sql = format!("{head} WHERE a = 1");
    for i in 0..DEEPEST {
        sql.push_str(if i % 2 == 0 {
            " AND ghost = 1"
        } else {
            " AND a = 1"
        });
    }
    sql
}

/// The cases, in the order they run.
pub fn hostile_lowering_cases() -> Vec<String> {
    let mut cases = vec![
        nested_subqueries(),
        mixed_chain("SELECT * FROM t"),
        mixed_chain("UPDATE t SET a = a + 1"),
        mixed_chain("DELETE FROM e"),
        format!(
            "SELECT * FROM t WHERE a = 1 {}",
            "AND a = 1 ".repeat(DEEPEST)
        ),
        // `IF` arms holding failing statements: an unknown table, an
        // unknown column in a condition, a type error in a taken arm.
        "IF 1 = 0 THEN UPDATE nowhere SET a = 1; \
         ELSEIF ghost = 1 THEN DELETE FROM t; \
         ELSE UPDATE t SET ghost = 2 WHERE a = 1; ENDIF"
            .to_string(),
        "IF 1 = 1 THEN UPDATE t SET a = a + 'x' WHERE a = 1; SELECT ghost FROM t; ENDIF"
            .to_string(),
        "IF (SELECT COUNT(*) FROM nowhere) > 0 THEN UPDATE t SET a = 2; ENDIF".to_string(),
    ];
    cases.extend(
        [
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
        ]
        .map(String::from),
    );
    cases
}
