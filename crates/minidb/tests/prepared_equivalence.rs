//! Prepared-vs-reparsed equivalence: `prepare` + bind must behave exactly
//! like formatting the same values into SQL text and re-parsing it, over
//! random statement sequences and parameter values.

use proptest::prelude::*;
use ssa_minidb::{Database, Params, Value};

/// One randomly generated operation, runnable both ways.
#[derive(Debug, Clone)]
enum Op {
    /// `INSERT INTO t VALUES (a, 'name')`
    Insert { a: i64, name: String },
    /// `UPDATE t SET a = a + delta WHERE a < threshold`
    Update { delta: i64, threshold: i64 },
    /// `DELETE FROM t WHERE a > threshold`
    Delete { threshold: i64 },
    /// `SELECT SUM(a), COUNT(*) FROM t WHERE a >= floor`
    Select { floor: i64 },
    /// `IF goal > limit THEN UPDATE t SET a = a + 1; ENDIF`
    Branch { goal: i64, limit: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let small = -1000i64..1000;
    let name = prop_oneof![Just("ad"), Just("bid"), Just("it's")].prop_map(str::to_string);
    prop_oneof![
        (small.clone(), name).prop_map(|(a, name)| Op::Insert { a, name }),
        (small.clone(), small.clone())
            .prop_map(|(delta, threshold)| Op::Update { delta, threshold }),
        small.clone().prop_map(|threshold| Op::Delete { threshold }),
        small.clone().prop_map(|floor| Op::Select { floor }),
        (small.clone(), small).prop_map(|(goal, limit)| Op::Branch { goal, limit }),
    ]
}

fn fresh_db() -> Database {
    let mut db = Database::new();
    db.run("CREATE TABLE t (a INT, b TEXT)").unwrap();
    db.run("INSERT INTO t VALUES (1, 'seed'), (2, 'seed')")
        .unwrap();
    db
}

/// Escapes a text literal the way the lexer expects (`''` for `'`).
fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same operation sequence through (a) per-op `format!` + `run`
    /// and (b) statements prepared once with `?`/`:name` placeholders must
    /// yield identical outcomes and leave identical tables behind.
    #[test]
    fn prepared_matches_the_string_path(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut by_string = fresh_db();
        let mut by_prepared = fresh_db();
        let mut insert = by_prepared.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
        let mut update = by_prepared
            .prepare("UPDATE t SET a = a + :delta WHERE a < :threshold")
            .unwrap();
        let mut delete = by_prepared.prepare("DELETE FROM t WHERE a > ?").unwrap();
        let mut select = by_prepared
            .prepare("SELECT SUM(a), COUNT(*) FROM t WHERE a >= ?")
            .unwrap();
        let mut branch = by_prepared
            .prepare("IF :goal > :limit THEN UPDATE t SET a = a + 1; ENDIF")
            .unwrap();

        for op in &ops {
            let (string_result, prepared_result) = match op {
                Op::Insert { a, name } => (
                    by_string.run(&format!("INSERT INTO t VALUES ({a}, {})", quote(name))),
                    insert.execute(&mut by_prepared, &Params::new().push(*a).push(name.as_str())),
                ),
                Op::Update { delta, threshold } => (
                    by_string.run(&format!(
                        "UPDATE t SET a = a + {delta} WHERE a < {threshold}"
                    )),
                    update.execute(
                        &mut by_prepared,
                        &Params::new().bind("delta", *delta).bind("threshold", *threshold),
                    ),
                ),
                Op::Delete { threshold } => (
                    by_string.run(&format!("DELETE FROM t WHERE a > {threshold}")),
                    delete.execute(&mut by_prepared, &Params::new().push(*threshold)),
                ),
                Op::Select { floor } => (
                    by_string.run(&format!("SELECT SUM(a), COUNT(*) FROM t WHERE a >= {floor}")),
                    select.execute(&mut by_prepared, &Params::new().push(*floor)),
                ),
                Op::Branch { goal, limit } => (
                    by_string.run(&format!(
                        "IF {goal} > {limit} THEN UPDATE t SET a = a + 1; ENDIF"
                    )),
                    branch.execute(
                        &mut by_prepared,
                        &Params::new().bind("goal", *goal).bind("limit", *limit),
                    ),
                ),
            };
            prop_assert_eq!(&string_result, &prepared_result, "op {:?} diverged", op);
        }

        let left = by_string.table("t").unwrap();
        let right = by_prepared.table("t").unwrap();
        prop_assert_eq!(left.rows().collect::<Vec<_>>(), right.rows().collect::<Vec<_>>());
    }

    /// Float parameters: binding the value parsed from the literal text is
    /// bit-identical to the literal path.
    #[test]
    fn float_params_match_parsed_literals(cents in 0u32..1_000_000) {
        let literal = format!("{}.{:02}", cents / 100, cents % 100);
        let value: f64 = literal.parse().unwrap();
        let mut by_string = Database::new();
        by_string.run("CREATE TABLE f (x FLOAT)").unwrap();
        by_string
            .run(&format!("INSERT INTO f VALUES ({literal})"))
            .unwrap();
        let mut by_prepared = Database::new();
        by_prepared.run("CREATE TABLE f (x FLOAT)").unwrap();
        let mut insert = by_prepared.prepare("INSERT INTO f VALUES (?)").unwrap();
        insert
            .execute(&mut by_prepared, &Params::new().push(value))
            .unwrap();
        prop_assert_eq!(
            by_string.query("SELECT x FROM f").unwrap(),
            by_prepared.query("SELECT x FROM f").unwrap()
        );
        prop_assert_eq!(
            by_prepared.query("SELECT x FROM f").unwrap()[0][0].clone(),
            Value::Float(value)
        );
    }
}
