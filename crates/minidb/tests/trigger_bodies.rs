//! A trigger body is a Section II-B bidding program — "simple SQL updates
//! without recursion and side-effects" — and the parser is where that is
//! enforced: a body may hold only `UPDATE`, `DELETE`, `SET`, `IF` and
//! `SELECT`. Anything else, at any `IF` depth, is a typed error naming the
//! statement and the trigger, raised before the script runs any of its
//! statements and before its text is interned.
//!
//! One test in its own binary: `interned_scripts` counts process-wide.

#[path = "support/refused_bodies.rs"]
mod refused_bodies;

use refused_bodies::{refused_bodies, CREATED_FIRST, SETUP, TRIGGER};
use ssa_minidb::{interned_scripts, Database, DbError};

#[test]
fn a_trigger_body_holds_only_updates_deletes_sets_ifs_and_selects() {
    let cases = refused_bodies();
    assert_eq!(cases.len(), 50);
    for case in &cases {
        let refused = DbError::TriggerBody {
            trigger: TRIGGER.to_string(),
            statement: case.statement.to_string(),
            position: case.position,
        };
        let mut db = Database::new();
        db.run(SETUP).unwrap();
        let interned = interned_scripts();
        assert_eq!(db.run(&case.sql), Err(refused.clone()), "run: {}", case.sql);
        assert_eq!(
            db.prepare(&case.sql).err(),
            Some(refused),
            "prepare: {}",
            case.sql
        );
        assert_eq!(interned_scripts(), interned, "interned: {}", case.sql);
        assert!(db.table(CREATED_FIRST).is_err(), "ran: {}", case.sql);
        assert_eq!(db.table_names(), ["Log"]);
        // Nothing was installed: an insert fires no trigger.
        db.insert("Log", vec![0.into()]).unwrap();
        assert_eq!(db.query("SELECT n FROM Log").unwrap(), [[0.into()]]);
    }

    // The refusal reads as the rule, and the rule leaves the paper's
    // statements alone.
    let err = Database::new().run(&cases[0].sql).unwrap_err();
    assert_eq!(
        err.to_string(),
        format!(
            "INSERT INTO Log at byte {}: the body of trigger bid may hold only \
             UPDATE, DELETE, SET, IF and SELECT",
            cases[0].position
        )
    );
    let mut db = Database::new();
    db.run(SETUP).unwrap();
    db.set_var("seen", 0.into());
    db.run(
        "IF 1 = 1 THEN CREATE TRIGGER bid AFTER INSERT ON Log {
           UPDATE Log SET n = n + 1;
           IF seen > 5 THEN DELETE FROM Log WHERE n > 9; ELSE SET seen = seen + 1; ENDIF;
           SELECT n FROM Log;
         }; ENDIF",
    )
    .unwrap();
    db.insert("Log", vec![0.into()]).unwrap();
    assert_eq!(db.query("SELECT n FROM Log").unwrap(), [[1.into()]]);
    assert_eq!(db.var("seen"), Some(&1.into()));
}
