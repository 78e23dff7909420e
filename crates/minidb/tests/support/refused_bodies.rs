//! Scripts whose trigger body holds a statement Section II-B's bidding
//! programs may not: each refused statement, directly in the body and
//! inside `IF`, `ELSEIF`, `ELSE` and a nested `IF`, with the trigger
//! defined at the top level and inside a top-level `IF`. Every script
//! creates a table first, so a script that ran anything leaves it behind.
//! Shared by `tests/trigger_bodies.rs` and the crate's planner-equivalence
//! unit tests, which hold the reference interpreter to the same refusals.

/// One refused script.
pub struct RefusedBody {
    /// The whole script.
    pub sql: String,
    /// How the refusal names the statement.
    pub statement: &'static str,
    /// Byte offset of the refused statement in `sql`.
    pub position: usize,
}

/// The trigger every script defines.
pub const TRIGGER: &str = "bid";

/// The table every script creates ahead of its trigger.
pub const CREATED_FIRST: &str = "Made";

/// The tables a database needs for the scripts to get as far as the
/// trigger (run before them).
pub const SETUP: &str = "CREATE TABLE Log (n INT)";

/// Every refused statement in every placement, in both scopes.
pub fn refused_bodies() -> Vec<RefusedBody> {
    let statements = [
        ("INSERT INTO Log VALUES (1)", "INSERT INTO Log"),
        ("CREATE TABLE Scratch (a INT)", "CREATE TABLE Scratch"),
        ("DROP TABLE Log", "DROP TABLE Log"),
        (
            "CREATE TRIGGER nested AFTER INSERT ON Log { UPDATE Log SET n = 1; }",
            "CREATE TRIGGER nested",
        ),
        ("EXPLAIN SELECT n FROM Log", "EXPLAIN"),
    ];
    let placements = [
        "{s};",
        "IF n > 0 THEN {s}; ENDIF;",
        "IF n > 0 THEN UPDATE Log SET n = 1; ELSEIF n < 0 THEN {s}; ENDIF;",
        "IF n > 0 THEN UPDATE Log SET n = 1; ELSE {s}; ENDIF;",
        "IF n > 0 THEN IF n > 1 THEN {s}; ENDIF; ENDIF;",
    ];
    let scopes = ["{t}", "IF 1 = 1 THEN {t}; ENDIF"];
    let mut cases = Vec::new();
    for (text, statement) in statements {
        for placement in placements {
            for scope in scopes {
                let body = placement.replace("{s}", text);
                let trigger = format!(
                    "CREATE TRIGGER {TRIGGER} AFTER INSERT ON Log {{ UPDATE Log SET n = n + 1; {body} }}"
                );
                let sql = format!(
                    "CREATE TABLE {CREATED_FIRST} (a INT); {}",
                    scope.replace("{t}", &trigger)
                );
                let position = sql.find(text).expect("the statement is in the script");
                cases.push(RefusedBody {
                    sql,
                    statement,
                    position,
                });
            }
        }
    }
    cases
}
