#![cfg(test)]
//! Planner equivalence: the planned, indexed, compiled pipeline must be
//! bit-for-bit identical to the reference interpreter (`crate::reference`),
//! which scans every table — same rows, same errors (including partial
//! side effects of failing statements), and same trigger effects — over
//! random tables, rows, and statements.
//!
//! Each case builds two databases with identical contents, drives one
//! through the production entry points and the other through their
//! reference twins (`Engine`), runs the same random script on both, and
//! compares every statement outcome plus the full table state after each
//! step.

use crate::{
    Database, DbResult, ExecOutcome, Params, Prepared, Row, Table, Value, ValueType, NO_PARAMS,
};
use proptest::prelude::*;
use std::ops::Deref;

/// The executor a test database is driven through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The production entry points: `run`, `insert`, `Prepared::execute`.
    Planned,
    /// Their reference twins on the interpreter.
    Reference,
}

/// A database and the engine every mutating call on it goes through.
/// Read-only calls reach the database through `Deref`; there is no
/// `DerefMut`, so a reference database cannot be handed to a production
/// entry point by accident.
struct Driven {
    db: Database,
    engine: Engine,
}

impl Deref for Driven {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

impl Driven {
    fn new(engine: Engine) -> Driven {
        Driven {
            db: Database::new(),
            engine,
        }
    }

    fn run(&mut self, sql: &str) -> DbResult<Vec<ExecOutcome>> {
        match self.engine {
            Engine::Planned => self.db.run(sql),
            Engine::Reference => self.db.run_reference(sql),
        }
    }

    fn query(&mut self, sql: &str) -> DbResult<Vec<Row>> {
        match self.engine {
            Engine::Planned => self.db.query(sql),
            Engine::Reference => self.db.query_reference(sql),
        }
    }

    fn insert(&mut self, table: &str, row: Row) -> DbResult<()> {
        match self.engine {
            Engine::Planned => self.db.insert(table, row),
            Engine::Reference => self.db.insert_reference(table, row),
        }
    }

    fn execute(&mut self, stmt: &mut Prepared, params: &Params) -> DbResult<Vec<ExecOutcome>> {
        match self.engine {
            Engine::Planned => stmt.execute(&mut self.db, params),
            Engine::Reference => stmt.execute_reference(&mut self.db, params),
        }
    }

    fn query_prepared(&mut self, stmt: &mut Prepared, params: &Params) -> DbResult<Vec<Row>> {
        match self.engine {
            Engine::Planned => stmt.query(&mut self.db, params),
            Engine::Reference => stmt.query_reference(&mut self.db, params),
        }
    }

    /// Plans the trigger bodies and `stmts` ahead of the first execution,
    /// the way a campaign host does at registration. The interpreter has
    /// nothing to plan.
    fn warm(&mut self, stmts: &mut [&mut Prepared]) {
        if self.engine == Engine::Planned {
            self.db.warm_plans();
            for stmt in stmts {
                stmt.warm(&mut self.db);
            }
        }
    }
}

/// A nullable row for the test table `t (k INT, w TEXT, f FLOAT)`.
///
/// Small value domains on purpose: collisions make index postings hold
/// several rows, and NULLs exercise the "NULL cells are never indexed"
/// rule together with three-valued logic.
type TRow = (Option<i64>, Option<&'static str>, Option<i64>);

fn words() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("boot"), Just("shoe"), Just("sock"), Just("BOOT")]
}

fn trow() -> impl Strategy<Value = TRow> {
    (
        proptest::option::of(-3i64..4),
        proptest::option::of(words()),
        proptest::option::of(-2i64..3),
    )
}

fn seeded(rows: &[TRow], engine: Engine) -> Driven {
    let mut db = Driven::new(engine);
    db.run("CREATE TABLE t (k INT, w TEXT, f FLOAT)").unwrap();
    for (k, w, f) in rows {
        let k = k.map_or("NULL".to_string(), |v| v.to_string());
        let w = w.map_or("NULL".to_string(), |v| format!("'{v}'"));
        let f = f.map_or("NULL".to_string(), |v| format!("{v}.5"));
        db.run(&format!("INSERT INTO t VALUES ({k}, {w}, {f})"))
            .unwrap();
    }
    db
}

fn dump(db: &mut Driven) -> Vec<Row> {
    db.query("SELECT k, w, f FROM t").unwrap()
}

/// Random single statements over `t`, mixing index-eligible equality
/// probes, forced fallbacks (type-confused keys), fallible residuals the
/// planner must refuse to index past, subquery keys, and outright errors.
fn stmt() -> impl Strategy<Value = String> {
    let k = -3i64..4;
    prop_oneof![
        k.clone()
            .prop_map(|v| format!("SELECT * FROM T WHERE K = {v}")),
        words().prop_map(|w| format!("SELECT w, f FROM t WHERE w = '{w}'")),
        (k.clone(), words())
            .prop_map(|(v, w)| format!("SELECT COUNT(*) FROM t WHERE k = {v} AND w = '{w}'")),
        k.clone()
            .prop_map(|v| format!("SELECT SUM(k), MAX(f) FROM t WHERE k = {v}")),
        (k.clone(), -2i64..3)
            .prop_map(|(v, d)| format!("UPDATE t SET f = f + {d}, k = k - 1 WHERE k = {v}")),
        words().prop_map(|w| format!("DELETE FROM t WHERE w = '{w}'")),
        k.clone()
            .prop_map(|v| format!("INSERT INTO t VALUES ({v}, 'boot', 0.5)")),
        // Type-confused keys: the index cannot answer; the fallback scan
        // must reproduce the interpreter exactly (Float-vs-INT equality is
        // a numeric comparison, Int-vs-TEXT is a type error).
        k.clone()
            .prop_map(|v| format!("SELECT * FROM t WHERE w = {v}")),
        Just("SELECT * FROM t WHERE k = 'boot'".to_string()),
        Just("SELECT * FROM t WHERE k = 2.0".to_string()),
        // Residual conjuncts that can fail at runtime on some rows — the
        // planner must not skip those rows via an index probe.
        k.clone()
            .prop_map(|v| format!("SELECT * FROM t WHERE k = {v} AND f > 1")),
        k.clone()
            .prop_map(|v| format!("SELECT * FROM t WHERE k = {v} AND w > 1")),
        k.clone()
            .prop_map(|v| format!("SELECT * FROM t WHERE k = {v} AND (w = 'boot' OR f > 0)")),
        // Subquery keys are never hoisted into an index probe.
        Just("SELECT * FROM t WHERE k = (SELECT MAX(k) FROM t)".to_string()),
        // Plain errors must come out identical, message and all.
        Just("SELECT nope FROM t WHERE k = 1".to_string()),
        Just("SELECT * FROM nowhere WHERE k = 1".to_string()),
        Just("UPDATE t SET nope = 1 WHERE k = 1".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every statement of a random script produces the same outcome (rows
    /// or typed error) and leaves the same table state on both engines.
    #[test]
    fn scripts_match_forced_scan(
        rows in proptest::collection::vec(trow(), 0..16),
        script in proptest::collection::vec(stmt(), 1..8),
    ) {
        let mut auto = seeded(&rows, Engine::Planned);
        let mut scan = seeded(&rows, Engine::Reference);
        for sql in &script {
            prop_assert_eq!(auto.run(sql), scan.run(sql), "statement: {}", sql);
            prop_assert_eq!(dump(&mut auto), dump(&mut scan), "state after: {}", sql);
        }
    }

    /// Trigger bodies run through cached plans on the Auto side; their
    /// side effects (including recursive firing order) must match the
    /// interpreter statement by statement.
    #[test]
    fn trigger_effects_match_forced_scan(
        rows in proptest::collection::vec(trow(), 0..12),
        inserts in proptest::collection::vec((-3i64..4, words()), 1..8),
    ) {
        let trigger = "CREATE TRIGGER equalize AFTER INSERT ON t { \
            UPDATE t SET f = f + (SELECT COUNT(*) FROM t WHERE w = 'boot') \
            WHERE k = 1; \
            DELETE FROM t WHERE w = 'gone' }";
        let mut auto = seeded(&rows, Engine::Planned);
        let mut scan = seeded(&rows, Engine::Reference);
        prop_assert_eq!(auto.run(trigger), scan.run(trigger));
        // Plan ahead of time on the planned side only — warming must be
        // invisible in the results.
        auto.warm(&mut []);
        for &(k, w) in &inserts {
            let sql = format!("INSERT INTO t VALUES ({k}, '{w}', 1.5)");
            prop_assert_eq!(auto.run(&sql), scan.run(&sql), "statement: {}", sql);
            prop_assert_eq!(dump(&mut auto), dump(&mut scan), "state after: {}", sql);
        }
        prop_assert_eq!(auto.query("SELECT COUNT(*) FROM t").unwrap(),
                        scan.query("SELECT COUNT(*) FROM t").unwrap());
    }

    /// Prepared statements with bound parameters take the cached-plan
    /// path; rebinding different values must keep matching the oracle.
    #[test]
    fn prepared_params_match_forced_scan(
        rows in proptest::collection::vec(trow(), 0..16),
        keys in proptest::collection::vec(-3i64..4, 1..6),
    ) {
        let mut auto = seeded(&rows, Engine::Planned);
        let mut scan = seeded(&rows, Engine::Reference);
        let sql = "UPDATE t SET f = f * 2 WHERE k = ?; \
                   SELECT w, f FROM t WHERE k = ?";
        let mut p_auto = auto.prepare(sql).unwrap();
        let mut p_scan = scan.prepare(sql).unwrap();
        for &key in &keys {
            let params = Params::new().push(key).push(key);
            prop_assert_eq!(
                auto.execute(&mut p_auto, &params),
                scan.execute(&mut p_scan, &params),
                "key: {}", key
            );
        }
        prop_assert_eq!(dump(&mut auto), dump(&mut scan));
    }
}

/// Mixed-case table/column spellings resolve to the same index and the
/// same rows (regression: index keys must case-fold like the catalog).
#[test]
fn mixed_case_spellings_agree() {
    let rows = [
        (Some(1), Some("boot"), Some(1)),
        (Some(2), Some("BOOT"), Some(2)),
    ];
    let mut auto = seeded(&rows, Engine::Planned);
    let mut scan = seeded(&rows, Engine::Reference);
    for sql in [
        "SELECT K FROM T WHERE W = 'boot'",
        "SELECT k FROM t WHERE w = 'BOOT'",
        "SELECT COUNT(*) FROM T WHERE K = 2",
    ] {
        assert_eq!(auto.run(sql), scan.run(sql), "statement: {sql}");
    }
    // TEXT matching itself stays case-sensitive even though identifiers
    // fold: 'boot' and 'BOOT' are different keys.
    assert_eq!(
        auto.query("SELECT k FROM t WHERE w = 'boot'").unwrap(),
        vec![vec![Value::Int(1)]]
    );
}

// ---------------------------------------------------------------------------
// Sharing and isolation: databases that run one script text share the
// parsed script and its plans, and still behave as if each had its own.
// ---------------------------------------------------------------------------

/// A small bidding program over tables suffixed with `tag`: each test takes
/// its own tag — its own texts and catalog shape — so what it asserts about
/// pointer-shared scripts and plans is its own doing, not a concurrently
/// running test's.
fn program(tag: &str) -> String {
    format!(
        "CREATE TABLE Query{tag} (kw INT);
         CREATE TABLE Keywords{tag} (text TEXT, bid INT, maxbid INT);
         CREATE TABLE Bids{tag} (formula TEXT, value INT);
         INSERT INTO Keywords{tag} VALUES ('boot', :bid, :max), ('shoe', :bid + 1, :max);
         INSERT INTO Bids{tag} VALUES ('Click', 0);
         CREATE TRIGGER bid{tag} AFTER INSERT ON Query{tag} {{
           UPDATE Keywords{tag} SET bid = bid + 1 WHERE text = 'boot' AND bid < maxbid;
           UPDATE Bids{tag} SET value =
             (SELECT SUM(K.bid) FROM Keywords{tag} K WHERE K.text = 'boot')
           WHERE formula = 'Click';
         }}"
    )
}

/// One campaign: a database built from `program(tag)` plus its host
/// statements, the way `SqlProgramBidder` drives a program.
struct Campaign {
    db: Driven,
    /// Held, like a campaign host holds it, so the next campaign of the
    /// same text installs these trigger bodies instead of parsing its own.
    _program: Prepared,
    clear: Prepared,
    read: Prepared,
    query_table: String,
    /// A memoised script run every round right after the activation row
    /// fired the program: DDL and inserts, which a trigger body may not
    /// hold, in flight between the program's plans and the host's read.
    reshape: Option<Prepared>,
}

impl Campaign {
    fn new(tag: &str, engine: Engine, bid: i64, max: i64) -> Campaign {
        let mut db = Driven::new(engine);
        let params = Params::new().bind("bid", bid).bind("max", max);
        let mut program = db.prepare(&program(tag)).unwrap();
        db.execute(&mut program, &params).unwrap();
        let query_table = format!("Query{tag}");
        let mut clear = db.prepare(&format!("DELETE FROM {query_table}")).unwrap();
        let mut read = db.prepare(&format!("SELECT * FROM Bids{tag}")).unwrap();
        // Plan (or adopt) everything at registration, like a campaign host.
        db.warm(&mut [&mut clear, &mut read]);
        Campaign {
            db,
            _program: program,
            clear,
            read,
            query_table,
            reshape: None,
        }
    }

    /// One auction round; `Err` carries the first failing statement's error.
    fn round(&mut self) -> DbResult<Vec<Row>> {
        self.db.execute(&mut self.clear, NO_PARAMS)?;
        self.db.insert(&self.query_table, vec![Value::Int(0)])?;
        if let Some(reshape) = &mut self.reshape {
            self.db.execute(reshape, NO_PARAMS)?;
        }
        self.db.query_prepared(&mut self.read, NO_PARAMS)
    }

    fn keywords(&mut self, tag: &str) -> Vec<Row> {
        self.db
            .query(&format!("SELECT text, bid, maxbid FROM Keywords{tag}"))
            .unwrap()
    }
}

/// N databases built from one script with different bound parameters,
/// driven interleaved: each is bit-identical to its own forced-scan oracle,
/// all of them fire the plans the first lowered, and their counters cannot
/// tell who lowered and who adopted.
#[test]
fn databases_sharing_one_script_match_their_oracles() {
    let tag = "_shared";
    let params = [(1, 4), (3, 3), (0, 9), (-2, 1)];
    let mut autos: Vec<Campaign> = params
        .iter()
        .map(|&(bid, max)| Campaign::new(tag, Engine::Planned, bid, max))
        .collect();
    let mut scans: Vec<Campaign> = params
        .iter()
        .map(|&(bid, max)| Campaign::new(tag, Engine::Reference, bid, max))
        .collect();
    for sibling in &autos[1..] {
        assert!(
            autos[0].db.shares_triggers_with(&sibling.db),
            "a sibling adopts the plans the first database lowered"
        );
        assert_eq!(
            sibling.db.planner_stats(),
            autos[0].db.planner_stats(),
            "adopting must count like lowering"
        );
    }
    assert!(!autos[0].db.shares_triggers_with(&scans[0].db));
    for round in 0..6 {
        for (auto, scan) in autos.iter_mut().zip(&mut scans) {
            assert_eq!(auto.round(), scan.round(), "round {round}");
            assert_eq!(auto.keywords(tag), scan.keywords(tag), "round {round}");
        }
    }
    // Different parameters really produced different trajectories.
    assert_ne!(autos[0].keywords(tag), autos[1].keywords(tag));
    for (i, auto) in autos.iter().enumerate() {
        let stats = auto.db.planner_stats();
        assert!(stats.index_hits > 0, "database {i} never probed an index");
        assert_eq!(
            stats.plans_cached,
            autos[0].db.planner_stats().plans_cached,
            "database {i} planned more or less than the one that lowered"
        );
    }
}

/// A sibling whose rounds reshape `Bids` (another column list) leaves the
/// shared catalog shape: it replans, alone, and the databases that stayed
/// keep their results, their plans and their counters' pace.
#[test]
fn a_sibling_whose_ddl_diverges_replans_alone() {
    let tag = "_diverge";
    let reshape = format!(
        "DROP TABLE Bids{tag};
         CREATE TABLE Bids{tag} (formula TEXT, value INT, note TEXT);
         INSERT INTO Bids{tag} VALUES ('Click', 7, 'reshaped');"
    );
    let build = |engine, diverge: bool| {
        let mut campaign = Campaign::new(tag, engine, 1, 5);
        if diverge {
            campaign.reshape = Some(campaign.db.prepare(&reshape).unwrap());
        }
        campaign
    };
    let mut stayers = [build(Engine::Planned, false), build(Engine::Planned, false)];
    let mut stayer_oracle = build(Engine::Reference, false);
    let mut sibling = build(Engine::Planned, true);
    let mut sibling_oracle = build(Engine::Reference, true);

    // Two rounds of the stayers alone; the second (the activation table is
    // no longer empty) sets the pace their counters move at.
    let mut before = stayers[0].db.planner_stats();
    for _ in 0..2 {
        before = stayers[0].db.planner_stats();
        let expected = stayer_oracle.round();
        for stayer in &mut stayers {
            assert_eq!(stayer.round(), expected);
        }
    }
    let after = stayers[0].db.planner_stats();
    let pace = (
        after.index_hits - before.index_hits,
        after.rows_scanned - before.rows_scanned,
    );
    assert_eq!(after.plans_cached, before.plans_cached);

    let sibling_plans = sibling.db.planner_stats().plans_cached;
    for round in 0..4 {
        // The sibling's round drops and recreates Bids, so everything it
        // runs — the host statements' texts are shared with the stayers —
        // is replanned for the shapes it passes through.
        assert_eq!(sibling.round(), sibling_oracle.round(), "round {round}");
        assert_eq!(sibling.keywords(tag), sibling_oracle.keywords(tag));

        let expected = stayer_oracle.round();
        for stayer in &mut stayers {
            let before = stayer.db.planner_stats();
            assert_eq!(stayer.round(), expected, "round {round}");
            let after = stayer.db.planner_stats();
            assert_eq!(
                after.plans_cached, before.plans_cached,
                "a stayer replanned"
            );
            assert_eq!(
                (
                    after.index_hits - before.index_hits,
                    after.rows_scanned - before.rows_scanned
                ),
                pace,
                "a stayer's access paths changed"
            );
        }
    }
    assert!(sibling.db.planner_stats().plans_cached > sibling_plans);
    assert!(stayers[0].db.shares_triggers_with(&stayers[1].db));
    assert_eq!(sibling.round().unwrap()[0].len(), 3, "the reshaped Bids");
}

/// A database that adopts a plan another database lowered builds its own
/// indexes: it takes the index path and returns its own rows.
#[test]
fn an_adopted_plan_still_gets_its_indexes() {
    let build = |bids: &[i64]| {
        let mut db = Database::new();
        db.run("CREATE TABLE Adopted (text TEXT, bid INT)").unwrap();
        let mut insert = db.prepare("INSERT INTO Adopted VALUES (?, ?)").unwrap();
        for (i, bid) in bids.iter().enumerate() {
            let word = if i % 2 == 0 { "boot" } else { "shoe" };
            insert
                .execute(&mut db, &Params::new().push(word).push(*bid))
                .unwrap();
        }
        db
    };
    let sql = "SELECT bid FROM Adopted WHERE text = ?";
    let boot = Params::new().push("boot");

    let mut first = build(&[1, 2, 3]);
    let built = first.planner_stats().plans_cached;
    let mut lowered = first.prepare(sql).unwrap();
    assert_eq!(
        lowered.query(&mut first, &boot).unwrap(),
        vec![vec![Value::Int(1)], vec![Value::Int(3)]]
    );
    let lowering_counted = first.planner_stats().plans_cached - built;
    assert!(lowering_counted > 0);

    // A second database of the same shape, through a handle of its own.
    let mut second = build(&[10, 20, 30, 40, 50]);
    let planned_before = second.planner_stats().plans_cached;
    let mut adopted = second.prepare(sql).unwrap();
    assert!(adopted.shares_script_with(&lowered));
    let scanned_before = second.planner_stats().rows_scanned;
    assert_eq!(
        adopted.query(&mut second, &boot).unwrap(),
        vec![
            vec![Value::Int(10)],
            vec![Value::Int(30)],
            vec![Value::Int(50)]
        ]
    );
    let stats = second.planner_stats();
    assert_eq!(
        stats.plans_cached - planned_before,
        lowering_counted,
        "adopting counts like lowering"
    );
    assert_eq!(stats.index_hits, 1, "the adopted plan must probe, not scan");
    assert_eq!(stats.rows_scanned, scanned_before);

    // A third, through the *first* database's handle: its memo is valid for
    // the shape, and the index still gets built where the handle now runs.
    let mut third = build(&[7, 8]);
    let scanned_before = third.planner_stats().rows_scanned;
    assert_eq!(
        lowered.query(&mut third, &boot).unwrap(),
        vec![vec![Value::Int(7)]]
    );
    assert_eq!(third.planner_stats().index_hits, 1);
    assert_eq!(third.planner_stats().rows_scanned, scanned_before);
}

/// A memoised script that drops a table and recreates it as it was brings
/// the database back to a catalog shape it had before, with the table's
/// indexes gone. What the database does next (the access paths of the
/// statements still in flight, what it replans) must be the same whether
/// or not a sibling database has that shape too.
#[test]
fn recreating_a_table_behaves_the_same_with_or_without_a_sibling() {
    let tag = "_recreate";
    let recreate = format!(
        "DROP TABLE Bids{tag};
         CREATE TABLE Bids{tag} (formula TEXT, value INT);
         INSERT INTO Bids{tag} VALUES ('Click', 0), ('Purchase', 0);
         UPDATE Bids{tag} SET value = 9 WHERE formula = 'Click';"
    );
    // Rows and counters after each of four rounds.
    let run = |engine, with_sibling: bool| {
        let _sibling = with_sibling.then(|| Campaign::new(tag, Engine::Planned, 1, 5));
        let mut campaign = Campaign::new(tag, engine, 1, 5);
        campaign.reshape = Some(campaign.db.prepare(&recreate).unwrap());
        let rounds: Vec<_> = (0..4)
            .map(|_| (campaign.round(), campaign.db.planner_stats()))
            .collect();
        rounds
    };
    // One at a time: any live database of the shape, the oracle included,
    // would be a sibling to the others.
    let oracle = run(Engine::Reference, false);
    let alone = run(Engine::Planned, false);
    let accompanied = run(Engine::Planned, true);
    assert_eq!(alone, accompanied);
    for (planned, interpreted) in alone.iter().zip(&oracle) {
        assert_eq!(planned.0, interpreted.0);
    }
    // The UPDATE behind the DDL, in flight when the index went, probes the
    // rebuilt index every round: the pace of the counters never changes.
    let pace = |a: usize, b: usize| {
        let (from, to) = (alone[a].1, alone[b].1);
        (
            to.index_hits - from.index_hits,
            to.rows_scanned - from.rows_scanned,
        )
    };
    assert_eq!(pace(1, 2), pace(2, 3));
    assert!(
        pace(2, 3).0 >= 4,
        "three probes by `bid`, one by `recreate`"
    );
}

// ---------------------------------------------------------------------------
// Position shifts: plans name tables by their position in the catalog shape
// they were lowered at. DDL that moves a table's position — a table created
// whose name sorts before it, or dropped from before it — must never let a
// memoised plan, or one in flight after such DDL in its own script, touch
// the table that now sits where its own used to.
// ---------------------------------------------------------------------------

/// `Aaa_shift` and `Decoy_shift` sort before `Keywords_shift` and have its
/// very columns: a stale position would not fail, it would quietly read or
/// write the wrong rows.
const SHIFT_SETUP: &str = "
    CREATE TABLE Keywords_shift (text TEXT, bid INT);
    INSERT INTO Keywords_shift VALUES ('boot', 1), ('shoe', 2), ('boot', 3);";

/// Shifts `Keywords_shift`'s position and back between its own statements;
/// run as a memoised script, so its plans are in flight across the shifts.
const SHIFT_IN_FLIGHT: &str = "
    CREATE TABLE Aaa_shift (text TEXT, bid INT);
    INSERT INTO Aaa_shift VALUES ('boot', 100), ('shoe', 200);
    UPDATE Keywords_shift SET bid = bid + 1 WHERE text = 'boot';
    DROP TABLE Aaa_shift;
    UPDATE Keywords_shift SET bid = bid * 2 WHERE text = 'shoe';";

#[derive(Debug, Clone)]
enum ShiftOp {
    /// Run [`SHIFT_IN_FLIGHT`]: positions shift mid-script.
    Fire,
    AddDecoy,
    DropDecoy,
    Bump(&'static str, i64),
    Read(&'static str),
    ReadDecoy(&'static str),
}

fn shift_op() -> impl Strategy<Value = ShiftOp> {
    let word = || prop_oneof![Just("boot"), Just("shoe"), Just("sock")];
    prop_oneof![
        Just(ShiftOp::Fire),
        Just(ShiftOp::AddDecoy),
        Just(ShiftOp::DropDecoy),
        (word(), -2i64..3).prop_map(|(w, d)| ShiftOp::Bump(w, d)),
        word().prop_map(ShiftOp::Read),
        word().prop_map(ShiftOp::ReadDecoy),
    ]
}

/// A database of the shift schema and its memoised host statements.
struct Shifting {
    db: Driven,
    shift: Prepared,
    bump: Prepared,
    read: Prepared,
    read_decoy: Prepared,
}

impl Shifting {
    fn new(engine: Engine) -> Shifting {
        let mut db = Driven::new(engine);
        db.run(SHIFT_SETUP).unwrap();
        let mut shifting = Shifting {
            shift: db.prepare(SHIFT_IN_FLIGHT).unwrap(),
            bump: db
                .prepare("UPDATE Keywords_shift SET bid = bid + ? WHERE text = ?")
                .unwrap(),
            read: db
                .prepare("SELECT text, bid FROM Keywords_shift WHERE text = ?")
                .unwrap(),
            read_decoy: db
                .prepare("SELECT bid FROM Decoy_shift WHERE text = ?")
                .unwrap(),
            db,
        };
        shifting
            .db
            .warm(&mut [&mut shifting.shift, &mut shifting.bump, &mut shifting.read]);
        shifting
    }

    fn apply(&mut self, op: &ShiftOp) -> DbResult<Vec<ExecOutcome>> {
        let db = &mut self.db;
        match *op {
            ShiftOp::Fire => db.execute(&mut self.shift, NO_PARAMS),
            ShiftOp::AddDecoy => db.run(
                "CREATE TABLE Decoy_shift (text TEXT, bid INT);
                 INSERT INTO Decoy_shift VALUES ('boot', 50), ('boot', 60)",
            ),
            ShiftOp::DropDecoy => db.run("DROP TABLE Decoy_shift"),
            ShiftOp::Bump(word, delta) => {
                db.execute(&mut self.bump, &Params::new().push(delta).push(word))
            }
            ShiftOp::Read(word) => db.execute(&mut self.read, &Params::new().push(word)),
            ShiftOp::ReadDecoy(word) => db.execute(&mut self.read_decoy, &Params::new().push(word)),
        }
    }

    fn keywords(&mut self) -> Vec<Row> {
        self.db
            .query("SELECT text, bid FROM Keywords_shift")
            .unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every step matches the oracle, and the memoised probes of
    /// `Keywords_shift` keep taking its index after each shift.
    #[test]
    fn position_shifts_match_forced_scan(ops in proptest::collection::vec(shift_op(), 1..24)) {
        let mut auto = Shifting::new(Engine::Planned);
        let mut scan = Shifting::new(Engine::Reference);
        for op in &ops {
            let hits = auto.db.planner_stats().index_hits;
            prop_assert_eq!(auto.apply(op), scan.apply(op), "op: {:?}", op);
            prop_assert_eq!(auto.keywords(), scan.keywords(), "after: {:?}", op);
            if matches!(op, ShiftOp::Bump(..) | ShiftOp::Read(_)) {
                prop_assert_eq!(
                    auto.db.planner_stats().index_hits - hits, 1,
                    "{:?} must probe the index of Keywords_shift", op
                );
            }
        }
    }
}

/// The script's in-flight statements, after `CREATE TABLE Aaa_shift`
/// moved `Keywords_shift` from the first position to the second and `DROP`
/// moved it back, updated `Keywords_shift` and nothing else.
#[test]
fn a_shift_inside_a_memoised_script_updates_the_right_table() {
    let mut auto = Shifting::new(Engine::Planned);
    auto.apply(&ShiftOp::AddDecoy).unwrap();
    auto.apply(&ShiftOp::Fire).unwrap();
    assert_eq!(
        auto.keywords(),
        vec![
            vec![Value::Text("boot".into()), Value::Int(2)],
            vec![Value::Text("shoe".into()), Value::Int(4)],
            vec![Value::Text("boot".into()), Value::Int(4)],
        ]
    );
    assert_eq!(
        auto.db.query("SELECT bid FROM Decoy_shift").unwrap(),
        vec![vec![Value::Int(50)], vec![Value::Int(60)]]
    );
    assert!(auto.db.table("Aaa_shift").is_err());
}

// ---------------------------------------------------------------------------
// The oracle itself.
// ---------------------------------------------------------------------------

/// Statements that parse fine but stress lowering — deep-but-legal
/// predicates, unknown columns discovered at plan time, type-confused
/// index keys, and `EXPLAIN` stacked on itself — come back as the same
/// `Ok` or typed error from the reference as from the planner, never a
/// panic, and leave both engines usable.
#[test]
fn hostile_lowering_is_a_typed_error_on_the_reference() {
    let deep_pred = format!("SELECT * FROM t WHERE a = 1 {}", "AND a = 1 ".repeat(2_000));
    let cases = [
        deep_pred.as_str(),
        "UPDATE t SET ghost = 1 WHERE a = 1",
        "SELECT * FROM t WHERE ghost = 1",
        "SELECT * FROM t WHERE a = ghost",
        "INSERT INTO t (ghost) VALUES (1)",
        "SELECT * FROM t WHERE a = 'word'",
        "SELECT * FROM t WHERE a = 1.0 AND a = 'word'",
        "SELECT * FROM t WHERE a = (SELECT 'word' FROM t)",
        "EXPLAIN EXPLAIN EXPLAIN SELECT * FROM t WHERE a = 1",
        "EXPLAIN SELECT ghost FROM t",
        "EXPLAIN UPDATE nowhere SET a = 1",
        "EXPLAIN IF 1 = 1 THEN UPDATE t SET a = 2 WHERE a = 1; ENDIF",
    ];
    let mut planned = Driven::new(Engine::Planned);
    let mut reference = Driven::new(Engine::Reference);
    for db in [&mut planned, &mut reference] {
        db.run("CREATE TABLE t (a INT)").unwrap();
        db.run("INSERT INTO t VALUES (1), (0)").unwrap();
    }
    for sql in cases {
        assert_eq!(planned.run(sql), reference.run(sql), "statement: {sql:?}");
        assert_eq!(
            planned.query("SELECT COUNT(*) FROM t"),
            reference.query("SELECT COUNT(*) FROM t"),
            "state after {sql:?}"
        );
    }
}

#[path = "../tests/support/refused_bodies.rs"]
mod refused_bodies;

/// A trigger body holding anything but `UPDATE`, `DELETE`, `SET`, `IF` and
/// `SELECT` is refused by the parser both engines share: the reference
/// returns the very error the planned engine does and runs nothing either
/// (`tests/trigger_bodies.rs` checks the planned side in full).
#[test]
fn refused_trigger_bodies_fail_alike_on_the_reference() {
    use refused_bodies::{refused_bodies, CREATED_FIRST, SETUP, TRIGGER};
    for case in refused_bodies() {
        let refused = Err(crate::DbError::TriggerBody {
            trigger: TRIGGER.to_string(),
            statement: case.statement.to_string(),
            position: case.position,
        });
        let mut planned = Driven::new(Engine::Planned);
        let mut reference = Driven::new(Engine::Reference);
        for db in [&mut planned, &mut reference] {
            db.run(SETUP).unwrap();
            assert_eq!(db.run(&case.sql), refused, "{:?}: {}", db.engine, case.sql);
            assert!(db.table(CREATED_FIRST).is_err());
        }
    }
}

/// The number of columns of `table` that carry a hash index.
fn indexed_columns(table: &Table) -> usize {
    let columns = table.schema().columns().iter().enumerate();
    columns
        .filter(|(col, column)| {
            let key = match column.ty {
                ValueType::Int => Value::Int(0),
                ValueType::Text => Value::Text(String::new().into()),
                ValueType::Float | ValueType::Bool => return false,
            };
            table.index_lookup(*col, &key).is_some()
        })
        .count()
}

/// The reference is independent of the planner: a script that fires a
/// trigger, a host insert and a prepared statement, all run through the
/// reference entry points, memoise no plan, probe no index and build none.
/// The same script on the production entry points does all three — had the
/// reference's trigger firing gone through the planner, the equivalence
/// suite above would compare the planner with itself.
#[test]
fn the_reference_never_plans() {
    let setup = "
        CREATE TABLE Query_ref (kw INT);
        CREATE TABLE Keywords_ref (text TEXT, bid INT);
        INSERT INTO Keywords_ref VALUES ('boot', 1), ('shoe', 2);
        CREATE TRIGGER bid_ref AFTER INSERT ON Query_ref {
          UPDATE Keywords_ref SET bid = bid + 1 WHERE text = 'boot';
        };
        INSERT INTO Query_ref VALUES (1)";
    let boot = "SELECT bid FROM Keywords_ref WHERE text = 'boot'";
    let mut planned = Driven::new(Engine::Planned);
    let mut reference = Driven::new(Engine::Reference);
    let mut bump = planned
        .prepare("UPDATE Keywords_ref SET bid = bid + ? WHERE text = ?")
        .unwrap();
    for db in [&mut planned, &mut reference] {
        db.run(setup).unwrap();
        db.insert("Query_ref", vec![Value::Int(2)]).unwrap();
        db.execute(&mut bump, &Params::new().push(10).push("boot"))
            .unwrap();
    }
    assert_eq!(planned.query(boot), Ok(vec![vec![Value::Int(13)]]));
    assert_eq!(reference.query(boot), planned.query(boot));

    let stats = reference.planner_stats();
    assert_eq!(stats.plans_cached, 0, "the reference memoised a plan");
    assert_eq!(stats.index_hits, 0, "the reference probed an index");
    assert!(stats.rows_scanned > 0);
    let indexes = |db: &Database| -> usize {
        let tables = db.table_names().into_iter();
        tables
            .map(|name| indexed_columns(db.table(name).unwrap()))
            .sum()
    };
    assert_eq!(indexes(&reference), 0, "the reference built an index");

    let stats = planned.planner_stats();
    assert!(stats.plans_cached > 0 && stats.index_hits > 0);
    assert!(indexes(&planned) > 0);
}
