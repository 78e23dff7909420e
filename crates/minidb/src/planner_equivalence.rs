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

use crate::exec::TriggerDef;
use crate::{
    Database, DbResult, ExecOutcome, Params, Prepared, Row, Table, Template, Value, ValueType,
    NO_PARAMS,
};
use proptest::prelude::*;
use std::ops::Deref;
use std::sync::Arc;

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
// Sharing and isolation: databases instantiated from one compiled program
// share its catalog, triggers and plans, and still behave as if each had
// its own.
// ---------------------------------------------------------------------------

/// A small bidding program over tables suffixed with `tag`, as its two
/// scripts: the tables and their initial state, then the trigger.
fn program(tag: &str) -> [String; 2] {
    [
        format!(
            "CREATE TABLE Query{tag} (kw INT);
             CREATE TABLE Keywords{tag} (text TEXT, bid INT, maxbid INT);
             CREATE TABLE Bids{tag} (formula TEXT, value INT);
             INSERT INTO Keywords{tag} VALUES ('boot', :bid, :max), ('shoe', :bid + 1, :max);
             INSERT INTO Bids{tag} VALUES ('Click', 0);"
        ),
        format!(
            "CREATE TRIGGER bid{tag} AFTER INSERT ON Query{tag} {{
               UPDATE Keywords{tag} SET bid = bid + 1 WHERE text = 'boot' AND bid < maxbid;
               UPDATE Bids{tag} SET value =
                 (SELECT SUM(K.bid) FROM Keywords{tag} K WHERE K.text = 'boot')
               WHERE formula = 'Click';
             }}"
        ),
    ]
}

/// `program(tag)` compiled once, with the host statements a campaign runs
/// prepared at its catalog, the way `SqlProgramBidder` compiles a program.
struct Compiled {
    tag: String,
    scripts: [String; 2],
    template: Template,
    clear: Prepared,
    read: Prepared,
}

impl Compiled {
    fn new(tag: &str) -> Compiled {
        let scripts = program(tag);
        let template = Template::compile(&[&scripts[0], &scripts[1]], &[]).unwrap();
        Compiled {
            tag: tag.to_string(),
            clear: template
                .prepare(&format!("DELETE FROM Query{tag}"))
                .unwrap(),
            read: template
                .prepare(&format!("SELECT * FROM Bids{tag}"))
                .unwrap(),
            scripts,
            template,
        }
    }
}

/// One campaign: an instance of a compiled program — for the oracle, a
/// database that ran the program's scripts on the interpreter — plus
/// clones of its host statements.
struct Campaign {
    db: Driven,
    clear: Prepared,
    read: Prepared,
    query_table: String,
    /// A memoised script run every round right after the activation row
    /// fired the program: DDL and inserts, which a trigger body may not
    /// hold, in flight between the program's plans and the host's read.
    reshape: Option<Prepared>,
}

impl Campaign {
    fn new(compiled: &Compiled, engine: Engine, bid: i64, max: i64) -> Campaign {
        let params = Params::new().bind("bid", bid).bind("max", max);
        let db = match engine {
            Engine::Planned => compiled.template.instantiate(&params).unwrap(),
            Engine::Reference => {
                let mut db = Database::new();
                for (sql, params) in compiled.scripts.iter().zip([&params, NO_PARAMS]) {
                    let script = db.prepare(sql).unwrap();
                    script.execute_reference(&mut db, params).unwrap();
                }
                db
            }
        };
        let mut db = Driven { db, engine };
        let (mut clear, mut read) = (compiled.clear.clone(), compiled.read.clone());
        // Build the indexes at registration, like a campaign host.
        db.warm(&mut [&mut clear, &mut read]);
        Campaign {
            db,
            clear,
            read,
            query_table: format!("Query{}", compiled.tag),
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

/// `true` if both databases fire the very same compiled triggers: the same
/// number of them (at least one), each pair one body and one planned
/// script.
fn fire_one_program(a: &Database, b: &Database) -> bool {
    let planned = |def: &TriggerDef| def.planned.as_ref().map(Arc::as_ptr);
    !a.triggers.is_empty()
        && a.triggers.len() == b.triggers.len()
        && a.triggers.iter().zip(&b.triggers).all(|(a, b)| {
            Arc::ptr_eq(&a.trigger, &b.trigger) && planned(a).is_some() && planned(a) == planned(b)
        })
}

/// N instances of one compiled program with different bound parameters,
/// driven interleaved: each is bit-identical to its own forced-scan oracle,
/// all of them fire the plans the template lowered, and their counters
/// move alike.
#[test]
fn databases_sharing_one_script_match_their_oracles() {
    let compiled = Compiled::new("_shared");
    let tag = &compiled.tag;
    let params = [(1, 4), (3, 3), (0, 9), (-2, 1)];
    let mut autos: Vec<Campaign> = params
        .iter()
        .map(|&(bid, max)| Campaign::new(&compiled, Engine::Planned, bid, max))
        .collect();
    let mut scans: Vec<Campaign> = params
        .iter()
        .map(|&(bid, max)| Campaign::new(&compiled, Engine::Reference, bid, max))
        .collect();
    for sibling in &autos[1..] {
        assert!(
            fire_one_program(&autos[0].db, &sibling.db),
            "instances fire the plans the template lowered"
        );
        assert_eq!(sibling.db.planner_stats(), autos[0].db.planner_stats());
    }
    assert!(autos[0].db.planner_stats().plans_cached > 0);
    assert!(!fire_one_program(&autos[0].db, &scans[0].db));
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
            "database {i} planned more or less than its siblings"
        );
        assert!(fire_one_program(&autos[0].db, &auto.db));
    }
}

/// A sibling whose rounds reshape `Bids` (another column list) leaves the
/// shared catalog shape: it replans, alone, and the databases that stayed
/// keep their results, their plans and their counters' pace.
#[test]
fn a_sibling_whose_ddl_diverges_replans_alone() {
    let compiled = Compiled::new("_diverge");
    let tag = &compiled.tag;
    let reshape = format!(
        "DROP TABLE Bids{tag};
         CREATE TABLE Bids{tag} (formula TEXT, value INT, note TEXT);
         INSERT INTO Bids{tag} VALUES ('Click', 7, 'reshaped');"
    );
    let build = |engine, diverge: bool| {
        let mut campaign = Campaign::new(&compiled, engine, 1, 5);
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
        // runs — the trigger and the host statements it shares with the
        // stayers — is replanned for the catalogs it passes through.
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
    assert!(fire_one_program(&stayers[0].db, &stayers[1].db));
    assert_eq!(sibling.round().unwrap()[0].len(), 3, "the reshaped Bids");
}

/// Instances running a handle lowered once at their template's catalog each
/// build the indexes it probes on their own tables: each takes the index
/// path and returns its own rows, those of its oracle.
#[test]
fn an_adopted_plan_still_gets_its_indexes() {
    let template = Template::compile(&["CREATE TABLE Adopted (text TEXT, bid INT)"], &[]).unwrap();
    let mut insert = template
        .prepare("INSERT INTO Adopted VALUES (?, ?)")
        .unwrap();
    let sql = "SELECT bid FROM Adopted WHERE text = ?";
    let mut lowered = template.prepare(sql).unwrap();
    let boot = Params::new().push("boot");
    // An instance, and an oracle of the same rows on the interpreter.
    let mut build = |bids: &[i64]| {
        let mut db = template.instantiate(NO_PARAMS).unwrap();
        let mut oracle = Driven::new(Engine::Reference);
        oracle
            .run("CREATE TABLE Adopted (text TEXT, bid INT)")
            .unwrap();
        for (i, bid) in bids.iter().enumerate() {
            let word = if i % 2 == 0 { "boot" } else { "shoe" };
            let row = Params::new().push(word).push(*bid);
            insert.execute(&mut db, &row).unwrap();
            oracle.execute(&mut insert, &row).unwrap();
        }
        (db, oracle)
    };
    // Each instance through a clone of the handle, then a third through the
    // handle itself: the plans are never lowered again, and every instance
    // probes an index of its own.
    for (i, bids) in [&[1, 2, 3][..], &[10, 20, 30, 40, 50], &[7, 8]]
        .into_iter()
        .enumerate()
    {
        let (mut db, mut oracle) = build(bids);
        let before = db.planner_stats();
        let mut handle = if i < 2 { lowered.clone() } else { lowered };
        let rows = handle.query(&mut db, &boot).unwrap();
        assert_eq!(rows, oracle.query_prepared(&mut handle, &boot).unwrap());
        assert_eq!(rows.len(), bids.len().div_ceil(2));
        let after = db.planner_stats();
        assert_eq!(after.plans_cached, before.plans_cached, "nothing lowered");
        assert_eq!(
            after.index_hits - before.index_hits,
            1,
            "a probe, not a scan"
        );
        assert_eq!(after.rows_scanned, before.rows_scanned);
        lowered = handle;
    }
}

/// A memoised script that drops a table and recreates it as it was brings
/// the database back to a catalog shape it had before, with the table's
/// indexes gone. What the database does next (the access paths of the
/// statements still in flight, what it replans) must be the same whether
/// or not a sibling database has that shape too.
#[test]
fn recreating_a_table_behaves_the_same_with_or_without_a_sibling() {
    let compiled = Compiled::new("_recreate");
    let tag = &compiled.tag;
    let recreate = format!(
        "DROP TABLE Bids{tag};
         CREATE TABLE Bids{tag} (formula TEXT, value INT);
         INSERT INTO Bids{tag} VALUES ('Click', 0), ('Purchase', 0);
         UPDATE Bids{tag} SET value = 9 WHERE formula = 'Click';"
    );
    // Rows and counters after each of four rounds.
    let run = |engine, with_sibling: bool| {
        let _sibling = with_sibling.then(|| Campaign::new(&compiled, Engine::Planned, 1, 5));
        let mut campaign = Campaign::new(&compiled, engine, 1, 5);
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

#[path = "../tests/support/hostile_lowering.rs"]
mod hostile_lowering;

/// Statements that parse — inside the parser's nesting limit, which the
/// test asserts — but stress lowering: scalar subqueries nested just inside
/// that limit, long `AND` chains mixing index-eligible equalities with
/// unknown columns, unknown columns discovered at plan time, type-confused
/// index keys, and `IF` arms holding failing statements. They come back as
/// the same `Ok` or typed error from the reference as from the planner,
/// never a panic, and leave both engines usable.
#[test]
fn hostile_lowering_is_a_typed_error_on_the_reference() {
    let mut planned = Driven::new(Engine::Planned);
    let mut reference = Driven::new(Engine::Reference);
    for db in [&mut planned, &mut reference] {
        db.run("CREATE TABLE t (a INT); CREATE TABLE e (a INT)")
            .unwrap();
        db.run("INSERT INTO t VALUES (1), (0)").unwrap();
    }
    for sql in hostile_lowering::hostile_lowering_cases() {
        let outcome = planned.run(&sql);
        assert!(
            !matches!(
                outcome,
                Err(crate::DbError::Parse { .. }
                    | crate::DbError::Lex { .. }
                    | crate::DbError::NestingTooDeep { .. })
            ),
            "{outcome:?}: {sql:?} never reached lowering"
        );
        assert_eq!(outcome, reference.run(&sql), "statement: {sql:?}");
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
