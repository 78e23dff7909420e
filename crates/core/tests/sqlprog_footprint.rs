//! Footprint and boundedness of shared SQL bidding programs.
//!
//! Campaigns that register the same program text share everything derived
//! from the text — parsed scripts, trigger bodies, lowered plans, the
//! catalog of table names and column lists, variable names — through
//! `ssa_minidb`'s interners; each `SqlProgramBidder` owns only its rows,
//! indexes and variable values, 16 bytes a value. This file pins that down from outside:
//! resident memory per program, freshly built and after it has served
//! auctions, pointer identity of what is shared, and that the script
//! interner — which holds only weak references — empties when the programs
//! go and cannot be grown by one-off statements.
//!
//! It is a test binary of its own, and one `#[test]`, because both things
//! it measures are process-wide: resident set size and the interner's
//! entry count. Linux-only: resident memory is read from
//! `/proc/self/status`.
//!
//! The run prints two JSON lines (`sql_program_footprint_kb` for a freshly
//! built program, `sql_program_served_footprint_kb` for one that has served
//! 20 auctions and settled a click, the state the `program-sql` benchmark
//! workload holds its programs in) that the `perf-smoke` CI job appends to
//! `bench-report.json`.

#![cfg(target_os = "linux")]

#[path = "support/figure5.rs"]
mod figure5;

use figure5::{click, ctx, program};
use ssa_core::{Bidder, SqlProgramBidder};
use ssa_minidb::{interned_scripts, Database};

/// Twenty auctions on one keyword, then a clicked first slot to settle.
fn serve(program: &mut SqlProgramBidder) {
    for time in 1..=20 {
        assert!(!program.on_query(&ctx(time)).is_empty(), "the program bids");
    }
    program.on_outcome(&ctx(20), &click());
    assert!(program.last_error().is_none());
}

/// Resident set size of this process in KB (`VmRSS`).
fn resident_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmRSS line in /proc/self/status")
}

#[test]
fn shared_programs_are_small_identical_and_leave_nothing_behind() {
    assert_eq!(interned_scripts(), 0, "nothing is interned at start");

    // -- Sharing: two programs from one text are one compiled program. ----
    let first = program(0);
    let second = program(1);
    assert!(
        first.db().shares_triggers_with(second.db()),
        "trigger bodies and planned scripts must be pointer-identical"
    );
    assert_eq!(
        second.planner_stats().plans_cached,
        first.planner_stats().plans_cached,
        "adopted plans count like lowered ones: the counters do not tell who compiled"
    );
    // Tables script, program script, three host statements.
    assert_eq!(interned_scripts(), 5);

    // -- Footprint: what one more program of a known text costs. ----------
    const PROGRAMS: usize = 2_000;
    let mut programs = Vec::with_capacity(PROGRAMS);
    let before = resident_kb();
    for i in 0..PROGRAMS {
        programs.push(program(i as i64));
    }
    let per_program_kb = (resident_kb() - before) / PROGRAMS as f64;
    println!("{{\"metric\":\"sql_program_footprint_kb\",\"programs\":{PROGRAMS},\"value\":{per_program_kb:.2}}}");
    assert!(
        per_program_kb <= 1.1,
        "a Figure 5 program costs {per_program_kb:.2} KB resident, 1.1 KB allowed \
         (30.8 KB before scripts and plans were shared, 4.4 KB while each \
         database kept its own catalog and variable names, 1.9 KB while a \
         table held a heap row per row and a hash index, 1.38 KB while a \
         value took 24 bytes and each database kept its variable names)"
    );
    assert_eq!(interned_scripts(), 5, "2 000 programs, still five texts");
    assert!(programs[PROGRAMS - 1].db().shares_triggers_with(first.db()));

    // -- Served: what the programs hold once they have run auctions. ------
    for program in &mut programs {
        serve(program);
    }
    let served_kb = (resident_kb() - before) / PROGRAMS as f64;
    println!("{{\"metric\":\"sql_program_served_footprint_kb\",\"programs\":{PROGRAMS},\"value\":{served_kb:.2}}}");
    assert!(
        served_kb <= 1.25,
        "a Figure 5 program that served 20 auctions and a click costs \
         {served_kb:.2} KB resident, 1.25 KB allowed (≈ 5.6 KB while each \
         database kept its own catalog and variable names, ≈ 2.7 KB while a \
         table held a heap row per row and a hash index, ≈ 1.75 KB while a \
         value took 24 bytes and each database kept its variable names)"
    );
    assert_eq!(interned_scripts(), 5, "serving interns no script");
    assert!(programs[PROGRAMS - 1].db().shares_triggers_with(first.db()));

    // -- Boundedness: the interner holds no program alive. ----------------
    drop(programs);
    drop(second);
    assert_eq!(interned_scripts(), 5, "one program still holds the texts");
    drop(first);
    assert_eq!(
        interned_scripts(),
        0,
        "the last program of a text takes its interned scripts with it"
    );

    // One-off texts — the shape of a peer sending a distinct statement
    // every time — come and go without leaving entries.
    let db = Database::new();
    for i in 0..10_000 {
        let one_off = format!("UPDATE Keywords SET bid = bid + 1 WHERE bid < {i}");
        drop(db.prepare(&one_off).expect("statement parses"));
    }
    assert_eq!(interned_scripts(), 0, "one-off texts must not accumulate");
}
