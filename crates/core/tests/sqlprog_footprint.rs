//! Footprint of SQL bidding programs compiled once and run by many
//! campaigns.
//!
//! A `SqlProgram` is compiled once — parsed scripts, trigger bodies,
//! lowered plans, the catalog of table names, column lists and variable
//! names — and every `SqlProgramBidder` instantiated from it shares that
//! through `Arc`s and owns only its rows, indexes and variable values, 16
//! bytes a value. This file pins that down from outside: resident memory
//! per campaign, freshly built and after it has served auctions, pointer
//! identity of the catalog the campaigns share, and that campaigns keep
//! serving after the program value is dropped — what they share, they
//! hold.
//!
//! It is a test binary of its own, and one `#[test]`, because what it
//! measures is process-wide: resident set size. Linux-only: resident memory
//! is read from `/proc/self/status`.
//!
//! The run prints two JSON lines (`sql_program_footprint_kb` for a freshly
//! built program, `sql_program_served_footprint_kb` for one that has served
//! 20 auctions and settled a click, the state the `program-sql` benchmark
//! workload holds its programs in) that the `perf-smoke` CI job appends to
//! `bench-report.json`.

#![cfg(target_os = "linux")]

#[path = "support/figure5.rs"]
mod figure5;

use figure5::{click, compiled, ctx, program};
use ssa_core::{Bidder, SqlProgramBidder};

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
    // -- Sharing: every campaign holds the program's catalog. -------------
    let compiled = compiled();
    let first = program(&compiled, 0);
    let second = program(&compiled, 1);
    // Every table of a campaign has the very schema of the program's
    // catalog.
    let shares_the_catalog = |a: &SqlProgramBidder, b: &SqlProgramBidder| {
        let schema = |campaign: &SqlProgramBidder, table| {
            let table = campaign.db().table(table).expect("a program table");
            table.schema() as *const _
        };
        ["Query", "Outcome", "Keywords", "Bids"]
            .iter()
            .all(|table| schema(a, table) == schema(b, table))
    };
    assert!(shares_the_catalog(&first, &second));
    assert_eq!(
        second.planner_stats(),
        first.planner_stats(),
        "campaigns of one program count alike"
    );

    // -- Footprint: what one more campaign of a compiled program costs. ---
    const PROGRAMS: usize = 2_000;
    let mut programs = Vec::with_capacity(PROGRAMS);
    let before = resident_kb();
    for i in 0..PROGRAMS {
        programs.push(program(&compiled, i as i64));
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
    assert!(shares_the_catalog(&first, &programs[PROGRAMS - 1]));

    // -- Served: what the programs hold once they have run auctions. ------
    // The compiled program goes first: the campaigns hold what they share.
    drop(compiled);
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
    assert!(
        shares_the_catalog(&first, &programs[PROGRAMS - 1]),
        "serving keeps the shared catalog"
    );
}
