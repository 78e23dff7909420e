//! The ledger against the process: on the shape of the `engine-solve`
//! benchmark market — 5 000 advertisers with a per-click campaign on each
//! of 10 keywords, 15 slots, every keyword served — the bytes the ledger
//! says are in use match what building the market adds to the resident
//! set, within an eighth of the ledger either way. The residue is what
//! the ledger does not count: the allocator's per-allocation overhead on
//! ≈ 415 allocations and the buffers vectors left behind as they grew,
//! which stay resident. It reads +130 540 B on a 2.52 MB ledger (5.2 %),
//! debug or release, with the harness capturing output or not, since a
//! keyword's campaign vector that fills up past 16 KiB jumps to 256 KiB
//! instead of doubling. With 16-byte records and doubling it read
//! +339 436 B (13.4 %, over the bound): ≈ 209 KB of buffers each keyword's
//! campaign vector outgrew. With 32-byte records it read ≈ +0.30–0.37 MB
//! on a 3.32 MB ledger (9–11 %).
//! While each advertiser name was an allocation of its own (≈ 5 400
//! allocations) it read +0.29 MB with `--nocapture` but +0.42 MB (12.4 %,
//! less than a page inside the bound) under the default capture; it read
//! ≈ +0.4 MB on 4.1 MB while each click row was an allocation of its own.
//! One `#[test]`, because resident set size is process-wide.
//! Linux-only: it is read from `/proc/self/status`.

#![cfg(target_os = "linux")]

mod support;

use support::{advertiser_row, served_market};

const ADVERTISERS: usize = 5_000;

/// Resident set size of this process in bytes (`VmRSS`).
fn resident_bytes() -> i64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: i64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmRSS line in /proc/self/status");
    kb * 1024
}

#[test]
fn the_ledger_accounts_for_the_resident_growth_of_an_engine_solve_market() {
    // A market too small to weigh anything first, so the code every
    // campaign runs is resident before the reading.
    drop(served_market(20, |adv, _| advertiser_row(adv, 20)));
    let before = resident_bytes();
    let market = served_market(ADVERTISERS, |adv, _| advertiser_row(adv, ADVERTISERS));
    let grown = resident_bytes() - before;
    let ledger = market.footprint();
    support::print_ledger(&ledger);
    let in_use = ledger.total().in_use as i64;
    let residue = grown - in_use;
    println!(
        "{{\"metric\":\"engine_solve_ledger_vs_rss\",\"ledger_in_use\":{in_use},\
         \"rss_growth\":{grown},\"residue\":{residue}}}"
    );
    assert!(
        residue.abs() <= in_use / 8,
        "the ledger counts {in_use} B in use, the resident set grew by {grown} B: \
         a residue of {residue} B, {} B allowed either way",
        in_use / 8
    );
}
