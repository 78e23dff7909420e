//! The four workloads and what every one of them reports.
//!
//! All four are closed loops: the caller of an auction service waits for
//! its page, so a client sends its next request only once the previous one
//! (or, on the wire, the oldest of a window of sixteen) is answered.

pub mod inproc;
pub mod wire;

use crate::stats::Histogram;
use crate::trace::Tracer;
use ssa_core::PhaseStats;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineSolve,
    ProgramSql,
    WireServe,
    WireDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EngineSolve,
        Workload::ProgramSql,
        Workload::WireServe,
        Workload::WireDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineSolve => "engine-solve",
            Workload::ProgramSql => "program-sql",
            Workload::WireServe => "wire-serve",
            Workload::WireDurable => "wire-durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, as recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::EngineSolve => {
                "in-process, 5000 advertisers, a bid write before every auction: >=95% of solves are cold, so matrix fill, the ssa_matching solve and pricing dominate; bypasses net, durable, minidb"
            }
            Workload::ProgramSql => {
                "in-process, 250 advertisers each a Figure 5 ROI program in SQL on ssa_minidb: program evaluation and SQL settlement are >90% of the time, the solve <5%"
            }
            Workload::WireServe => {
                "TCP loopback, 2 shards, memory only, 200 advertisers, 2 connections x window 16, 90% Serve / 10% UpdateBid: frame codec, sessions, admission and the executor queue are the cost"
            }
            Workload::WireDurable => {
                "the wire-serve scenario journalled with fsync on every record: WAL append and sync_data dominate, and the durability cost falls out by subtraction from wire-serve"
            }
        }
    }
}

/// How operation counts shrink for `--smoke` (tests) and grow or shrink
/// with `--seconds` in the fixed-count phases of a traced run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    numerator: f64,
    smoke: bool,
}

impl Scale {
    /// `seconds` relative to the 20 s reference run, divided by 50 for
    /// smoke runs.
    pub fn new(seconds: f64, smoke: bool) -> Self {
        Scale {
            numerator: seconds / 20.0 / if smoke { 50.0 } else { 1.0 },
            smoke,
        }
    }

    pub fn is_smoke(self) -> bool {
        self.smoke
    }

    /// A duration sized for the reference run, scaled.
    pub fn duration(self, reference_s: f64) -> Duration {
        Duration::from_secs_f64(reference_s * self.numerator)
    }

    /// A count sized for the reference run, scaled; never below `floor`.
    pub fn ops(self, reference: u64, floor: u64) -> u64 {
        ((reference as f64 * self.numerator).round() as u64).max(floor)
    }
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many operations on every lane: check replays
    /// and the phases of a traced run, whose exact counters must repeat
    /// at a fixed seed.
    Ops(u64),
    /// No operation is issued once this long has passed; those in flight
    /// are still answered. The warm-up of an end-to-end run and its
    /// measured phase, which the driver sizes with `--seconds`.
    After(Duration),
}

/// What one phase of a workload measured.
#[derive(Default)]
pub struct Phase {
    /// Call → typed response in hand, one sample per auction.
    pub latency: Histogram,
    /// Auctions per second of every fixed-count block of every lane: the
    /// run's own noise gauge, never a reported rate.
    pub block_rates: Vec<f64>,
    pub auctions: u64,
    /// Auctions plus bid writes.
    pub attempted: u64,
    pub failed: u64,
    /// First operation issued → last one answered.
    pub wall: Duration,
    pub updates: u64,
    /// Engine phase tallies, where the call returns them (traced
    /// in-process phases).
    pub phases: PhaseStats,
    /// Digests of the outcomes of the phase's first operations, for the
    /// replay check.
    pub kept: Vec<u64>,
}

impl Phase {
    /// Auctions answered ÷ the phase's wall time. Interleaved bid writes
    /// cost time but are not counted as auctions.
    pub fn auctions_per_s(&self) -> f64 {
        self.auctions as f64 / self.wall.as_secs_f64()
    }

    /// Median over every auction of the phase.
    pub fn latency_p50_ms(&self) -> f64 {
        self.latency.quantile_ns(0.5) / 1e6
    }

    /// Folds a concurrent phase (another connection of the same run) in:
    /// counts add, the wall time is the longer of the two.
    pub fn absorb_concurrent(&mut self, other: Phase) {
        self.latency.merge(&other.latency);
        self.block_rates.extend(other.block_rates);
        self.auctions += other.auctions;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall = self.wall.max(other.wall);
        self.updates += other.updates;
        self.phases.absorb(&other.phases);
    }
}

/// One lane's view of a phase: decides when the lane stops issuing, and
/// cuts its answered operations into fixed-count blocks.
pub struct LaneClock {
    stop: Stop,
    start: Instant,
    block: u64,
    done: u64,
    block_start: Instant,
    block_auctions: u64,
}

impl LaneClock {
    /// `start` is shared by the lanes of a phase; `block` is the number of
    /// operations of one lane in a block.
    pub fn new(stop: Stop, block: u64, start: Instant) -> Self {
        LaneClock {
            stop,
            start,
            block: block.max(1),
            done: 0,
            block_start: start,
            block_auctions: 0,
        }
    }

    /// Whether the lane, having issued `issued` operations, may issue one
    /// more at `now`.
    pub fn may_issue(&self, issued: u64, now: Instant) -> bool {
        match self.stop {
            Stop::Ops(n) => issued < n,
            Stop::After(limit) => now.duration_since(self.start) < limit,
        }
    }

    /// Notes one answered operation: an auction with its latency, or
    /// `None` for a bid write or a failure.
    pub fn answered(&mut self, auction_latency_ns: Option<u64>, phase: &mut Phase) {
        self.done += 1;
        if let Some(ns) = auction_latency_ns {
            phase.auctions += 1;
            phase.latency.record(ns);
            self.block_auctions += 1;
        }
        if self.done.is_multiple_of(self.block) {
            let now = Instant::now();
            let elapsed = now.duration_since(self.block_start).as_secs_f64();
            phase.block_rates.push(self.block_auctions as f64 / elapsed);
            self.block_auctions = 0;
            self.block_start = now;
        }
    }

    /// Ends the lane's phase: its wall time runs to now.
    pub fn finish(self, phase: &mut Phase) {
        phase.wall = self.start.elapsed();
    }
}

/// The `core.*` per-layer rows from engine phase tallies over `auctions`
/// auctions: time per auction in each phase, the two validity counters,
/// the mean `update_bid`, and what of a serve's wall time (`serving_ns` in
/// all) no phase accounts for.
pub fn core_rows(
    phases: &PhaseStats,
    auctions: u64,
    update_bid_us: f64,
    serving_ns: u64,
) -> Vec<(&'static str, f64)> {
    let per_auction_us = |ns: u64| ns as f64 / 1e3 / auctions.max(1) as f64;
    let solves = phases.solves + phases.warm_solves;
    vec![
        (
            "core.program_eval_us",
            per_auction_us(phases.program_eval_ns),
        ),
        ("core.matrix_fill_us", per_auction_us(phases.matrix_fill_ns)),
        ("core.solve_us", per_auction_us(phases.solve_ns)),
        ("core.pricing_us", per_auction_us(phases.pricing_ns)),
        ("core.settlement_us", per_auction_us(phases.settlement_ns)),
        (
            "core.cold_solve_ratio",
            phases.solves as f64 / solves.max(1) as f64,
        ),
        ("core.avg_candidates", phases.avg_candidates()),
        ("core.update_bid_us", update_bid_us),
        (
            "core.unaccounted_us",
            per_auction_us(serving_ns.saturating_sub(phases.total_ns())),
        ),
    ]
}

/// An end-to-end run: several set-ups, one measured phase, and the checks.
pub struct EndToEnd {
    /// Wall time of each set-up (generation, market build, population and
    /// warm-up), the first counted from process start.
    pub setups_s: Vec<f64>,
    pub phase: Phase,
    /// `VmHWM` when the measured phase ended, before any check ran.
    pub peak_rss_mb: f64,
    /// What the checks looked at, for the printed report.
    pub checked: Vec<String>,
}

/// A traced run: the same fixed operation count untraced and traced, plus
/// the per-layer numbers only this workload can give.
pub struct Traced {
    pub untraced: Phase,
    pub traced: Phase,
    pub tracer: Tracer,
    /// Per-layer metrics by name, in the units `metrics::PER_LAYER` lists.
    pub layer: Vec<(&'static str, f64)>,
    pub checked: Vec<String>,
}
