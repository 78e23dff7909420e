//! The names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` lists the same; `tests/contract.rs` holds the two
//! together.

/// One metric: its name, its unit, and which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// What gates, on every workload: only the metrics the A/A study showed
/// to repeat. Throughput and median latency did not (see `NOISE.json`), so
/// they are [`TIMING`] below: printed by every run, listed per layer, and
/// never a gate — like p99 and the maximum.
pub const END_TO_END: [Metric; 2] = [lower("setup_s", "s"), lower("peak_rss_mb", "MB")];

/// What a caller of the auction service sees of its speed. An end-to-end
/// run prints them from its measured phase; a traced run reports them, as
/// per-layer metrics, from its shorter untraced phase.
pub const TIMING: [Metric; 2] = [
    higher("auctions_per_s", "1/s"),
    lower("latency_p50_ms", "ms"),
];

/// Single layers, prefixed with the crate they belong to (without `ssa_`).
/// A count a workload has no part in prints as 0.
pub const PER_LAYER: [Metric; 57] = [
    TIMING[0],
    TIMING[1],
    // ssa_core, from the traced phase (on the wire, from the in-process
    // twin): per-auction time in each engine phase.
    lower("core.program_eval_us", "us"),
    lower("core.matrix_fill_us", "us"),
    lower("core.solve_us", "us"),
    lower("core.pricing_us", "us"),
    lower("core.settlement_us", "us"),
    // Workload validity, exact at a fixed seed.
    higher("core.cold_solve_ratio", "ratio"),
    lower("core.avg_candidates", "count"),
    lower("core.update_bid_us", "us"),
    // `serve` wall time minus the five phases: facade and response.
    lower("core.unaccounted_us", "us"),
    lower("core.sharded_dispatch_us", "us"),
    // ssa_matching: direct solves of a 5000 x 15 revenue matrix.
    lower("matching.reduced_solve_us", "us"),
    lower("matching.hungarian_solve_us", "us"),
    lower("matching.pruned_solve_us", "us"),
    // ssa_strategy: one Figure 5 round, in SQL and natively.
    lower("strategy.sql_round_us", "us"),
    lower("strategy.sql_record_click_us", "us"),
    lower("strategy.native_round_ns", "ns"),
    lower("strategy.sql_over_native_ratio", "ratio"),
    // ssa_minidb: planner counters per round (exact) and prepare time.
    lower("minidb.rows_scanned_per_round", "count"),
    higher("minidb.index_hits_per_round", "count"),
    lower("minidb.plans_cached", "count"),
    lower("minidb.prepare_us", "us"),
    // ssa_bidlang: targeting expressions.
    lower("bidlang.targeting_compile_us", "us"),
    lower("bidlang.targeting_match_ns", "ns"),
    // ssa_net: codec and framing on in-memory buffers, then loopback.
    lower("net.request_encode_ns", "ns"),
    lower("net.request_decode_ns", "ns"),
    lower("net.response_encode_ns", "ns"),
    lower("net.response_decode_ns", "ns"),
    lower("net.frame_write_ns", "ns"),
    lower("net.frame_read_ns", "ns"),
    lower("net.bytes_per_serve_request", "bytes"),
    lower("net.bytes_per_serve_response", "bytes"),
    lower("net.ping_rtt_us", "us"),
    lower("net.serve_rtt_us", "us"),
    lower("net.wire_overhead_us", "us"),
    lower("net.overloaded", "count"),
    higher("net.populate_ops_per_s", "1/s"),
    // ssa_durable: the journal hook, snapshots and recovery.
    lower("durable.append_nosync_us", "us"),
    lower("durable.append_fsync_us", "us"),
    lower("durable.wal_bytes_per_record", "bytes"),
    higher("durable.wal_records", "count"),
    higher("durable.snapshots", "count"),
    lower("durable.snapshot_ms", "ms"),
    lower("durable.recover_ms", "ms"),
    higher("durable.replay_records_per_s", "1/s"),
    lower("durable.cost_per_auction_us", "us"),
    // The benchmark's own input generation, and the client's view.
    lower("workload.generate_ms", "ms"),
    lower("client.latency_p99_ms", "ms"),
    lower("client.latency_max_ms", "ms"),
    lower("client.block_rate_cv", "ratio"),
    // Traced against untraced throughput, and what the spans leave
    // unexplained of the median latency.
    higher("trace.overhead_ratio", "ratio"),
    lower("trace.unexplained_residue_us", "us"),
    // Mean self time of the client-side spans per wire operation (0 in
    // process, where the spans are the core.* rows above).
    lower("client.encode_us", "us"),
    lower("client.send_us", "us"),
    lower("client.wait_us", "us"),
    lower("client.decode_us", "us"),
];
