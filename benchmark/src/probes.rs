//! Layer probes: each layer measured from outside, by timing calls into
//! its public functions and reading the counters they return. They do not
//! depend on the workload; a traced run and `ssa-layer-probes` both print
//! them.
//!
//! `ssa_simplex` has no probe: no default path uses the LP method. Stages
//! inside the server stay dark until the product records spans itself.

use crate::gen::{self, ConnStream, TARGETING};
use crate::stats::{median, median_call_ns};
use crate::workloads::{wire, Scale};
use crate::{env, text};
use ssa_bidlang::{BidsTable, Money};
use ssa_core::{
    revenue_matrix, shard_of_keyword, CompiledTargeting, MutationRecord, QueryRequest, UserAttrs,
};
use ssa_durable::{Durability, FsyncPolicy};
use ssa_matching::{Assignment, HungarianSolver, PrunedSolver, ReducedSolver, WdSolver};
use ssa_minidb::Database;
use ssa_net::frame::{encode_frame, read_frame, write_frame};
use ssa_net::proto::WirePlacement;
use ssa_net::{FrameKind, Request, Response, WireAuction};
use ssa_strategy::{KeywordEntry, RoiBidder, SqlRoiBidder};
use std::hint::black_box;
use std::time::Instant;

type Rows = Vec<(&'static str, f64)>;

/// Nanoseconds per call as the median over 15 batches of `per_batch`
/// calls: for calls too short to time one by one.
fn batched_ns(per_batch: u64, mut call: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_batch {
                call();
            }
            started.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&batches)
}

/// `ssa_matching`: the three solvers an engine can be configured with, on
/// the revenue matrix of keyword 0 of the `engine-solve` population.
fn matching(seed: u64, scale: Scale) -> Result<Rows, String> {
    let population = gen::section_v(5000, seed);
    let bids: Vec<BidsTable> = population
        .bidders
        .iter()
        .map(|b| BidsTable::single_feature(Money::from_cents(b.keywords[0].1.max(0))))
        .collect();
    let (matrix, _) = revenue_matrix(&bids, &population.clicks, &population.purchases);
    let solves = scale.ops(40, 3);
    let mut out = Assignment::empty(matrix.num_slots());
    let mut time = |solver: &mut dyn WdSolver| {
        let solve = || {
            solver.solve(black_box(&matrix), &mut out);
            Ok(())
        };
        median_call_ns(solves, solve).map(|ns| ns / 1e3)
    };
    Ok(vec![
        (
            "matching.reduced_solve_us",
            time(&mut ReducedSolver::new())?,
        ),
        (
            "matching.hungarian_solve_us",
            time(&mut HungarianSolver::new())?,
        ),
        (
            "matching.pruned_solve_us",
            time(&mut PrunedSolver::new(ReducedSolver::new()))?,
        ),
    ])
}

/// `ssa_strategy` and `ssa_minidb`: one advertiser's Figure 5 program as
/// SQL and as native code, and what the planner did per round.
fn strategy(seed: u64, scale: Scale) -> Result<Rows, String> {
    let population = gen::section_v(8, seed);
    let params = &population.bidders[0];
    let keywords = params.keywords.len();
    let rounds = scale.ops(2000, 20);

    let mut sql = SqlRoiBidder::new(&params.keywords, params.target_spend_rate);
    let before = sql.planner_stats();
    let mut time = 0u64;
    let sql_round_ns = median_call_ns(rounds, || {
        time += 1;
        sql.run_round(time as usize % keywords, time)
            .map(drop)
            .map_err(text)
    })?;
    let after = sql.planner_stats();
    let sql_record_click_ns = median_call_ns(rounds / 4, || {
        time += 1;
        sql.record_click(time as usize % keywords, Money::from_cents(5), 20.0)
            .map_err(text)
    })?;

    let entries = params
        .keywords
        .iter()
        .map(|&(value, bid, roi)| KeywordEntry::new(value, bid, roi))
        .collect();
    let mut native = RoiBidder::new(entries, params.target_spend_rate);
    let mut time = 0u64;
    let native_round_ns = batched_ns(rounds, || {
        time += 1;
        black_box(native.adjust_and_bid(time as usize % keywords, time));
    });

    // Every statement differs by a literal, so each prepare parses and
    // plans instead of hitting the plan cache.
    let mut db = Database::new();
    db.run("CREATE TABLE Keywords (text TEXT, formula TEXT, maxbid INT, roi FLOAT, bid INT, relevance FLOAT)")
        .map_err(text)?;
    let mut literal = 0u64;
    let prepare_ns = median_call_ns(scale.ops(400, 10), || {
        literal += 1;
        let statement = format!(
            "UPDATE Keywords SET bid = bid + 1 WHERE roi = (SELECT MAX(K.roi) FROM Keywords K) AND bid < {literal}"
        );
        db.prepare(&statement).map(drop).map_err(text)
    })?;

    Ok(vec![
        ("strategy.sql_round_us", sql_round_ns / 1e3),
        ("strategy.sql_record_click_us", sql_record_click_ns / 1e3),
        ("strategy.native_round_ns", native_round_ns),
        (
            "strategy.sql_over_native_ratio",
            sql_round_ns / native_round_ns,
        ),
        (
            "minidb.rows_scanned_per_round",
            (after.rows_scanned - before.rows_scanned) as f64 / rounds as f64,
        ),
        (
            "minidb.index_hits_per_round",
            (after.index_hits - before.index_hits) as f64 / rounds as f64,
        ),
        ("minidb.plans_cached", after.plans_cached as f64),
        ("minidb.prepare_us", prepare_ns / 1e3),
    ])
}

/// A few attribute bags of the kind the wire workloads send.
fn bags() -> Vec<UserAttrs> {
    let mut bags = Vec::new();
    for device in ["mobile", "desktop", "tablet"] {
        for age in [16, 20, 21, 35, 69] {
            bags.push(
                UserAttrs::new()
                    .geo("us")
                    .device(device)
                    .set_int("age", age),
            );
        }
    }
    bags
}

/// `ssa_bidlang`: compiling the wire workloads' targeting program, and
/// matching it against attribute bags.
fn bidlang(scale: Scale) -> Result<Rows, String> {
    let compiled = CompiledTargeting::parse(TARGETING).map_err(text)?;
    let per_batch = scale.ops(2000, 20);
    let compile_ns = batched_ns(per_batch, || {
        black_box(CompiledTargeting::parse(black_box(TARGETING)).is_ok());
    });
    let bags = bags();
    let all_bags_ns = batched_ns(per_batch, || {
        for bag in &bags {
            black_box(compiled.matches(black_box(bag)));
        }
    });
    Ok(vec![
        ("bidlang.targeting_compile_us", compile_ns / 1e3),
        (
            "bidlang.targeting_match_ns",
            all_bags_ns / bags.len() as f64,
        ),
    ])
}

/// `ssa_net` without a socket: the codec on a `Serve` carrying three
/// attributes and a `Served` carrying fifteen placements, and framing on
/// in-memory buffers.
fn codec(scale: Scale) -> Result<Rows, String> {
    let request = Request::Serve {
        keyword: 3,
        attrs: UserAttrs::new()
            .geo("us")
            .device("mobile")
            .set_int("age", 34),
    };
    let response = Response::Served(WireAuction {
        keyword: 3,
        time: 1_234_567,
        expected_revenue: 123.456,
        realized_cents: 35,
        placements: (0..15u16)
            .map(|slot| WirePlacement {
                slot_position: slot + 1,
                campaign_keyword: 3,
                campaign_index: 10 + u64::from(slot),
                advertiser: 10 + u64::from(slot),
                clicked: slot % 3 == 0,
                purchased: false,
                charge_cents: if slot % 3 == 0 { 7 } else { 0 },
            })
            .collect(),
        charges: (0..15u64)
            .step_by(3)
            .map(|slot| (3, 10 + slot, 7))
            .collect(),
    });
    let request_payload = request.encode();
    let response_payload = response.encode();
    if Request::decode(&request_payload).map_err(text)? != request
        || Response::decode(&response_payload).map_err(text)? != response
    {
        return Err("the codec does not round-trip the probe messages".into());
    }
    let framed = encode_frame(FrameKind::Response, 42, &response_payload);
    let per_batch = scale.ops(20_000, 100);
    let mut buffer = Vec::with_capacity(framed.len());
    Ok(vec![
        (
            "net.request_encode_ns",
            batched_ns(per_batch, || {
                black_box(black_box(&request).encode());
            }),
        ),
        (
            "net.request_decode_ns",
            batched_ns(per_batch, || {
                black_box(Request::decode(black_box(&request_payload)).is_ok());
            }),
        ),
        (
            "net.response_encode_ns",
            batched_ns(per_batch, || {
                black_box(black_box(&response).encode());
            }),
        ),
        (
            "net.response_decode_ns",
            batched_ns(per_batch, || {
                black_box(Response::decode(black_box(&response_payload)).is_ok());
            }),
        ),
        (
            "net.frame_write_ns",
            batched_ns(per_batch, || {
                buffer.clear();
                black_box(
                    write_frame(&mut buffer, FrameKind::Response, 42, &response_payload).is_ok(),
                );
            }),
        ),
        (
            "net.frame_read_ns",
            batched_ns(per_batch, || {
                black_box(read_frame(&mut black_box(&framed[..])).is_ok());
            }),
        ),
        (
            "net.bytes_per_serve_request",
            encode_frame(FrameKind::Request, 1, &request_payload).len() as f64,
        ),
        ("net.bytes_per_serve_response", framed.len() as f64),
    ])
}

/// `ssa_core::sharded`: what a two-query batch pays for crossing two
/// shards (a `thread::scope` spawn per call) over staying on one.
fn sharded_dispatch(seed: u64, scale: Scale) -> Result<Rows, String> {
    let population = gen::section_v(200, seed);
    let second = (1..population.config.num_keywords)
        .find(|&k| shard_of_keyword(k, 2) != shard_of_keyword(0, 2))
        .ok_or("every keyword hashes to one shard")?;
    let batch = [QueryRequest::new(0), QueryRequest::new(second)];
    let calls = scale.ops(2000, 20);
    let time = |shards: usize| -> Result<f64, String> {
        let mut market = wire::build_twin(&population, &wire::market_config(&population, shards))?;
        let serve = || market.serve_batch(&batch).map(drop).map_err(text);
        median_call_ns(calls, serve).map(|ns| ns / 1e3)
    };
    Ok(vec![("core.sharded_dispatch_us", time(2)? - time(1)?)])
}

/// `ssa_durable`: the journal hook under each fsync policy, then a log of
/// a market that really served — recovered, then snapshotted.
fn durable(seed: u64, scale: Scale) -> Result<Rows, String> {
    let base = env::out_dir().join(format!("probe-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let rows = durable_in(&base, seed, scale);
    let _ = std::fs::remove_dir_all(&base);
    rows
}

fn durable_in(base: &std::path::Path, seed: u64, scale: Scale) -> Result<Rows, String> {
    let record = MutationRecord::Serve {
        keyword: 3,
        attrs: UserAttrs::new()
            .geo("us")
            .device("mobile")
            .set_int("age", 34),
    };
    let append = |dir: &str, policy: FsyncPolicy, records: u64| -> Result<(f64, f64), String> {
        let dir = base.join(dir);
        let (_, handle) = Durability::open(&dir, policy, 0).map_err(text)?;
        let mut journal = handle.journal();
        let ns = median_call_ns(records, || {
            journal.record(&record);
            Ok(())
        })?;
        let mut bytes = 0;
        for entry in std::fs::read_dir(&dir).map_err(text)? {
            bytes += entry.and_then(|e| e.metadata()).map_err(text)?.len();
        }
        // One segment: a 20-byte header, then the records.
        Ok((ns / 1e3, bytes.saturating_sub(20) as f64 / records as f64))
    };
    let (append_nosync_us, wal_bytes_per_record) =
        append("off", FsyncPolicy::Off, scale.ops(5000, 50))?;
    let (append_fsync_us, _) = append("always", FsyncPolicy::Always, scale.ops(300, 10))?;

    let population = gen::section_v(200, seed);
    let config = wire::market_config(&population, 2);
    let dir = base.join("served");
    let (_, handle) = Durability::open(&dir, FsyncPolicy::Off, 0).map_err(text)?;
    let mut market = wire::empty_market(&config)?;
    handle
        .log_configure(&market.capture_state().map_err(text)?.config)
        .map_err(text)?;
    market.set_journal(handle.journal());
    wire::populate_twin(&mut market, &population)?;
    let mut stream = ConnStream::new(&population, 0, 1);
    for _ in 0..scale.ops(5000, 50) {
        wire::apply(&mut market, stream.next_request(), true)?;
    }
    let (_, report) = ssa_durable::recover(&dir)
        .map_err(text)?
        .ok_or("recovery found nothing in the probe's WAL directory")?;
    if report.wal_records != handle.wal_records() {
        return Err(format!(
            "recovery replayed {} of {} records",
            report.wal_records,
            handle.wal_records()
        ));
    }
    let mut snapshots = Vec::new();
    for _ in 0..3 {
        wire::apply(&mut market, stream.next_request(), true)?;
        let started = Instant::now();
        handle.snapshot_now(&market).map_err(text)?;
        snapshots.push(started.elapsed().as_secs_f64() * 1e3);
    }

    Ok(vec![
        ("durable.append_nosync_us", append_nosync_us),
        ("durable.append_fsync_us", append_fsync_us),
        ("durable.wal_bytes_per_record", wal_bytes_per_record),
        ("durable.snapshot_ms", median(&snapshots)),
        ("durable.recover_ms", report.replay_ms),
        (
            "durable.replay_records_per_s",
            report.wal_records as f64 / (report.replay_ms / 1e3),
        ),
    ])
}

/// Runs every probe; inputs come from `seed`.
pub fn run(seed: u64, scale: Scale) -> Result<Rows, String> {
    let mut rows = matching(seed, scale)?;
    rows.extend(strategy(seed, scale)?);
    rows.extend(bidlang(scale)?);
    rows.extend(codec(scale)?);
    rows.extend(sharded_dispatch(seed, scale)?);
    rows.extend(durable(seed, scale)?);
    rows.extend(wire::probe(seed, scale)?);
    Ok(rows)
}
