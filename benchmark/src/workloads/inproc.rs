//! The two in-process workloads: one thread calling a `Marketplace`.
//!
//! `engine-solve` writes a bid on the queried keyword before every
//! auction, so the engine's warm start cannot skip the solve;
//! `program-sql` runs a SQL bidding program for every advertiser on every
//! auction and never writes a bid.

use super::{core_rows, EndToEnd, LaneClock, Phase, Scale, Stop, Traced, Workload};
use crate::check::{digest, same_outcomes};
use crate::gen::{self, OpStream};
use crate::trace::{SpanName, Tracer};
use crate::{env, SPAN_CAPACITY};
use ssa_bidlang::Money;
use ssa_core::{CampaignSpec, EngineConfig, Marketplace, PhaseStats, QueryRequest, WdMethod};
use ssa_workload::sql::{programmed_market, ProgramHandle, Strategy};
use ssa_workload::SectionVWorkload;
use std::time::{Duration, Instant};

/// Operation counts sized for the 20 s reference run on the 2-core
/// reference box (see the README's reference rows).
struct Sizes {
    advertisers: usize,
    /// Warm-up of a traced run, whose exact counters must repeat: a good
    /// second of the workload's own traffic at this commit, so lazy
    /// per-keyword engines and plan caches are built.
    warmup: u64,
    /// Warm-up of an end-to-end run: a second of that traffic by the clock.
    /// A counted warm-up made `setup_s` swing with the machine as far as
    /// throughput does (see the README's noise section), and `setup_s`
    /// gates.
    timed_warmup: Duration,
    /// Operations of a block of the measured phase: about half a second.
    block: u64,
    /// Outcomes replayed on a fresh market after the clock stops.
    replayed: u64,
    /// Operations served through `serve_batch`, which returns the phase
    /// tallies the validity rules need.
    validity: u64,
    /// Operations of each phase of a traced run: a fifth of a measured
    /// phase.
    traced: u64,
}

fn sizes(workload: Workload, scale: Scale) -> Sizes {
    match workload {
        Workload::EngineSolve => Sizes {
            advertisers: 5000,
            warmup: scale.ops(1500, 20),
            timed_warmup: scale.duration(1.0),
            block: scale.ops(500, 5),
            replayed: scale.ops(5000, 20),
            validity: scale.ops(400, 20),
            traced: scale.ops(4000, 40),
        },
        Workload::ProgramSql => Sizes {
            advertisers: 250,
            warmup: scale.ops(500, 10),
            timed_warmup: scale.duration(1.0),
            block: scale.ops(200, 2),
            replayed: scale.ops(1000, 10),
            validity: scale.ops(100, 10),
            traced: scale.ops(1500, 20),
        },
        _ => unreachable!("{} is not an in-process workload", workload.name()),
    }
}

/// Seed tag of the market's user-action RNG, apart from the population's.
const MARKET_SEED_TAG: u64 = 0xD1CE_D1CE;

struct InProc {
    market: Marketplace,
    /// One live handle per SQL (or native twin) program; empty for
    /// `engine-solve`.
    handles: Vec<ProgramHandle>,
    stream: OpStream,
    generate_ms: f64,
    /// Operations the warm-up got through.
    warmup_ops: u64,
}

/// The Section V population as per-click campaigns on a default-configured
/// engine: reduced Hungarian, GSP pricing, warm start on, pruning off.
fn per_click_market(population: &SectionVWorkload) -> Marketplace {
    let config = EngineConfig::default();
    let mut market = Marketplace::builder()
        .slots(population.config.num_slots)
        .keywords(population.config.num_keywords)
        .method(config.method)
        .pricing(config.pricing)
        .pruned(config.pruned)
        .warm_start(config.warm_start)
        .seed(population.config.seed ^ MARKET_SEED_TAG)
        .build()
        .expect("Section V configuration is valid");
    for (i, params) in population.bidders.iter().enumerate() {
        let advertiser = market.register_advertiser(format!("advertiser-{i}"));
        let probs = gen::click_probs(population, i);
        for (keyword, &(value, bid, _)) in params.keywords.iter().enumerate() {
            market
                .add_campaign(
                    advertiser,
                    keyword,
                    CampaignSpec::per_click(Money::from_cents(bid.max(0)))
                        .click_value(Money::from_cents(value))
                        .click_probs(probs.clone()),
                )
                .expect("Section V campaign is valid");
        }
    }
    market
}

impl InProc {
    /// Generates the inputs and builds the market, without warming it up.
    /// `strategy` picks the program flavour of `program-sql` (its check
    /// builds the native twin this way).
    fn build(workload: Workload, seed: u64, sizes: &Sizes, strategy: Strategy) -> InProc {
        let started = Instant::now();
        let population = gen::section_v(sizes.advertisers, seed);
        let stream = OpStream::new(&population, workload == Workload::EngineSolve);
        let generate_ms = started.elapsed().as_secs_f64() * 1e3;
        let (market, handles) = match workload {
            Workload::EngineSolve => (per_click_market(&population), Vec::new()),
            _ => {
                let programmed = programmed_market(&population, WdMethod::Reduced, strategy);
                (programmed.market, programmed.handles)
            }
        };
        InProc {
            market,
            handles,
            stream,
            generate_ms,
            warmup_ops: 0,
        }
    }

    /// One full set-up: inputs, market, population, warm-up.
    fn set_up(
        workload: Workload,
        seed: u64,
        sizes: &Sizes,
        warmup: Stop,
    ) -> Result<InProc, String> {
        let mut state = InProc::build(workload, seed, sizes, Strategy::Sql);
        let warmup = state.run(warmup, sizes.block, 0, None);
        if warmup.failed > 0 {
            return Err(format!("{} warm-up operations failed", warmup.failed));
        }
        state.warmup_ops = warmup.attempted - warmup.updates;
        Ok(state)
    }

    /// Runs one phase. Untraced, every auction is one `serve` whose typed
    /// response the first `keep` operations hand back. Traced, it is one
    /// `serve_batch(&[query])`, the call that returns `PhaseStats`.
    fn run(&mut self, stop: Stop, block: u64, keep: u64, mut tracer: Option<&mut Tracer>) -> Phase {
        let mut phase = Phase::default();
        let mut clock = LaneClock::new(stop, block, Instant::now());
        let mut op_id = 0u64;
        while clock.may_issue(op_id, Instant::now()) {
            let op = self.stream.next_op();
            if let Some(t) = tracer.as_deref_mut() {
                t.open(SpanName::Op, op_id);
            }
            if let Some((campaign, bid)) = op.update {
                if let Some(t) = tracer.as_deref_mut() {
                    t.open(SpanName::CoreUpdateBid, op_id);
                }
                let written = self.market.update_bid(campaign, bid);
                if let Some(t) = tracer.as_deref_mut() {
                    t.close();
                }
                phase.updates += 1;
                phase.failed += u64::from(written.is_err());
            }
            let called = Instant::now();
            let answered = match tracer.as_deref_mut() {
                None => match self.market.serve(QueryRequest::new(op.keyword)) {
                    Ok(response) => {
                        let answered = called.elapsed().as_nanos() as u64;
                        if op_id < keep {
                            phase.kept.push(digest(&response, true));
                        }
                        Some(answered)
                    }
                    Err(_) => None,
                },
                Some(t) => {
                    t.open(SpanName::CoreServe, op_id);
                    let served = self.market.serve_batch(&[QueryRequest::new(op.keyword)]);
                    let answered = called.elapsed().as_nanos() as u64;
                    let answered = served.ok().map(|report| {
                        let p = report.total.phases;
                        t.children_from_durations(
                            op_id,
                            &[
                                (SpanName::CoreProgramEval, p.program_eval_ns),
                                (SpanName::CoreMatrixFill, p.matrix_fill_ns),
                                (SpanName::CoreSolve, p.solve_ns),
                                (SpanName::CoreSettlement, p.settlement_ns),
                                (SpanName::CorePricing, p.pricing_ns),
                            ],
                        );
                        phase.phases.absorb(&p);
                        answered
                    });
                    t.close();
                    t.close();
                    answered
                }
            };
            phase.failed += u64::from(answered.is_none());
            op_id += 1;
            clock.answered(answered, &mut phase);
        }
        clock.finish(&mut phase);
        phase.attempted = op_id + phase.updates;
        phase
    }

    /// Serves `count` operations through `serve_batch`, for its tallies.
    fn tallies(&mut self, count: u64) -> Result<(PhaseStats, Duration), String> {
        let started = Instant::now();
        let mut tracer = Tracer::new(started, 0);
        let phase = self.run(Stop::Ops(count), count, 0, Some(&mut tracer));
        if phase.failed > 0 {
            return Err(format!("{} validity operations failed", phase.failed));
        }
        Ok((phase.phases, tracer.totals(SpanName::CoreServe).total()))
    }
}

/// The rules that make a workload what its `why` says it is. A smoke run
/// ignores numbers, so it skips the one rule that compares times: over its
/// few auctions on a barely warm market a single stall breaks it.
fn validate(
    workload: Workload,
    phases: &PhaseStats,
    serve_time: Duration,
    scale: Scale,
) -> Result<String, String> {
    let cold = phases.solves as f64 / (phases.solves + phases.warm_solves).max(1) as f64;
    let solve_share = phases.solve_ns as f64 / serve_time.as_nanos() as f64;
    match workload {
        Workload::EngineSolve if cold < 0.95 => Err(format!(
            "engine-solve is no longer cold: {cold:.3} of solves ran, 0.95 needed"
        )),
        Workload::ProgramSql if !scale.is_smoke() && solve_share >= 0.05 => Err(format!(
            "program-sql is no longer program-bound: the solve is {solve_share:.3} of an auction, under 0.05 needed"
        )),
        _ => Ok(format!(
            "validity: cold solve ratio {cold:.3}, solve share {solve_share:.3}"
        )),
    }
}

/// The end-to-end run: set up, measure for `measure_for`, then — with the
/// clock stopped — replay the first operations on a fresh market (the
/// second set-up, which repeats the first's warm-up operation for
/// operation) and test the workload's validity on a third. `setup_s` is
/// the median of the three.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    measure_for: Duration,
    scale: Scale,
    process_start: Instant,
) -> Result<EndToEnd, String> {
    let sizes = sizes(workload, scale);
    let mut checked = Vec::new();

    let timed = Stop::After(sizes.timed_warmup);
    let mut state = InProc::set_up(workload, seed, &sizes, timed)?;
    let mut setups_s = vec![process_start.elapsed().as_secs_f64()];
    let warmup_ops = state.warmup_ops;
    let mut phase = state.run(Stop::After(measure_for), sizes.block, sizes.replayed, None);
    let peak_rss_mb = env::peak_rss_mb();
    drop(state);

    let started = Instant::now();
    let mut fresh = InProc::set_up(workload, seed, &sizes, Stop::Ops(warmup_ops))?;
    setups_s.push(started.elapsed().as_secs_f64());
    let replayed = (phase.kept.len() as u64).min(sizes.replayed);
    let replay = fresh.run(Stop::Ops(replayed), sizes.block, replayed, None);
    same_outcomes("replay on a fresh market", &phase.kept, &replay.kept)?;
    checked.push(format!(
        "the first {} outcomes match a replay on a fresh market",
        replay.kept.len()
    ));

    if workload == Workload::ProgramSql {
        // The native Figure 5 programs must have made, bid for bid, the
        // decisions the SQL programs made up to this point.
        let mut twin = InProc::build(workload, seed, &sizes, Strategy::Native);
        twin.run(Stop::Ops(warmup_ops), sizes.block, 0, None);
        let native = twin.run(Stop::Ops(replayed), sizes.block, replayed, None);
        same_outcomes("native-strategy twin", &phase.kept, &native.kept)?;
        let differing = fresh
            .handles
            .iter()
            .zip(&twin.handles)
            .filter(|(sql, native)| sql.current_bid() != native.current_bid())
            .count();
        if differing > 0 || fresh.handles.len() != twin.handles.len() {
            return Err(format!(
                "{differing} of {} SQL programs bid differently from their native twins",
                fresh.handles.len()
            ));
        }
        checked.push(format!(
            "all {} SQL programs hold the bids of their native twins",
            fresh.handles.len()
        ));
    }
    drop(fresh);

    let started = Instant::now();
    let mut third = InProc::set_up(workload, seed, &sizes, timed)?;
    setups_s.push(started.elapsed().as_secs_f64());
    let (tallies, serve_time) = third.tallies(sizes.validity)?;
    checked.push(validate(workload, &tallies, serve_time, scale)?);

    phase.kept = Vec::new();
    Ok(EndToEnd {
        setups_s,
        phase,
        peak_rss_mb,
        checked,
    })
}

/// The traced run: the same fixed operation count first untraced, then
/// with spans around every call into `ssa_core`.
pub fn traced(workload: Workload, seed: u64, scale: Scale) -> Result<Traced, String> {
    let sizes = sizes(workload, scale);
    let mut state = InProc::set_up(workload, seed, &sizes, Stop::Ops(sizes.warmup))?;
    // Ten equal-count blocks: their spread is `client.block_rate_cv`.
    let block = sizes.traced / 10;
    let untraced = state.run(Stop::Ops(sizes.traced), block, 0, None);
    let mut tracer = Tracer::new(Instant::now(), SPAN_CAPACITY);
    let traced = state.run(Stop::Ops(sizes.traced), block, 0, Some(&mut tracer));

    let serve_time = tracer.totals(SpanName::CoreServe).total();
    let checked = vec![validate(workload, &traced.phases, serve_time, scale)?];
    let update_bid = tracer.totals(SpanName::CoreUpdateBid);
    let mut layer = core_rows(
        &traced.phases,
        traced.auctions,
        update_bid.self_ns as f64 / 1e3 / update_bid.count.max(1) as f64,
        serve_time.as_nanos() as u64,
    );
    layer.extend([
        ("workload.generate_ms", state.generate_ms),
        // No server and no journal are on an in-process workload's path.
        ("net.overloaded", 0.0),
        ("durable.wal_records", 0.0),
        ("durable.snapshots", 0.0),
    ]);
    Ok(Traced {
        untraced,
        traced,
        tracer,
        layer,
        checked,
    })
}
