//! Regenerates every figure of the paper's evaluation (and the
//! illustrative tables) as text output, or — in single-run mode — serves
//! one `ssa_bench::Scenario` and reports its throughput.
//!
//! Usage:
//!
//! ```text
//! reproduce [fig12|fig13|tables|all] [--quick]
//! reproduce [--method <m>] [--strategy <s>] [--workload <w>] [--targeted]
//!           [--shards <n>] [--load <q>] [--pruned] [--durable]
//!           [--server <host:port>] [--json] [--quick]
//! ```
//!
//! `--quick` shrinks advertiser counts and auction counts so the whole run
//! finishes in seconds; the default mirrors the paper's scales (Figure 12:
//! up to 5000 advertisers, 100 auctions per point; Figure 13: up to 20000
//! advertisers, 1000 auctions per point). In single-run mode every flag
//! sets one `Scenario` field and the flags compose freely; a combination a
//! layer cannot express is that layer's typed error.

use ssa_bench::{format_table, measure_series, MethodRun, Population, Scenario, ScenarioError};
use ssa_bidlang::{BidsTable, Formula, Money, SlotId};
use ssa_core::prob::ClickModel;
use ssa_core::sharded::parse_shards;
use ssa_core::WdMethod;
use ssa_matching::{reduced_assignment, RevenueMatrix};
use ssa_workload::{Method, Strategy, Stream, WorkloadShape};
use std::process::exit;

const USAGE: &str = "\
reproduce — regenerate the paper's figures as text output

Usage: reproduce [fig12|fig13|tables|all] [--quick]
       reproduce [--method <m>] [--strategy <s>] [--workload <w>] [--targeted]
                 [--shards <n>] [--load <q>] [--pruned] [--durable]
                 [--server <host:port>] [--json] [--quick]
       reproduce --list-methods

Targets:
  fig12    winner-determination time per auction (LP/H/RH/RHTALU, k = 15)
  fig13    RH vs RHTALU at larger advertiser counts
  tables   the illustrative tables of Figures 1-11
  all      everything above (default)

Single-run mode serves one scenario through the marketplace's serve_batch
pipeline instead of printing figures. Any of --method, --strategy,
--workload, or --targeted selects it; every flag below sets one dimension
of the scenario and they compose freely (a combination a layer cannot
express — programs over the wire or under a journal — fails with that
layer's error):
  --method <m>    winner determination: lp | h | rh (default rh; see
                  --list-methods)
  --strategy <s>  population: every advertiser a keyword-local Figure 5 ROI
                  program (Section II-B) instead of a static per-click bid —
                  native Rust (native) or SQL on prepared, planned
                  statements (sql), the one production SQL path
  --targeted      population: every even advertiser's campaigns carry the
                  targeting program device = 'mobile', and the stream
                  alternates mobile and desktop queries, so half the queries
                  exclude half the advertisers before the matrix fill
  --workload <w>  stream: instead of keywords in rotation, uniform (seeded
                  uniform draws), zipf:<s> (rank-frequency skew, s > 0, e.g.
                  zipf:1.1), flash (the middle half of the stream pinned to
                  one hot keyword — one shard), or churn (uniform queries
                  while advertisers exhaust budgets, rebid, and return
                  mid-stream); the output gains a per-shard skew summary
  --shards <n>    serve on n worker shards (n >= 1; default 1, reported as
                  \"shards\":null) — bit-identical outcomes at every count
  --load <q>      serve q timed queries (q >= 1) instead of the preset's
  --pruned        solve on the union of each slot's top-k bidders (ties
                  kept) — bit-identical outcomes, smaller solves
  --durable       journal every mutation and batch to a write-ahead log (a
                  throw-away directory under the system temp dir) while the
                  clock runs, then recover from it and verify the recovered
                  marketplace bit-identical to the served one; the output
                  gains a recovery line, the JSON a second
                  {\"metric\":\"recovery\",...} object
  --server <a>    serve through a running ssa-server at <a> (host:port)
                  over the wire protocol instead of in process — bit-identical
                  outcomes; --shards sets the server-side shard count
  --json          emit one machine-readable JSON object per line
  --quick         the quick preset (250 advertisers, 50 auctions) instead of
                  the full one (1000, 200); for figures, smaller sweeps

  --list-methods  print the accepted --method names with their paper
                  sections, then exit
  --help          print this message";

const METHODS: &str = "\
lp        winner-determination linear program, network simplex (Section III-B)
h         Hungarian algorithm on the full bipartite graph (Section III-D)
rh        reduced bipartite graph (Section III-E)";

/// Flags that carry a value.
const VALUE_FLAGS: [&str; 6] = [
    "--method",
    "--shards",
    "--load",
    "--strategy",
    "--server",
    "--workload",
];

/// Flags that stand alone.
const SWITCHES: [&str; 5] = ["--quick", "--json", "--pruned", "--durable", "--targeted"];

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if args.iter().any(|a| a == "--list-methods") {
        println!("{METHODS}");
        return;
    }
    let method = value_flag(&args, "--method", str::parse::<WdMethod>);
    let shards = value_flag(&args, "--shards", parse_shards);
    let load = value_flag(&args, "--load", parse_load);
    let strategy = value_flag(&args, "--strategy", str::parse::<Strategy>);
    let server = value_flag(&args, "--server", ssa_net::parse_addr);
    let workload = value_flag(&args, "--workload", str::parse::<WorkloadShape>);
    // Walk the arguments once: reject unknown flags and find the first
    // positional target (skipping the value-carrying flags' values).
    let mut target: Option<&str> = None;
    let mut skip_value = false;
    for a in &args {
        if skip_value {
            skip_value = false;
        } else if VALUE_FLAGS.contains(&a.as_str()) {
            skip_value = true;
        } else if !a.starts_with('-') {
            target.get_or_insert(a.as_str());
        } else if !SWITCHES.contains(&a.as_str()) {
            usage_error(&format!("unknown option {a:?}"));
        }
    }
    let switch = |name: &str| args.iter().any(|a| a == name);
    let (quick, json, pruned) = (switch("--quick"), switch("--json"), switch("--pruned"));
    let (durable, targeted) = (switch("--durable"), switch("--targeted"));
    // --strategy/--workload/--targeted imply single-run mode with the rh
    // default method.
    let single_run = method.is_some() || strategy.is_some() || workload.is_some() || targeted;
    if !single_run {
        if json {
            usage_error("--json requires --method or --strategy");
        }
        if shards.is_some() || load.is_some() || pruned {
            usage_error("--shards/--load/--pruned require --method or --strategy");
        }
        if server.is_some() {
            usage_error("--server requires --method");
        }
        if durable {
            usage_error("--durable requires --method");
        }
        match target.unwrap_or("all") {
            "fig12" => fig12(quick),
            "fig13" => fig13(quick),
            "tables" => tables(),
            "all" => {
                tables();
                fig12(quick);
                fig13(quick);
            }
            other => usage_error(&format!("unknown target {other:?}")),
        }
        return;
    }
    if let Some(target) = target {
        usage_error(&format!(
            "--method/--strategy cannot be combined with target {target:?}"
        ));
    }
    if strategy.is_some() && targeted {
        usage_error("--strategy and --targeted both choose the population: give one");
    }

    // One Scenario field per flag; the dimensions compose.
    let preset = if quick {
        Scenario::quick()
    } else {
        Scenario::full()
    };
    let auctions = load.unwrap_or(preset.auctions);
    let scenario = Scenario {
        population: match strategy {
            Some(strategy) => Population::Programmed(strategy),
            None if targeted => Population::Targeted,
            None => Population::PerClick,
        },
        stream: workload.map_or(Stream::RoundRobin, Stream::Shaped),
        transport: server,
        durability: durable.then(|| {
            std::env::temp_dir().join(format!("ssa-reproduce-durable-{}", std::process::id()))
        }),
        shards,
        method: method.unwrap_or(WdMethod::Reduced),
        pruned,
        ..preset
    }
    .load(auctions);
    if let Some(dir) = &scenario.durability {
        let _ = std::fs::remove_dir_all(dir);
    }
    let outcome = ssa_bench::run(&scenario);
    if let Some(dir) = &scenario.durability {
        std::fs::remove_dir_all(dir).ok();
    }
    match outcome {
        Ok(run) if json => {
            println!("{}", run.to_json());
            if let Some(recovery) = &run.recovery {
                println!("{}", recovery.to_json());
            }
        }
        Ok(run) => print_run(&run),
        // The environment failing is a runtime error; a scenario no layer
        // can express is a usage error.
        Err(e @ (ScenarioError::Net { .. } | ScenarioError::Durable(_))) => {
            eprintln!("error: {e}");
            exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    }
}

/// Parses `--load`: the same positive-count contract as `--shards`
/// (delegating to `ssa_core::sharded::parse_shards` for the trim / parse /
/// reject-zero behaviour), with the error text renamed to the flag's noun.
fn parse_load(s: &str) -> Result<usize, String> {
    use ssa_core::sharded::ParseShardsError;
    parse_shards(s).map_err(|e| match e {
        ParseShardsError::Invalid(raw) => format!("invalid load (query count) {raw:?}"),
        ParseShardsError::Zero => "load (query count) must be positive".to_string(),
    })
}

/// Extracts `<flag> <value>` from the argument list, if present, running
/// the flag's typed parser on the value; a missing or unparsable value is
/// a usage error.
fn value_flag<T, E: std::fmt::Display>(
    args: &[String],
    flag: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(pos + 1) else {
        usage_error(&format!("{flag} requires a value"));
    };
    Some(parse(value).unwrap_or_else(|e| usage_error(&e.to_string())))
}

/// Prints the human-readable form of a single run.
fn print_run(run: &MethodRun) {
    let s = &run.scenario;
    let mut dimensions = format!("{} pricing", s.pricing);
    if let Some(shards) = s.shards {
        dimensions += &format!(", {shards} shards");
    }
    if let Population::Programmed(strategy) = s.population {
        dimensions += &format!(", {strategy} programs");
    }
    if s.pruned {
        dimensions += ", pruned";
    }
    if s.durability.is_some() {
        dimensions += ", journalled";
    }
    if let Some(shape) = s.stream.shape() {
        dimensions += &format!(", {shape} stream");
    }
    if s.population == Population::Targeted {
        dimensions += ", targeted";
    }
    if let Some(addr) = s.transport {
        dimensions += &format!(", via {addr}");
    }
    println!(
        "method {} ({dimensions}): n = {}, k = {}, {} auctions in {:.2} ms \
         ({:.0} auctions/sec, {} clicks, {} realized)",
        s.method,
        s.advertisers,
        run.slots,
        s.auctions,
        ssa_bench::ms(run.elapsed),
        run.auctions_per_sec(),
        run.report.clicks,
        run.report.realized_revenue,
    );
    let p = run.report.phases;
    println!(
        "phases: program-eval {:.2} ms, matrix-fill {:.2} ms, solve {:.2} ms, \
         pricing {:.2} ms, settlement {:.2} ms ({} solves, {} warm, \
         avg {:.1} candidates, {} cells evaluated, {} rescans)",
        p.program_eval_ns as f64 / 1e6,
        p.matrix_fill_ns as f64 / 1e6,
        p.solve_ns as f64 / 1e6,
        p.pricing_ns as f64 / 1e6,
        p.settlement_ns as f64 / 1e6,
        p.solves,
        p.warm_solves,
        p.avg_candidates(),
        p.cells_evaluated,
        p.rescans,
    );
    if let Some(skew) = &run.skew {
        println!(
            "skew: {:?} queries per shard (p50 {}, p99 {}, max/mean {:.3})",
            skew.queries_per_shard,
            skew.p50(),
            skew.p99(),
            skew.max_over_mean(),
        );
    }
    if let Some(stats) = run.planner {
        println!(
            "planner: {} index hits, {} rows scanned, {} plans cached",
            stats.index_hits, stats.rows_scanned, stats.plans_cached,
        );
    }
    if let Some(recovery) = &run.recovery {
        println!(
            "recovery: {} wal records replayed in {:.2} ms ({} snapshot bytes)",
            recovery.wal_records, recovery.replay_ms, recovery.snapshot_bytes,
        );
    }
}

/// Figure 12: time per auction for LP / H / RH / RHTALU, k = 15 slots,
/// averaged over 100 auctions, advertiser counts up to 5000.
fn fig12(quick: bool) {
    let counts: Vec<usize> = if quick {
        vec![250, 500, 1000]
    } else {
        vec![500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000]
    };
    let auctions = if quick { 20 } else { 100 };
    let methods = Method::ALL;
    let series: Vec<_> = methods
        .iter()
        .map(|&m| measure_series(m, &counts, auctions, auctions / 10 + 1, 4242))
        .collect();
    print!(
        "{}",
        format_table(
            "Figure 12 — Winner Determination Performance (ms per auction, k = 15)",
            &methods,
            &series,
        )
    );
    println!();
}

/// Figure 13: RH vs RHTALU, averaged over 1000 auctions, up to 20000
/// advertisers.
fn fig13(quick: bool) {
    let counts: Vec<usize> = if quick {
        vec![1000, 2000, 4000]
    } else {
        vec![
            2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000, 18000, 20000,
        ]
    };
    let auctions = if quick { 50 } else { 1000 };
    let methods = [Method::Rh, Method::Rhtalu];
    let series: Vec<_> = methods
        .iter()
        .map(|&m| measure_series(m, &counts, auctions, auctions / 10 + 1, 4243))
        .collect();
    print!(
        "{}",
        format_table(
            "Figure 13 — Reducing Program Evaluation (ms per auction, k = 15)",
            &methods,
            &series,
        )
    );
    println!();
}

/// Figures 1–11: the paper's illustrative tables, regenerated from the
/// library's own data structures.
fn tables() {
    println!("# Figure 1 — Single-feature valuation");
    println!("Click value: {}", Money::from_cents(3));
    println!();

    println!("# Figure 3 — Bids table");
    print!("{}", BidsTable::figure3());
    println!();

    println!("# Figure 6 — Bids table emitted by the Equalize-ROI program");
    let fig6 = BidsTable::new(vec![
        (
            Formula::click() & Formula::slot(SlotId::new(1)),
            Money::from_cents(4),
        ),
        (Formula::click(), Money::ZERO),
    ]);
    print!("{fig6}");
    println!();

    println!("# Figure 7 — Non-separable click probabilities");
    print_click_model(&ClickModel::figure7());
    println!("separable: {}", ClickModel::figure7().is_separable(1e-9));
    println!();

    println!("# Figure 8 — Separable click probabilities");
    print_click_model(&ClickModel::figure8());
    println!("separable: {}", ClickModel::figure8().is_separable(1e-9));
    println!();

    println!("# Figures 9–11 — Revenue matrix, reduction, and matching");
    let names = ["Nike", "Adidas", "Reebok", "Sketchers"];
    let matrix = RevenueMatrix::from_rows(&[
        vec![9.0, 5.0],
        vec![8.0, 7.0],
        vec![7.0, 6.0],
        vec![7.0, 4.0],
    ]);
    print!("{matrix}");
    let solution = reduced_assignment(&matrix);
    let kept: Vec<&str> = solution.candidates.iter().map(|&i| names[i]).collect();
    println!("reduced graph keeps: {}", kept.join(", "));
    for (j, adv) in solution.assignment.slot_to_adv.iter().enumerate() {
        if let Some(a) = adv {
            println!("slot {} -> {}", j + 1, names[*a]);
        }
    }
    println!("expected revenue: {}", solution.assignment.total_weight);
    println!();
}

fn print_click_model(m: &ClickModel) {
    for i in 0..m.num_advertisers() {
        for j in 0..m.num_slots() {
            print!("{:>6.2}", m.p_click(i, SlotId::from_index0(j)));
        }
        println!();
    }
}
