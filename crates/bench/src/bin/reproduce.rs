//! Regenerates the paper's evaluation figures, its illustrative tables
//! and the design ablations as text output, or — in single-run mode —
//! serves one `ssa_bench::Scenario` and reports its throughput.
//!
//! Usage:
//!
//! ```text
//! reproduce [fig12|fig13|ablations|tables|all] [--quick]
//! reproduce [--method <m>] [--strategy <s>] [--workload <w>] [--targeted]
//!           [--shards <n>] [--load <q>] [--pruned] [--durable]
//!           [--server <host:port>] [--json] [--footprint] [--quick]
//! ```
//!
//! `--quick` shrinks advertiser counts and auction counts so the whole run
//! finishes in seconds; the default mirrors the paper's scales (Figure 12:
//! up to 5000 advertisers, 100 auctions per point; Figure 13: up to 20000
//! advertisers, 1000 auctions per point). In single-run mode every flag
//! sets one `Scenario` field and the flags compose freely; a combination a
//! layer cannot express is that layer's typed error.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssa_bench::{format_table, ms_per_auction, MethodRun, Population, Scenario, ScenarioError};
use ssa_bidlang::{BidsTable, Formula, Money, SlotId};
use ssa_core::footprint::Ledger;
use ssa_core::heavyweight::{solve_heavyweight, HeavyweightInstance, PatternClickModel};
use ssa_core::prob::{ClickModel, PurchaseModel};
use ssa_core::sharded::parse_shards;
use ssa_core::WdMethod;
use ssa_matching::threshold::{threshold_top_k, IndexedSource, MaintainedIndex};
use ssa_matching::{max_weight_assignment, reduced_assignment, top_k_indices, RevenueMatrix};
use ssa_strategy::{LogicalRoiPopulation, NaiveRoiPopulation, RoiPopulation};
use ssa_workload::{SectionVConfig, SectionVWorkload, Strategy, Stream, WorkloadShape};
use std::hint::black_box;
use std::process::exit;
use std::time::Instant;

const USAGE: &str = "\
reproduce — regenerate the paper's figures as text output

Usage: reproduce [fig12|fig13|ablations|tables|all] [--quick]
       reproduce [--method <m>] [--strategy <s>] [--workload <w>] [--targeted]
                 [--shards <n>] [--load <q>] [--pruned] [--durable]
                 [--server <host:port>] [--json] [--footprint] [--quick]
       reproduce --list-methods

Targets:
  fig12      winner-determination time per auction (LP/H/RH/RHTALU, k = 15)
  fig13      RH vs RHTALU at larger advertiser counts
  ablations  A1 reduction vs k, A2 top-k selection, A3 logical updates,
             A4 heavyweight threads (mean of 10 runs after one warm-up)
  tables     the illustrative tables of Figures 1-11
  all        everything above (default)

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
  --footprint     after the run, print the market's memory ledger, largest
                  line first: bytes in use, bytes reserved and allocations
                  per component (one {\"metric\":\"footprint\",...} object
                  per line with --json, else a table); in process only
  --quick         the quick preset (250 advertisers, 50 auctions) instead of
                  the full one (1000, 200); for other targets, smaller sweeps

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
const SWITCHES: [&str; 6] = [
    "--quick",
    "--json",
    "--pruned",
    "--durable",
    "--targeted",
    "--footprint",
];

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
    // Walk the arguments once: reject unknown flags, a second positional
    // target and a value flag given twice; collect each value flag's value.
    let mut target: Option<&str> = None;
    let mut values: Vec<(&str, &str)> = Vec::new();
    let mut walk = args.iter().map(String::as_str);
    while let Some(a) = walk.next() {
        if VALUE_FLAGS.contains(&a) {
            let Some(value) = walk.next() else {
                usage_error(&format!("{a} requires a value"));
            };
            if values.iter().any(|&(flag, _)| flag == a) {
                usage_error(&format!("{a} given more than once"));
            }
            values.push((a, value));
        } else if !a.starts_with('-') {
            if let Some(first) = target {
                usage_error(&format!("unexpected argument {a:?} after target {first:?}"));
            }
            target = Some(a);
        } else if !SWITCHES.contains(&a) {
            usage_error(&format!("unknown option {a:?}"));
        }
    }
    let method = value_flag(&values, "--method", str::parse::<WdMethod>);
    let shards = value_flag(&values, "--shards", parse_shards);
    let load = value_flag(&values, "--load", parse_load);
    let strategy = value_flag(&values, "--strategy", str::parse::<Strategy>);
    let server = value_flag(&values, "--server", ssa_net::parse_addr);
    let workload = value_flag(&values, "--workload", str::parse::<WorkloadShape>);
    let switch = |name: &str| args.iter().any(|a| a == name);
    let (quick, json, pruned) = (switch("--quick"), switch("--json"), switch("--pruned"));
    let (durable, targeted) = (switch("--durable"), switch("--targeted"));
    let footprint = switch("--footprint");
    // --strategy/--workload/--targeted imply single-run mode with the rh
    // default method.
    let single_run = method.is_some() || strategy.is_some() || workload.is_some() || targeted;
    if !single_run {
        if json || footprint {
            usage_error("--json/--footprint require --method or --strategy");
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
            "ablations" => ablations(quick),
            "tables" => tables(),
            "all" => {
                tables();
                fig12(quick);
                fig13(quick);
                ablations(quick);
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
    if footprint && server.is_some() {
        usage_error("--footprint weighs an in-process market: drop --server");
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
        Ok(run) => {
            if json {
                println!("{}", run.to_json());
                if let Some(recovery) = &run.recovery {
                    println!("{}", recovery.to_json());
                }
            } else {
                print_run(&run);
            }
            if let Some(ledger) = run.footprint.as_ref().filter(|_| footprint) {
                print_footprint(ledger, json);
            }
        }
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

/// Runs `flag`'s typed parser on its value among the walked `(flag,
/// value)` pairs, if it was given; an unparsable value is a usage error.
fn value_flag<T, E: std::fmt::Display>(
    values: &[(&str, &str)],
    flag: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Option<T> {
    let &(_, value) = values.iter().find(|&&(f, _)| f == flag)?;
    Some(parse(value).unwrap_or_else(|e| usage_error(&e.to_string())))
}

/// Prints a market's memory ledger, the most bytes in use first: one JSON
/// object per line, or a table with a total.
fn print_footprint(ledger: &Ledger, json: bool) {
    let lines = ledger.largest_first();
    if json {
        for (rank, (component, heap)) in lines.iter().enumerate() {
            println!(
                "{{\"metric\":\"footprint\",\"rank\":{},\"component\":\"{}\",\
                 \"in_use_bytes\":{},\"reserved_bytes\":{},\"allocations\":{}}}",
                rank + 1,
                component.name(),
                heap.in_use,
                heap.reserved,
                heap.allocations
            );
        }
        return;
    }
    println!("# memory ledger, largest line first");
    println!(
        "{:>24} {:>12} {:>12} {:>12}",
        "component", "in use (B)", "reserved (B)", "allocations"
    );
    let named = lines
        .iter()
        .map(|(component, heap)| (component.name(), heap));
    for (name, heap) in named.chain([("total", &ledger.total())]) {
        println!(
            "{name:>24} {:>12} {:>12} {:>12}",
            heap.in_use, heap.reserved, heap.allocations
        );
    }
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
    let counts: &[usize] = if quick {
        &[250, 500, 1000]
    } else {
        &[500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000]
    };
    figure(
        "Figure 12 — Winner Determination Performance (ms per auction, k = 15)",
        &[LP, H, RH, RHTALU],
        counts,
        if quick { 20 } else { 100 },
        4242,
    );
}

/// Figure 13: RH vs RHTALU, averaged over 1000 auctions, up to 20000
/// advertisers.
fn fig13(quick: bool) {
    let counts: &[usize] = if quick {
        &[1000, 2000, 4000]
    } else {
        &[
            2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000, 18000, 20000,
        ]
    };
    figure(
        "Figure 13 — Reducing Program Evaluation (ms per auction, k = 15)",
        &[RH, RHTALU],
        counts,
        if quick { 50 } else { 1000 },
        4243,
    );
}

/// A figure column: its label and what `ms_per_auction` times — a
/// method served by the marketplace, or `None` for RHTALU.
type Series = (&'static str, Option<WdMethod>);
const LP: Series = ("LP", Some(WdMethod::Lp));
const H: Series = ("H", Some(WdMethod::Hungarian));
const RH: Series = ("RH", Some(WdMethod::Reduced));
const RHTALU: Series = ("RHTALU", None);

/// Prints one figure: each series' mean milliseconds per auction at each
/// advertiser count, over `auctions` auctions after a tenth as many. A
/// market that refuses the workload is a runtime error.
fn figure(title: &str, series: &[Series], counts: &[usize], auctions: usize, seed: u64) {
    let labels: Vec<&str> = series.iter().map(|&(label, _)| label).collect();
    let warmup = auctions / 10 + 1;
    print_table(title, "n", &labels, counts, |n| {
        series
            .iter()
            .map(|&(_, method)| {
                ms_per_auction(method, n, auctions, warmup, seed).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    exit(1)
                })
            })
            .collect()
    });
}

/// The design ablations, each cell a [`mean_ms`]: A1 the full Hungarian vs
/// the reduced graph across k, A2 three ways to find each slot's top k, A3
/// every ROI program evaluated per auction vs logical updates, A4 the 2^k
/// heavyweight solver on one thread vs eight.
fn ablations(quick: bool) {
    let n = if quick { 500 } else { 3000 };
    print_table(
        &format!("A1 — Reduced graph vs full Hungarian (ms per solve, n = {n})"),
        "k",
        &["hungarian_full", "reduced"],
        &[2, 5, 10, 15, 20, 25][..if quick { 4 } else { 6 }],
        |k| {
            let matrix = random_matrix(n, k, 42 + k as u64);
            let full = mean_ms(|| max_weight_assignment(&matrix));
            vec![full, mean_ms(|| reduced_assignment(&matrix))]
        },
    );

    let (n, k) = (if quick { 2_000 } else { 20_000 }, 15);
    let matrix = random_matrix(n, k, 7);
    let full_sort = mean_ms(|| {
        (0..k)
            .map(|j| {
                let mut col: Vec<(usize, f64)> = (0..n).map(|i| (i, matrix.get(i, j))).collect();
                col.sort_by(|a, b| b.1.total_cmp(&a.1));
                col.truncate(k);
                col
            })
            .collect::<Vec<_>>()
    });
    let heaps = mean_ms(|| top_k_indices(&matrix, k));
    // The threshold algorithm over pre-sorted weight and bid indexes.
    let weight_indexes: Vec<MaintainedIndex> = (0..k)
        .map(|j| MaintainedIndex::new((0..n).map(|i| matrix.get(i, j)).collect()))
        .collect();
    let mut rng = StdRng::seed_from_u64(12);
    let bid_index = MaintainedIndex::new((0..n).map(|_| rng.gen_range(0.0..50.0)).collect());
    let threshold = mean_ms(|| {
        weight_indexes
            .iter()
            .map(|w| {
                let source = IndexedSource::new(vec![w, &bid_index]);
                threshold_top_k(&source, &|v: &[f64]| v[0] * v[1], k).0
            })
            .collect::<Vec<_>>()
    });
    print_table(
        &format!("A2 — Per-slot top-k selection (ms per selection, k = {k})"),
        "n",
        &["full_sort_per_slot", "bounded_heaps", "threshold_algorithm"],
        &[n],
        |_| vec![full_sort, heaps, threshold],
    );

    print_table(
        "A3 — Logical updates (ms per auction's program adjustments)",
        "n",
        &["naive_eval", "logical_updates"],
        if quick { &[500] } else { &[2000, 10000] },
        |n| {
            let bidders = SectionVWorkload::generate(SectionVConfig::paper(n, 99)).bidders;
            let naive = auction_ms(NaiveRoiPopulation::new(&bidders));
            vec![naive, auction_ms(LogicalRoiPopulation::new(&bidders))]
        },
    );

    print_table(
        "A4 — Heavyweight 2^k solver (ms per solve, n = 60)",
        "k",
        &["sequential", "threaded_8"],
        &[4, 8, 10][..if quick { 2 } else { 3 }],
        |k| {
            // Every third advertiser heavy; lightweights lose clicks as
            // more heavyweights show.
            let clicks = PatternClickModel::from_fn(60, k, |adv, slot, pattern| {
                let base = 0.8 / (1.0 + slot as f64) / (1.0 + (adv % 7) as f64 * 0.1);
                if adv % 3 == 0 {
                    return base;
                }
                base * (1.0 - 0.03 * pattern.count() as f64).max(0.1)
            });
            let mut rng = StdRng::seed_from_u64(k as u64);
            let instance = HeavyweightInstance {
                is_heavy: (0..60).map(|i| i % 3 == 0).collect(),
                clicks,
                purchases: PurchaseModel::never(60, k),
                bids: (0..60)
                    .map(|_| BidsTable::single_feature(Money::from_cents(rng.gen_range(1..=50))))
                    .collect(),
            };
            let sequential = mean_ms(|| solve_heavyweight(&instance, 1));
            vec![sequential, mean_ms(|| solve_heavyweight(&instance, 8))]
        },
    );
}

/// Mean milliseconds per call of `routine` over 10 timed calls, after one
/// untimed warm-up call.
fn mean_ms<O>(mut routine: impl FnMut() -> O) -> f64 {
    black_box(routine());
    let start = Instant::now();
    for _ in 0..10 {
        black_box(routine());
    }
    ssa_bench::ms(start.elapsed()) / 10.0
}

/// [`mean_ms`] of one auction's program adjustments on `population`, the
/// auctions cycling through the Section V workload's ten keywords.
fn auction_ms(mut population: impl RoiPopulation) -> f64 {
    let mut t = 0;
    mean_ms(|| {
        t += 1;
        population.begin_auction(t % 10)
    })
}

/// An `n × k` revenue matrix of seeded uniform draws in `[0, 100)`.
fn random_matrix(n: usize, k: usize, seed: u64) -> RevenueMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    RevenueMatrix::from_fn(n, k, |_, _| rng.gen_range(0.0..100.0))
}

/// Prints a timing table through [`format_table`], one row of `row(key)`
/// per key, then a blank line.
fn print_table(
    title: &str,
    key: &str,
    labels: &[&str],
    keys: &[usize],
    row: impl Fn(usize) -> Vec<f64>,
) {
    let rows: Vec<_> = keys.iter().map(|&k| (k, row(k))).collect();
    println!("{}", format_table(title, key, labels, &rows));
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
