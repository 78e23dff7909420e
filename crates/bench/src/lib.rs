//! # ssa-bench — the experiment harness
//!
//! Shared plumbing for regenerating the paper's figures: the `reproduce`
//! binary prints the illustrative tables of Figures 1–11 and times the
//! series behind Figures 12 and 13 and the design ablations, printing
//! each timing table through [`format_table`].
//!
//! There are two entry points. [`ms_per_auction`] times one figure cell:
//! LP, H or RH served by the marketplace (`MarketSimulation`), or RHTALU
//! on its reference `Simulation`.
//! [`run`] serves one [`Scenario`] — population × stream × transport ×
//! durability × shards — on the marketplace and returns a [`MethodRun`];
//! every single-run `reproduce` flag is one `Scenario` field, and the
//! dimensions compose. A combination a *layer* cannot express comes back
//! as that layer's typed error ([`ScenarioError`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ssa_bidlang::Money;
use ssa_core::footprint::Ledger;
use ssa_core::marketplace::{MarketError, Marketplace, QueryRequest};
use ssa_core::{journal, BatchReport, EngineConfig, MutationRecord, PricingScheme, WdMethod};
use ssa_durable::{Durability, DurableError, FsyncPolicy, RecoveryReport};
use ssa_minidb::PlannerStats;
use ssa_net::server::build_market;
use ssa_net::{available_cores, market_config_for, populate_remote, Client, NetError, Request};
use ssa_workload::{
    programmed_sharded_market, MarketSimulation, ProgramHandle, SectionVConfig, SectionVWorkload,
    ShardSkew, Simulation, Strategy,
};
pub use ssa_workload::{Population, Scenario, Stream};
use std::fmt;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Times one Figure 12/13 series on the Section V workload of `n`
/// advertisers — `method` served by the marketplace, or `None` for RHTALU
/// on the reference `Simulation` — as the mean milliseconds per auction
/// over `auctions` auctions, after `warmup` untimed ones. One figure cell.
pub fn ms_per_auction(
    method: Option<WdMethod>,
    n: usize,
    auctions: usize,
    warmup: usize,
    seed: u64,
) -> Result<f64, MarketError> {
    let workload = SectionVWorkload::generate(SectionVConfig::paper(n, seed));
    let elapsed = match method {
        Some(method) => {
            let mut sim = MarketSimulation::new(workload, method)?;
            sim.run_auctions(warmup)?;
            let start = Instant::now();
            sim.run_auctions(auctions)?;
            start.elapsed()
        }
        None => {
            let mut sim = Simulation::new(workload);
            sim.run_timed(warmup);
            sim.run_timed(auctions)
        }
    };
    Ok(ms(elapsed) / auctions as f64)
}

/// Formats rows of timings as the aligned text table the `reproduce`
/// binary prints: a `# title` line, a header of the `key` column's name
/// and the value columns' `labels`, then one line per row — its key, then
/// its values to four decimals under their labels.
pub fn format_table(title: &str, key: &str, labels: &[&str], rows: &[(usize, Vec<f64>)]) -> String {
    let width = |label: &str| label.len().max(12);
    let mut out = format!("# {title}\n{key:>8}");
    for label in labels {
        out += &format!(" {label:>w$}", w = width(label));
    }
    for (row_key, values) in rows {
        out += &format!("\n{row_key:>8}");
        for (value, label) in values.iter().zip(labels) {
            out += &format!(" {value:>w$.4}", w = width(label));
        }
    }
    out + "\n"
}

/// Pretty-prints a duration in ms for logging.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Outcome of [`run`]: the machine-readable record behind `reproduce
/// --method <m> --json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRun {
    /// The scenario that was served.
    pub scenario: Scenario,
    /// Slot count.
    pub slots: usize,
    /// Logical cores available to the process during the run.
    pub cores: usize,
    /// Per-shard queue-depth skew of the timed stream under
    /// keyword-affinity routing — recorded for shaped streams, `None` for
    /// the round-robin one.
    pub skew: Option<ShardSkew>,
    /// Wall-clock time of the timed auctions.
    pub elapsed: Duration,
    /// Aggregate outcomes of the timed auctions. Per-phase solver timings
    /// do not travel over the wire: a wire run's `phases` are zero, and
    /// the outcome fields are the equivalence surface.
    pub report: BatchReport,
    /// Planner counters summed over every campaign database after the
    /// timed auctions — shows whether auctions were answered by index
    /// probes (`index_hits`) or scans (`rows_scanned`). `None` for native
    /// programs and the per-click populations.
    pub planner: Option<PlannerStats>,
    /// For journalled runs, what the post-run recovery replayed. No
    /// snapshot is taken, so `wal_records` counts every journalled
    /// operation of the run.
    pub recovery: Option<RecoveryReport>,
    /// The market's memory ledger after the timed auctions; `None` for a
    /// market behind a socket.
    pub footprint: Option<Ledger>,
}

impl MethodRun {
    /// Batched throughput in auctions per second.
    pub fn auctions_per_sec(&self) -> f64 {
        self.scenario.auctions as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Serialises the run as a single JSON object (stable keys, no
    /// dependencies) for `BENCH_*.json`-style tracking. `"shards"` is
    /// `null` when the scenario left the shard count unset; `"planner"`
    /// carries the counters of the campaign databases for
    /// programmed SQL runs and is `null` otherwise.
    pub fn to_json(&self) -> String {
        fn or_null<T: fmt::Display>(value: Option<T>, quoted: bool) -> String {
            match value {
                Some(v) if quoted => format!("\"{v}\""),
                Some(v) => v.to_string(),
                None => "null".to_string(),
            }
        }
        let s = &self.scenario;
        let strategy = match s.population {
            Population::Programmed(strategy) => Some(strategy),
            Population::PerClick | Population::Targeted => None,
        };
        let planner = self.planner.map_or("null".to_string(), |stats| {
            format!(
                "{{\"index_hits\":{},\"rows_scanned\":{},\"plans_cached\":{}}}",
                stats.index_hits, stats.rows_scanned, stats.plans_cached
            )
        });
        let p = &self.report.phases;
        let phases = format!(
            concat!(
                "{{\"program_eval_ms\":{:.3},\"matrix_fill_ms\":{:.3},",
                "\"solve_ms\":{:.3},\"pricing_ms\":{:.3},",
                "\"settlement_ms\":{:.3},\"solves\":{},\"warm_solves\":{},",
                "\"avg_candidates\":{:.1},\"cells_evaluated\":{},\"rescans\":{}}}"
            ),
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
        format!(
            concat!(
                "{{\"method\":\"{}\",\"pricing\":\"{}\",\"advertisers\":{},",
                "\"slots\":{},\"shards\":{},\"strategy\":{},\"server\":{},",
                "\"auctions\":{},\"elapsed_ms\":{:.3},",
                "\"auctions_per_sec\":{:.1},\"cores\":{},\"pruned\":{},",
                "\"durable\":{},\"workload\":{},\"targeted\":{},",
                "\"phases\":{},\"expected_revenue_cents\":{:.2},",
                "\"clicks\":{},\"realized_revenue_cents\":{},\"planner\":{},",
                "\"shard_skew\":{}}}"
            ),
            s.method,
            s.pricing,
            s.advertisers,
            self.slots,
            or_null(s.shards, false),
            or_null(strategy, true),
            or_null(s.transport, true),
            s.auctions,
            ms(self.elapsed),
            self.auctions_per_sec(),
            self.cores,
            s.pruned,
            s.durability.is_some(),
            or_null(s.stream.shape(), true),
            s.population == Population::Targeted,
            phases,
            self.report.expected_revenue,
            self.report.clicks,
            self.report.realized_revenue.cents(),
            planner,
            or_null(self.skew.as_ref().map(ShardSkew::to_json), false),
        )
    }
}

/// Why [`run`] could not serve a scenario. The first two variants are
/// combinations a layer cannot express; the rest are that layer failing.
#[derive(Debug)]
pub enum ScenarioError {
    /// A programmed population was asked to serve over the wire: bidding
    /// programs are in-process values with no wire encoding.
    ProgramsOverWire(Strategy),
    /// A journal was asked for on a wire run: the write-ahead log belongs
    /// to the server process (`ssa-server --data-dir`), not its client.
    JournalOverWire,
    /// The marketplace refused an operation — notably
    /// [`MarketError::NotDurable`] for a programmed population under a
    /// journal.
    Market(MarketError),
    /// The durability layer failed to open, append, or recover.
    Durable(DurableError),
    /// The server at `server` could not be reached or refused a request.
    Net {
        /// The address the run was served through.
        server: SocketAddr,
        /// The client-side failure.
        source: Box<NetError>,
    },
}

impl ScenarioError {
    fn net(server: SocketAddr) -> impl Fn(NetError) -> Self {
        move |source| ScenarioError::Net {
            server,
            source: Box::new(source),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::ProgramsOverWire(strategy) => write!(
                f,
                "{strategy} bidding programs cannot cross the wire: programmed \
                 populations serve in process only"
            ),
            ScenarioError::JournalOverWire => write!(
                f,
                "a wire run cannot attach a journal: the write-ahead log belongs \
                 to the server (start ssa-server with --data-dir)"
            ),
            ScenarioError::Market(e) => write!(f, "{e}"),
            ScenarioError::Durable(e) => write!(f, "durable store failed: {e}"),
            ScenarioError::Net { server, source } => {
                write!(f, "remote run against {server} failed: {source}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<MarketError> for ScenarioError {
    fn from(e: MarketError) -> Self {
        ScenarioError::Market(e)
    }
}

impl From<DurableError> for ScenarioError {
    fn from(e: DurableError) -> Self {
        ScenarioError::Durable(e)
    }
}

/// Where a scenario's operations execute: the marketplace in this
/// process, or the one behind an `ssa-server`.
enum Backend {
    Local(Marketplace),
    Wire { client: Client, server: SocketAddr },
}

impl Backend {
    fn serve_batch(&mut self, requests: &[QueryRequest]) -> Result<BatchReport, ScenarioError> {
        match self {
            Backend::Local(market) => Ok(market.serve_batch(requests)?.total),
            Backend::Wire { client, server } => {
                let queries = requests
                    .iter()
                    .map(|r| (r.keyword, r.attrs.clone()))
                    .collect();
                let summary = client
                    .serve_batch_queries(queries)
                    .map_err(ScenarioError::net(*server))?;
                Ok(BatchReport {
                    auctions: summary.auctions,
                    expected_revenue: summary.expected_revenue,
                    filled_slots: summary.filled_slots,
                    clicks: summary.clicks,
                    purchases: summary.purchases,
                    realized_revenue: Money::from_cents(summary.realized_cents),
                    phases: Default::default(),
                })
            }
        }
    }

    /// Applies one churn operation. The plan's coordinates are generated
    /// within the population's bounds, so a refusal is a harness bug
    /// surfaced as the layer's error.
    fn apply(&mut self, op: MutationRecord) -> Result<(), ScenarioError> {
        match self {
            Backend::Local(market) => journal::apply(market, op)
                .map(drop)
                .map_err(ScenarioError::Market),
            Backend::Wire { client, server } => client
                .request(&Request::from(op))
                .map(drop)
                .map_err(ScenarioError::net(*server)),
        }
    }
}

/// Serves one [`Scenario`] and measures it: registers the population
/// (in process, or over the wire at `scenario.transport`), serves
/// `scenario.warmup` unmeasured auctions (building the per-keyword
/// engines and filling their persistent solver and matrix buffers), then
/// times `scenario.auctions` auctions of the scenario's stream through
/// `serve_batch`, applying the stream's churn plan between batches while
/// the clock runs.
///
/// Every dimension is an execution strategy, not a semantic one: for a
/// given population, stream, sizes, and seed, [`MethodRun::report`]'s
/// outcome fields are **bit-identical** whatever the shard count, whether
/// or not a journal is attached, and whether the auctions ran in this
/// process or behind a socket (`f64` aggregates travel as raw bits).
///
/// With `scenario.durability` set, every mutation and batch is journalled
/// while the clock runs; afterwards the store is recovered from disk and
/// the recovered marketplace is asserted bit-identical to the served one,
/// so every reported number also certifies the recovery path
/// ([`MethodRun::recovery`]). With `scenario.transport` set, the server is
/// rebuilt to the run's configuration (`Configure`), so consecutive runs
/// against one long-lived server are independent.
///
/// # Panics
///
/// Panics if the journal directory already holds a store, or if the
/// recovered state diverges from the served one — a durability bug, not a
/// measurement artefact.
pub fn run(scenario: &Scenario) -> Result<MethodRun, ScenarioError> {
    let mut scenario = scenario.clone();
    let section = scenario.section_v();
    let workload = SectionVWorkload::generate(section);
    let shards = scenario.shards.unwrap_or(1);
    let targeted = scenario.population == Population::Targeted;

    // One configuration for both sides of the wire: `Configure` makes the
    // server run the same `build_market` the in-process arm calls, so the
    // two markets of one scenario are the same market by construction.
    let config = market_config_for(
        &section,
        scenario.method,
        scenario.pricing,
        shards,
        scenario.pruned,
    );
    let mut handles: Vec<ProgramHandle> = Vec::new();
    let mut journal = None;
    let mut backend = match (scenario.transport, scenario.population) {
        (Some(_), Population::Programmed(strategy)) => {
            return Err(ScenarioError::ProgramsOverWire(strategy));
        }
        (Some(_), _) if scenario.durability.is_some() => {
            return Err(ScenarioError::JournalOverWire);
        }
        (Some(server), _) => {
            let net = ScenarioError::net(server);
            let mut client = Client::connect(server).map_err(&net)?;
            client.configure(&config).map_err(&net)?;
            populate_remote(&mut client, &workload, targeted).map_err(&net)?;
            Backend::Wire { client, server }
        }
        (None, population) => {
            let mut market = match population {
                Population::Programmed(strategy) => {
                    // The programmed populations are defined (and
                    // equivalence-tested) under GSP settlement.
                    scenario.pricing = PricingScheme::Gsp;
                    let config = EngineConfig {
                        method: scenario.method,
                        pruned: scenario.pruned,
                        ..EngineConfig::default()
                    };
                    let built = programmed_sharded_market(&workload, config, strategy, shards)?;
                    handles = built.handles;
                    built.market
                }
                Population::PerClick | Population::Targeted => build_market(&config)?,
            };
            if let Some(dir) = &scenario.durability {
                let (recovered, store) = Durability::open(dir, FsyncPolicy::Off, 0)?;
                assert!(
                    recovered.is_none(),
                    "a journalled run needs an empty data directory"
                );
                // A programmed population stops here, with the
                // marketplace's own `NotDurable`.
                store.log_configure(&market.capture_state()?.config)?;
                market.set_journal(store.journal());
                journal = Some(store);
            }
            // Registered *after* the journal attaches, so recovery
            // replays the population.
            if !matches!(population, Population::Programmed(_)) {
                workload.populate(&mut market, targeted)?;
            }
            Backend::Local(market)
        }
    };

    let requests = scenario.requests(scenario.auctions.max(scenario.warmup));
    backend.serve_batch(&requests[..scenario.warmup])?;
    let plan = scenario.churn_plan();
    let start = Instant::now();
    let mut report = BatchReport::default();
    let mut served = 0;
    let mut events = plan.events.into_iter().peekable();
    while served < scenario.auctions {
        let until = events.peek().map_or(scenario.auctions, |e| {
            e.after_query.clamp(served, scenario.auctions)
        });
        if until > served {
            report.absorb(&backend.serve_batch(&requests[served..until])?);
            served = until;
        }
        while let Some(event) = events.next_if(|e| e.after_query <= served) {
            backend.apply(event.op)?;
        }
    }
    let elapsed = start.elapsed();

    let recovery = match (journal, &backend) {
        (Some(store), Backend::Local(market)) => {
            let dir = store.dir();
            drop(store);
            let (recovered, recovery) =
                ssa_durable::recover(&dir)?.expect("the run journalled state");
            assert_eq!(
                recovered.capture_state()?,
                market.capture_state()?,
                "recovered marketplace diverged from the served one"
            );
            Some(recovery)
        }
        _ => None,
    };
    let planner = planner_totals(&handles);
    let footprint = match &backend {
        Backend::Local(market) => Some(market.footprint()),
        Backend::Wire { .. } => None,
    };
    Ok(MethodRun {
        slots: section.num_slots,
        cores: available_cores(),
        skew: scenario.stream.shape().map(|_| {
            let keywords: Vec<usize> = requests[..scenario.auctions]
                .iter()
                .map(|r| r.keyword)
                .collect();
            ShardSkew::from_stream(&keywords, shards)
        }),
        elapsed,
        report,
        planner,
        recovery,
        footprint,
        scenario,
    })
}

/// Sums planner counters over every campaign database of a programmed
/// population (`None` for native programs, which have none).
fn planner_totals(handles: &[ProgramHandle]) -> Option<PlannerStats> {
    handles
        .iter()
        .filter_map(|h| h.planner_stats())
        .reduce(|a, b| PlannerStats {
            index_hits: a.index_hits + b.index_hits,
            rows_scanned: a.rows_scanned + b.rows_scanned,
            plans_cached: a.plans_cached + b.plans_cached,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_measure_smoke() {
        for n in [30, 60] {
            for method in [Some(WdMethod::Reduced), None] {
                assert!(ms_per_auction(method, n, 5, 1, 3).expect("valid") > 0.0);
            }
        }
    }

    #[test]
    fn table_format() {
        let t = format_table(
            "Fig X",
            "n",
            &["RH", "logical_updates"],
            &[(100, vec![1.5, 0.25]), (2000, vec![12.0, 3.0])],
        );
        assert_eq!(
            t,
            "# Fig X\n\
             \x20      n           RH logical_updates\n\
             \x20    100       1.5000          0.2500\n\
             \x20   2000      12.0000          3.0000\n"
        );
    }
}
