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
//! drive × durability × shards — on the marketplace and returns a
//! [`MethodRun`]; every single-run `reproduce` flag is one `Scenario`
//! field, and the dimensions compose. A combination a *layer* cannot
//! express comes back as that layer's typed error ([`ScenarioError`]).
//! `run` is the one scenario driver: over the wire it also verifies a
//! server query by query against an in-process twin and loads it from
//! concurrent connections ([`Drive`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

use ssa_bidlang::Money;
use ssa_core::footprint::Ledger;
use ssa_core::marketplace::{AuctionResponse, MarketError, Marketplace, QueryRequest};
use ssa_core::{BatchReport, EngineConfig, MutationRecord, PricingScheme, WdMethod};
use ssa_durable::{Durability, DurableError, FsyncPolicy, RecoveryReport};
use ssa_minidb::PlannerStats;
use ssa_net::server::build_market;
use ssa_net::{market_config_for, Client, NetError};
use ssa_workload::{
    nearest_rank, programmed_sharded_market, MarketSimulation, ProgramHandle, SectionVConfig,
    SectionVWorkload, ShardSkew, Simulation, Strategy,
};
pub use ssa_workload::{Drive, Population, Scenario, Stream};
use std::fmt;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread;
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
    /// What a wire run that served one request at a time measured; `None`
    /// for batched and in-process runs.
    pub load: Option<WireLoad>,
}

/// What a wire run measured while it served one request at a time — the
/// closed loop and verification of [`Drive`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireLoad {
    /// Connections that split the stream.
    pub connections: usize,
    /// Latency of every answered request.
    pub latency: LatencySummary,
    /// Requests refused with `Overloaded`: counted and slept on, never
    /// timed or retried.
    pub overloaded: u64,
    /// Population records the server applied, pipelined (0 when it
    /// already held the market).
    pub populate_ops: u64,
    /// Wall-clock milliseconds those records took.
    pub populate_ms: f64,
    /// Every auction and every keyword's top bids were compared with the
    /// in-process twin. A mismatch is [`ScenarioError::WireDiverged`], so
    /// a row never reads a failed comparison.
    pub verified: bool,
}

/// Request latency percentiles in milliseconds, by the nearest-rank
/// method (all 0 for no requests).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Maximum.
    pub max_ms: f64,
    /// Mean.
    pub mean_ms: f64,
}

impl LatencySummary {
    /// Sorts latencies in microseconds once and reads every statistic off
    /// the sorted samples.
    pub fn of(mut samples_us: Vec<u64>) -> Self {
        samples_us.sort_unstable();
        let ms = |us: u64| us as f64 / 1e3;
        let sum: u64 = samples_us.iter().sum();
        LatencySummary {
            p50_ms: ms(nearest_rank(&samples_us, 0.50)),
            p99_ms: ms(nearest_rank(&samples_us, 0.99)),
            max_ms: ms(samples_us.last().copied().unwrap_or(0)),
            mean_ms: sum as f64 / samples_us.len().max(1) as f64 / 1e3,
        }
    }
}

impl MethodRun {
    /// Throughput in auctions answered per second.
    pub fn auctions_per_sec(&self) -> f64 {
        self.report.auctions as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Serialises the run as a single JSON object (stable keys, no
    /// dependencies) for `BENCH_*.json`-style tracking. `"shards"` is
    /// `null` when the scenario left the shard count unset; `"planner"`
    /// carries the counters of the campaign databases for
    /// programmed SQL runs and is `null` otherwise. A run with a
    /// [`WireLoad`] appends its keys, `"connections"` to `"verified"`.
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
        let load = self.load.as_ref().map_or(String::new(), |l| {
            format!(
                concat!(
                    ",\"connections\":{},\"p50_ms\":{:.3},\"p99_ms\":{:.3},",
                    "\"max_ms\":{:.3},\"mean_ms\":{:.3},\"overloaded\":{},",
                    "\"populate_ops\":{},\"populate_ms\":{:.3},\"verified\":{}"
                ),
                l.connections,
                l.latency.p50_ms,
                l.latency.p99_ms,
                l.latency.max_ms,
                l.latency.mean_ms,
                l.overloaded,
                l.populate_ops,
                l.populate_ms,
                l.verified,
            )
        });
        format!(
            concat!(
                "{{\"method\":\"{}\",\"pricing\":\"{}\",\"advertisers\":{},",
                "\"slots\":{},\"shards\":{},\"strategy\":{},\"server\":{},",
                "\"auctions\":{},\"elapsed_ms\":{:.3},",
                "\"auctions_per_sec\":{:.1},\"cores\":{},\"pruned\":{},",
                "\"durable\":{},\"workload\":{},\"targeted\":{},",
                "\"phases\":{},\"expected_revenue_cents\":{:.2},",
                "\"clicks\":{},\"realized_revenue_cents\":{},\"planner\":{},",
                "\"shard_skew\":{}{}}}"
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
            load,
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
    /// A journalled run was pointed at a directory that already holds a
    /// store: its recovery check needs the run's own log alone.
    OccupiedDataDir(PathBuf),
    /// Recovering the run's own journal did not rebuild the served
    /// marketplace: a durability bug, not a measurement artefact.
    RecoveryDiverged,
    /// A [`Drive`] other than the default was asked of a run in process:
    /// verification, closed-loop connections and shutdown drive a server.
    DriveInProcess,
    /// `what` has no defined order over `connections` concurrent
    /// connections: verification and a churn plan need one connection.
    Unordered {
        /// What needs one connection.
        what: &'static str,
        /// The connections asked for.
        connections: usize,
    },
    /// A verified wire run's server answered differently from the
    /// in-process twin: at the stream's query `query` on `keyword`, or —
    /// `query` `None` — in `keyword`'s top bids after the run.
    WireDiverged {
        /// Stream position of the first diverging query.
        query: Option<usize>,
        /// Its keyword, or the keyword whose top bids diverged.
        keyword: usize,
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
            ScenarioError::OccupiedDataDir(dir) => write!(
                f,
                "a journalled run needs an empty data directory; {} holds a store",
                dir.display()
            ),
            ScenarioError::RecoveryDiverged => {
                f.write_str("recovered marketplace diverged from the served one")
            }
            ScenarioError::DriveInProcess => f.write_str(
                "verification, closed-loop connections and shutdown drive a server: \
                 give its address",
            ),
            ScenarioError::Unordered { what, connections } => write!(
                f,
                "{what} has no defined order over {connections} concurrent \
                 connections: it needs one"
            ),
            ScenarioError::WireDiverged { query, keyword } => match query {
                Some(query) => write!(
                    f,
                    "query {query} of the stream (keyword {keyword}) diverged from the \
                     in-process twin"
                ),
                None => write!(
                    f,
                    "keyword {keyword}'s top bids diverged from the in-process twin"
                ),
            },
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
    Wire(Wire),
}

/// A server and the connections a run drives it through. The first
/// connection carries the population, the warm-up, batches, churn and
/// shutdown.
struct Wire {
    server: SocketAddr,
    clients: Vec<Client>,
    /// Serve one request at a time, timed, instead of in `ServeBatch`es.
    each: bool,
    /// Verification's in-process twin.
    twin: Option<Marketplace>,
    timed: Timed,
}

/// Latencies of answered requests and the count of refused ones.
#[derive(Default)]
struct Timed {
    latencies_us: Vec<u64>,
    overloaded: u64,
}

impl Backend {
    /// One `serve_batch`: in process, or one `ServeBatch` request.
    fn batch(&mut self, requests: &[QueryRequest]) -> Result<BatchReport, ScenarioError> {
        match self {
            Backend::Local(market) => Ok(market.serve_batch(requests)?.total),
            Backend::Wire(wire) => {
                let queries = requests
                    .iter()
                    .map(|r| (r.keyword, r.attrs.clone()))
                    .collect();
                let summary = wire.clients[0]
                    .serve_batch_queries(queries)
                    .map_err(ScenarioError::net(wire.server))?;
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

    /// Serves the timed `requests`, the first at stream position `first`:
    /// as a batch, unless the drive serves each request alone — split
    /// over the connections, one thread each, or over a verified run's one
    /// connection and its twin.
    fn serve(
        &mut self,
        requests: &[QueryRequest],
        first: usize,
    ) -> Result<BatchReport, ScenarioError> {
        let wire = match self {
            Backend::Wire(wire) if wire.each => wire,
            _ => return self.batch(requests),
        };
        let (server, n) = (wire.server, wire.clients.len());
        let mut twin = wire.twin.as_mut();
        let shares = thread::scope(|scope| {
            let workers: Vec<_> = (wire.clients.iter_mut().enumerate())
                .map(|(w, client)| {
                    let share = (first..).zip(requests).skip(w).step_by(n);
                    let twin = twin.take();
                    scope.spawn(move || serve_each(client, server, share, twin))
                })
                .collect();
            (workers.into_iter())
                .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Vec<_>>()
        });
        let mut report = BatchReport::default();
        for share in shares {
            let (share, timed) = share?;
            report.absorb(&share);
            wire.timed.latencies_us.extend(timed.latencies_us);
            wire.timed.overloaded += timed.overloaded;
        }
        Ok(report)
    }

    /// Applies one churn operation (to a verified run's twin too). The
    /// plan's coordinates are generated within the population's bounds,
    /// so a refusal is a harness bug surfaced as the layer's error.
    fn apply(&mut self, op: MutationRecord) -> Result<(), ScenarioError> {
        match self {
            Backend::Local(market) => market.apply(op).map(drop).map_err(ScenarioError::Market),
            Backend::Wire(wire) => {
                if let Some(twin) = &mut wire.twin {
                    twin.apply(op.clone())?;
                }
                (wire.clients[0].apply(op).map(drop)).map_err(ScenarioError::net(wire.server))
            }
        }
    }
}

/// Serves `requests` one at a time over `client`, each with its stream
/// position, timing every answered request; an `Overloaded` refusal is
/// counted and slept on. With a `twin` (one connection), each auction is
/// served on it too and must match bit for bit, and a refusal is an
/// error.
fn serve_each<'a>(
    client: &mut Client,
    server: SocketAddr,
    requests: impl Iterator<Item = (usize, &'a QueryRequest)>,
    mut twin: Option<&mut Marketplace>,
) -> Result<(BatchReport, Timed), ScenarioError> {
    let (mut report, mut timed) = (BatchReport::default(), Timed::default());
    for (query, request) in requests {
        let sent = Instant::now();
        let remote = match client.serve_with_attrs(request.keyword, request.attrs.clone()) {
            Ok(auction) => auction,
            Err(NetError::Overloaded { retry_after_ms }) if twin.is_none() => {
                timed.overloaded += 1;
                thread::sleep(Duration::from_millis(retry_after_ms.into()));
                continue;
            }
            Err(e) => return Err(ScenarioError::net(server)(e)),
        };
        timed.latencies_us.push(sent.elapsed().as_micros() as u64);
        if let Some(twin) = twin.as_deref_mut() {
            let local = twin.serve(request.clone())?;
            if remote != local
                || remote.expected_revenue.to_bits() != local.expected_revenue.to_bits()
            {
                let keyword = request.keyword;
                return Err(ScenarioError::WireDiverged {
                    query: Some(query),
                    keyword,
                });
            }
        }
        report.absorb(&auction_report(&remote));
    }
    Ok((report, timed))
}

/// One served auction as a one-auction [`BatchReport`].
fn auction_report(auction: &AuctionResponse) -> BatchReport {
    let placements = &auction.placements;
    BatchReport {
        auctions: 1,
        expected_revenue: auction.expected_revenue,
        filled_slots: placements.len() as u64,
        clicks: placements.iter().filter(|p| p.clicked).count() as u64,
        purchases: placements.iter().filter(|p| p.purchased).count() as u64,
        realized_revenue: auction.realized_revenue,
        phases: Default::default(),
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
/// against one long-lived server are independent. Either way the
/// population is [`SectionVWorkload::records`], applied in process or
/// pipelined over the wire.
///
/// Over the wire, `scenario.drive` may instead serve one request at a
/// time ([`Drive`], [`MethodRun::load`]): from `connections` connections
/// in a closed loop, or in order over one connection, each auction
/// compared with a twin market built as the in-process arm builds its
/// own. A verified run with `skip` above 0 neither configures nor
/// populates the server.
pub fn run(scenario: &Scenario) -> Result<MethodRun, ScenarioError> {
    let mut scenario = scenario.clone();
    let section = scenario.section_v();
    let workload = SectionVWorkload::generate(section);
    let shards = scenario.shards.unwrap_or(1);
    let targeted = scenario.population == Population::Targeted;
    let plan = scenario.churn_plan();
    let drive = scenario.drive;
    let connections = drive.connections.unwrap_or(1);
    if scenario.transport.is_none() && drive != Drive::default() {
        return Err(ScenarioError::DriveInProcess);
    }
    let ordered = match drive.verify {
        Some(_) => Some("verification"),
        None => (!plan.events.is_empty()).then_some("a churn plan"),
    };
    if let Some(what) = ordered.filter(|_| connections > 1) {
        return Err(ScenarioError::Unordered { what, connections });
    }
    // A verified run serves no warm-up: the server serves exactly the
    // stream's queries, `skip` of them before this run.
    let skip = drive.verify.unwrap_or(0);
    let warmup = drive.verify.map_or(scenario.warmup, |_| 0);
    let requests = scenario.requests(skip + scenario.auctions.max(warmup));
    let (replayed, stream) = requests.split_at(skip);

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
    let mut populated = (0, 0.0);
    let mut backend = match (scenario.transport, scenario.population) {
        (Some(_), Population::Programmed(strategy)) => {
            return Err(ScenarioError::ProgramsOverWire(strategy));
        }
        (Some(_), _) if scenario.durability.is_some() => {
            return Err(ScenarioError::JournalOverWire);
        }
        (Some(server), _) => {
            let net = ScenarioError::net(server);
            let mut clients = (0..connections)
                .map(|_| Client::connect(server))
                .collect::<Result<Vec<_>, _>>()
                .map_err(&net)?;
            if skip == 0 {
                let started = Instant::now();
                let configure = MutationRecord::Configure(config.clone());
                let applied = clients[0]
                    .apply_all(std::iter::once(configure).chain(workload.records(targeted)))
                    .map_err(&net)?;
                populated = (applied - 1, ms(started.elapsed()));
            }
            let mut twin = None;
            if drive.verify.is_some() {
                let twin = twin.insert(build_market(&config)?);
                workload.populate(twin, targeted)?;
                twin.serve_batch(replayed)?;
            }
            Backend::Wire(Wire {
                server,
                clients,
                each: drive.connections.is_some() || drive.verify.is_some(),
                twin,
                timed: Timed::default(),
            })
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
                if recovered.is_some() {
                    return Err(ScenarioError::OccupiedDataDir(dir.clone()));
                }
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

    backend.batch(&stream[..warmup])?;
    let start = Instant::now();
    let mut report = BatchReport::default();
    let mut served = 0;
    let mut events = plan.events.into_iter().peekable();
    while served < scenario.auctions {
        let until = events.peek().map_or(scenario.auctions, |e| {
            e.after_query.clamp(served, scenario.auctions)
        });
        if until > served {
            report.absorb(&backend.serve(&stream[served..until], skip + served)?);
            served = until;
        }
        while let Some(event) = events.next_if(|e| e.after_query <= served) {
            backend.apply(event.op)?;
        }
    }
    let elapsed = start.elapsed();

    let (mut recovery, mut footprint, mut load) = (None, None, None);
    match backend {
        Backend::Local(market) => {
            if let Some(store) = journal {
                let dir = store.dir();
                drop(store);
                let (recovered, replay) =
                    ssa_durable::recover(&dir)?.ok_or(ScenarioError::RecoveryDiverged)?;
                if recovered.capture_state()? != market.capture_state()? {
                    return Err(ScenarioError::RecoveryDiverged);
                }
                recovery = Some(replay);
            }
            footprint = Some(market.footprint());
        }
        Backend::Wire(mut wire) => {
            let net = ScenarioError::net(wire.server);
            let client = &mut wire.clients[0];
            if let Some(twin) = &wire.twin {
                // The stored control-plane state must match too, not just
                // the served outcomes: every keyword's whole book of bids.
                let all = usize::MAX;
                for keyword in 0..section.num_keywords {
                    if client.top_bids(keyword, all).map_err(&net)?
                        != twin.top_bids(keyword, all)?
                    {
                        let query = None;
                        return Err(ScenarioError::WireDiverged { query, keyword });
                    }
                }
            }
            if drive.shutdown {
                client.shutdown_server().map_err(&net)?;
            }
            load = wire.each.then(|| WireLoad {
                connections,
                latency: LatencySummary::of(wire.timed.latencies_us),
                overloaded: wire.timed.overloaded,
                populate_ops: populated.0,
                populate_ms: populated.1,
                verified: wire.twin.is_some(),
            });
        }
    }
    let planner = planner_totals(&handles);
    Ok(MethodRun {
        slots: section.num_slots,
        cores: thread::available_parallelism().map_or(1, |p| p.get()),
        skew: scenario.stream.shape().map(|_| {
            let keywords: Vec<usize> = stream[..scenario.auctions]
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
        load,
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
    fn summary_uses_nearest_rank() {
        // Recorded out of order: the summary sorts.
        let samples = vec![9000, 2000, 7000, 4000, 5000, 6000, 3000, 8000, 1000, 10_000];
        let summary = LatencySummary::of(samples);
        assert_eq!(summary.p50_ms, 5.0);
        assert_eq!(summary.p99_ms, 10.0);
        assert_eq!(summary.max_ms, 10.0);
        assert_eq!(summary.mean_ms, 5.5);
        assert_eq!(LatencySummary::of(Vec::new()), LatencySummary::default());
    }

    #[test]
    fn a_load_row_appends_its_keys_after_the_run_keys() {
        let mut run = run(&Scenario::quick().load(4)).expect("in-process run");
        let plain = run.to_json();
        run.load = Some(WireLoad {
            connections: 2,
            latency: LatencySummary::of(vec![1500]),
            overloaded: 0,
            populate_ops: 2200,
            populate_ms: 55.5,
            verified: true,
        });
        let json = run.to_json();
        let appended = concat!(
            ",\"connections\":2,\"p50_ms\":1.500,\"p99_ms\":1.500,",
            "\"max_ms\":1.500,\"mean_ms\":1.500,\"overloaded\":0,",
            "\"populate_ops\":2200,\"populate_ms\":55.500,\"verified\":true}"
        );
        assert_eq!(json, format!("{}{appended}", &plain[..plain.len() - 1]));
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
