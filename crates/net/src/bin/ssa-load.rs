//! `ssa-load` — drive a remote `ssa-server` with the Section V workload
//! and report QPS + latency percentiles.
//!
//! Two modes:
//!
//! * **verify** (`--verify`): one connection replays the seeded query
//!   stream strictly in order and compares every wire-served auction —
//!   winners, clicks, charges, bit-for-bit — against an in-process
//!   [`ssa_net::local_twin`] serving the same stream, finishing with a
//!   bit-for-bit `top_bids` comparison on every keyword. Exit code 1 on
//!   any divergence. With `--skip <n>` the remote is assumed to already
//!   hold the marketplace (e.g. recovered from a write-ahead log after a
//!   crash): configuration and population are skipped, the twin serves
//!   the first `n` queries silently to catch up, and the wire comparison
//!   covers the next `--queries` — which is exactly how the
//!   crash-recovery CI job proves a restarted server is bit-identical.
//! * **throughput** (default): `--connections` worker connections split
//!   the stream and hammer the data plane concurrently, recording
//!   per-request latency; `Overloaded` refusals are counted separately
//!   and never poison the latency distribution.
//!
//! The population, stream, and sizes are a [`Scenario`]'s — the same
//! value (and the same quick/full presets) `reproduce` runs in process —
//! so a `net_load` row and a `reproduce` row of one scenario differ only
//! in the layers between them.
//!
//! Either way the run ends with one `"metric":"net_load"` JSON line
//! (preset, QPS, p50/p99/max latency, cores, overload count, the
//! population's request count and time, verification verdict) on stdout
//! with `--json` and/or appended to `--report <path>`.

use std::io::Write as _;
use std::process::exit;
use std::time::{Duration, Instant};

use ssa_core::parse_shards;
use ssa_net::client::{Client, NetError};
use ssa_net::load::{
    available_cores, local_twin, market_config_for, populate_remote, LatencyRecorder, LoadReport,
};
use ssa_net::MarketConfig;
use ssa_workload::{Scenario, SectionVWorkload, Stream, WorkloadShape};

const USAGE: &str = "\
Usage: ssa-load --addr <host:port> [options]

Options:
  --addr <host:port>   Server to drive (required)
  --quick              Start from the quick preset (250 advertisers, 50
                       queries, 6 warm-up) instead of the full one (1000,
                       200, 21) — the presets reproduce --quick uses
  --advertisers <n>    Section V advertiser count (default: the preset's)
  --queries <n>        Measured queries (default: the preset's)
  --warmup <n>         Unmeasured warm-up queries (default: the preset's)
  --connections <n>    Concurrent connections in throughput mode (default 4)
  --seed <n>           Workload seed (default: the preset's, 4242)
  --method <m>         Winner determination: lp | h | rh (default rh)
  --pricing <p>        Pricing: pay-your-bid | gsp | vcg (default gsp)
  --shards <n>         Shard count the server should run (default 4)
  --workload <w>       Query stream shape: uniform | zipf:<s> | flash | churn
                       (default: keywords in rotation).
                       zipf:<s> skews queries by keyword rank, flash pins the
                       middle half of the stream to one hot keyword — one
                       shard — and churn draws uniformly (the adversarial
                       generator behind reproduce --workload)
  --pruned             Enable top-k pruned winner determination
  --verify             Replay in order and compare against an in-process twin
  --skip <n>           Verify mode: assume the server already holds the market
                       (skip configure/populate) and fast-forward the twin past
                       the first <n> queries before comparing (default 0)
  --json               Print the JSON report line to stdout
  --report <path>      Append the JSON report line to a file
  --shutdown           Ask the server to shut down gracefully after the run
";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    exit(2);
}

fn fatal(message: &str) -> ! {
    eprintln!("error: {message}");
    exit(1);
}

struct Options {
    /// What to serve (`auctions` are the measured queries). The transport
    /// and shard dimensions are `addr` and `shards` below: always set here.
    scenario: Scenario,
    /// Name of the preset `scenario` started from.
    preset: &'static str,
    addr: std::net::SocketAddr,
    shards: usize,
    connections: usize,
    verify: bool,
    skip: usize,
    json: bool,
    report: Option<String>,
    shutdown: bool,
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (preset, mut scenario) = if args.iter().any(|a| a == "--quick") {
        ("quick", Scenario::quick())
    } else {
        ("full", Scenario::full())
    };
    let mut addr = None;
    let mut shards = 4usize;
    let mut connections = 4usize;
    let mut verify = false;
    let mut skip = 0usize;
    let mut json = false;
    let mut report = None;
    let mut shutdown = false;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |what: &str| -> String {
            i += 1;
            match args.get(i) {
                Some(v) => v.clone(),
                None => usage_error(&format!("{what} expects a value")),
            }
        };
        match flag {
            "--addr" => {
                let raw = value("--addr");
                match ssa_net::parse_addr(&raw) {
                    Ok(a) => addr = Some(a),
                    Err(e) => usage_error(&e.to_string()),
                }
            }
            "--advertisers" => match value("--advertisers").parse() {
                Ok(n) if n > 0 => scenario.advertisers = n,
                _ => usage_error("--advertisers expects a positive integer"),
            },
            "--queries" => match value("--queries").parse() {
                Ok(n) if n > 0 => scenario.auctions = n,
                _ => usage_error("--queries expects a positive integer"),
            },
            "--warmup" => match value("--warmup").parse() {
                Ok(n) => scenario.warmup = n,
                Err(_) => usage_error("--warmup expects an unsigned integer"),
            },
            "--connections" => match value("--connections").parse() {
                Ok(n) if n > 0 => connections = n,
                _ => usage_error("--connections expects a positive integer"),
            },
            "--seed" => match value("--seed").parse() {
                Ok(n) => scenario.seed = n,
                Err(_) => usage_error("--seed expects an unsigned integer"),
            },
            "--method" => match value("--method").parse() {
                Ok(m) => scenario.method = m,
                Err(e) => usage_error(&format!("{e}")),
            },
            "--pricing" => match value("--pricing").parse() {
                Ok(p) => scenario.pricing = p,
                Err(e) => usage_error(&format!("{e}")),
            },
            "--shards" => match parse_shards(&value("--shards")) {
                Ok(n) => shards = n,
                Err(e) => usage_error(&e.to_string()),
            },
            "--workload" => match value("--workload").parse::<WorkloadShape>() {
                Ok(w) => scenario.stream = Stream::Shaped(w),
                Err(e) => usage_error(&e.to_string()),
            },
            "--pruned" => scenario.pruned = true,
            "--verify" => verify = true,
            "--skip" => match value("--skip").parse() {
                Ok(n) => skip = n,
                Err(_) => usage_error("--skip expects an unsigned integer"),
            },
            "--quick" => {}
            "--json" => json = true,
            "--report" => report = Some(value("--report")),
            "--shutdown" => shutdown = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                exit(0);
            }
            other => usage_error(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }

    let Some(addr) = addr else {
        usage_error("--addr is required");
    };
    Options {
        scenario,
        preset,
        addr,
        shards,
        connections,
        verify,
        skip,
        json,
        report,
        shutdown,
    }
}

impl Options {
    /// The first `len` keywords of the scenario's stream (both sides of a
    /// `--verify` run derive it from the same scenario, so twin and wire
    /// replay stay in lockstep).
    fn stream(&self, workload: &SectionVWorkload, len: usize) -> Vec<usize> {
        let scenario = &self.scenario;
        scenario
            .stream
            .keywords(workload.config.num_keywords, len, scenario.seed)
    }

    fn market_config(&self, workload: &SectionVWorkload) -> MarketConfig {
        let scenario = &self.scenario;
        market_config_for(
            &workload.config,
            scenario.method,
            scenario.pricing,
            self.shards,
            scenario.pruned,
        )
    }

    /// The run's report row: the scenario's coordinates plus what was
    /// measured.
    #[allow(clippy::too_many_arguments)] // one per measured quantity
    fn report(
        &self,
        workload: &SectionVWorkload,
        connections: usize,
        queries: u64,
        warmup: usize,
        elapsed: Duration,
        latencies: LatencyRecorder,
        overloaded: u64,
        (populate_ops, populate_ms): (u64, f64),
        verified: Option<bool>,
    ) -> LoadReport {
        LoadReport {
            preset: self.preset,
            advertisers: self.scenario.advertisers,
            keywords: workload.config.num_keywords,
            slots: workload.config.num_slots,
            method: self.scenario.method,
            shards: self.shards,
            seed: self.scenario.seed,
            connections,
            queries,
            warmup: warmup as u64,
            elapsed,
            latency: latencies.summary(),
            overloaded,
            populate_ops,
            populate_ms,
            cores: available_cores(),
            verified,
            workload: self.scenario.stream.shape(),
        }
    }
}

/// Registers the population over `client`, timed: the requests it made and
/// the milliseconds they took.
fn populate(client: &mut Client, workload: &SectionVWorkload) -> (u64, f64) {
    let started = Instant::now();
    match populate_remote(client, workload, false) {
        Ok(requests) => (requests, started.elapsed().as_secs_f64() * 1e3),
        Err(e) => fatal(&format!("population failed: {e}")),
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => fatal(&format!("cannot connect to {addr}: {e}")),
    }
}

/// Verify mode: ordered replay against the in-process twin.
fn run_verify(opts: &Options, workload: &SectionVWorkload) -> LoadReport {
    let config = opts.market_config(workload);
    let mut client = connect(opts.addr);
    let mut populated = (0, 0.0);
    if opts.skip == 0 {
        if let Err(e) = client.configure(&config) {
            fatal(&format!("configure failed: {e}"));
        }
        populated = populate(&mut client, workload);
    }
    let mut twin = local_twin(workload, &config);

    let full = opts.stream(workload, opts.skip + opts.scenario.auctions);
    // Fast-forward the twin past the queries the server already served
    // (before it crashed / was restarted); the wire never sees them.
    for &keyword in &full[..opts.skip] {
        twin.serve(ssa_core::QueryRequest::new(keyword))
            .expect("twin keyword in range");
    }
    let stream = &full[opts.skip..];
    let mut latencies = LatencyRecorder::new();
    let mut verified = true;
    let started = Instant::now();
    for (t, &keyword) in stream.iter().enumerate() {
        let sent = Instant::now();
        let remote = match client.serve(keyword) {
            Ok(auction) => auction,
            Err(e) => fatal(&format!("serve failed at query {t}: {e}")),
        };
        latencies.record(sent.elapsed());
        let local = twin
            .serve(ssa_core::QueryRequest::new(keyword))
            .expect("twin keyword in range");
        if remote != local || remote.expected_revenue.to_bits() != local.expected_revenue.to_bits()
        {
            eprintln!(
                "MISMATCH at query {t} (keyword {keyword}):\n  remote: {remote:?}\n  local:  {local:?}"
            );
            verified = false;
        }
    }
    let elapsed = started.elapsed();

    // The stored control-plane state must match too, not just the served
    // outcomes: compare the full top-bid order of every keyword.
    for keyword in 0..workload.config.num_keywords {
        let remote = match client.top_bids(keyword, 64) {
            Ok(bids) => bids,
            Err(e) => fatal(&format!("top_bids failed for keyword {keyword}: {e}")),
        };
        let local = twin.top_bids(keyword, 64).expect("twin keyword in range");
        if remote != local {
            eprintln!(
                "TOP-BIDS MISMATCH at keyword {keyword}:\n  remote: {remote:?}\n  local:  {local:?}"
            );
            verified = false;
        }
    }
    if verified {
        eprintln!(
            "verified: {} wire-served auctions and {} top-bid lists bit-identical to in-process serve",
            stream.len(),
            workload.config.num_keywords
        );
    }

    opts.report(
        workload,
        1,
        stream.len() as u64,
        0,
        elapsed,
        latencies,
        0,
        populated,
        Some(verified),
    )
}

/// Throughput mode: concurrent connections splitting the stream.
fn run_throughput(opts: &Options, workload: &SectionVWorkload) -> LoadReport {
    let mut control = connect(opts.addr);
    if let Err(e) = control.configure(&opts.market_config(workload)) {
        fatal(&format!("configure failed: {e}"));
    }
    let populated = populate(&mut control, workload);

    // Warm-up: unmeasured, single connection, so engines and solver
    // scratch exist before the clock starts.
    for &keyword in &opts.stream(workload, opts.scenario.warmup) {
        match control.serve(keyword) {
            Ok(_) | Err(NetError::Overloaded { .. }) => {}
            Err(e) => fatal(&format!("warm-up serve failed: {e}")),
        }
    }

    let stream = opts.stream(workload, opts.scenario.auctions);
    let shares: Vec<Vec<usize>> = (0..opts.connections)
        .map(|w| {
            stream
                .iter()
                .skip(w)
                .step_by(opts.connections)
                .copied()
                .collect()
        })
        .collect();

    let started = Instant::now();
    let worker_results: Vec<(LatencyRecorder, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| {
                let addr = opts.addr;
                scope.spawn(move || {
                    let mut client = connect(addr);
                    let mut latencies = LatencyRecorder::new();
                    let mut served = 0u64;
                    let mut overloaded = 0u64;
                    for &keyword in share {
                        let sent = Instant::now();
                        match client.serve(keyword) {
                            Ok(_) => {
                                latencies.record(sent.elapsed());
                                served += 1;
                            }
                            Err(NetError::Overloaded { retry_after_ms }) => {
                                overloaded += 1;
                                std::thread::sleep(Duration::from_millis(retry_after_ms as u64));
                            }
                            Err(e) => fatal(&format!("serve failed: {e}")),
                        }
                    }
                    (latencies, served, overloaded)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut latencies = LatencyRecorder::new();
    let mut served = 0u64;
    let mut overloaded = 0u64;
    for (worker_latencies, worker_served, worker_overloaded) in &worker_results {
        latencies.merge(worker_latencies);
        served += worker_served;
        overloaded += worker_overloaded;
    }

    opts.report(
        workload,
        opts.connections,
        served,
        opts.scenario.warmup,
        elapsed,
        latencies,
        overloaded,
        populated,
        None,
    )
}

fn main() {
    let opts = parse_options();
    let workload = SectionVWorkload::generate(opts.scenario.section_v());

    let report = if opts.verify {
        run_verify(&opts, &workload)
    } else {
        run_throughput(&opts, &workload)
    };

    eprintln!(
        "{} queries over {} connection(s) in {:.1} ms: {:.0} qps, p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms, {} overloaded",
        report.queries,
        report.connections,
        report.elapsed.as_secs_f64() * 1e3,
        report.qps(),
        report.latency.p50_ms,
        report.latency.p99_ms,
        report.latency.max_ms,
        report.overloaded,
    );

    let json = report.to_json();
    if opts.json {
        println!("{json}");
        let _ = std::io::stdout().flush();
    }
    if let Some(path) = &opts.report {
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{json}"));
        if let Err(e) = result {
            fatal(&format!("cannot append report to {path}: {e}"));
        }
    }
    if opts.shutdown {
        let mut client = connect(opts.addr);
        if let Err(e) = client.shutdown_server() {
            fatal(&format!("shutdown request failed: {e}"));
        }
    }
    if report.verified == Some(false) {
        exit(1);
    }
}
