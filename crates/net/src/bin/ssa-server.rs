//! `ssa-server` — serve a [`ssa_core::Marketplace`] over TCP.
//!
//! Binds the requested address, prints `ssa-server listening on <addr>`
//! as its first stdout line (scripts parse it to discover `:0`-assigned
//! ports), and serves until a client sends `Shutdown`, draining in-flight
//! requests before exiting.
//!
//! The initial marketplace comes from the CLI flags; clients usually
//! replace it anyway with a `Configure` request (the load driver and the
//! equivalence tests do), so the flags only matter for servers driven by
//! hand.
//!
//! With `--data-dir` the server journals every mutation and serve to a
//! write-ahead log in that directory and, on restart, recovers the
//! persisted marketplace — bit-identical, RNG streams included — instead
//! of building one from the flags. A `recovered ...` status line goes to
//! stderr (stdout's first line stays the address-discovery contract), and
//! so does a `durability wal_records=… wal_syncs=…` line once the server
//! has drained: requests in flight together share an `fdatasync`, so under
//! `--fsync always` the second number is the smaller one.

use std::io::Write as _;
use std::process::exit;

use ssa_core::{parse_shards, PricingScheme, WdMethod};
use ssa_durable::{Durability, FsyncPolicy};
use ssa_net::proto::MarketConfig;
use ssa_net::server::{build_market, Server, ServerConfig};

const USAGE: &str = "\
Usage: ssa-server [options]

Options:
  --addr <host:port>   Address to bind (default 127.0.0.1:0; port 0 picks a free port)
  --shards <n>         Shard count of the initial marketplace (default 1)
  --slots <n>          Slots per results page (default 15)
  --keywords <n>       Keyword universe size (default 10)
  --seed <n>           Marketplace RNG seed (default 42)
  --method <m>         Winner determination: lp | h | rh (default rh)
  --pricing <p>        Pricing: pay-your-bid | gsp | vcg (default gsp)
  --pruned             Enable top-k pruned winner determination
  --admission <n>      Data-plane requests queued-or-in-flight per shard lane (default 256)
  --retry-ms <n>       Back-off hint attached to Overloaded responses (default 10)
  --data-dir <path>    Durability: journal to a write-ahead log in <path> and
                       recover any marketplace persisted there (default: off)
  --fsync <policy>     WAL sync policy: always | off (default off; 'off' still
                       survives process kills, 'always' survives power loss:
                       a reply waits for an fdatasync covering its record,
                       shared by the requests in flight with it)
  --snapshot-every <n> Snapshot + compact the log every <n> records (default
                       10000; 0 disables automatic snapshots)
";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:0".to_string();
    let mut shards = 1usize;
    let mut slots = 15usize;
    let mut keywords = 10usize;
    let mut seed = 42u64;
    let mut method = WdMethod::Reduced;
    let mut pricing = PricingScheme::Gsp;
    let mut pruned = false;
    let mut admission = 256usize;
    let mut retry_ms = 10u32;
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut fsync = FsyncPolicy::Off;
    let mut snapshot_every = 10_000u64;

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
            "--addr" => addr = value("--addr"),
            "--shards" => match parse_shards(&value("--shards")) {
                Ok(n) => shards = n,
                Err(e) => usage_error(&e.to_string()),
            },
            "--slots" => match value("--slots").parse() {
                Ok(n) => slots = n,
                Err(_) => usage_error("--slots expects an unsigned integer"),
            },
            "--keywords" => match value("--keywords").parse() {
                Ok(n) => keywords = n,
                Err(_) => usage_error("--keywords expects an unsigned integer"),
            },
            "--seed" => match value("--seed").parse() {
                Ok(n) => seed = n,
                Err(_) => usage_error("--seed expects an unsigned integer"),
            },
            "--method" => match value("--method").parse() {
                Ok(m) => method = m,
                Err(e) => usage_error(&format!("{e}")),
            },
            "--pricing" => match value("--pricing").parse() {
                Ok(p) => pricing = p,
                Err(e) => usage_error(&format!("{e}")),
            },
            "--pruned" => pruned = true,
            "--admission" => match value("--admission").parse() {
                Ok(n) if n > 0 => admission = n,
                _ => usage_error("--admission expects a positive integer"),
            },
            "--retry-ms" => match value("--retry-ms").parse() {
                Ok(n) => retry_ms = n,
                Err(_) => usage_error("--retry-ms expects an unsigned integer"),
            },
            "--data-dir" => data_dir = Some(value("--data-dir").into()),
            "--fsync" => match value("--fsync").parse() {
                Ok(policy) => fsync = policy,
                Err(e) => usage_error(&format!("{e}")),
            },
            "--snapshot-every" => match value("--snapshot-every").parse() {
                Ok(n) => snapshot_every = n,
                Err(_) => usage_error("--snapshot-every expects an unsigned integer"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }

    let config = MarketConfig {
        slots,
        keywords,
        seed,
        method,
        pricing,
        shards,
        pruned,
        warm_start: true,
        default_click_probs: None,
        default_purchase_probs: None,
    };

    let (market, durability) = match &data_dir {
        None => {
            let market = match build_market(&config) {
                Ok(market) => market,
                Err(e) => usage_error(&format!("invalid marketplace configuration: {e}")),
            };
            (market, None)
        }
        Some(dir) => {
            let (recovered, durability) = match Durability::open(dir, fsync, snapshot_every) {
                Ok(opened) => opened,
                Err(e) => {
                    eprintln!("error: cannot open data dir {}: {e}", dir.display());
                    exit(1);
                }
            };
            let market = match recovered {
                Some((market, report)) => {
                    // Parsed by the crash-recovery CI job; keep the
                    // key=value fields stable.
                    eprintln!(
                        "ssa-server recovered wal_records={} snapshot_bytes={} replay_ms={:.3}",
                        report.wal_records, report.snapshot_bytes, report.replay_ms
                    );
                    market
                }
                None => {
                    let market = match build_market(&config) {
                        Ok(market) => market,
                        Err(e) => usage_error(&format!("invalid marketplace configuration: {e}")),
                    };
                    if let Err(e) = durability.log_configure(&config) {
                        eprintln!("error: cannot write to data dir {}: {e}", dir.display());
                        exit(1);
                    }
                    market
                }
            };
            (market, Some(durability))
        }
    };

    let server = match Server::bind(
        &addr,
        market,
        ServerConfig {
            admission_per_shard: admission,
            retry_after_ms: retry_ms,
            executor_delay: None,
            durability: durability.clone(),
        },
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            exit(1);
        }
    };

    // First line of stdout is the discovery contract for scripts (the CI
    // net-smoke job parses the port out of it).
    println!("ssa-server listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.run();
    if let Some(durability) = durability {
        // Parsed by the perf-smoke CI job; keep the key=value fields stable.
        eprintln!(
            "ssa-server durability wal_records={} wal_syncs={}",
            durability.wal_records(),
            durability.syncs()
        );
    }
    println!("ssa-server drained and stopped");
}
