//! `ssa-server` — serve a [`ssa_core::Marketplace`] over TCP.
//!
//! Binds the requested address, prints `ssa-server listening on <addr>`
//! as its first stdout line (scripts parse it to discover `:0`-assigned
//! ports), and serves until a client sends `Shutdown`, draining in-flight
//! requests before exiting.
//!
//! The server starts from [`MarketConfig::default`]'s market: one slot,
//! one keyword, one shard. The client's first `Configure` request sets the
//! market's shape — slots, keywords, shards, seed, method, pricing —
//! as `reproduce --server` and the equivalence tests do; the server takes
//! no flag for any of it. A connection opened before that `Configure`
//! sizes its owed-reply window from the one-shard default.
//!
//! With `--data-dir` the server journals every mutation and serve to a
//! write-ahead log in that directory and, on restart, recovers the
//! persisted marketplace — bit-identical, RNG streams included — from it;
//! a fresh directory logs the default configuration as its first
//! `Configure`. A `recovered ...` status line goes to
//! stderr (stdout's first line stays the address-discovery contract), and
//! so does a `durability wal_records=… wal_syncs=…` line once the server
//! has drained: requests in flight together share an `fdatasync`, so under
//! `--fsync always` the second number is the smaller one.

use std::io::Write as _;
use std::process::exit;

use ssa_durable::{Durability, FsyncPolicy};
use ssa_net::proto::MarketConfig;
use ssa_net::server::{build_market, Server, ServerConfig};

const USAGE: &str = "\
Usage: ssa-server [options]

Options:
  --addr <host:port>   Address to bind (default 127.0.0.1:0; port 0 picks a free port)
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

The market starts with one slot, one keyword and one shard; a client's
Configure request sets its shape.
";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:0".to_string();
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

    let config = MarketConfig::default();
    let mut recovered = None;
    let durability = data_dir.map(|dir| {
        let (persisted, durability) = match Durability::open(&dir, fsync, snapshot_every) {
            Ok(opened) => opened,
            Err(e) => {
                eprintln!("error: cannot open data dir {}: {e}", dir.display());
                exit(1);
            }
        };
        match persisted {
            Some((market, report)) => {
                // Parsed by the crash-recovery CI job; keep the key=value
                // fields stable.
                eprintln!(
                    "ssa-server recovered wal_records={} snapshot_bytes={} replay_ms={:.3}",
                    report.wal_records, report.snapshot_bytes, report.replay_ms
                );
                recovered = Some(market);
            }
            None => {
                if let Err(e) = durability.log_configure(&config) {
                    eprintln!("error: cannot write to data dir {}: {e}", dir.display());
                    exit(1);
                }
            }
        }
        durability
    });
    let market = match recovered.map_or_else(|| build_market(&config), Ok) {
        Ok(market) => market,
        Err(e) => {
            eprintln!("error: cannot build the default marketplace: {e}");
            exit(1);
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
