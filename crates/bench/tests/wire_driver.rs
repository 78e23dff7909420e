//! The one wire driver: `reproduce --server` verifies a live server query
//! by query against an in-process twin, loads it from concurrent
//! connections, and refuses with a typed error each combination that has
//! no defined order. Every server here is an `ssa_net::Server` in this
//! process.

use ssa_bench::{run, Drive, Scenario, ScenarioError, Stream};
use ssa_core::Marketplace;
use ssa_durable::{Durability, FsyncPolicy};
use ssa_net::{Client, Server, ServerConfig, ServerHandle};
use ssa_workload::WorkloadShape;
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce binary runs")
}

/// Runs `reproduce` against `server` with `args` and returns its JSON row.
fn row(server: &ServerHandle, args: &[&str]) -> String {
    let addr = server.addr().to_string();
    let mut all = vec!["--method", "rh", "--json", "--server", &addr];
    all.extend_from_slice(args);
    let out = reproduce(&all);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "args {all:?}: stderr {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 row")
}

/// The number `key` holds in a flat JSON row.
fn number(json: &str, key: &str) -> f64 {
    let at = json
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let value = &json[at + key.len() + 3..];
    let end = value.find([',', '}']).expect("closed object");
    value[..end].parse().expect("a number")
}

fn bootstrap() -> Marketplace {
    Marketplace::builder()
        .slots(1)
        .keywords(1)
        .default_click_probs(vec![0.1])
        .build_sharded(1)
        .expect("bootstrap marketplace")
}

fn spawn(market: Marketplace, durability: Option<Durability>) -> ServerHandle {
    let config = ServerConfig {
        durability,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", market, config)
        .expect("bind")
        .spawn()
}

fn shut_down(server: ServerHandle) {
    let mut client = Client::connect(server.addr()).expect("connect");
    client.shutdown_server().expect("graceful shutdown");
    server.join();
}

#[test]
fn a_verified_run_says_so_and_a_closed_loop_reports_its_latencies() {
    let server = spawn(bootstrap(), None);
    let sizes = ["--advertisers", "30", "--load", "60", "--shards", "2"];

    let verified = row(&server, &[&sizes[..], &["--verify"]].concat());
    assert!(verified.contains("\"verified\":true"), "{verified}");
    assert!(verified.contains("\"connections\":1"), "{verified}");
    assert_eq!(number(&verified, "auctions"), 60.0);
    assert!(number(&verified, "populate_ops") > 0.0, "{verified}");

    // A churn plan has a defined order over one connection: the twin
    // applies each event where the server does.
    let churned = row(
        &server,
        &[&sizes[..], &["--verify", "--workload", "churn"]].concat(),
    );
    assert!(churned.contains("\"verified\":true"), "{churned}");

    let loaded = row(&server, &[&sizes[..], &["--connections", "3"]].concat());
    assert!(loaded.contains("\"verified\":false"), "{loaded}");
    assert_eq!(number(&loaded, "connections"), 3.0);
    assert_eq!(number(&loaded, "overloaded"), 0.0);
    assert!(number(&loaded, "populate_ops") > 0.0, "{loaded}");
    let (p50, p99, max) = (
        number(&loaded, "p50_ms"),
        number(&loaded, "p99_ms"),
        number(&loaded, "max_ms"),
    );
    assert!(p50 <= p99 && p99 <= max, "{loaded}");

    // The default --server row stays the batched one, without those keys.
    let batched = row(&server, &sizes);
    assert!(!batched.contains("\"connections\""), "{batched}");
    shut_down(server);
}

/// A journalled server serves a verified run, stops, and is rebuilt from
/// its data directory alone: the tail verifies against a twin that served
/// the whole stream, and one query too many diverges at the first
/// compared query, so the comparison is real.
#[test]
fn a_recovered_server_verifies_the_tail_and_a_wrong_skip_diverges() {
    let dir = std::env::temp_dir().join(format!("ssa-wire-driver-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (recovered, durability) = Durability::open(&dir, FsyncPolicy::Off, 0).expect("open");
    assert!(recovered.is_none());
    let market = bootstrap();
    let config = market.capture_state().expect("journalable").config;
    durability.log_configure(&config).expect("configure logged");
    let server = spawn(market, Some(durability));
    let sizes = ["--advertisers", "30", "--load", "200", "--shards", "2"];
    row(&server, &[&sizes[..], &["--verify", "--shutdown"]].concat());
    server.join();

    let (market, replay) = ssa_durable::recover(&dir)
        .expect("recover")
        .expect("state persisted");
    assert!(replay.wal_records > 200, "{replay:?}");
    let server = spawn(market, None);
    let tail = row(
        &server,
        &[&sizes[..], &["--verify", "--skip", "200"]].concat(),
    );
    assert!(tail.contains("\"verified\":true"), "{tail}");
    assert_eq!(number(&tail, "populate_ops"), 0.0);

    let addr = server.addr().to_string();
    let out = reproduce(
        &[
            &["--method", "rh", "--server", &addr][..],
            &sizes,
            &["--verify", "--skip", "201"],
        ]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("query 201 of the stream"),
        "stderr {stderr:?} does not name the first diverging query"
    );
    shut_down(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn combinations_without_a_defined_order_are_typed_errors() {
    // Refused before any connection is made: nobody listens here.
    let unreachable: std::net::SocketAddr = "127.0.0.1:9".parse().expect("addr");
    let wire = |drive: Drive| Scenario {
        transport: Some(unreachable),
        drive,
        ..Scenario::quick()
    };
    match run(&wire(Drive {
        connections: Some(2),
        verify: Some(0),
        shutdown: false,
    })) {
        Err(ScenarioError::Unordered {
            what: "verification",
            connections: 2,
        }) => {}
        other => panic!("expected Unordered verification, got {other:?}"),
    }
    let churn = Scenario {
        stream: Stream::Shaped(WorkloadShape::Churn),
        ..wire(Drive {
            connections: Some(3),
            ..Drive::default()
        })
    };
    match run(&churn) {
        Err(ScenarioError::Unordered {
            what: "a churn plan",
            connections: 3,
        }) => {}
        other => panic!("expected Unordered churn, got {other:?}"),
    }
    for drive in [
        Drive {
            verify: Some(0),
            ..Drive::default()
        },
        Drive {
            connections: Some(1),
            ..Drive::default()
        },
        Drive {
            shutdown: true,
            ..Drive::default()
        },
    ] {
        let in_process = Scenario {
            drive,
            ..Scenario::quick()
        };
        match run(&in_process) {
            Err(ScenarioError::DriveInProcess) => {}
            other => panic!("expected DriveInProcess for {drive:?}, got {other:?}"),
        }
    }

    // At the CLI a refused scenario is a usage error's exit code, and a
    // flag that needs another is a usage error.
    for (args, needle) in [
        (
            &["--method", "rh", "--verify", "--quick"][..],
            "drive a server",
        ),
        (
            &[
                "--method",
                "rh",
                "--server",
                "127.0.0.1:9",
                "--verify",
                "--connections",
                "2",
            ][..],
            "verification has no defined order over 2 concurrent connections",
        ),
        (
            &["--method", "rh", "--server", "127.0.0.1:9", "--skip", "3"][..],
            "--skip requires --verify",
        ),
        (&["--verify"][..], "require --method"),
        (
            &["--method", "rh", "--connections", "0"][..],
            "connection count must be positive",
        ),
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "args {args:?}: stderr {stderr:?}");
    }
}
