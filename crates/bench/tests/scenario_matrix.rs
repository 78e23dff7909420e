//! The scenario matrix: every dimension of a [`Scenario`] is an execution
//! strategy, so for a fixed population, stream, size, and seed the outcome
//! fields of [`MethodRun::report`] are bit-identical to the in-process
//! one-shard run — at four shards, under a journal (recovered and checked
//! by the runner), and over the wire to a live server. The matrix covers
//! the combinations separate entry points used to forbid (a hostile stream
//! under a journal, a targeted population over the wire).

use ssa_bench::{run, MethodRun, Population, Scenario, ScenarioError, Stream};
use ssa_core::marketplace::{MarketError, QueryRequest};
use ssa_core::{EngineConfig, Marketplace, WdMethod};
use ssa_net::{Client, Server, ServerConfig, ServerHandle};
use ssa_workload::{
    programmed_sharded_market, SectionVConfig, SectionVWorkload, Strategy, WorkloadShape,
};
use std::path::PathBuf;

fn small() -> Scenario {
    Scenario {
        advertisers: 30,
        seed: 17,
        ..Scenario::quick()
    }
    .load(40)
}

/// A throw-away journal directory unique to this process and `tag`.
fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssa-scenario-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server() -> ServerHandle {
    let bootstrap = Marketplace::builder()
        .slots(1)
        .keywords(1)
        .default_click_probs(vec![0.1])
        .build_sharded(1)
        .expect("bootstrap marketplace");
    Server::bind("127.0.0.1:0", bootstrap, ServerConfig::default())
        .expect("bind")
        .spawn()
}

fn shut_down(server: ServerHandle) {
    let mut client = Client::connect(server.addr()).expect("connect");
    client.shutdown_server().expect("graceful shutdown");
    server.join();
}

fn assert_same_outcomes(got: &MethodRun, want: &MethodRun, what: &str) {
    assert_eq!(
        got.report.expected_revenue.to_bits(),
        want.report.expected_revenue.to_bits(),
        "{what}: expected_revenue bits diverged"
    );
    // BatchReport's PartialEq covers the outcome fields (auctions, revenue,
    // clicks, purchases, filled slots) and ignores phase timings.
    assert_eq!(got.report, want.report, "{what}");
}

#[test]
fn every_dimension_leaves_the_outcomes_bit_identical() {
    let server = spawn_server();
    let streams = [
        Stream::RoundRobin,
        Stream::Shaped(WorkloadShape::Zipf { s: 1.1 }),
        Stream::Shaped(WorkloadShape::Churn),
    ];
    let mut references = Vec::new();
    for population in [Population::PerClick, Population::Targeted] {
        for stream in streams {
            let base = Scenario {
                population,
                stream,
                ..small()
            };
            let reference = run(&Scenario {
                shards: Some(1),
                ..base.clone()
            })
            .expect("in-process run");
            assert_eq!(reference.report.auctions, 40, "{population:?} {stream:?}");
            assert!(reference.report.clicks > 0, "{population:?} {stream:?}");
            assert_eq!(reference.recovery, None);

            for shards in [None, Some(1), Some(4)] {
                let what = format!("{population:?} × {stream:?} × {shards:?} shards");
                let in_process = run(&Scenario {
                    shards,
                    ..base.clone()
                })
                .expect("in-process run");
                assert_same_outcomes(&in_process, &reference, &what);
                // Shaped streams report how they routed across the shards.
                match (&in_process.skew, stream.shape()) {
                    (Some(skew), Some(_)) => {
                        assert_eq!(skew.queries_per_shard.len(), shards.unwrap_or(1));
                        assert_eq!(skew.queries_per_shard.iter().sum::<u64>(), 40);
                    }
                    (None, None) => {}
                    (skew, shape) => panic!("{what}: skew {skew:?} for shape {shape:?}"),
                }

                let dir = journal_dir(&format!("{}-{}", references.len(), shards.unwrap_or(0)));
                let journalled = run(&Scenario {
                    shards,
                    durability: Some(dir.clone()),
                    ..base.clone()
                })
                .expect("journalled run");
                std::fs::remove_dir_all(&dir).ok();
                assert_same_outcomes(&journalled, &reference, &format!("{what}, journalled"));
                // Configure + 30 registrations + 300 campaigns + batches.
                let recovery = journalled.recovery.as_ref().expect("recovery report");
                assert!(recovery.wal_records > 331, "{what}: {recovery:?}");
                assert!(journalled.to_json().contains("\"durable\":true"));

                let wire = run(&Scenario {
                    shards,
                    transport: Some(server.addr()),
                    ..base.clone()
                })
                .expect("wire run");
                assert_same_outcomes(&wire, &reference, &format!("{what}, over the wire"));
                assert!(
                    wire.to_json()
                        .contains(&format!("\"server\":\"{}\"", server.addr())),
                    "wire JSON must carry the server address"
                );
            }
            references.push(reference);
        }
    }
    // The dimensions that *are* semantic do change the outcomes: each
    // population × stream cell is its own experiment.
    for (i, a) in references.iter().enumerate() {
        for b in &references[i + 1..] {
            assert_ne!(a.report, b.report, "{:?} vs {:?}", a.scenario, b.scenario);
        }
    }
    shut_down(server);
}

#[test]
fn targeting_prunes_candidates() {
    // Desktop queries exclude the mobile-only half of the population
    // before the matrix fill, so the reduced solver's candidate count sits
    // below the advertiser count.
    let targeted = run(&Scenario {
        population: Population::Targeted,
        shards: Some(2),
        ..small()
    })
    .expect("targeted run");
    let p = targeted.report.phases;
    assert!(p.solves > 0);
    assert!(
        p.avg_candidates() < 30.0,
        "targeting excluded nobody: {p:?}"
    );
    let json = targeted.to_json();
    assert!(json.contains("\"targeted\":true"), "{json}");
    assert!(json.contains("\"workload\":null"), "{json}");
}

#[test]
fn pruning_is_an_execution_strategy() {
    // Identical auction outcomes, smaller candidate sets fed to the solver.
    let full = run(&Scenario {
        method: WdMethod::Hungarian,
        advertisers: 60,
        ..small()
    })
    .expect("full run");
    let pruned = run(&Scenario {
        pruned: true,
        ..full.scenario.clone()
    })
    .expect("pruned run");
    assert_eq!(full.report, pruned.report);
    assert!(pruned.to_json().contains("\"pruned\":true"));
    let p = pruned.report.phases;
    assert!(
        p.solves == 0 || p.avg_candidates() < 60.0,
        "pruning never engaged: {p:?}"
    );
}

#[test]
fn programmed_populations_are_strategy_and_shard_invariant() {
    // Native and SQL populations must produce identical auction outcomes
    // (only their speed differs), sharded or not.
    let programmed = |strategy, shards| {
        run(&Scenario {
            population: Population::Programmed(strategy),
            shards,
            seed: 7,
            ..small()
        }
        .load(12))
        .expect("programmed run")
    };
    let native = programmed(Strategy::Native, None);
    let sql = programmed(Strategy::Sql, None);
    assert_eq!(native.report, sql.report);
    assert!(sql.to_json().contains("\"strategy\":\"sql\""));
    assert!(native.to_json().contains("\"strategy\":\"native\""));
    let sharded = programmed(Strategy::Sql, Some(2));
    assert_eq!(sharded.report, sql.report);
    assert!(sharded.to_json().contains("\"shards\":2"));
    // SQL runs expose the planner counters (and took the index path);
    // native runs have no database and report null.
    let stats = sql.planner.expect("sql run has planner counters");
    assert!(stats.index_hits > 0, "{stats:?}");
    assert!(stats.plans_cached > 0, "{stats:?}");
    let json = sql.to_json();
    assert!(json.contains("\"planner\":{\"index_hits\":"), "{json}");
    assert!(native.planner.is_none());
    assert!(native.to_json().contains("\"planner\":null"));
}

#[test]
fn programs_fail_typed_over_the_wire_and_under_a_journal() {
    // What a layer cannot express is that layer's error, not a CLI guard.
    let programmed = Scenario {
        population: Population::Programmed(Strategy::Sql),
        ..small()
    };
    let unreachable = "127.0.0.1:1".parse().expect("address");
    match run(&Scenario {
        transport: Some(unreachable),
        ..programmed.clone()
    }) {
        Err(ScenarioError::ProgramsOverWire(Strategy::Sql)) => {}
        other => panic!("expected ProgramsOverWire, got {other:?}"),
    }
    let dir = journal_dir("programmed");
    let outcome = run(&Scenario {
        durability: Some(dir.clone()),
        ..programmed
    });
    std::fs::remove_dir_all(&dir).ok();
    match outcome {
        Err(ScenarioError::Market(MarketError::NotDurable(_))) => {}
        other => panic!("expected NotDurable, got {other:?}"),
    }
    match run(&Scenario {
        transport: Some(unreachable),
        durability: Some(journal_dir("wire")),
        ..small()
    }) {
        Err(ScenarioError::JournalOverWire) => {}
        other => panic!("expected JournalOverWire, got {other:?}"),
    }
    match run(&Scenario {
        transport: Some(unreachable),
        ..small()
    }) {
        Err(ScenarioError::Net { server, .. }) => assert_eq!(server, unreachable),
        other => panic!("expected Net, got {other:?}"),
    }
}

#[test]
fn method_run_json_shape() {
    let run = run(&Scenario {
        advertisers: 40,
        seed: 11,
        ..Scenario::quick()
    }
    .load(6))
    .expect("in-process run");
    assert_eq!(run.report.auctions, 6);
    assert!(run.auctions_per_sec() > 0.0);
    assert!(run.cores >= 1);
    let json = run.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    // The full key set, in order: the contract CI's Python reads.
    let keys: Vec<&str> = json
        .split('"')
        .skip(1)
        .step_by(2)
        .filter(|k| json.contains(&format!("\"{k}\":")))
        .collect();
    assert_eq!(
        keys,
        [
            "method",
            "pricing",
            "advertisers",
            "slots",
            "shards",
            "strategy",
            "server",
            "auctions",
            "elapsed_ms",
            "auctions_per_sec",
            "cores",
            "pruned",
            "durable",
            "workload",
            "targeted",
            "phases",
            "program_eval_ms",
            "matrix_fill_ms",
            "solve_ms",
            "pricing_ms",
            "settlement_ms",
            "solves",
            "warm_solves",
            "avg_candidates",
            "cells_evaluated",
            "rescans",
            "expected_revenue_cents",
            "clicks",
            "realized_revenue_cents",
            "planner",
            "shard_skew",
        ],
        "{json}"
    );
    for pair in [
        "\"method\":\"rh\"",
        "\"pricing\":\"gsp\"",
        "\"advertisers\":40",
        "\"slots\":15",
        "\"shards\":null",
        "\"strategy\":null",
        "\"server\":null",
        "\"auctions\":6",
        "\"pruned\":false",
        "\"durable\":false",
        "\"workload\":null",
        "\"targeted\":false",
        "\"planner\":null",
        "\"shard_skew\":null",
    ] {
        assert!(json.contains(pair), "missing {pair} in {json}");
    }
    let zipf = ssa_bench::run(&Scenario {
        stream: Stream::Shaped(WorkloadShape::Zipf { s: 1.1 }),
        shards: Some(4),
        ..small()
    })
    .expect("shaped run");
    let json = zipf.to_json();
    for pair in [
        "\"workload\":\"zipf:1.1\"",
        "\"shards\":4",
        "\"shard_skew\":{\"queries_per_shard\":[",
        "\"p50\":",
        "\"p99\":",
        "\"max_over_mean\":",
    ] {
        assert!(json.contains(pair), "missing {pair} in {json}");
    }
}

#[test]
fn pruned_warm_programmed_serving_matches_unpruned_cold() {
    // The acceptance bar for the solver fast path: pruned + warm-started
    // serving of the programmed workload (native and sql) is
    // bit-identical to the unpruned cold solve, at 1 and 4 shards, both
    // with `rh` on its lists and with `h` on the pruned dense matrix.
    let workload = SectionVWorkload::generate(SectionVConfig::paper(40, 4242));
    let keywords = workload.config.num_keywords.max(1);
    let requests: Vec<QueryRequest> = (0..24).map(|i| QueryRequest::new(i % keywords)).collect();
    for method in [WdMethod::Reduced, WdMethod::Hungarian] {
        let cold = EngineConfig {
            method,
            pruned: false,
            warm_start: false,
            ..EngineConfig::default()
        };
        let fast = EngineConfig {
            pruned: true,
            warm_start: true,
            ..cold
        };
        for strategy in [Strategy::Native, Strategy::Sql] {
            let mut twin =
                programmed_sharded_market(&workload, cold, strategy, 1).expect("valid shard count");
            let want = twin.market.serve_batch(&requests).expect("in range");
            for shards in [1, 4] {
                let mut sharded = programmed_sharded_market(&workload, fast, strategy, shards)
                    .expect("valid shard count");
                let got = sharded.market.serve_batch(&requests).expect("in range");
                assert_eq!(got, want, "{method} {strategy} shards={shards}");
            }
        }
    }
}
