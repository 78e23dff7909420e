//! CLI contract tests for the `reproduce` binary: the typed-error paths
//! (an unknown `--method`, `--shards 0`, `--load 0`, …), the
//! sharded load-generator happy path, and the single-run flags composing
//! (what a layer cannot express fails with that layer's error).

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The outcome fields of a `--json` row (everything a run's *result*
/// consists of; timings and the run's coordinates precede them).
fn outcomes_of(json: &str) -> String {
    json.split("\"expected_revenue_cents\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no outcome keys in {json}"))
        // The planner counters legitimately differ between populations
        // (native programs have no database) — outcomes must not.
        .split("\"planner\":")
        .next()
        .expect("planner key present")
        .to_string()
}

/// Asserts a clean usage failure: exit code 2, no stdout, a stderr that
/// names the problem and reprints the usage text.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = reproduce(args);
    assert_eq!(out.status.code(), Some(2), "args {args:?}");
    let err = stderr_of(&out);
    assert!(
        err.contains(needle),
        "args {args:?}: stderr {err:?} missing {needle:?}"
    );
    assert!(err.contains("Usage:"), "args {args:?}: no usage in {err:?}");
}

/// The retired parallel reduction (`rhp`, `rhp:<threads>`) is an unknown
/// method like any other, named back as it was typed.
#[test]
fn an_unknown_method_is_named_as_typed() {
    for typed in ["rhp", "rhp:2", "FOO"] {
        assert_usage_error(
            &["--method", typed],
            &format!("unknown winner-determination method \"{typed}\""),
        );
    }
}

#[test]
fn zero_shards_is_a_clear_error_not_a_panic() {
    assert_usage_error(
        &["--method", "rh", "--shards", "0"],
        "shard count must be positive",
    );
    assert_usage_error(
        &["--method", "rh", "--shards", "four"],
        "invalid shard count",
    );
    assert_usage_error(&["--method", "rh", "--shards"], "--shards requires a value");
}

#[test]
fn zero_load_is_a_clear_error() {
    assert_usage_error(
        &["--method", "rh", "--load", "0"],
        "load (query count) must be positive",
    );
    assert_usage_error(&["--method", "rh", "--load", "lots"], "invalid load");
}

#[test]
fn shards_and_load_require_method() {
    assert_usage_error(
        &["--shards", "2"],
        "--shards/--load/--pruned require --method",
    );
    assert_usage_error(
        &["--load", "10"],
        "--shards/--load/--pruned require --method",
    );
    assert_usage_error(&["--pruned"], "--shards/--load/--pruned require --method");
}

#[test]
fn bogus_strategy_is_a_clear_error() {
    assert_usage_error(&["--strategy", "postgres"], "invalid strategy \"postgres\"");
    // The retired reparse-per-round population is no longer a strategy
    // (its name is split so a grep for live uses of it finds none).
    let retired = concat!("sql", "-reparse");
    assert_usage_error(
        &["--strategy", retired],
        &format!("invalid strategy {retired:?}: expected one of native, sql"),
    );
    assert_usage_error(&["--strategy"], "--strategy requires a value");
    assert_usage_error(
        &["--strategy", "sql", "fig12"],
        "cannot be combined with target",
    );
}

#[test]
fn strategy_runs_standalone_with_the_default_method() {
    // The CI perf-smoke invocation: no --method, strategy implies
    // single-run mode at the rh default.
    let out = reproduce(&["--strategy", "sql", "--json", "--quick", "--load", "8"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let json = stdout_of(&out);
    for key in [
        "\"method\":\"rh\"",
        "\"strategy\":\"sql\"",
        "\"shards\":null",
        "\"auctions\":8",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn sql_runs_take_the_planned_path_whatever_the_environment() {
    // The process-wide executor switch is gone: setting the variable that
    // used to move every database onto the interpreter changes nothing,
    // and the planner object no longer reports a mode. (The name is split
    // so a grep for live uses of the retired switch finds none.)
    let retired_switch = concat!("SSA_MINIDB_", "FORCE_SCAN");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--strategy", "sql", "--json", "--quick", "--load", "8"])
        .env(retired_switch, "1")
        .output()
        .expect("reproduce binary runs");
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let json = stdout_of(&out);
    assert!(!json.contains("\"mode\""), "{json}");
    let index_hits: u64 = json
        .split("\"index_hits\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no planner index_hits in {json}"));
    assert!(index_hits > 0, "{json}");
}

/// The quick SQL run, pinned: its outcome fields, the summed planner
/// counters of its program databases and the weight cells its auctions
/// evaluated. How minidb shares scripts, triggers and catalog shapes
/// between those databases must move none of them.
#[test]
fn the_quick_sql_run_reports_its_pinned_outcomes_and_counters() {
    let out = reproduce(&["--strategy", "sql", "--json", "--quick"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let json = stdout_of(&out);
    for key in [
        "\"planner\":{\"index_hits\":14000,\"rows_scanned\":79446,\"plans_cached\":47500}",
        "\"clicks\":405",
        "\"realized_revenue_cents\":14819",
        "\"expected_revenue_cents\":16978.28",
        "\"cells_evaluated\":142245",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn native_and_sql_strategies_report_identical_outcomes() {
    // The equivalence claim, visible at the CLI surface: same clicks and
    // revenue, population for population (only elapsed_ms may differ).
    let run = |strategy: &str| {
        let out = reproduce(&["--strategy", strategy, "--json", "--quick", "--load", "12"]);
        assert!(out.status.success(), "stderr: {}", stderr_of(&out));
        outcomes_of(&stdout_of(&out))
    };
    assert_eq!(run("native"), run("sql"));
}

#[test]
fn bad_server_address_is_a_clear_error_not_a_panic() {
    assert_usage_error(
        &["--method", "rh", "--server", "not an address"],
        "invalid server address",
    );
    assert_usage_error(&["--method", "rh", "--server"], "--server requires a value");
    assert_usage_error(
        &["--server", "127.0.0.1:7878"],
        "--server requires --method",
    );
}

#[test]
fn programs_over_the_wire_or_under_a_journal_are_typed_layer_errors() {
    // No CLI guard forbids these: the layer that cannot express the
    // combination says so, and the exit code is a usage error's.
    for (args, needle) in [
        (
            &["--strategy", "sql", "--server", "127.0.0.1:7878", "--quick"][..],
            "sql bidding programs cannot cross the wire",
        ),
        (
            &["--strategy", "sql", "--durable", "--quick"][..],
            "cannot be journalled for durability",
        ),
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(stdout_of(&out).is_empty(), "args {args:?}");
        let err = stderr_of(&out);
        assert!(err.contains(needle), "args {args:?}: stderr {err:?}");
    }
}

#[test]
fn unreachable_server_is_a_typed_runtime_error() {
    // Grab a port the OS just handed out, then close it: connecting is
    // refused, and the failure is a typed error with exit code 1 — a
    // runtime failure, not a usage error, and never a panic.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe port");
        listener.local_addr().expect("local addr").to_string()
    };
    let out = reproduce(&["--method", "rh", "--quick", "--server", &addr]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(
        err.contains("remote run against") && err.contains(&addr),
        "stderr {err:?} does not name the failed server"
    );
}

#[test]
fn server_runs_report_the_in_process_outcomes() {
    // Boot a real ssa_net server in this process and drive the reproduce
    // binary against it: the CLI-visible outcome fields must match the
    // in-process sharded run exactly (only timings may differ).
    let market = ssa_core::Marketplace::builder()
        .slots(1)
        .keywords(1)
        .default_click_probs(vec![0.1])
        .build_sharded(1)
        .expect("bootstrap marketplace");
    let server = ssa_net::Server::bind("127.0.0.1:0", market, ssa_net::ServerConfig::default())
        .expect("bind")
        .spawn();
    let addr = server.addr().to_string();

    let outcomes = |args: &[&str]| {
        let out = reproduce(args);
        assert!(out.status.success(), "stderr: {}", stderr_of(&out));
        outcomes_of(&stdout_of(&out))
    };

    let common = [
        "--method", "rh", "--json", "--quick", "--shards", "2", "--load", "10",
    ];
    let mut remote_args: Vec<&str> = common.to_vec();
    remote_args.extend_from_slice(&["--server", &addr]);

    let out = reproduce(&remote_args);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let remote_json = stdout_of(&out);
    for key in [
        &format!("\"server\":\"{addr}\"") as &str,
        "\"shards\":2",
        "\"auctions\":10",
    ] {
        assert!(remote_json.contains(key), "missing {key} in {remote_json}");
    }

    assert_eq!(outcomes(&remote_args), outcomes(&common));

    let mut client = ssa_net::Client::connect(server.addr()).expect("connect");
    client.shutdown_server().expect("graceful shutdown");
    server.join();
}

#[test]
fn workload_runs_standalone_and_reports_the_skew() {
    // The CI perf-smoke invocation: --workload implies single-run mode at
    // the rh default, and the JSON row carries the shape plus the
    // per-shard skew summary.
    let out = reproduce(&[
        "--workload",
        "zipf:1.1",
        "--shards",
        "4",
        "--json",
        "--quick",
        "--load",
        "40",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let json = stdout_of(&out);
    for key in [
        "\"method\":\"rh\"",
        "\"workload\":\"zipf:1.1\"",
        "\"shards\":4",
        "\"auctions\":40",
        "\"shard_skew\":{\"queries_per_shard\":[",
        "\"p50\":",
        "\"p99\":",
        "\"max_over_mean\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn targeted_runs_standalone_and_reports_it() {
    let out = reproduce(&[
        "--targeted",
        "--shards",
        "2",
        "--json",
        "--quick",
        "--load",
        "20",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let json = stdout_of(&out);
    for key in [
        "\"method\":\"rh\"",
        "\"targeted\":true",
        "\"workload\":null",
        "\"shards\":2",
        "\"auctions\":20",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn bogus_workload_is_a_clear_error() {
    assert_usage_error(&["--workload", "pareto"], "invalid workload \"pareto\"");
    assert_usage_error(&["--workload", "zipf:0"], "invalid workload");
    assert_usage_error(&["--workload"], "--workload requires a value");
    assert_usage_error(&["--durable"], "--durable requires --method");
    // Two flags, one Scenario field.
    assert_usage_error(
        &["--targeted", "--strategy", "sql"],
        "--strategy and --targeted both choose the population",
    );
    assert_usage_error(
        &["--workload", "flash", "fig12"],
        "cannot be combined with target",
    );
}

#[test]
fn sharded_load_generator_emits_json() {
    let out = reproduce(&[
        "--method", "rh", "--json", "--quick", "--shards", "2", "--load", "10",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let json = stdout_of(&out);
    for key in ["\"method\":\"rh\"", "\"shards\":2", "\"auctions\":10"] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

/// The value of `key` in a flat JSON object line.
fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let value = &json[at + key.len() + 3..];
    value[..value.find([',', '}']).expect("closed object")].trim_matches('"')
}

/// `--footprint` appends the market's memory ledger after the run: with
/// `--json` one object per component, the most bytes in use first; in
/// text, a table with a total. A per-click market's records and rows are
/// on it, and nobody purchases, so its purchase index holds nothing.
#[test]
fn footprint_prints_the_ledger_largest_line_first() {
    let out = reproduce(&["--method", "rh", "--json", "--quick", "--footprint"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let mut lines = stdout.lines();
    let run = lines.next().expect("the run's line");
    assert_eq!(field(run, "method"), "rh");
    let ledger: Vec<(String, u64)> = lines
        .enumerate()
        .map(|(at, line)| {
            assert_eq!(field(line, "metric"), "footprint", "{line}");
            assert_eq!(field(line, "rank"), (at + 1).to_string(), "{line}");
            let reserved: u64 = field(line, "reserved_bytes").parse().expect("a count");
            let in_use: u64 = field(line, "in_use_bytes").parse().expect("a count");
            assert!(in_use <= reserved, "{line}");
            field(line, "allocations").parse::<u64>().expect("a count");
            (field(line, "component").to_string(), in_use)
        })
        .collect();
    assert_eq!(ledger.len(), 16, "{stdout}");
    assert!(
        ledger.windows(2).all(|pair| pair[0].1 >= pair[1].1),
        "{stdout}"
    );
    let in_use = |name: &str| {
        let line = ledger.iter().find(|(component, _)| component == name);
        line.unwrap_or_else(|| panic!("no {name} line in {stdout}"))
            .1
    };
    assert!(in_use("campaign records") > 0 && in_use("click rows") > 0);
    assert_eq!(in_use("purchase index"), 0);

    let out = reproduce(&["--method", "rh", "--quick", "--footprint"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = stdout_of(&out);
    let table = text
        .split("# memory ledger, largest line first\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no ledger table in {text}"));
    let rows: Vec<&str> = table.lines().collect();
    assert_eq!(rows.len(), 1 + 16 + 1, "header, lines, total: {table}");
    assert!(rows[0].contains("in use (B)") && rows[17].trim_start().starts_with("total"));

    assert_usage_error(&["--footprint"], "--json/--footprint require --method");
    assert_usage_error(
        &["--method", "rh", "--server", "127.0.0.1:1", "--footprint"],
        "--footprint weighs an in-process market",
    );
}

#[test]
fn formerly_forbidden_flag_combinations_compose() {
    // A hostile stream under a journal, on a targeted population.
    let out = reproduce(&[
        "--workload",
        "flash",
        "--targeted",
        "--durable",
        "--shards",
        "2",
        "--json",
        "--quick",
        "--load",
        "20",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let json = stdout_of(&out);
    for key in [
        "\"workload\":\"flash\"",
        "\"targeted\":true",
        "\"durable\":true",
        "\"shard_skew\":{",
        "{\"metric\":\"recovery\",\"wal_records\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn shard_count_absent_or_given_reports_the_same_outcomes() {
    // One RNG mode: the run without --shards is the one-shard run, and
    // every shard count reproduces it. Only the "shards" key differs.
    let run = |extra: &[&str]| {
        let mut args = vec!["--method", "rh", "--json", "--quick"];
        args.extend_from_slice(extra);
        let out = reproduce(&args);
        assert!(out.status.success(), "stderr: {}", stderr_of(&out));
        stdout_of(&out)
    };
    let unsharded = run(&[]);
    assert!(unsharded.contains("\"shards\":null"), "{unsharded}");
    let sharded = run(&["--shards", "4"]);
    assert!(sharded.contains("\"shards\":4"), "{sharded}");
    assert_eq!(outcomes_of(&unsharded), outcomes_of(&sharded));
}

#[test]
fn a_second_target_is_a_usage_error() {
    assert_usage_error(
        &["tables", "bogus"],
        "unexpected argument \"bogus\" after target \"tables\"",
    );
}

#[test]
fn a_repeated_value_flag_is_a_usage_error() {
    assert_usage_error(
        &["--method", "h", "--method", "lp", "--json", "--quick"],
        "--method given more than once",
    );
}

#[test]
fn ablations_print_four_titled_tables_with_their_columns() {
    let out = reproduce(&["ablations", "--quick"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let tables: Vec<&str> = stdout.split("\n\n").filter(|t| !t.is_empty()).collect();
    let expected: [(&str, &[&str]); 4] = [
        ("# A1 ", &["hungarian_full", "reduced"]),
        (
            "# A2 ",
            &["full_sort_per_slot", "bounded_heaps", "threshold_algorithm"],
        ),
        ("# A3 ", &["naive_eval", "logical_updates"]),
        ("# A4 ", &["sequential", "threaded_8"]),
    ];
    assert_eq!(tables.len(), expected.len(), "stdout: {stdout}");
    for (table, (title, columns)) in tables.iter().zip(expected) {
        let mut lines = table.lines();
        let title_line = lines.next().unwrap_or_default();
        assert!(title_line.starts_with(title), "table {table:?}");
        let header: Vec<&str> = lines
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .collect();
        assert_eq!(&header[1..], columns, "table {table:?}");
        assert!(lines.next().is_some(), "table {table:?} has no rows");
    }
}

#[test]
fn figures_12_and_13_print_their_titled_series() {
    let figures: [(&str, &str, &[&str], [&str; 3]); 2] = [
        (
            "fig12",
            "# Figure 12 — Winner Determination Performance",
            &["LP", "H", "RH", "RHTALU"],
            ["250", "500", "1000"],
        ),
        (
            "fig13",
            "# Figure 13 — Reducing Program Evaluation",
            &["RH", "RHTALU"],
            ["1000", "2000", "4000"],
        ),
    ];
    for (target, title, columns, keys) in figures {
        let out = reproduce(&[target, "--quick"]);
        assert!(out.status.success(), "stderr: {}", stderr_of(&out));
        let stdout = stdout_of(&out);
        let mut lines = stdout.lines().filter(|l| !l.is_empty());
        assert!(
            lines.next().unwrap_or_default().starts_with(title),
            "{stdout}"
        );
        let header: Vec<&str> = lines
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .collect();
        assert_eq!(header, [&["n"][..], columns].concat(), "{stdout}");
        let rows: Vec<Vec<&str>> = lines.map(|l| l.split_whitespace().collect()).collect();
        assert_eq!(rows.iter().map(|r| r[0]).collect::<Vec<_>>(), keys);
        for row in &rows {
            let cells: Vec<f64> = row[1..]
                .iter()
                .map(|c| c.parse().expect("a numeric cell"))
                .collect();
            assert_eq!(cells.len(), columns.len(), "row {row:?}");
            assert!(
                cells.iter().all(|c| c.is_finite() && *c > 0.0),
                "row {row:?}"
            );
            // LP, the one general-purpose solver, is the slowest method.
            if target == "fig12" {
                assert!(cells[1..].iter().all(|c| *c < cells[0]), "row {row:?}");
            }
        }
    }
}
