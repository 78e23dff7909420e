//! Holds `BENCHMARK.json`, the metric registry and what the binary prints
//! together: every workload and the traced run at `--smoke` scale (1/50
//! of the counts, checks on, numbers ignored).

use ssa_benchmark::json::Json;
use ssa_benchmark::metrics::{Metric, END_TO_END, PER_LAYER, TIMING};
use ssa_benchmark::workloads::Workload;
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {value:?}"))
}

fn keys(value: &Json) -> Vec<&str> {
    value
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`
fn is_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.len() <= 64
}

fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn assert_metrics(section: &Json, expected: &[Metric], bounded: bool) {
    let listed = section.as_array().expect("a list of metrics");
    assert_eq!(listed.len(), expected.len());
    for (listed, expected) in listed.iter().zip(expected) {
        let mut want = vec!["name", "unit", "better"];
        if bounded {
            want.push("bound");
        }
        assert_eq!(keys(listed), want, "{listed:?}");
        assert_eq!(str_of(listed, "name"), expected.name);
        assert_eq!(str_of(listed, "unit"), expected.unit, "{}", expected.name);
        assert_eq!(
            str_of(listed, "better"),
            expected.better,
            "{}",
            expected.name
        );
        assert!(
            is_name(expected.name) && is_unit(expected.unit),
            "{expected:?}"
        );
        if bounded {
            let bound = listed.get("bound").and_then(Json::as_f64).expect("a bound");
            assert!(
                bound > 0.0 && bound <= 0.25,
                "{}: bound {bound}",
                expected.name
            );
        }
    }
}

#[test]
fn manifest_lists_exactly_the_workloads_and_metrics_of_the_code() {
    let manifest = manifest();
    assert_eq!(
        keys(&manifest),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = manifest
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (listed, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(listed), ["name", "why"]);
        assert_eq!(str_of(listed, "name"), workload.name());
        assert_eq!(str_of(listed, "why"), workload.why());
        assert!(is_name(workload.name()));
        assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
    }

    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    assert_metrics(
        manifest.get("end_to_end").expect("end_to_end"),
        &END_TO_END,
        true,
    );
    assert_metrics(
        manifest.get("per_layer").expect("per_layer"),
        &PER_LAYER,
        false,
    );
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    names.extend(Workload::ALL.map(Workload::name));
    names.sort_unstable();
    assert!(
        names.windows(2).all(|w| w[0] != w[1]),
        "a name is used twice"
    );

    let seconds = manifest
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(
        seconds.fract() == 0.0 && (20.0..=60.0).contains(&seconds),
        "every measured phase >= 20 s"
    );
    let paths: Vec<&str> = manifest
        .get("paths")
        .and_then(Json::as_array)
        .expect("paths")
        .iter()
        .map(|p| p.as_str().expect("a path"))
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command = manifest
        .get("command")
        .and_then(Json::as_array)
        .expect("command");
    assert!(command.len() <= 32);
    assert!(command
        .iter()
        .any(|part| part.as_str() == Some("benchmark/Cargo.toml")));
}

/// Runs the benchmark binary and returns its result line, parsed, and
/// everything it printed.
fn run(workload: Workload, trace: bool) -> (Json, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_ssa-benchmark"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "7",
            "--seconds",
            "20",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{} trace {trace}: {}\n{stdout}\n{}",
        workload.name(),
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let result = Json::parse(line).unwrap_or_else(|e| panic!("result line {line:?}: {e}"));
    (result, stdout)
}

fn assert_result(result: &Json, expected: &[Metric]) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    let attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .expect("attempted");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = result.get("metrics").expect("metrics");
    assert_eq!(
        keys(metrics),
        expected.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for metric in expected {
        let printed = metrics.get(metric.name).expect("listed above");
        assert_eq!(keys(printed), ["value", "unit"]);
        assert_eq!(str_of(printed, "unit"), metric.unit, "{}", metric.name);
        let value = printed.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{}: {value:?}",
            metric.name
        );
    }
}

/// Counters that must repeat bit for bit at a fixed seed.
const EXACT: [&str; 11] = [
    "core.cold_solve_ratio",
    "core.avg_candidates",
    "minidb.rows_scanned_per_round",
    "minidb.index_hits_per_round",
    "minidb.plans_cached",
    "net.bytes_per_serve_request",
    "net.bytes_per_serve_response",
    "net.overloaded",
    "durable.wal_bytes_per_record",
    "durable.wal_records",
    "durable.snapshots",
];

fn smoke(workload: Workload) {
    let (end_to_end, report) = run(workload, false);
    assert_result(&end_to_end, &END_TO_END);
    // The demoted timing metrics are still printed, by name and with unit.
    for metric in TIMING {
        assert!(
            report.lines().any(|line| {
                let mut words = line.split_whitespace();
                words.next() == Some(metric.name)
                    && words
                        .next()
                        .is_some_and(|v| v.parse::<f64>().is_ok_and(|v| v > 0.0))
                    && words.next() == Some(metric.unit)
            }),
            "{} is not in the report:\n{report}",
            metric.name
        );
    }
    for metric in END_TO_END {
        let value = end_to_end
            .get("metrics")
            .and_then(|m| m.get(metric.name)?.get("value")?.as_f64());
        assert!(
            value.is_some_and(|v| v > 0.0),
            "{} must never be 0",
            metric.name
        );
    }

    let (traced, _) = run(workload, true);
    assert_result(&traced, &PER_LAYER);
    let trace_file = ssa_benchmark::env::out_dir().join(format!("trace-{}.json", workload.name()));
    let trace = Json::parse(&std::fs::read_to_string(&trace_file).expect("a trace file"))
        .expect("valid JSON");
    assert!(!trace
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans")
        .is_empty());

    let (again, _) = run(workload, true);
    for name in EXACT {
        let value = |result: &Json| {
            result
                .get("metrics")
                .and_then(|m| m.get(name)?.get("value")?.as_f64())
        };
        assert_eq!(
            value(&traced),
            value(&again),
            "{name} must repeat at a fixed seed"
        );
    }
}

#[test]
fn engine_solve_runs_checks_and_prints_every_metric() {
    smoke(Workload::EngineSolve);
}

#[test]
fn program_sql_runs_checks_and_prints_every_metric() {
    smoke(Workload::ProgramSql);
}

#[test]
fn wire_serve_runs_checks_and_prints_every_metric() {
    smoke(Workload::WireServe);
}

#[test]
fn wire_durable_runs_checks_and_prints_every_metric() {
    smoke(Workload::WireDurable);
}

#[test]
fn a_bad_command_line_exits_non_zero_and_prints_no_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_ssa-benchmark"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
