//! The A/A study: the same binary measured in several sets of runs, to
//! learn how far two sets of runs of identical code disagree. Which
//! metrics gate, and the bounds in `BENCHMARK.json`, follow from what it
//! writes to `NOISE.json` (see the README's noise section).
//!
//! Runs interleave the workloads (A B C D A B C D …) instead of batching
//! the repeats of one, so drift of the machine lands on all four alike.
//! The runs of a set each have their own seed, as the driver's have, and
//! every set uses the same seeds: what differs between two sets is the
//! machine, never the inputs.

use crate::env;
use crate::json::{obj, Json};
use crate::metrics::{Metric, END_TO_END, TIMING};
use crate::stats::{iqr_share, quartiles};
use crate::workloads::Workload;
use std::path::Path;
use std::process::Command;

pub struct Study {
    pub sets: usize,
    pub runs: usize,
    pub seconds: f64,
    pub first_seed: u64,
}

/// The metrics the study follows: the end-to-end ones and the timing ones
/// that would be end-to-end if they repeated.
fn studied() -> Vec<Metric> {
    END_TO_END.into_iter().chain(TIMING).collect()
}

/// Runs one workload in a child process and returns the studied metrics,
/// read from the `name value unit` lines of its report.
fn child_run(workload: Workload, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    studied()
        .iter()
        .map(|metric| {
            stdout
                .lines()
                .find_map(|line| {
                    let mut words = line.split_whitespace();
                    (words.next() == Some(metric.name)).then(|| words.next()?.parse().ok())?
                })
                .ok_or(format!("the run did not print {}", metric.name))
        })
        .collect()
}

/// The regression bound the issue's rule gives a metric: twice the largest
/// set-to-set deviation of the medians, but never under 5 %.
fn derived_bound(largest_deviation: f64) -> f64 {
    ((2.0 * largest_deviation).max(0.05) * 1000.0).ceil() / 1000.0
}

pub fn run(study: &Study) -> Result<(), String> {
    let studied = studied();
    // values[workload][metric][set] = that set's runs.
    let mut values =
        vec![vec![vec![Vec::<f64>::new(); study.sets]; studied.len()]; Workload::ALL.len()];
    for set in 0..study.sets {
        for run in 0..study.runs {
            let seed = study.first_seed + run as u64;
            for (workload, of_workload) in Workload::ALL.into_iter().zip(&mut values) {
                let metrics = child_run(workload, seed, study.seconds)?;
                eprintln!(
                    "set {} run {} {:<13} seed {seed}: {metrics:?}",
                    set + 1,
                    run + 1,
                    workload.name()
                );
                for (value, of_metric) in metrics.into_iter().zip(of_workload) {
                    of_metric[set].push(value);
                }
            }
        }
    }

    let mut rows = Vec::new();
    let mut worst = vec![(0.0f64, 0.0f64); studied.len()];
    println!(
        "{:<13} {:<15} {:>4} {:>12} {:>12} {:>12} {:>8}",
        "workload", "metric", "set", "q1", "median", "q3", "spread"
    );
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, metric) in studied.iter().enumerate() {
            let mut medians = Vec::new();
            let mut sets = Vec::new();
            for (set, runs) in values[w][m].iter().enumerate() {
                let [q1, median, q3] = quartiles(runs);
                let spread = iqr_share(runs);
                println!(
                    "{:<13} {:<15} {:>4} {q1:>12.4} {median:>12.4} {q3:>12.4} {:>7.2}%",
                    workload.name(),
                    metric.name,
                    set + 1,
                    spread * 100.0
                );
                worst[m].1 = worst[m].1.max(spread);
                medians.push(median);
                sets.push(obj([
                    ("q1", q1.into()),
                    ("median", median.into()),
                    ("q3", q3.into()),
                    ("spread", spread.into()),
                    (
                        "values",
                        Json::Arr(runs.iter().map(|v| (*v).into()).collect()),
                    ),
                ]));
            }
            let lowest = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let highest = medians.iter().copied().fold(0.0, f64::max);
            let deviation = (highest - lowest) / lowest;
            println!(
                "{:<13} {:<15} largest set-to-set deviation {:.2}%",
                workload.name(),
                metric.name,
                deviation * 100.0
            );
            worst[m].0 = worst[m].0.max(deviation);
            rows.push(obj([
                ("workload", workload.name().into()),
                ("metric", metric.name.into()),
                ("unit", metric.unit.into()),
                ("largest_set_to_set_deviation", deviation.into()),
                ("sets", Json::Arr(sets)),
            ]));
        }
    }

    let bounds = studied
        .iter()
        .zip(&worst)
        .map(|(metric, &(deviation, spread))| {
            let bound = derived_bound(deviation);
            println!(
                "{:<15} largest deviation {:.2}%, largest spread {:.2}% -> the rule gives {bound}",
                metric.name,
                deviation * 100.0,
                spread * 100.0,
            );
            obj([
                ("metric", metric.name.into()),
                ("end_to_end", END_TO_END.contains(metric).into()),
                ("largest_set_to_set_deviation", deviation.into()),
                ("largest_spread", spread.into()),
                ("rule_gives", bound.into()),
            ])
        })
        .collect();

    let document = obj([
        (
            "study",
            "A/A: sets of runs of one binary, workloads interleaved, the same seeds in every set".into(),
        ),
        ("sets", (study.sets as u64).into()),
        ("runs_per_set", (study.runs as u64).into()),
        ("seconds", study.seconds.into()),
        ("first_seed", study.first_seed.into()),
        ("env", env::describe(study.first_seed)),
        (
            "bound_rule",
            "max(2 x largest set-to-set deviation of the medians, 0.05), the largest taken over the four workloads".into(),
        ),
        ("bounds", Json::Arr(bounds)),
        ("rows", Json::Arr(rows)),
    ]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("NOISE.json");
    std::fs::write(&path, document.render_pretty()).map_err(|e| e.to_string())?;
    println!("written to {}", path.display());
    Ok(())
}
