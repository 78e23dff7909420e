//! The repository's benchmark: four workloads of the auction service, each
//! run by one command that checks its outputs and prints every metric by
//! name with its unit. See `README.md` beside this package.
//!
//! The benchmark touches no product code. Every layer is measured from
//! outside: by timing calls into its public functions and by reading the
//! counters those functions already return.

pub mod aa;
pub mod check;
pub mod cli;
pub mod env;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use json::{obj, Json};
use metrics::{Metric, END_TO_END, PER_LAYER, TIMING};
use std::time::Instant;
use trace::SpanName;
use workloads::{inproc, wire, Phase, Scale, Workload};

/// Errors cross the benchmark as the text the run fails with.
pub(crate) fn text(error: impl std::fmt::Display) -> String {
    error.to_string()
}

/// Spans a traced run keeps for its trace file; totals cover every span.
pub const SPAN_CAPACITY: usize = 20_000;

/// One run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured phase of an end-to-end run lasts; a traced
    /// run scales its fixed operation counts by it instead.
    pub seconds: f64,
    pub trace: bool,
    /// Divides every fixed count by 50: for tests, which ignore numbers.
    pub smoke: bool,
}

/// What a run measured: the metrics in the order `metrics` lists them, and
/// the lines of the human-readable report.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(Metric, f64)>,
    pub lines: Vec<String>,
}

impl Report {
    /// The result line the driver reads. A report exists only if every
    /// check passed, so `correct` is always true here: a failed check
    /// exits non-zero and prints no metrics.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(metric, value)| {
                (
                    metric.name.to_string(),
                    obj([("value", (*value).into()), ("unit", metric.unit.into())]),
                )
            })
            .collect();
        obj([
            ("correct", true.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

fn none_failed(what: &str, phase: &Phase) -> Result<(), String> {
    if phase.failed > 0 {
        return Err(format!(
            "{} of {} {what} operations failed",
            phase.failed, phase.attempted
        ));
    }
    if phase.auctions == 0 {
        return Err(format!("the {what} phase answered no auction"));
    }
    Ok(())
}

fn metric_lines(metrics: &[(Metric, f64)]) -> Vec<String> {
    metrics
        .iter()
        .map(|(m, value)| format!("{:<34} {value:>16.4} {}", m.name, m.unit))
        .collect()
}

fn end_to_end(options: &Options, scale: Scale, process_start: Instant) -> Result<Report, String> {
    let measure_for = scale.duration(20.0);
    let run = match options.workload {
        Workload::EngineSolve | Workload::ProgramSql => inproc::end_to_end(
            options.workload,
            options.seed,
            measure_for,
            scale,
            process_start,
        )?,
        Workload::WireServe | Workload::WireDurable => wire::end_to_end(
            options.workload,
            options.seed,
            measure_for,
            scale,
            process_start,
        )?,
    };
    none_failed("measured", &run.phase)?;
    let values = [stats::median(&run.setups_s), run.peak_rss_mb];
    let metrics: Vec<(Metric, f64)> = END_TO_END.into_iter().zip(values).collect();
    let timing = [run.phase.auctions_per_s(), run.phase.latency_p50_ms()];
    let timing: Vec<(Metric, f64)> = TIMING.into_iter().zip(timing).collect();
    let mut lines = metric_lines(&metrics);
    lines.extend(metric_lines(&timing));
    lines.push(format!(
        "set-ups {:.4?} s; {} auctions (latency samples) in {:.3} s; {} blocks, rate cv {:.4}",
        run.setups_s,
        run.phase.auctions,
        run.phase.wall.as_secs_f64(),
        run.phase.block_rates.len(),
        stats::cv(&run.phase.block_rates),
    ));
    lines.push(format!(
        "block rates {:?}",
        run.phase
            .block_rates
            .iter()
            .map(|r| r.round() as u64)
            .collect::<Vec<_>>()
    ));
    lines.extend(run.checked.iter().map(|c| format!("checked: {c}")));
    Ok(Report {
        attempted: run.phase.attempted,
        failed: run.phase.failed,
        metrics,
        lines,
    })
}

fn traced(options: &Options, scale: Scale) -> Result<Report, String> {
    let run = match options.workload {
        Workload::EngineSolve | Workload::ProgramSql => {
            inproc::traced(options.workload, options.seed, scale)?
        }
        Workload::WireServe | Workload::WireDurable => {
            wire::traced(options.workload, options.seed, scale)?
        }
    };
    none_failed("untraced", &run.untraced)?;
    none_failed("traced", &run.traced)?;

    let name = options.workload.name();
    let out = env::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let path = out.join(format!("trace-{name}.json"));
    let header = obj([
        ("workload", name.into()),
        ("seconds", options.seconds.into()),
        ("env", env::describe(options.seed)),
    ]);
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
    run.tracer
        .write_json(&mut file, &header)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    // The spans that lie inside the latency-timed interval of an auction:
    // everything but the operation itself and, in process, the bid write.
    let totals = |span: SpanName| run.tracer.totals(span);
    let timed_ops = totals(SpanName::CoreServe)
        .count
        .max(totals(SpanName::Op).count)
        .max(1) as f64;
    let stage_self_us: f64 = SpanName::ALL
        .into_iter()
        .filter(|s| !matches!(s, SpanName::Op | SpanName::CoreUpdateBid))
        .map(|s| totals(s).self_ns as f64 / 1e3)
        .sum::<f64>()
        / timed_ops;
    let self_us =
        |span: SpanName| totals(span).self_ns as f64 / 1e3 / totals(span).count.max(1) as f64;

    let mut rows = probes::run(options.seed, scale)?;
    rows.extend(run.layer);
    rows.extend([
        (TIMING[0].name, run.untraced.auctions_per_s()),
        (TIMING[1].name, run.untraced.latency_p50_ms()),
        (
            "client.latency_p99_ms",
            run.untraced.latency.quantile_ns(0.99) / 1e6,
        ),
        (
            "client.latency_max_ms",
            run.untraced.latency.max_ns() as f64 / 1e6,
        ),
        ("client.block_rate_cv", stats::cv(&run.untraced.block_rates)),
        (
            "trace.overhead_ratio",
            run.traced.auctions_per_s() / run.untraced.auctions_per_s(),
        ),
        (
            "trace.unexplained_residue_us",
            run.traced.latency.quantile_ns(0.5) / 1e3 - stage_self_us,
        ),
        ("client.encode_us", self_us(SpanName::ClientEncode)),
        ("client.send_us", self_us(SpanName::ClientSend)),
        ("client.wait_us", self_us(SpanName::ClientWait)),
        ("client.decode_us", self_us(SpanName::ClientDecode)),
    ]);
    let metrics = PER_LAYER
        .into_iter()
        .map(|metric| {
            let mut found = rows.iter().filter(|(name, _)| *name == metric.name);
            match (found.next(), found.next()) {
                (Some((_, value)), None) => Ok((metric, *value)),
                (None, _) => Err(format!("no value for per-layer metric {}", metric.name)),
                (Some(_), Some(_)) => {
                    Err(format!("two values for per-layer metric {}", metric.name))
                }
            }
        })
        .collect::<Result<Vec<_>, String>>()?;

    let mut lines = metric_lines(&metrics);
    lines.push(format!("trace written to {}", path.display()));
    lines.push(format!(
        "{:<20} {:>10} {:>16} {:>16}",
        "span", "count", "self us/span", "total us/span"
    ));
    for span in SpanName::ALL {
        let t = totals(span);
        if t.count > 0 {
            lines.push(format!(
                "{:<20} {:>10} {:>16.3} {:>16.3}",
                span.as_str(),
                t.count,
                t.self_ns as f64 / 1e3 / t.count as f64,
                t.total_ns as f64 / 1e3 / t.count as f64,
            ));
        }
    }
    lines.extend(run.checked.iter().map(|c| format!("checked: {c}")));
    Ok(Report {
        attempted: run.untraced.attempted + run.traced.attempted,
        failed: 0,
        metrics,
        lines,
    })
}

/// Runs one workload. `process_start` is when the process began: the
/// first set-up is timed from there.
pub fn run(options: &Options, process_start: Instant) -> Result<Report, String> {
    let scale = Scale::new(options.seconds, options.smoke);
    let mut report = if options.trace {
        traced(options, scale)?
    } else {
        end_to_end(options, scale, process_start)?
    };
    report.lines.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} env {}",
            options.workload.name(),
            options.seed,
            options.seconds,
            u8::from(options.trace),
            env::describe(options.seed).render()
        ),
    );
    Ok(report)
}
