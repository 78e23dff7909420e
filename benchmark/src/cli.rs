//! Command line of `ssa-benchmark`.

use crate::workloads::Workload;
use crate::{aa, Options};
use std::time::Instant;

const USAGE: &str = "\
usage: ssa-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke]
       ssa-benchmark aa [--sets <n>] [--runs <n>] [--seconds <s>] [--seed <first>]

workloads: engine-solve, program-sql, wire-serve, wire-durable
  --seconds  length of the measured phase (default 20); a traced run scales
             its fixed operation counts by seconds/20 instead
  --trace    the separate traced run that yields the per-layer metrics
  --smoke    1/50 of every fixed count, for tests
  aa         the A/A study: interleaved runs of one binary in sets, the same
             seeds in every set, written to NOISE.json (defaults: 2 sets of
             10 runs)";

struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self.0.next().ok_or(format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot read {raw:?}"))
    }
}

fn parse(args: Vec<String>) -> Result<Command, String> {
    let mut args = Args(args.into_iter());
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, 20.0, false, false);
    let (mut study, mut sets, mut runs) = (false, 2usize, 10usize);
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "aa" => study = true,
            "--workload" => {
                let name: String = args.value("--workload")?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(args.value("--seed")?),
            "--seconds" => seconds = args.value("--seconds")?,
            "--trace" => {
                // `--trace 0|1` from the driver, bare `--trace` by hand.
                trace = match args.0.as_slice().first().map(String::as_str) {
                    Some("0") => {
                        args.0.next();
                        false
                    }
                    Some("1") => {
                        args.0.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => smoke = true,
            "--sets" => sets = args.value("--sets")?,
            "--runs" => runs = args.value("--runs")?,
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    if study {
        if sets < 2 || runs < 2 {
            return Err("the A/A study needs at least 2 sets of 2 runs".into());
        }
        return Ok(Command::Study(aa::Study {
            sets,
            runs,
            seconds,
            first_seed: seed.unwrap_or(1),
        }));
    }
    Ok(Command::Run(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
    }))
}

enum Command {
    Run(Options),
    Study(aa::Study),
    Help,
}

/// Runs the command line; returns the process's exit code. The result
/// line is the last line of standard output, and is printed only when
/// every check passed.
pub fn main(process_start: Instant) -> i32 {
    let outcome = match parse(std::env::args().skip(1).collect()) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return 0;
        }
        Ok(Command::Run(options)) => crate::run(&options, process_start).map(|report| {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.result_line());
        }),
        Ok(Command::Study(study)) => aa::run(&study),
        Err(message) => {
            eprintln!("ssa-benchmark: {message}\n{USAGE}");
            return 2;
        }
    };
    match outcome {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("ssa-benchmark: FAILED: {message}");
            1
        }
    }
}
