//! `ssa-benchmark`: one workload per invocation, or the A/A study.

fn main() {
    let process_start = std::time::Instant::now();
    std::process::exit(ssa_benchmark::cli::main(process_start));
}
