//! `ssa-layer-probes [--seed <n>] [--smoke]`: the workload-independent
//! layer probes on their own, one `name value unit` line each.

use ssa_benchmark::metrics::PER_LAYER;
use ssa_benchmark::probes;
use ssa_benchmark::workloads::Scale;

fn usage() -> ! {
    eprintln!("usage: ssa-layer-probes [--seed <n>] [--smoke]");
    std::process::exit(2);
}

fn main() {
    let (mut seed, mut smoke) = (1u64, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    match probes::run(seed, Scale::new(20.0, smoke)) {
        Ok(rows) => {
            for (name, value) in rows {
                let unit = PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .map_or("?", |m| m.unit);
                println!("{name:<34} {value:>16.4} {unit}");
            }
        }
        Err(message) => {
            eprintln!("ssa-layer-probes: FAILED: {message}");
            std::process::exit(1);
        }
    }
}
