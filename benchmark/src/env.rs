//! What every run records about the machine it ran on, and the process's
//! own peak memory. Everything is read from files; no process is started.

use crate::json::{obj, Json};
use std::path::{Path, PathBuf};

/// Directory for everything a run writes: WAL directories and traces.
/// Fixed at build time to the benchmark package's own `out/`, so a run
/// never writes outside the checkout it was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn load_average_1min() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Filesystem type of the mount holding `path`: the longest mount point in
/// `/proc/mounts` that is a prefix of it.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// The checked-out commit, read from `.git` beside the benchmark package;
/// `unknown` in a checkout that is not a git repository.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let resolve = || -> Option<String> {
        let head = read(git.join("HEAD"))?;
        let Some(reference) = head.trim().strip_prefix("ref: ") else {
            return Some(head.trim().to_string());
        };
        if let Some(hash) = read(git.join(reference)) {
            return Some(hash.trim().to_string());
        }
        read(git.join("packed-refs"))?.lines().find_map(|line| {
            line.strip_suffix(reference)
                .map(|hash| hash.trim().to_string())
        })
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}

/// The record attached to every run and to `NOISE.json`.
pub fn describe(seed: u64) -> Json {
    let out = out_dir();
    // The data directory may not exist yet; its parent's mount is the same.
    let probe = if out.exists() {
        out
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    obj([
        ("nproc", (nproc() as u64).into()),
        ("load_average_1min", load_average_1min().into()),
        ("data_dir_filesystem", filesystem_of(&probe).into()),
        ("rustc", env!("SSA_BENCHMARK_RUSTC").into()),
        ("commit", commit().into()),
        ("seed", seed.into()),
    ])
}
