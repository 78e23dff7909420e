//! Records the compiler's version at build time, so a run can print it
//! without starting a process of its own.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=SSA_BENCHMARK_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
