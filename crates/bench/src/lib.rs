//! Shared helpers for the benchmark harness.
//!
//! The bench targets time what the paper exhibits do not print: the
//! ablations, the characterization engine, serving and telemetry
//! overheads, and the `simperf` hot-path trajectory. The paper exhibits
//! themselves come from `repro <id> --quick`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use criterion::Criterion;

/// The seed every bench uses (the calibration seed of the repo).
pub const BENCH_SEED: u64 = 42;

/// Criterion tuned for heavy setups: few samples, short measurement.
#[must_use]
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .configure_from_args()
}

/// Prints an exhibit banner followed by its rendered rows.
pub fn print_exhibit(name: &str, rendered: &str) {
    eprintln!("\n================ {name} ================");
    eprintln!("{rendered}");
}

/// Appends a named scalar metric to the bench JSON trajectory
/// (`target/bench-trajectory.json`, one JSON object per line — the same
/// file Criterion's estimates land in), so derived quantities like
/// speedups ride alongside the raw timings.
pub fn record_metric(name: &str, value: f64) {
    use std::io::Write as _;
    let path = trajectory_path();
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "{{\"metric\":\"{name}\",\"value\":{value:.4}}}");
    }
    eprintln!("metric {name} = {value:.4}");
}

/// The trajectory file Criterion's estimates land in. `CARGO_TARGET_DIR`
/// if set, else the enclosing `target/` of the running bench executable
/// (cargo runs benches with cwd = the *package* root, so a relative
/// `target` would miss the shared workspace directory).
fn trajectory_path() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return std::path::Path::new(&dir).join("bench-trajectory.json");
    }
    if let Ok(exe) = std::env::current_exe() {
        for dir in exe.ancestors() {
            if dir.file_name() == Some(std::ffi::OsStr::new("target")) {
                return dir.join("bench-trajectory.json");
            }
        }
    }
    std::path::Path::new("target").join("bench-trajectory.json")
}
