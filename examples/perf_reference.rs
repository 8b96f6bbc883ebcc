//! Regenerates the golden byte-identity references for the determinism
//! contracts (see `atm_experiments::perfref`).
//!
//! ```text
//! cargo run --release --example perf_reference > tests/data/reference_reports.txt
//! cargo run --release --example perf_reference fleet > tests/data/fleet_reference.txt
//! ```
//!
//! The checked-in hot-path file was captured from the tree *before* the
//! tick-loop performance overhaul, and its brownout serving block before
//! `ServeSim` streamed its arrivals; the fleet file was captured when the
//! sharded fleet landed, and its failover block before the failover
//! checkpoints were reduced to the machine half. `tests/perf_reference.rs` compares every build
//! against both byte-for-byte. Regenerate only when a scenario or report
//! format intentionally changes — never to paper over a determinism diff.

fn main() {
    let bundle = std::env::args().nth(1);
    match bundle.as_deref() {
        Some("fleet") => print!(
            "{}",
            power_atm::experiments::perfref::fleet_full_reference()
        ),
        None => print!("{}", power_atm::experiments::perfref::full_reference()),
        Some(other) => {
            eprintln!("unknown bundle {other:?}: expected no argument or \"fleet\"");
            std::process::exit(2);
        }
    }
}
