//! The command's contract: `BENCHMARK.json` names exactly the metrics the
//! code prints, the result is the last line, and bad usage or a failed
//! check exits non-zero.

use std::process::Command;

use atm_perfbench::metrics::{END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let json = benchmark_json();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"unit\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists extra metrics"
    );
}

fn perfbench(args: &[&str]) -> (i32, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_atm-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    (
        out.status.code().unwrap_or(-1),
        stdout.lines().map(str::to_owned).collect(),
    )
}

#[test]
fn result_is_the_last_line_with_every_metric() {
    for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let (code, lines) = perfbench(&[
            "--workload",
            "serve-brownout",
            "--size",
            "tiny",
            "--seconds",
            "0",
            "--trace",
            trace,
        ]);
        assert_eq!(code, 0, "{lines:?}");
        let last = lines.last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        for (name, unit) in table {
            let entry = format!("\"{name}\": {{\"value\": ");
            assert!(last.contains(&entry), "missing {name}");
            assert!(
                last.contains(&format!("\"unit\": \"{unit}\"")),
                "missing unit {unit}"
            );
        }
        assert!(!last.contains("null"), "a metric is not a number: {last}");
    }
}

#[test]
fn bad_usage_exits_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "characterize", "--trace", "2"],
    ] {
        let (code, lines) = perfbench(args);
        assert_eq!(code, 2);
        assert!(lines.is_empty(), "{lines:?}");
    }
}

#[test]
fn all_runs_every_workload_in_one_process() {
    let (code, lines) = perfbench(&["--workload", "all", "--size", "tiny", "--seconds", "0"]);
    assert_eq!(code, 0, "{lines:?}");
    let details = lines
        .iter()
        .filter(|l| l.starts_with("{\"detail\": "))
        .count();
    assert_eq!(details, 3, "{lines:?}");
    let last = lines.last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for workload in ["characterize", "serve-brownout", "fleet-failover"] {
        for (name, _) in END_TO_END {
            let entry = format!("\"{workload}.{name}\": {{\"value\": ");
            assert!(last.contains(&entry), "missing {workload}.{name}");
        }
    }
    assert!(!last.contains("null"), "a metric is not a number: {last}");
}
