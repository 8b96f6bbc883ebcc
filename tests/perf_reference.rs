//! Exactness suite for the tick-loop hot-path overhaul.
//!
//! The overhaul (invariant hoisting, allocation-free stepping, the stride
//! fast path) is licensed only by proofs that it cannot change a single
//! bit of any trajectory. These tests pin that promise three ways:
//!
//! 1. the full reference bundle — steady-state, droop-heavy, parallel
//!    characterization and serving scenarios — must match the golden file
//!    captured from the tree *before* the overhaul, byte for byte (the
//!    capped brownout serving block was captured later, before the
//!    serving loop's bookkeeping was streamlined);
//! 2. disabling the stride fast path (`System::set_stride(false)`) must
//!    not change any report, while the fast path must actually engage
//!    when enabled;
//! 3. for any split of a run into chunks, `run_chunked` must equal the
//!    single continuous run byte for byte.

use power_atm::chip::{ChipConfig, MarginMode, System};
use power_atm::experiments::perfref;
use power_atm::telemetry::NullRecorder;
use power_atm::units::{CoreId, Nanos};
use power_atm::workloads::by_name;
use proptest::prelude::*;

/// Pinpoints the first diverging line so a regression reads as a small
/// diff, not two megabyte blobs.
fn assert_same_text(actual: &str, expected: &str, what: &str) {
    if actual == expected {
        return;
    }
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{what}: first divergence at line {}", i + 1);
    }
    panic!(
        "{what}: line counts differ ({} vs {})",
        actual.lines().count(),
        expected.lines().count()
    );
}

/// The hot-path bundle must match the golden capture byte for byte. Its
/// last block, a capped serving run through a brownout, was appended
/// before `ServeSim` streamed its arrivals and trimmed its per-request
/// and per-epoch bookkeeping, which must not move a byte of it.
#[test]
fn full_reference_matches_golden_capture() {
    let expected = include_str!("data/reference_reports.txt");
    let actual = perfref::full_reference();
    assert_same_text(&actual, expected, "reference bundle");
}

/// The fleet bundle — a quick sharded fleet, plain, fault-armed, and
/// losing chips under failover with drift, adaptation and a fleet budget
/// — must match the golden capture byte for byte on every build. The
/// first two blocks date from the tree where the fleet subsystem landed;
/// the failover block was appended before the failover checkpoints were
/// slimmed down to the machine half, which must not move a byte of it.
#[test]
fn fleet_reference_matches_golden_capture() {
    let expected = include_str!("data/fleet_reference.txt");
    let actual = perfref::fleet_full_reference();
    assert_same_text(&actual, expected, "fleet bundle");
}

/// The brownout golden only guards the serving loop's bookkeeping if the
/// run actually goes through it: deferred readmissions through the
/// pending heap, sheds, cap throttles and releases with their
/// transitions, adapter probes placed from the queues' idle cores, and
/// epochs whose tail is taken over several samples.
#[test]
fn serve_brownout_reference_is_not_vacuous() {
    let report = perfref::serve_brownout_sim(perfref::HEAVY_SEED).run(1, &mut NullRecorder);
    assert!(report.deferred > 0, "no request was deferred");
    assert!(report.shed > 0, "no request was shed");
    let cap = report.cap.as_ref().expect("the cap is armed");
    assert!(cap.throttle_steps > 0, "the cap never throttled");
    assert!(cap.release_steps > 0, "the cap never released");
    for (what, prefix) in [("throttle", "cap throttle"), ("release", "cap release")] {
        assert!(
            report
                .transitions
                .iter()
                .any(|t| t.action.starts_with(prefix)),
            "no cap {what} transition"
        );
    }
    let (from, until) = perfref::BROWNOUT_WINDOW;
    assert!(cap.depth[..from as usize].iter().all(|&d| d == 0));
    assert!(cap.depth[from as usize..until as usize]
        .iter()
        .any(|&d| d > 0));
    assert_eq!(cap.final_depth, 0, "the cap must lift after the brownout");
    let adapt = report.adapt.as_ref().expect("the adapter is armed");
    assert!(adapt.probes_run > 0, "no probe ran on an idle core");
    // More completions than epochs puts at least two samples into some
    // epoch of every stream (pigeonhole).
    for s in &report.streams {
        assert!(
            s.completed > u64::from(report.epochs),
            "{}: {} completions over {} epochs",
            s.name,
            s.completed,
            report.epochs
        );
    }
}

fn atm_report(seed: u64, stride: bool, span: Nanos) -> (String, u64) {
    let mut sys = System::new(ChipConfig::power7_plus(seed));
    sys.set_stride(stride);
    sys.assign_all(by_name("x264").expect("catalog"));
    sys.set_mode_all(MarginMode::Atm);
    let report = sys.run(span, &mut NullRecorder);
    let fast: u64 = CoreId::all()
        .map(|id| sys.core(id).stride_fast_ticks())
        .sum();
    (format!("{report:#?}"), fast)
}

#[test]
fn stride_toggle_never_changes_a_report() {
    for seed in [3u64, 17, 42] {
        let span = Nanos::new(30_000.0);
        let (on, fast_on) = atm_report(seed, true, span);
        let (off, fast_off) = atm_report(seed, false, span);
        assert_same_text(&on, &off, "stride on vs off");
        assert!(
            fast_on > 0,
            "stride path never engaged in a steady ATM run (seed {seed})"
        );
        assert_eq!(fast_off, 0, "disabled stride must never take the fast path");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `run(a + b + c)` and `run_chunked(&[a, b, c])` are one trial split
    /// at caller-visible boundaries — the reports must be byte-identical.
    #[test]
    fn chunked_run_equals_continuous_run(
        seed in 0u64..10_000,
        a_us in 1u64..=8,
        b_us in 1u64..=8,
        c_us in 1u64..=8,
    ) {
        let build = |seed: u64| {
            let mut sys = System::new(ChipConfig::power7_plus(seed));
            sys.assign_all(by_name("x264").expect("catalog"));
            sys.set_mode_all(MarginMode::Atm);
            sys
        };
        let us = |n: u64| Nanos::new(n as f64 * 1000.0);
        let whole = build(seed).run(us(a_us + b_us + c_us), &mut NullRecorder);
        let chunked = build(seed).run_chunked(&[us(a_us), us(b_us), us(c_us)], &mut NullRecorder);
        assert_same_text(
            &format!("{chunked:#?}"),
            &format!("{whole:#?}"),
            "chunked vs continuous",
        );
    }
}
