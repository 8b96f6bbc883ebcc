//! Serving-layer contract tests: the two properties `atm-serve`
//! guarantees by construction.
//!
//! * **Determinism** — a fixed seed yields a byte-identical
//!   [`ServeReport`] across independent runs *and* across arrival-worker
//!   counts (parallelism only pre-generates per-stream traces).
//! * **Degradation** — an injected timing failure mid-run triggers CPM
//!   rollback and critical re-placement, and the critical stream's p99
//!   returns below its SLO in steady state after the recovery; a chip
//!   that hard-fails serves nothing more, and every stream's books still
//!   balance.

use power_atm::chip::{ChipConfig, FailureKind, FaultAction, FaultHook, System};
use power_atm::core::charact::CharactConfig;
use power_atm::core::{AtmManager, Governor};
use power_atm::serve::{ArrivalPattern, ServeConfig, ServeReport, ServeSim, StreamSpec};
use power_atm::telemetry::NullRecorder;
use power_atm::units::{CoreId, Nanos};
use power_atm::workloads::by_name;

const SEED: u64 = 42;
/// 250 ms p99 budget for ~41 ms inferences at moderate load: queueing
/// spikes of up to ~5 clustered arrivals fit inside the budget.
const SLO_NS: u64 = 250_000_000;

fn streams() -> Vec<StreamSpec> {
    let sq = by_name("squeezenet").expect("catalog");
    let x264 = by_name("x264").expect("catalog");
    let lu = by_name("lu_cb").expect("catalog");
    vec![
        StreamSpec::critical(
            sq,
            ArrivalPattern::Poisson {
                mean_gap: 150_000_000,
            },
            SLO_NS,
        ),
        StreamSpec::background(
            x264,
            ArrivalPattern::Bursty {
                mean_gap: 20_000_000,
                burst_gap: 5_000_000,
                phase: 100_000_000,
            },
        ),
        StreamSpec::background(
            lu,
            ArrivalPattern::Poisson {
                mean_gap: 15_000_000,
            },
        ),
    ]
}

/// A fresh sim over a freshly deployed manager (chip seed = arrival seed).
fn sim(seed: u64) -> ServeSim {
    let sys = System::new(ChipConfig::power7_plus(seed));
    let mgr = AtmManager::deploy(sys, Governor::Default, &CharactConfig::quick());
    ServeSim::new(mgr, ServeConfig::quick(seed), streams()).expect("valid serving setup")
}

fn run(seed: u64, workers: usize) -> ServeReport {
    sim(seed).run(workers, &mut NullRecorder)
}

#[test]
fn same_seed_same_report_byte_for_byte() {
    let a = run(SEED, 1);
    let b = run(SEED, 1);
    assert!(a.completed > 0, "the run must actually serve traffic");
    assert_eq!(a, b);
}

#[test]
fn worker_count_never_changes_the_report() {
    let reference = run(SEED, 1);
    for workers in [2, 4, 8] {
        assert_eq!(reference, run(SEED, workers), "workers = {workers}");
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity that the equality above is meaningful.
    assert_ne!(run(SEED, 1), run(SEED + 1, 1));
}

#[test]
fn critical_slo_holds_under_clean_serving() {
    let report = run(SEED, 2);
    let crit = report.critical();
    assert!(crit.completed > 10, "critical stream saw traffic");
    assert!(
        crit.slo_met(),
        "critical p99 {} ns exceeds SLO {} ns",
        crit.p99_ns,
        crit.slo_ns
    );
    // Background streams actually ran too.
    assert!(report.completed > crit.completed);
}

#[test]
fn injected_failure_triggers_rollback_and_recovery() {
    const FAIL_EPOCH: u32 = 3;
    let mut s = sim(SEED);
    // Fail the critical core itself: worst case for the SLO.
    let clean = run(SEED, 1);
    let crit_core = clean.critical_core;
    s.inject_failure(FAIL_EPOCH, crit_core, FailureKind::SystemCrash);
    let report = s.run(1, &mut NullRecorder);

    // The degradation machinery reacted, at the right time, with rollback.
    let rb: Vec<_> = report
        .transitions
        .iter()
        .filter(|t| t.action.contains("rollback"))
        .collect();
    assert!(
        rb.iter().any(|t| t.epoch == FAIL_EPOCH),
        "no rollback at epoch {FAIL_EPOCH}: {:?}",
        report.transitions
    );
    assert!(
        rb[0].action.contains(&crit_core.to_string()),
        "rollback names the failed core: {}",
        rb[0].action
    );

    // Re-placement happened: the post-transition critical core is the
    // re-ranked fastest core, and the report's final core matches it.
    let last = report.transitions.last().expect("at least one transition");
    assert_eq!(report.critical_core, last.critical_core);

    // Steady state after recovery: every later epoch with critical
    // traffic keeps p99 within the SLO.
    let crit = report.critical();
    let after: Vec<u64> = crit
        .epoch_p99_ns
        .iter()
        .copied()
        .skip(FAIL_EPOCH as usize + 2)
        .filter(|&p| p > 0)
        .collect();
    assert!(!after.is_empty(), "critical stream kept serving");
    for p99 in &after {
        assert!(
            *p99 <= SLO_NS,
            "post-recovery epoch p99 {p99} ns exceeds SLO {SLO_NS} ns"
        );
    }
    // And the report as a whole stays deterministic under injection.
    let mut s2 = sim(SEED);
    s2.inject_failure(FAIL_EPOCH, crit_core, FailureKind::SystemCrash);
    assert_eq!(report, s2.run(4, &mut NullRecorder));
}

/// Serving resilience under a flapping core: with the supervisor
/// attached, a core that fails epoch after epoch climbs the strike
/// ladder — rollback, safe mode, and finally quarantine — while the
/// critical stream is re-placed onto healthy silicon and keeps serving.
/// The whole ordeal stays byte-deterministic across reruns and worker
/// counts.
#[test]
fn flapping_core_ends_quarantined_and_critical_stream_is_replaced() {
    use power_atm::core::{MarginSupervisor, SupervisorConfig};

    let clean = run(SEED, 1);
    // Flap the critical core itself: the supervisor must evict the
    // stream's own home.
    let flapper = clean.critical_core;
    let build = || {
        let mut s = sim(SEED);
        s.set_supervisor(MarginSupervisor::new(SupervisorConfig::default()));
        for epoch in 1..=6 {
            s.inject_failure(epoch, flapper, FailureKind::SystemCrash);
        }
        s
    };

    let report = build().run(1, &mut NullRecorder);
    let ladder: Vec<&str> = report
        .transitions
        .iter()
        .map(|t| t.action.as_str())
        .filter(|a| a.contains("supervisor"))
        .collect();
    assert!(
        ladder
            .iter()
            .any(|a| a.contains("safe mode") && a.contains(&flapper.to_string())),
        "flapping core never reached safe mode: {ladder:?}"
    );
    assert!(
        ladder
            .iter()
            .any(|a| a.contains("quarantine") && a.contains(&flapper.to_string())),
        "flapping core never quarantined: {ladder:?}"
    );

    // The critical stream found a new home and kept serving after the
    // quarantine epoch.
    assert_ne!(report.critical_core, flapper);
    let after: Vec<u64> = report
        .critical()
        .epoch_p99_ns
        .iter()
        .copied()
        .skip(6)
        .filter(|&p| p > 0)
        .collect();
    assert!(
        !after.is_empty(),
        "critical stream stopped serving after the quarantine"
    );

    // Byte-identical across reruns and worker counts.
    for workers in [2, 4, 8] {
        assert_eq!(
            report,
            build().run(workers, &mut NullRecorder),
            "workers = {workers}"
        );
    }
}

#[test]
fn failures_on_background_cores_leave_the_critical_core_alone() {
    let clean = run(SEED, 1);
    let bg_core = CoreId::all()
        .find(|c| c.proc_id().index() == 0 && *c != clean.critical_core)
        .expect("socket 0 has eight cores");
    let mut s = sim(SEED);
    s.inject_failure(2, bg_core, FailureKind::AbnormalExit);
    let report = s.run(1, &mut NullRecorder);
    assert!(report
        .transitions
        .iter()
        .any(|t| t.epoch == 2 && t.action.contains("rollback")));
    // The critical stream still meets its SLO.
    assert!(report.critical().slo_met());
}

/// Hard-fails the whole chip on the first tick of harvest trial `at`
/// (one trial per serving epoch, counted from 0).
struct KillOnTrial {
    at: u32,
    trials: u32,
}

impl FaultHook for KillOnTrial {
    fn armed(&self) -> bool {
        true
    }

    fn on_trial_start(&mut self) {
        self.trials += 1;
    }

    fn on_tick(&mut self, _now: Nanos, tick: u64, out: &mut Vec<FaultAction>) {
        if self.trials == self.at + 1 && tick == 0 {
            out.push(FaultAction::ChipHardFail {
                core: CoreId::new(0, 0),
            });
        }
    }
}

#[test]
fn hard_failed_chip_sheds_every_request_from_the_epoch_it_dies() {
    const DEATH_EPOCH: u32 = 4;
    let build = || {
        let mut s = sim(SEED);
        s.set_fault_hook(Box::new(KillOnTrial {
            at: DEATH_EPOCH,
            trials: 0,
        }));
        s
    };
    let clean = run(SEED, 1);
    let report = build().run(1, &mut NullRecorder);

    let death = DEATH_EPOCH as usize;
    for (stream, clean_stream) in report.streams.iter().zip(&clean.streams) {
        // Every offered request was either served or shed.
        assert_eq!(
            stream.offered,
            stream.completed + stream.shed,
            "{}: books must balance",
            stream.name
        );
        assert_eq!(stream.offered, clean_stream.offered, "{}", stream.name);
        // Until the death the run is the clean run; from it on nothing
        // completes.
        assert_eq!(
            stream.epoch_p99_ns[..death],
            clean_stream.epoch_p99_ns[..death],
            "{}",
            stream.name
        );
        assert!(
            stream.epoch_p99_ns[death..].iter().all(|&p| p == 0),
            "{}: served after the chip died: {:?}",
            stream.name,
            stream.epoch_p99_ns
        );
    }
    assert!(report.completed > 0, "the chip served before it died");
    assert!(report.completed < clean.completed);
    assert!(report.shed > clean.shed);
    assert!(report.transitions.iter().all(|t| t.epoch < DEATH_EPOCH));
    // The dead chip is metered no further.
    assert_eq!(report.energy.epochs, DEATH_EPOCH);
    assert_eq!(report.energy.requests, report.completed);
    assert_eq!(report, build().run(4, &mut NullRecorder));
}
