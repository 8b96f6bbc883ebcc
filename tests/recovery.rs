//! Acceptance suite for the recovery subsystem: resume identity,
//! chip-failure failover, and fault-campaign bisection.
//!
//! The contract under test is the resume identity
//!
//! ```text
//! run(0..T)  ≡  run(0..k); restore(checkpoint); run(k..T)      (byte-for-byte)
//! ```
//!
//! held across every scenario the fleet can be configured into (steady,
//! fault-armed, adaptive, power-capped), across worker counts
//! k ∈ {1, 2, 8}, and — for the scenarios the golden captures pin —
//! against the checked-in `tests/data/fleet_reference.txt` bytes. On top
//! of it ride the failover laws (a hard-failed chip's batches are
//! retried under a bounded backoff ladder while the exactly-once account
//! keeps balancing) and the bisection driver (a seeded multi-fault
//! campaign minimizes to exactly its known trigger).

use power_atm::adapt::AdaptConfig;
use power_atm::capping::FleetBudget;
use power_atm::experiments::perfref;
use power_atm::faults::{
    chip_killer, droop_storm, FaultKind, FaultPlan, FaultSpec, FaultTarget, FleetFaultPlan,
};
use power_atm::fleet::{FailoverConfig, FleetConfig, FleetReport, FleetSim};
use power_atm::recovery::{bisect, BisectConfig};
use proptest::prelude::*;

/// The four managed-state shapes the checkpoint machinery must carry:
/// plain queues, fault hooks mid-campaign, online adapters mid-probe,
/// and a power regulator with a live integral term.
fn scenario(which: usize, seed: u64) -> FleetConfig {
    let base = FleetConfig::quick(seed);
    match which % 4 {
        0 => base,
        1 => base.with_faults(FleetFaultPlan::new(droop_storm(), 2)),
        2 => base.with_adapt(AdaptConfig::standard()),
        _ => base.with_budget(FleetBudget::steady(200_000)),
    }
}

fn scenario_name(which: usize) -> &'static str {
    ["steady", "faulted", "adaptive", "capped"][which % 4]
}

/// Runs `cfg` three ways — one shot, steppable, and
/// checkpoint-at-`k`/restore/replay — and demands byte-identical reports
/// from all three.
fn assert_resume_identity(cfg: &FleetConfig, workers: usize, at: u32, label: &str) {
    let direct = FleetSim::new(cfg.clone())
        .expect("valid fleet")
        .run(workers);

    let mut run = FleetSim::new(cfg.clone())
        .expect("valid fleet")
        .start(workers);
    while run.epoch() < at {
        run.step_epoch(workers);
    }
    let cp = run.checkpoint();
    while !run.done() {
        run.step_epoch(workers);
    }
    let stepped = run.finish();
    assert_eq!(
        format!("{direct:#?}"),
        format!("{stepped:#?}"),
        "{label}: stepping diverged from the one-shot run"
    );

    let mut replay = cp.thaw();
    assert_eq!(
        replay.epoch(),
        at,
        "{label}: checkpoint taken at the wrong epoch"
    );
    while !replay.done() {
        replay.step_epoch(workers);
    }
    let resumed = replay.finish();
    assert_eq!(
        format!("{direct:#?}"),
        format!("{resumed:#?}"),
        "{label}: resume from epoch {at} diverged"
    );
}

/// The tentpole acceptance matrix: every scenario × k ∈ {1, 2, 8},
/// resumed from a mid-run checkpoint, byte-identical to the straight run.
#[test]
fn resume_identity_holds_for_every_scenario_and_worker_count() {
    for which in 0..4 {
        let cfg = scenario(which, 42);
        for workers in [1usize, 2, 8] {
            let label = format!("{} k={workers}", scenario_name(which));
            assert_resume_identity(&cfg, workers, 2, &label);
        }
    }
}

/// Resumed runs of the golden scenarios must still land exactly on the
/// checked-in capture — the checkpoint cannot smuggle in even one byte.
#[test]
fn resumed_runs_match_the_golden_capture() {
    let golden = include_str!("data/fleet_reference.txt");
    for (cfg, label) in [
        (scenario(0, 42), "steady seed=42"),
        (scenario(1, 7), "faulted seed=7"),
    ] {
        let mut run = FleetSim::new(cfg).expect("valid fleet").start(2);
        run.step_epoch(2);
        let cp = run.checkpoint();
        let mut replay = cp.thaw();
        while !replay.done() {
            replay.step_epoch(2);
        }
        let rendered = format!("{:#?}\n", replay.finish());
        assert!(
            golden.contains(&rendered),
            "{label}: resumed report is not the golden capture"
        );
    }
}

/// `restore` must rewind a run that has already moved on: step past the
/// checkpoint, rewind, replay — same bytes as never having left.
#[test]
fn restore_rewinds_a_diverged_run() {
    let cfg = scenario(3, 11);
    let mut run = FleetSim::new(cfg).expect("valid fleet").start(1);
    run.step_epoch(1);
    let cp = run.checkpoint();
    while !run.done() {
        run.step_epoch(1);
    }
    let first = format!("{run:#?}");
    run.restore(&cp);
    while !run.done() {
        run.step_epoch(1);
    }
    assert_eq!(format!("{run:#?}"), first);
}

fn failover_cfg(seed: u64, kill_tick: u64, epochs: u32) -> FleetConfig {
    FleetConfig::quick(seed)
        .with_epochs(epochs)
        .with_faults(FleetFaultPlan::new(chip_killer(kill_tick), 3))
        .with_failover(FailoverConfig::default())
}

/// The extended conservation law — every generated request is exactly
/// one of routed, shed, retry-shed, deferred-unserved or
/// retry-unserved — must hold at *every* epoch barrier of a failover
/// run, not just at the end.
#[test]
fn the_exactly_once_law_holds_at_every_barrier() {
    let mut run = FleetSim::new(failover_cfg(42, 25, 6))
        .expect("valid fleet")
        .start(2);
    while !run.done() {
        run.step_epoch(2);
        let partial = run.clone().finish();
        assert!(
            partial.conservation_holds(),
            "books unbalanced after epoch {}: {:?}",
            partial.epochs,
            partial.routing
        );
    }
    let report = run.finish();
    assert!(
        report.routing.hard_failed_chips >= 1,
        "{:?}",
        report.routing
    );
    assert!(report.routing.retried > 0, "{:?}", report.routing);
}

/// Failover decisions happen at the serial barrier, so the whole
/// kill → retry → resurrect → probation arc must be worker-count
/// invariant.
#[test]
fn failover_is_byte_identical_across_worker_counts() {
    let run = |workers: usize| -> FleetReport {
        FleetSim::new(failover_cfg(42, 25, 6))
            .expect("valid fleet")
            .run(workers)
    };
    let serial = format!("{:#?}", run(1));
    for workers in [2usize, 8] {
        assert_eq!(serial, format!("{:#?}", run(workers)), "k = {workers}");
    }
}

/// A chip killed after the first periodic checkpoint comes back: the
/// outage is detected, the machine resurrects from its checkpoint, and
/// the cumulative account survives the round trip.
#[test]
fn a_dead_chip_resurrects_from_its_checkpoint() {
    let report = FleetSim::new(failover_cfg(42, 25, 6))
        .expect("valid fleet")
        .run(2);
    assert!(
        report.routing.hard_failed_chips >= 1,
        "{:?}",
        report.routing
    );
    assert!(
        report.routing.resurrected_chips >= 1,
        "{:?}",
        report.routing
    );
    assert!(report.conservation_holds(), "{:?}", report.routing);
}

/// With no failover armed, the same outage sheds the bounced batches
/// instead of retrying them — and the books still balance.
#[test]
fn without_failover_the_outage_is_shed_not_retried() {
    let mut cfg = failover_cfg(42, 25, 6);
    cfg.failover = None;
    let report = FleetSim::new(cfg).expect("valid fleet").run(2);
    assert!(
        report.routing.hard_failed_chips >= 1,
        "{:?}",
        report.routing
    );
    assert_eq!(report.routing.retried, 0);
    assert_eq!(report.routing.resurrected_chips, 0);
    assert!(report.routing.retry_shed > 0, "{:?}", report.routing);
    assert!(report.conservation_holds(), "{:?}", report.routing);
}

/// A retry budget of zero is a legal ladder: the first bounce is already
/// past the ceiling, so everything the dead chip rejects is permanently
/// shed — bounded retry means *bounded*.
#[test]
fn a_zero_retry_budget_sheds_on_the_first_bounce() {
    let mut cfg = failover_cfg(42, 25, 6);
    cfg.failover = Some(FailoverConfig {
        retry_budget: 0,
        ..FailoverConfig::default()
    });
    let report = FleetSim::new(cfg).expect("valid fleet").run(2);
    assert!(
        report.routing.hard_failed_chips >= 1,
        "{:?}",
        report.routing
    );
    assert_eq!(report.routing.retried, 0, "{:?}", report.routing);
    assert!(report.routing.retry_shed > 0, "{:?}", report.routing);
    assert!(report.conservation_holds(), "{:?}", report.routing);
}

/// Every recovery feature at once — periodic hard fails under the
/// failover ladder, drifting silicon with the adapter closed, a fleet
/// budget that browns out mid-run — on the golden failover scenario:
/// worker-count byte identity, resume identity through a mid-run
/// checkpoint, and the exactly-once law at every barrier, together.
#[test]
fn combined_failover_drift_adapt_budget_keep_every_law() {
    let cfg = perfref::fleet_failover_config(42);
    let serial = FleetSim::new(cfg.clone()).expect("valid fleet").run(1);
    let rendered = format!("{serial:#?}");
    for workers in [2usize, 8] {
        let sharded = FleetSim::new(cfg.clone())
            .expect("valid fleet")
            .run(workers);
        assert_eq!(rendered, format!("{sharded:#?}"), "k = {workers}");
    }
    assert!(
        include_str!("data/fleet_reference.txt").contains(&format!("{rendered}\n")),
        "the combined run is not the golden failover capture"
    );
    // Non-vacuity: every feature under test actually engaged.
    let r = &serial.routing;
    assert!(r.hard_failed_chips > 0 && r.resurrected_chips > 0, "{r:?}");
    assert!(r.retried > 0, "{r:?}");
    assert!(serial.caps.iter().any(|c| c.throttle_steps > 0));
    assert!(serial.adapt.iter().any(|a| a.observations > 0));

    assert_resume_identity(&cfg, 2, 5, "combined");

    let mut run = FleetSim::new(cfg).expect("valid fleet").start(2);
    while !run.done() {
        run.step_epoch(2);
        let partial = run.clone().finish();
        assert!(
            partial.conservation_holds(),
            "books unbalanced after epoch {}: {:?}",
            run.epoch(),
            partial.routing
        );
    }
    assert_eq!(run.finish(), serial);
}

/// The bisection acceptance test: a three-spec campaign whose only
/// predicate-relevant member is the hard-fail spec minimizes to exactly
/// that spec — at every checkpoint stride — and the checkpoint replays
/// cost fewer epochs than fresh runs would have.
#[test]
fn bisect_recovers_the_known_minimal_fault() {
    let benign = |start: u64, kind: FaultKind| FaultSpec {
        target: FaultTarget::Seeded,
        kind,
        start,
        period: 0,
        repeats: 1,
        duration: 2,
    };
    let plan = FaultPlan::new("storm-with-a-killer")
        .with(benign(3, FaultKind::CpmDropout))
        .with(benign(
            10,
            FaultKind::LoadBurst {
                magnitude_mv: 45,
                sharpness_pct: 85,
            },
        ))
        .with(FaultSpec {
            target: FaultTarget::Seeded,
            kind: FaultKind::ChipHardFail,
            start: 45,
            period: 0,
            repeats: 1,
            duration: 1,
        });
    let cfg = FleetConfig::quick(42)
        .with_epochs(4)
        .with_faults(FleetFaultPlan::new(plan, 3))
        .with_failover(FailoverConfig::default());

    // Sparser checkpoint marks replay from earlier epochs but must reach
    // the same minimal set.
    for checkpoint_stride in [1, 2] {
        let outcome = bisect(
            &cfg,
            |report| report.routing.hard_failed_chips > 0,
            &BisectConfig {
                workers: 2,
                checkpoint_stride,
            },
        )
        .expect("bisectable campaign");

        assert_eq!(
            outcome.minimal_indices,
            vec![2],
            "stride {checkpoint_stride}: {outcome:?}"
        );
        assert_eq!(outcome.minimal[0].kind, FaultKind::ChipHardFail);
        assert!(
            outcome.epochs_replayed < outcome.epochs_full,
            "stride {checkpoint_stride}: checkpoint replay saved nothing: {outcome:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `restore(checkpoint(s))` is a byte-identical fixed point for an
    /// arbitrary mid-run state — whatever scenario the fleet is in
    /// (queues loaded, fault hooks mid-campaign, adapter probing, a
    /// regulator integral wound up) and wherever the run was paused.
    #[test]
    fn restore_of_checkpoint_is_a_fixed_point(
        seed in 1u64..500,
        which in 0usize..5,
        pause in 1u32..4,
    ) {
        // Scenario 4 adds the failover arc: a killed chip mid-ladder,
        // probation pending, retries parked.
        let cfg = if which == 4 {
            failover_cfg(seed, 25, 6)
        } else {
            scenario(which, seed)
        };
        let mut run = FleetSim::new(cfg).expect("valid fleet").start(2);
        for _ in 0..pause.min(run.config().epochs - 1) {
            run.step_epoch(2);
        }
        let before = format!("{run:#?}");
        let cp = run.checkpoint();
        run.restore(&cp);
        prop_assert_eq!(format!("{run:#?}"), before, "restore moved the state");

        // And thawing the same checkpoint carries the same bytes.
        prop_assert_eq!(format!("{:#?}", cp.thaw()), before);
    }
}
