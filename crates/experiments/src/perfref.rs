//! Golden-reference scenarios for the hot-path determinism contract.
//!
//! Each function here builds a fixed-seed scenario, runs it, and renders
//! the resulting report through `{:#?}`. Rust's `Debug` formatting for
//! `f64` is shortest-roundtrip, so two renderings are equal exactly when
//! every float in the reports is bit-identical — which makes the rendered
//! text a *byte-identity witness* for the whole report.
//!
//! The text produced by [`full_reference`] is checked in as
//! `tests/data/reference_reports.txt`, captured from the tree *before*
//! the tick-loop performance overhaul (its last block, the capped
//! [`serve_brownout_reference`], was appended later, before `ServeSim`
//! streamed its arrivals). `tests/perf_reference.rs` re-runs
//! the scenarios on every build and compares byte-for-byte, proving the
//! optimized hot path emits exactly the bit patterns the original one
//! did.
//!
//! # Examples
//!
//! ```no_run
//! let text = atm_experiments::perfref::full_reference();
//! print!("{text}");
//! ```

use atm_telemetry::NullRecorder;
use std::fmt::Write as _;

use atm_adapt::{AdaptConfig, OnlineAdapter};
use atm_capping::{CapConfig, FleetBudget, PowerBudget, UNLIMITED_MW};
use atm_chip::{ChipConfig, MarginMode, System};
use atm_core::charact::CharactConfig;
use atm_core::{AtmManager, Governor, LimitTable};
use atm_faults::{droop_storm, FaultKind, FaultPlan, FaultSpec, FaultTarget, FleetFaultPlan};
use atm_fleet::{FailoverConfig, FleetConfig, FleetSim};
use atm_serve::{ArrivalPattern, ServeConfig, ServeSim, StreamSpec};
use atm_silicon::DriftModel;
use atm_units::{CoreId, Nanos};
use atm_workloads::{by_name, voltage_virus, Workload};

/// Seeds exercised by the `SystemReport` scenarios.
pub const SYSTEM_SEEDS: [u64; 2] = [5, 9];
/// Seed for the stress, characterization, and serving scenarios.
pub const HEAVY_SEED: u64 = 42;

/// All-core x264 under ATM for 50 µs: the steady-state serving regime the
/// stride fast path targets.
#[must_use]
pub fn system_reference(seed: u64) -> String {
    let mut sys = System::new(ChipConfig::power7_plus(seed));
    sys.assign_all(by_name("x264").expect("catalog"));
    sys.set_mode_all(MarginMode::Atm);
    let report = sys.run(Nanos::new(50_000.0), &mut NullRecorder);
    format!("{report:#?}\n")
}

/// Voltage virus on every core with one ATM core for 20 µs: the
/// droop-heavy regime where the stride path must keep falling back to
/// 1-tick stepping.
#[must_use]
pub fn virus_reference(seed: u64) -> String {
    let mut sys = System::new(ChipConfig::power7_plus(seed));
    sys.assign_all(&voltage_virus());
    sys.set_mode(CoreId::new(0, 0), MarginMode::Atm);
    let report = sys.run(Nanos::new(20_000.0), &mut NullRecorder);
    format!("{report:#?}\n")
}

/// Quick-config Table I characterization: thousands of short shard runs,
/// covering warm starts, reseeds, and reduction sweeps.
#[must_use]
pub fn limit_table_reference(seed: u64) -> String {
    let mut sys = System::new(ChipConfig::power7_plus(seed));
    let x264 = by_name("x264").expect("catalog");
    let table = LimitTable::characterize(
        &mut sys,
        &[x264],
        &CharactConfig::quick(),
        &mut NullRecorder,
    );
    format!("{table:#?}\n")
}

/// The serving-layer recipe from `tests/serving.rs`: deploy, then serve a
/// critical SqueezeNet stream against bursty x264 and Poisson lu_cb
/// background traffic.
#[must_use]
pub fn serve_reference(seed: u64) -> String {
    let sq = by_name("squeezenet").expect("catalog");
    let x264 = by_name("x264").expect("catalog");
    let lu = by_name("lu_cb").expect("catalog");
    let streams = vec![
        StreamSpec::critical(
            sq,
            ArrivalPattern::Poisson {
                mean_gap: 150_000_000,
            },
            250_000_000,
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
    ];
    let sys = System::new(ChipConfig::power7_plus(seed));
    let mgr = AtmManager::deploy(sys, Governor::Default, &CharactConfig::quick());
    let sim = ServeSim::new(mgr, ServeConfig::quick(seed), streams).expect("valid serving setup");
    let report = sim.run(1, &mut NullRecorder);
    format!("{report:#?}\n")
}

/// The brownout window `[from, until)` of the serving scenario, in
/// epochs: the cap drops inside it and lifts again after it.
pub const BROWNOUT_WINDOW: (u32, u32) = (40, 140);

/// The critical stream's SLO in the brownout scenario: tight enough that
/// its running p99 comes within the admission's risk band and sheds
/// background traffic, so the cached p99 the loop reads matters.
const SLO: u64 = 180_000_000;

fn brownout_streams() -> Vec<StreamSpec> {
    let sq = by_name("squeezenet").expect("catalog");
    let x264 = by_name("x264").expect("catalog");
    let lu = by_name("lu_cb").expect("catalog");
    vec![
        StreamSpec::critical(
            sq,
            ArrivalPattern::Poisson {
                mean_gap: 100_000_000,
            },
            SLO,
        ),
        StreamSpec::background(
            x264,
            ArrivalPattern::Bursty {
                mean_gap: 8_000_000,
                burst_gap: 1_000_000,
                phase: 100_000_000,
            },
        ),
        StreamSpec::background(
            lu,
            ArrivalPattern::Poisson {
                mean_gap: 6_000_000,
            },
        ),
    ]
}

/// A capped serving run through a power brownout: a quick-deployed chip
/// serves 200 epochs × 200 ms of a critical SqueezeNet stream beside
/// heavy bursty x264 and Poisson lu_cb traffic, while a
/// [`PowerBudget::brownout`] scaled to the chip's own uncapped draw (150 %
/// nominal, 60 % floor over [`BROWNOUT_WINDOW`]) throttles and then
/// releases it. Aging silicon with the online adapter closed makes the
/// adapter read the serving queues (idle cores, backlog) every epoch.
/// The background load is heavy enough to defer and shed, and the
/// critical stream completes more requests than there are epochs, so
/// per-epoch tails see several samples.
#[must_use]
pub fn serve_brownout_sim(seed: u64) -> ServeSim {
    let streams = brownout_streams();
    let sys = System::new(ChipConfig::power7_plus(seed));
    let mgr = AtmManager::deploy(sys, Governor::Default, &CharactConfig::quick());
    let cfg = ServeConfig::builder(seed)
        .epochs(200)
        .epoch_ns(200_000_000)
        .chip_trial(Nanos::new(1_000.0))
        .build()
        .expect("valid serving config");
    // The chip's draw at its serving posture over one harvest trial.
    let draw_mw = {
        let mut probe = mgr.clone();
        let backgrounds: Vec<Workload> = streams[1..].iter().map(|s| s.workload.clone()).collect();
        probe
            .serve_posture(
                &streams[0].workload,
                &backgrounds,
                cfg.qos,
                &mut NullRecorder,
            )
            .expect("the serving streams posture");
        let report = probe.system_mut().run(cfg.chip_trial, &mut NullRecorder);
        (report.procs[0].mean_power.get() * 1_000.0).round() as u64
    };
    let (from, until) = BROWNOUT_WINDOW;
    let budget = PowerBudget::brownout(draw_mw * 3 / 2, draw_mw * 3 / 5, from, until);
    let mut sim = ServeSim::new(mgr, cfg, streams).expect("valid serving setup");
    sim.set_cap(CapConfig::standard(budget)).expect("valid cap");
    sim.set_drift(DriftModel::standard(seed));
    sim.set_adapter(Box::new(OnlineAdapter::new(AdaptConfig::standard())));
    sim
}

/// [`serve_brownout_sim`] run to completion.
#[must_use]
pub fn serve_brownout_reference(seed: u64) -> String {
    let report = serve_brownout_sim(seed).run(1, &mut NullRecorder);
    format!("{report:#?}\n")
}

/// A quick 8-chip fleet: the sharded epoch-barrier loop end to end, with
/// silicon lots, traffic lanes, and placement all derived from one seed.
#[must_use]
pub fn fleet_reference(seed: u64) -> String {
    let report = FleetSim::new(FleetConfig::quick(seed))
        .expect("valid quick fleet")
        .run(2);
    format!("{report:#?}\n")
}

/// A quick fleet with a 1-in-2 droop-storm campaign armed: fault hooks,
/// supervisor ladders, and routing reacting to injected damage.
#[must_use]
pub fn fleet_faulted_reference(seed: u64) -> String {
    let cfg = FleetConfig::quick(seed).with_faults(FleetFaultPlan::new(droop_storm(), 2));
    let report = FleetSim::new(cfg).expect("valid faulted fleet").run(2);
    format!("{report:#?}\n")
}

/// A 12-epoch quick fleet that loses chips mid-run with every recovery
/// feature on at once: a periodic hard-fail plan on ~⅓ of the chips,
/// the default failover ladder, aging silicon with the online adapter
/// closed, and a fleet budget that browns out over epochs `[4, 8)`.
#[must_use]
pub fn fleet_failover_config(seed: u64) -> FleetConfig {
    // 20 harvest ticks per epoch: the first kill lands in epoch 2, and a
    // resurrected chip dies again after three more live epochs.
    let killer = FaultPlan::new("periodic-chip-killer").with(FaultSpec {
        target: FaultTarget::Seeded,
        kind: FaultKind::ChipHardFail,
        start: 50,
        period: 60,
        repeats: 100,
        duration: 1,
    });
    let base = FleetConfig::quick(seed);
    let budget = PowerBudget::brownout(UNLIMITED_MW, 100_000 * u64::from(base.chips), 4, 8);
    base.with_epochs(12)
        .with_faults(FleetFaultPlan::new(killer, 3))
        .with_failover(FailoverConfig::default())
        .with_drift(DriftModel::standard(seed))
        .with_adapt(AdaptConfig::standard())
        .with_budget(FleetBudget::new(budget))
}

/// [`fleet_failover_config`] run to completion: hard fails, retries,
/// resurrection from machine checkpoints and probation, on top of
/// drift, adaptation and a binding fleet budget.
#[must_use]
pub fn fleet_failover_reference(seed: u64) -> String {
    let report = FleetSim::new(fleet_failover_config(seed))
        .expect("valid failover fleet")
        .run(2);
    format!("{report:#?}\n")
}

/// Renders the fleet scenarios into one labelled document (the exact
/// contents of `tests/data/fleet_reference.txt`).
#[must_use]
pub fn fleet_full_reference() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== FleetReport quick seed={HEAVY_SEED} ===");
    out.push_str(&fleet_reference(HEAVY_SEED));
    let _ = writeln!(out, "=== FleetReport faulted seed=7 ===");
    out.push_str(&fleet_faulted_reference(7));
    let _ = writeln!(out, "=== FleetReport failover seed={HEAVY_SEED} ===");
    out.push_str(&fleet_failover_reference(HEAVY_SEED));
    out
}

/// Renders every scenario into one labelled document (the checked-in
/// golden file's exact contents).
#[must_use]
pub fn full_reference() -> String {
    let mut out = String::new();
    for seed in SYSTEM_SEEDS {
        let _ = writeln!(out, "=== SystemReport atm-x264 seed={seed} ===");
        out.push_str(&system_reference(seed));
    }
    let _ = writeln!(out, "=== SystemReport virus seed={HEAVY_SEED} ===");
    out.push_str(&virus_reference(HEAVY_SEED));
    let _ = writeln!(out, "=== LimitTable quick seed={HEAVY_SEED} ===");
    out.push_str(&limit_table_reference(HEAVY_SEED));
    let _ = writeln!(out, "=== ServeReport quick seed={HEAVY_SEED} ===");
    out.push_str(&serve_reference(HEAVY_SEED));
    let _ = writeln!(out, "=== ServeReport brownout seed={HEAVY_SEED} ===");
    out.push_str(&serve_brownout_reference(HEAVY_SEED));
    out
}
