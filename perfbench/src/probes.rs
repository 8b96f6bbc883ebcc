//! Layer probes: direct, repeated calls into the chip, manager and
//! chip-server layers on a workload's own deployed chip. Each probe
//! reports the median of its calls.

use std::time::Instant;

use power_atm::chip::{ChipConfig, System};
use power_atm::core::charact::CharactConfig;
use power_atm::core::{AtmManager, Governor};
use power_atm::serve::{ChipRequest, ChipServeConfig, ChipServer};
use power_atm::telemetry::NullRecorder;
use power_atm::units::{Nanos, ProcId};

use crate::metrics::Metrics;
use crate::stats::median_secs;
use crate::workload;

/// Calls per timed probe.
const CALLS: usize = 15;
/// Short `System::run` calls per span length for the fixed-cost fit.
const SHORT_CALLS: usize = 200;
/// Simulated span of one kernel probe call.
const KERNEL_SPAN_NS: f64 = 100_000.0;
/// Requests per chip-server epoch in the dispatch probe: enough that
/// their dispatch cost stands well clear of the epoch's fixed cost.
const BATCH: usize = 1_024;
/// Virtual epoch length of the chip-server probe timeline.
const PROBE_EPOCH_NS: u64 = 200_000_000;

/// Deploys `system` with the campaign `cfg` and times it as
/// `core.deploy_s`. The conservative governor's extra safety step keeps
/// the long probe runs free of timing failures, which would cut them
/// short; the deploy work is the same under every governor.
pub fn deploy(system: System, cfg: &CharactConfig, ledger: &mut Metrics) -> AtmManager {
    let t0 = Instant::now();
    let mgr = AtmManager::deploy(system, Governor::Conservative, cfg);
    ledger.put("core.deploy_s", t0.elapsed().as_secs_f64());
    mgr
}

/// Deploys the silicon lot `seed` with the campaign `cfg` and probes its
/// stack serving critical squeezenet beside x264 and lu_cb.
///
/// # Errors
///
/// Fails when [`chip_stack`] does.
pub fn serving_chip(seed: u64, cfg: &CharactConfig, ledger: &mut Metrics) -> Result<(), String> {
    let mgr = deploy(System::new(ChipConfig::power7_plus(seed)), cfg, ledger);
    let chip = ChipServeConfig::standard(
        workload("squeezenet").clone(),
        vec![workload("x264").clone(), workload("lu_cb").clone()],
    );
    chip_stack(&mgr, &chip, ledger)
}

/// Probes the chip (`System::run`, `System::settle`), the manager
/// (`serve_posture`, `measure_core_freqs`, `apply_cap_levels`) and the
/// chip server (`step_epoch`, `checkpoint`) on a copy of `mgr`, serving
/// the `chip` recipe.
///
/// # Errors
///
/// Fails if the recipe cannot be postured or served, or a probe run hits
/// a timing failure.
pub fn chip_stack(
    mgr: &AtmManager,
    chip: &ChipServeConfig,
    ledger: &mut Metrics,
) -> Result<(), String> {
    let proc = ProcId::new(0);
    let mut m = mgr.clone();
    let mut posture = None;
    let posture_s = median_secs(CALLS, |_| {
        posture = Some(
            m.serve_posture(
                &chip.critical,
                &chip.backgrounds,
                chip.qos,
                &mut NullRecorder,
            )
            .map_err(|e| e.to_string()),
        );
    });
    let posture = posture.expect("probed at least once")?;
    ledger.put("core.serve_posture_us", posture_s * 1e6);
    ledger.put(
        "core.measure_core_freqs_us",
        median_secs(CALLS, |_| {
            std::hint::black_box(m.measure_core_freqs(proc));
        }) * 1e6,
    );
    if let Some(plan) = &posture.placement.plan {
        let critical = posture.placement.critical_core;
        let depth_s = median_secs(CALLS, |i| {
            let depth = u32::try_from(i % 2).expect("0 or 1");
            std::hint::black_box(m.apply_cap_levels(plan, critical, depth, 0, &mut NullRecorder));
        });
        ledger.put("core.apply_cap_levels_us", depth_s * 1e6);
        plan.apply(m.system_mut());
    }

    // The chip at the serving posture: the fixed cost of a `System::run`
    // call is the intercept of the 1 µs and 2 µs call times.
    let sys = m.system_mut();
    let mut failed = false;
    let mut run = |ns: f64| {
        let t0 = Instant::now();
        failed |= !sys.run(Nanos::new(ns), &mut NullRecorder).is_ok();
        t0.elapsed().as_secs_f64()
    };
    let mut one = Vec::with_capacity(SHORT_CALLS);
    let mut two = Vec::with_capacity(SHORT_CALLS);
    for _ in 0..SHORT_CALLS {
        one.push(run(1_000.0));
        two.push(run(2_000.0));
    }
    let (t1, t2) = (crate::stats::median(&one), crate::stats::median(&two));
    ledger.put("chip.run_fixed_us", (2.0 * t1 - t2) * 1e6);
    let kernel: Vec<f64> = (0..CALLS).map(|_| run(KERNEL_SPAN_NS)).collect();
    ledger.put(
        "chip.kernel_us_per_sim_us",
        crate::stats::median(&kernel) * 1e6 / (KERNEL_SPAN_NS / 1_000.0),
    );
    if failed {
        return Err(String::from("a chip probe run hit a timing failure"));
    }
    ledger.put(
        "chip.settle_us",
        median_secs(CALLS, |_| {
            std::hint::black_box(sys.settle());
        }) * 1e6,
    );

    // The chip server: an empty epoch, then the slope over batch size.
    let mut server = ChipServer::new(mgr.clone(), chip.clone()).map_err(|e| e.to_string())?;
    let mut epoch: u64 = 0;
    let mut step = |server: &mut ChipServer, n: usize| {
        let base = epoch * PROBE_EPOCH_NS;
        epoch += 1;
        let batch: Vec<ChipRequest> = (0..n)
            .map(|i| ChipRequest {
                at: base + (i as u64) * (PROBE_EPOCH_NS / BATCH as u64),
                critical: i % 16 == 0,
                #[allow(clippy::cast_precision_loss)]
                draw: ((i * 7919) % 1000) as f64 / 1000.0,
            })
            .collect();
        let t0 = Instant::now();
        let out = server.step_epoch(&batch, None);
        let s = t0.elapsed().as_secs_f64();
        (s, out.rejected.is_empty())
    };
    let (mut empty, mut full) = (Vec::new(), Vec::new());
    let mut served = true;
    // Blocks of eight, so periodic refresh epochs land in both groups.
    for _ in 0..4 {
        for _ in 0..8 {
            let (s, ok) = step(&mut server, 0);
            empty.push(s);
            served &= ok;
        }
        for _ in 0..8 {
            let (s, ok) = step(&mut server, BATCH);
            full.push(s);
            served &= ok;
        }
    }
    if !served {
        return Err(String::from("the probe chip server rejected a batch"));
    }
    let (e, f) = (crate::stats::median(&empty), crate::stats::median(&full));
    ledger.put("serve.step_epoch_us", e * 1e6);
    #[allow(clippy::cast_precision_loss)]
    ledger.put("serve.dispatch_ns_per_req", (f - e) * 1e9 / BATCH as f64);
    ledger.put(
        "recovery.chip_checkpoint_us",
        median_secs(CALLS, |_| {
            std::hint::black_box(server.checkpoint());
        }) * 1e6,
    );
    Ok(())
}
