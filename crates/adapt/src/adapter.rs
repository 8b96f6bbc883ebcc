//! The serving-loop seam: the [`Adapter`] trait, the do-nothing
//! [`NullAdapter`], and the full [`OnlineAdapter`] that closes the ATM
//! tuning loop in production.
//!
//! The serving layer calls [`Adapter::on_epoch`] once per epoch with an
//! [`AdaptContext`] — mutable access to the [`AtmManager`], the epoch's
//! chip harvest, and the traffic picture. The default implementation
//! does nothing and [`Adapter::enabled`] defaults to `false`, so a
//! serving path wired to [`NullAdapter`] pays one virtual call per epoch
//! and nothing else (the zero-cost-when-off law, benchmarked in
//! `adapt_overhead`).
//!
//! [`OnlineAdapter`] composes the subsystem: harvest observations feed
//! the [`OnlineEstimator`], quiet epochs run [`MicroProbe`] bursts,
//! window boundaries close RMS accounting, and the [`RetightenPolicy`]
//! proposes margin restoration — applied strictly through
//! [`AtmManager::retighten_core`], so the supervisor's strike
//! ladder keeps full authority over anything the adapter tightens.

use std::collections::BTreeSet;
use std::fmt;

use atm_chip::SystemReport;
use atm_core::AtmManager;
use atm_telemetry::{RingRecorder, TelemetrySnapshot};
use atm_units::{CoreId, Nanos};
use atm_workloads::Workload;

use crate::config::AdaptConfig;
use crate::estimator::OnlineEstimator;
use crate::policy::RetightenPolicy;
use crate::probe::MicroProbe;
use crate::report::AdaptReport;

/// Everything the serving layer lends the adapter for one epoch.
pub struct AdaptContext<'a> {
    /// The manager owning the chip (probes run through it; re-tightens
    /// apply through it).
    pub mgr: &'a mut AtmManager,
    /// The epoch's settled chip harvest.
    pub harvest: &'a SystemReport,
    /// The epoch index.
    pub epoch: u64,
    /// Queue backlog at the epoch boundary, virtual nanoseconds.
    pub backlog_ns: u64,
    /// The posture's cores in deterministic order (re-tighten
    /// candidates).
    pub serving: &'a [CoreId],
    /// Cores whose work queues had drained by the epoch boundary
    /// (micro-probe parking pool; never includes the critical core).
    pub idle: &'a [CoreId],
    /// Where the critical stream runs.
    pub critical_core: CoreId,
    /// Cores under supervisor discipline (probation ∪ safe mode ∪
    /// quarantine) — the policy must not touch them.
    pub blocked: &'a BTreeSet<CoreId>,
}

impl fmt::Debug for AdaptContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptContext")
            .field("epoch", &self.epoch)
            .field("backlog_ns", &self.backlog_ns)
            .field("serving", &self.serving)
            .field("idle", &self.idle)
            .field("critical_core", &self.critical_core)
            .field("blocked", &self.blocked)
            .finish_non_exhaustive()
    }
}

/// The recharacterization seam. All methods default to no-ops so a
/// disabled serving path costs one `enabled()` check per hook site.
pub trait Adapter: Send + fmt::Debug {
    /// Whether the adapter does anything at all. Hook sites consult this
    /// before assembling an [`AdaptContext`], so a disabled adapter pays
    /// nothing.
    fn enabled(&self) -> bool {
        false
    }

    /// Runs one epoch of adaptation. Returns `true` iff the adapter
    /// changed the chip (re-tightened a core), in which case the serving
    /// layer must re-measure its posture frequencies.
    fn on_epoch(&mut self, ctx: AdaptContext<'_>) -> bool {
        let _ = ctx;
        false
    }

    /// Feeds one completed critical request: `app` served in
    /// `service_ns` at `freq_khz`, against nominal `baseline_khz`.
    fn on_service(&mut self, app: &str, freq_khz: u64, baseline_khz: u64, service_ns: u64) {
        let _ = (app, freq_khz, baseline_khz, service_ns);
    }

    /// The adapter's deterministic account, if it keeps one.
    fn report(&self) -> Option<AdaptReport> {
        None
    }

    /// A boxed deep copy of the adapter, learned state and all — the
    /// seam that lets the serving layer's checkpoint machinery clone a
    /// `Box<dyn Adapter>`. Resuming from the copy must be byte-identical
    /// to continuing with the original.
    fn clone_box(&self) -> Box<dyn Adapter>;
}

impl Clone for Box<dyn Adapter> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The do-nothing adapter: production serving with adaptation off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullAdapter;

impl Adapter for NullAdapter {
    fn clone_box(&self) -> Box<dyn Adapter> {
        Box::new(*self)
    }
}

/// The full online recharacterization loop (see the module docs).
#[derive(Debug, Clone)]
pub struct OnlineAdapter {
    cfg: AdaptConfig,
    estimator: OnlineEstimator,
    probe: MicroProbe,
    policy: RetightenPolicy,
    recorder: RingRecorder,
    retightens: u64,
    retighten_steps: u64,
}

impl OnlineAdapter {
    /// Creates an adapter from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`AdaptConfig::check`] — an invalid recipe
    /// must never reach a live chip.
    #[must_use]
    pub fn new(cfg: AdaptConfig) -> Self {
        cfg.check().expect("adapt config must validate");
        OnlineAdapter {
            cfg,
            estimator: OnlineEstimator::new(cfg.forgetting_milli),
            probe: MicroProbe::new(cfg.probe_budget_per_epoch),
            policy: RetightenPolicy::new(),
            recorder: RingRecorder::with_capacity(cfg.telemetry_capacity),
            retightens: 0,
            retighten_steps: 0,
        }
    }

    /// The adapter's configuration.
    #[must_use]
    pub fn config(&self) -> &AdaptConfig {
        &self.cfg
    }

    /// Read access to the live estimator (tests and experiments).
    #[must_use]
    pub fn estimator(&self) -> &OnlineEstimator {
        &self.estimator
    }

    /// A snapshot of the adapter's private telemetry ring.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.recorder.snapshot()
    }

    /// Chip power of the socket hosting `core`, milliwatts.
    fn socket_power_mw(harvest: &SystemReport, core: CoreId) -> u64 {
        let proc = &harvest.procs[core.proc_id().index()];
        let mw = proc.mean_power.get() * 1_000.0;
        if mw.is_finite() && mw > 0.0 {
            mw.round() as u64
        } else {
            0
        }
    }

    /// Feeds every serving core's `(socket power, settled frequency)`
    /// point from `report` into the estimator.
    fn ingest(&mut self, report: &SystemReport, serving: &[CoreId]) {
        for &core in serving {
            let power_mw = Self::socket_power_mw(report, core);
            if power_mw == 0 {
                continue;
            }
            let mhz = report.core(core).mean_freq.get();
            if !mhz.is_finite() || mhz <= 0.0 {
                continue;
            }
            let freq_khz = (mhz * 1_000.0).round() as u64;
            let _ = self.estimator.observe_freq(core, power_mw, freq_khz);
        }
    }

    /// Runs this epoch's micro-probe bursts: parks a rotating number of
    /// queue-idle cores, settles the chip for `probe_trial_ns`, feeds the
    /// burst's operating point to the estimator, restores the parked
    /// workloads, and drains the burst's chip events (calibration noise,
    /// not serving telemetry).
    fn run_probes(&mut self, ctx: &mut AdaptContext<'_>) {
        let plans = self.probe.plan_epoch(
            ctx.backlog_ns,
            self.cfg.low_traffic_backlog_ns,
            ctx.idle.len(),
        );
        for plan in plans {
            let parked = &ctx.idle[..plan.parked];
            let saved: Vec<(CoreId, Workload)> = parked
                .iter()
                .map(|&c| (c, ctx.mgr.system().core(c).workload().clone()))
                .collect();
            for &core in parked {
                ctx.mgr.system_mut().assign(core, Workload::idle());
            }
            let report = ctx.mgr.system_mut().run(
                Nanos::new(self.cfg.probe_trial_ns as f64),
                &mut self.recorder,
            );
            self.ingest(&report, ctx.serving);
            for (core, workload) in saved {
                ctx.mgr.system_mut().assign(core, workload);
            }
            let _ = ctx.mgr.system_mut().drain_events();
        }
    }
}

impl Adapter for OnlineAdapter {
    fn enabled(&self) -> bool {
        true
    }

    fn on_epoch(&mut self, mut ctx: AdaptContext<'_>) -> bool {
        self.ingest(ctx.harvest, ctx.serving);
        self.run_probes(&mut ctx);
        if (ctx.epoch + 1).is_multiple_of(u64::from(self.cfg.window_epochs)) {
            self.estimator.end_window();
        }
        let picked = self.policy.decide(
            &self.cfg,
            ctx.epoch,
            ctx.backlog_ns,
            &self.estimator,
            ctx.serving,
            ctx.blocked,
        );
        let mut changed = false;
        for core in picked {
            let before = ctx.mgr.system().core(core).reduction();
            let after = ctx
                .mgr
                .retighten_core(core, self.cfg.retighten_steps, &mut self.recorder);
            if after > before {
                changed = true;
                self.retightens += 1;
                self.retighten_steps += (after - before) as u64;
            }
        }
        changed
    }

    fn on_service(&mut self, app: &str, freq_khz: u64, baseline_khz: u64, service_ns: u64) {
        self.estimator
            .observe_service(app, freq_khz, baseline_khz, service_ns);
    }

    fn report(&self) -> Option<AdaptReport> {
        Some(AdaptReport {
            windows: self.estimator.windows().to_vec(),
            observations: self.estimator.observations(),
            app_observations: self.estimator.app_observations(),
            probes_run: self.probe.probes_run(),
            probes_deferred: self.probe.probes_deferred(),
            retightens: self.retightens,
            retighten_steps: self.retighten_steps,
        })
    }

    fn clone_box(&self) -> Box<dyn Adapter> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_adapter_is_inert() {
        let mut null = NullAdapter;
        assert!(!null.enabled());
        null.on_service("squeezenet", 4_600_000, 4_200_000, 40_000_000);
        assert_eq!(null.report(), None);
    }

    #[test]
    fn online_adapter_reports_service_observations() {
        let mut adapter = OnlineAdapter::new(AdaptConfig::standard());
        assert!(adapter.enabled());
        adapter.on_service("squeezenet", 4_600_000, 4_200_000, 40_000_000);
        adapter.on_service("squeezenet", 4_400_000, 4_200_000, 42_000_000);
        let report = adapter.report().unwrap();
        assert_eq!(report.app_observations, 2);
        assert_eq!(report.retightens, 0);
    }

    #[test]
    #[should_panic(expected = "adapt config must validate")]
    fn invalid_config_is_rejected_at_construction() {
        let cfg = AdaptConfig {
            window_epochs: 0,
            ..AdaptConfig::standard()
        };
        let _ = OnlineAdapter::new(cfg);
    }
}
