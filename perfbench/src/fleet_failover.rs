//! `fleet-failover`: 64-chip fleets losing and resurrecting chips.
//!
//! Three fleets (seeds), one after another, each follow the
//! `FleetConfig::quick` recipe with 64 chips and 100 epochs. A periodic
//! `FaultKind::ChipHardFail` plan afflicts about a quarter of the chips;
//! `FailoverConfig::default()` takes per-epoch machine checkpoints,
//! retries bounced requests and resurrects dead chips.
//! `DriftModel::standard` ages the silicon while `AdaptConfig::standard()`
//! recharacterizes it online, and a `FleetBudget` browns out over the
//! middle fifth of the run. Each fleet is deployed on the worker threads
//! and stepped epoch by epoch through `FleetRun` on [`STEP_WORKERS`], so
//! route, barrier, `ChipServer` steps, checkpoints and adaptation all run
//! together.

use std::time::Instant;

use power_atm::adapt::{AdaptConfig, AdaptReport};
use power_atm::capping::{CapReport, FleetBudget, PowerBudget, UNLIMITED_MW};
use power_atm::chip::{ChipConfig, System};
use power_atm::core::charact::CharactConfig;
use power_atm::faults::{FaultKind, FaultPlan, FaultSpec, FaultTarget, FleetFaultPlan};
use power_atm::fleet::{
    FailoverConfig, FleetConfig, FleetReport, FleetRunCheckpoint, FleetSim, RoutingCounters,
};
use power_atm::silicon::DriftModel;

use crate::metrics::Metrics;
use crate::spans::Spans;
use crate::stats::{debug_digest, median, median_secs, quantile, FNV_OFFSET};
use crate::{frac, lots, probes, Rep, Size};

/// Engine ticks between hard fails of an afflicted chip.
const KILL_PERIOD_TICKS: u64 = 200;
/// One chip in this many carries the chip-killer plan.
const AFFLICT_ONE_IN: u32 = 4;
/// Brownout floor of the fleet budget, per chip.
const FLOOR_MW_PER_CHIP: u64 = 100_000;
/// Worker threads the measured epochs are stepped on. Each epoch shards
/// the chips round-robin over the workers behind a barrier, so two
/// workers run at the pace of the slower vCPU: a busy neighbour on one
/// vCPU slowed two-worker stepping by ~40 % while one worker stayed
/// steady. The traced run still steps at 1 and 2 workers
/// (`fleet.parallel_eff`).
const STEP_WORKERS: usize = 1;
/// Epochs stepped at 1 and at 2 workers in the identity probe.
const IDENTITY_EPOCHS: u32 = 10;
/// Timed calls per fleet checkpoint/restore probe.
const FLEET_CALLS: usize = 5;

/// The `fleet-failover` workload.
#[derive(Debug, Clone)]
pub struct FleetFailover {
    fleets: Vec<FleetConfig>,
    workers: usize,
}

impl FleetFailover {
    /// The workload for seed `seed` at `size`: three fleets of 64 chips ×
    /// 100 epochs at full size, one fleet of 16 chips × 30 epochs when
    /// tiny.
    #[must_use]
    pub fn new(seed: u64, size: Size, workers: usize) -> Self {
        let (fleets, chips, epochs) = match size {
            Size::Full => (3, 64, 100),
            Size::Tiny => (1, 16, 30),
        };
        FleetFailover {
            fleets: lots(seed, fleets)
                .into_iter()
                .map(|lot| Self::fleet(lot, chips, epochs))
                .collect(),
            workers,
        }
    }

    /// One fleet of the workload.
    #[must_use]
    pub fn fleet(seed: u64, chips: u32, epochs: u32) -> FleetConfig {
        let killer = FaultPlan::new("periodic-chip-killer").with(FaultSpec {
            target: FaultTarget::Seeded,
            kind: FaultKind::ChipHardFail,
            start: KILL_PERIOD_TICKS,
            period: KILL_PERIOD_TICKS,
            repeats: 1_000,
            duration: 1,
        });
        let budget = PowerBudget::brownout(
            UNLIMITED_MW,
            FLOOR_MW_PER_CHIP * u64::from(chips),
            epochs * 2 / 5,
            epochs * 3 / 5,
        );
        FleetConfig::quick(seed)
            .with_chips(chips)
            .with_epochs(epochs)
            .with_faults(FleetFaultPlan::new(killer, AFFLICT_ONE_IN))
            .with_failover(FailoverConfig::default())
            .with_drift(DriftModel::standard(seed))
            .with_adapt(AdaptConfig::standard())
            .with_budget(FleetBudget::new(budget))
    }

    /// The fleet report's own laws: exactly-once routing, energy
    /// conservation, and no critical traffic on draining chips.
    ///
    /// # Errors
    ///
    /// Names the first law the report breaks.
    pub fn check(report: &FleetReport) -> Result<(), String> {
        if !report.conservation_holds() {
            return Err(format!(
                "the routing books do not balance: {:?}",
                report.routing
            ));
        }
        if !report.energy_conserved() {
            return Err(String::from(
                "per-chip energy does not sum to the fleet total",
            ));
        }
        if !report.drained_respected() {
            return Err(String::from("a draining chip received critical traffic"));
        }
        Ok(())
    }
}

/// The deployed fleets, positioned before epoch 0.
#[derive(Debug)]
pub struct State {
    starts: Vec<FleetRunCheckpoint>,
}

impl crate::Workload for FleetFailover {
    type State = State;

    fn setup(&self) -> State {
        State {
            starts: self
                .fleets
                .iter()
                .map(|cfg| {
                    let sim = FleetSim::new(cfg.clone()).expect("valid fleet config");
                    sim.start(self.workers).checkpoint()
                })
                .collect(),
        }
    }

    fn rep(&self, state: &State, spans: &mut Spans) -> Rep {
        let t0 = Instant::now();
        let mut hook_ticks = 0;
        let reports: Vec<FleetReport> = state
            .starts
            .iter()
            .map(|start| {
                let mut run = start.thaw();
                while !run.done() {
                    spans.time("fleet.step_epoch", || run.step_epoch(STEP_WORKERS));
                }
                hook_ticks += run.max_hook_ticks();
                spans.time("fleet.finish", || run.finish())
            })
            .collect();
        let run_s = t0.elapsed().as_secs_f64();

        let sum = |f: &dyn Fn(&FleetReport) -> u64| reports.iter().map(f).sum::<u64>();
        let routing = |f: fn(&RoutingCounters) -> u64| sum(&|r| f(&r.routing));
        let generated = routing(|r| r.generated);
        let routed = routing(|r| r.routed);
        let completed = sum(&FleetReport::completed);
        let failed = routing(|r| r.shed + r.retry_shed + r.deferred_unserved + r.retry_unserved)
            + sum(&|r| r.rows.iter().map(|row| row.critical_slo_violations).sum());
        let worst_p99 = reports.iter().map(|r| r.critical.p99_ns).max().unwrap_or(0);
        let mut out = Metrics::default();
        #[allow(clippy::cast_precision_loss)]
        out.set("critical_p99_ms", worst_p99 as f64 / 1e6, "sim_ms");
        #[allow(clippy::cast_precision_loss)]
        out.set(
            "energy_per_req_uj",
            sum(&|r| r.energy.total_pj) as f64 / completed.max(1) as f64 / 1e6,
            "sim_uJ",
        );
        out.set("failed_frac", frac(failed, generated), "ratio");

        let mut layer = Metrics::default();
        let caps =
            |f: fn(&CapReport) -> u32| sum(&|r| r.caps.iter().map(|c| u64::from(f(c))).sum());
        let adapt = |f: fn(&AdaptReport) -> u64| sum(&|r| r.adapt.iter().map(f).sum());
        let mut count = |name: &str, v: u64| {
            #[allow(clippy::cast_precision_loss)]
            layer.set(name, v as f64, "count");
        };
        count("fleet.routed", routed);
        count("fleet.shed", routing(|r| r.shed));
        count("fleet.deferred", routing(|r| r.deferred));
        count("fleet.retried", routing(|r| r.retried));
        count("fleet.retry_shed", routing(|r| r.retry_shed));
        count(
            "fleet.hard_failed_chips",
            routing(|r| u64::from(r.hard_failed_chips)),
        );
        count(
            "fleet.resurrected_chips",
            routing(|r| u64::from(r.resurrected_chips)),
        );
        count("serve.completed", completed);
        count(
            "serve.shed",
            sum(&|r| r.rows.iter().map(|row| row.shed).sum()),
        );
        count(
            "serve.transitions",
            sum(&|r| r.rows.iter().map(|row| row.transitions).sum()),
        );
        count("capping.epochs", caps(|c| c.epochs));
        count("capping.throttle_steps", caps(|c| c.throttle_steps));
        count("capping.release_steps", caps(|c| c.release_steps));
        count("capping.over_budget_epochs", caps(|c| c.over_budget_epochs));
        count("adapt.observations", adapt(|a| a.observations));
        count("adapt.probes_run", adapt(|a| a.probes_run));
        count("adapt.retightens", adapt(|a| a.retightens));
        count("faults.hook_ticks", hook_ticks);
        layer.set("fleet.routed_frac", frac(routed, generated), "ratio");
        layer.set("serve.completed_frac", frac(completed, routed), "ratio");

        let mut host = Metrics::default();
        let steps = spans.durations("fleet.step_epoch");
        if !steps.is_empty() {
            host.set("fleet.step_epoch_ms.p50", median(steps) * 1e3, "ms");
            host.set("fleet.step_epoch_ms.p90", quantile(steps, 0.9) * 1e3, "ms");
            host.set(
                "fleet.finish_ms",
                median(spans.durations("fleet.finish")) * 1e3,
                "ms",
            );
        }
        let chip_epochs: f64 = self
            .fleets
            .iter()
            .map(|c| f64::from(c.chips) * f64::from(c.epochs) * c.chip.chip_trial.get())
            .sum();
        Rep {
            run_s,
            ops: completed,
            ops_s: run_s,
            sim_ns: chip_epochs,
            sim_s: run_s,
            attempted: generated,
            digest: reports.iter().fold(FNV_OFFSET, debug_digest),
            sim: out,
            layer,
            host,
            check: reports.iter().try_for_each(Self::check),
        }
    }

    fn probe(&self, state: &State, ledger: &mut Metrics) -> Result<(), String> {
        let cfg = &self.fleets[0];
        // Set-up again, timed as the fleet layer's start.
        let start_s = median_secs(3, |_| {
            let sim = FleetSim::new(cfg.clone()).expect("valid fleet config");
            std::hint::black_box(sim.start(self.workers));
        });
        ledger.put("fleet.start_s", start_s);

        // A mid-run run: checkpoint and restore it.
        let mut run = state.starts[0].thaw();
        while run.epoch() < cfg.epochs / 2 {
            run.step_epoch(STEP_WORKERS);
        }
        let mut mid = None;
        let cp_s = median_secs(FLEET_CALLS, |_| mid = Some(run.checkpoint()));
        let mid = mid.expect("checkpointed at least once");
        let restore_s = median_secs(FLEET_CALLS, |_| run.restore(&mid));
        ledger.put("recovery.fleet_checkpoint_ms", cp_s * 1e3);
        ledger.put("recovery.fleet_restore_ms", restore_s * 1e3);

        // Worker-count identity: the same restored epochs stepped at 1 and
        // at 2 workers must render identically.
        let (mut one, mut two) = (Vec::new(), Vec::new());
        let mut serial = mid.thaw();
        let mut sharded = mid.thaw();
        for _ in 0..IDENTITY_EPOCHS {
            if serial.done() {
                break;
            }
            let t0 = Instant::now();
            serial.step_epoch(1);
            one.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            sharded.step_epoch(2);
            two.push(t0.elapsed().as_secs_f64());
        }
        if debug_digest(FNV_OFFSET, &serial) != debug_digest(FNV_OFFSET, &sharded) {
            return Err(String::from(
                "a restored epoch stepped at 1 and at 2 workers rendered differently",
            ));
        }
        ledger.put("fleet.parallel_eff", median(&one) / (2.0 * median(&two)));

        // The chip stack. The fleet's 2 µs single-repeat deploy leaves
        // limits that fail within the long probe runs, so the stack is
        // probed on a chip deployed with the standard campaign; the
        // deploy time reported is the fleet recipe's.
        probes::serving_chip(cfg.seed, &CharactConfig::standard(), ledger)?;
        let system = System::new(ChipConfig::power7_plus(cfg.seed));
        let _ = probes::deploy(system, &cfg.charact, ledger);
        Ok(())
    }
}
