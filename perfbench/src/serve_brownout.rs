//! `serve-brownout`: one managed chip serving three streams through a
//! power brownout.
//!
//! The chip (silicon lot [`LOT`]) is deployed with
//! `AtmManager::deploy(…, CharactConfig::standard())` and run under
//! `ServeSim::run`. The seed drives the traffic, open-loop in virtual
//! time: critical squeezenet (Poisson, 250 ms SLO), bursty x264 and
//! Poisson lu_cb. Each of the 30,000 200 ms epochs harvests one 1 µs chip
//! trial, so the fixed cost of a `System::run` call dominates, with about
//! a million requests dispatched. A `PowerBudget::brownout` keeps a
//! nominal cap above the chip's uncapped draw and drops to a floor well
//! below it over the middle two thirds of the trace: inside the window
//! the regulator restates caps and re-settles every epoch; outside it, it
//! idles.

use std::time::Instant;

use power_atm::capping::{CapConfig, PowerBudget};
use power_atm::chip::{ChipConfig, System};
use power_atm::core::charact::CharactConfig;
use power_atm::core::{AtmManager, Governor};
use power_atm::serve::{ArrivalPattern, ServeConfig, ServeReport, ServeSim, StreamSpec};
use power_atm::telemetry::NullRecorder;
use power_atm::units::Nanos;
use power_atm::workloads::Workload;

use crate::metrics::Metrics;
use crate::spans::Spans;
use crate::stats::{debug_digest, FNV_OFFSET};
use crate::{frac, probes, tiny_campaign, workload, Rep, Size};

/// Virtual nanoseconds per serving epoch.
const EPOCH_NS: u64 = 200_000_000;
/// Chip-simulation time harvested per epoch.
const CHIP_TRIAL_NS: f64 = 1_000.0;
/// Nominal cap, in percent of the chip's uncapped draw: above it, so it
/// never binds.
const NOMINAL_PCT: u64 = 150;
/// Brownout floor, in percent of the chip's uncapped draw: well below it.
const FLOOR_PCT: u64 = 58;
/// Mean inter-arrival gap of each background stream.
const BACKGROUND_GAP_NS: u64 = 20_000_000;

/// The silicon lot of the served chip: the machine under test is fixed,
/// and the seed drives the traffic it serves.
pub const LOT: u64 = 42;

/// The `serve-brownout` workload.
#[derive(Debug, Clone)]
pub struct ServeBrownout {
    seed: u64,
    epochs: u32,
    campaign: CharactConfig,
    workers: usize,
}

impl ServeBrownout {
    /// The workload for traffic seed `seed` at `size`: 30,000 epochs at
    /// full size, 60 when tiny.
    ///
    /// # Panics
    ///
    /// Panics only if the built-in campaign recipe is invalid.
    #[must_use]
    pub fn new(seed: u64, size: Size, workers: usize) -> Self {
        match size {
            Size::Full => ServeBrownout {
                seed,
                epochs: 30_000,
                campaign: CharactConfig::standard(),
                workers,
            },
            Size::Tiny => ServeBrownout {
                seed,
                epochs: 60,
                campaign: tiny_campaign(),
                workers,
            },
        }
    }

    /// The brownout window `[from, until)`, in epochs.
    #[must_use]
    pub fn window(&self) -> (u32, u32) {
        (self.epochs / 6, self.epochs * 5 / 6)
    }

    fn streams() -> Vec<StreamSpec> {
        vec![
            StreamSpec::critical(
                workload("squeezenet"),
                ArrivalPattern::Poisson {
                    mean_gap: 150_000_000,
                },
                250_000_000,
            ),
            StreamSpec::background(
                workload("x264"),
                ArrivalPattern::Bursty {
                    mean_gap: BACKGROUND_GAP_NS,
                    burst_gap: BACKGROUND_GAP_NS / 4,
                    phase: 100_000_000,
                },
            ),
            StreamSpec::background(
                workload("lu_cb"),
                ArrivalPattern::Poisson {
                    mean_gap: BACKGROUND_GAP_NS,
                },
            ),
        ]
    }
}

/// The deployed chip, its serving recipe and its brownout, which every
/// repetition replays.
#[derive(Debug)]
pub struct State {
    mgr: AtmManager,
    cfg: ServeConfig,
    cap: CapConfig,
}

impl crate::Workload for ServeBrownout {
    type State = State;

    fn setup(&self) -> State {
        let system = System::new(ChipConfig::power7_plus(LOT));
        let mgr = AtmManager::deploy(system, Governor::Default, &self.campaign);
        let cfg = ServeConfig::builder(self.seed)
            .epochs(self.epochs)
            .epoch_ns(EPOCH_NS)
            .chip_trial(Nanos::new(CHIP_TRIAL_NS))
            .build()
            .expect("valid serving config");
        // The brownout is scaled to the chip's own uncapped draw at its
        // serving posture.
        let draw_mw = uncapped_draw_mw(&mgr, &cfg);
        let (from, until) = self.window();
        let cap = CapConfig::standard(PowerBudget::brownout(
            draw_mw * NOMINAL_PCT / 100,
            draw_mw * FLOOR_PCT / 100,
            from,
            until,
        ));
        State { mgr, cfg, cap }
    }

    fn rep(&self, state: &State, spans: &mut Spans) -> Rep {
        let sim = self.sim(state);
        let t0 = Instant::now();
        let report = spans.time("serve.run", || sim.run(self.workers, &mut NullRecorder));
        let run_s = t0.elapsed().as_secs_f64();

        let offered: u64 = report.streams.iter().map(|s| s.offered).sum();
        let critical = report.critical();
        let mut out = Metrics::default();
        #[allow(clippy::cast_precision_loss)]
        out.set("critical_p99_ms", critical.p99_ns as f64 / 1e6, "sim_ms");
        #[allow(clippy::cast_precision_loss)]
        out.set(
            "energy_per_req_uj",
            report.energy.total_pj as f64 / report.completed.max(1) as f64 / 1e6,
            "sim_uJ",
        );
        out.set(
            "failed_frac",
            frac(report.shed + critical.slo_violations, offered),
            "ratio",
        );

        let mut layer = Metrics::default();
        let cap = report.cap.clone().unwrap_or_default();
        let mut count = |name: &str, v: u64| {
            #[allow(clippy::cast_precision_loss)]
            layer.set(name, v as f64, "count");
        };
        count("capping.epochs", cap.epochs.into());
        count("capping.throttle_steps", cap.throttle_steps.into());
        count("capping.release_steps", cap.release_steps.into());
        count("capping.over_budget_epochs", cap.over_budget_epochs.into());
        count("serve.completed", report.completed);
        count("serve.shed", report.shed);
        count("serve.transitions", report.transitions.len() as u64);
        layer.set(
            "serve.completed_frac",
            frac(report.completed, offered),
            "ratio",
        );

        let mut host = Metrics::default();
        if spans.is_on() {
            host.set("serve.run_s", run_s, "s");
        }
        Rep {
            run_s,
            ops: report.completed,
            ops_s: run_s,
            sim_ns: f64::from(self.epochs) * CHIP_TRIAL_NS,
            sim_s: run_s,
            attempted: offered,
            digest: debug_digest(FNV_OFFSET, &report),
            sim: out,
            layer,
            host,
            check: self.check(&report),
        }
    }

    fn probe(&self, _state: &State, ledger: &mut Metrics) -> Result<(), String> {
        probes::serving_chip(LOT, &self.campaign, ledger)
    }
}

/// The chip's draw at its serving posture, in milliwatts, over one
/// harvest trial.
fn uncapped_draw_mw(mgr: &AtmManager, cfg: &ServeConfig) -> u64 {
    let mut mgr = mgr.clone();
    let streams = ServeBrownout::streams();
    let backgrounds: Vec<Workload> = streams[1..].iter().map(|s| s.workload.clone()).collect();
    mgr.serve_posture(
        &streams[0].workload,
        &backgrounds,
        cfg.qos,
        &mut NullRecorder,
    )
    .expect("the serving streams posture");
    let report = mgr.system_mut().run(cfg.chip_trial, &mut NullRecorder);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let mw = (report.procs[0].mean_power.get() * 1_000.0).round() as u64;
    mw
}

impl ServeBrownout {
    /// A capped serving simulator over a copy of the deployed chip, ready
    /// to run.
    ///
    /// # Panics
    ///
    /// Panics only if the built-in recipe is invalid.
    #[must_use]
    pub fn sim(&self, state: &State) -> ServeSim {
        let mut sim = ServeSim::new(state.mgr.clone(), state.cfg.clone(), Self::streams())
            .expect("valid serving setup");
        sim.set_cap(state.cap.clone()).expect("valid cap");
        sim
    }

    /// The serving report's own laws: no stream finishes or sheds more
    /// requests than it was offered, and the cap throttles inside the
    /// brownout window and never before it.
    ///
    /// # Errors
    ///
    /// Names the first law the report breaks.
    pub fn check(&self, report: &ServeReport) -> Result<(), String> {
        if let Some(s) = report
            .streams
            .iter()
            .find(|s| s.completed + s.shed > s.offered)
        {
            return Err(format!(
                "stream {} finished {} and shed {} of {} offered",
                s.name, s.completed, s.shed, s.offered
            ));
        }
        let cap = report.cap.as_ref().ok_or("the cap never armed")?;
        let (from, until) = self.window();
        let (from, until) = (from as usize, until as usize);
        if cap.depth.len() != self.epochs as usize {
            return Err(format!("the cap reported {} epochs", cap.depth.len()));
        }
        if let Some(e) = cap.depth[..from].iter().position(|&d| d > 0) {
            return Err(format!(
                "the cap throttled at epoch {e}, before the brownout"
            ));
        }
        if cap.throttle_steps == 0 || cap.depth[from..until].iter().all(|&d| d == 0) {
            return Err(String::from("the cap never throttled inside the brownout"));
        }
        Ok(())
    }
}
