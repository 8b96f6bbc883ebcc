//! `characterize`: the paper's characterization campaign, then steady ATM.
//!
//! For each of three silicon lots, `CharactEngine::run_parallel` runs
//! idle → uBench → realistic over the realistic application set (18 apps)
//! with `CharactConfig::standard()` on the worker threads. A steady phase follows: long `System::run`
//! spans of x264 on every core at the deployed limits (the campaign's
//! thread-worst row, rolled back two steps for safety as a vendor would).
//! The tick kernel dominates; no serving, capping or fleet code runs.

use std::time::Instant;

use power_atm::chip::{CharactStats, ChipConfig, MarginMode, System, SystemReport};
use power_atm::core::charact::CharactConfig;
use power_atm::core::{CharactEngine, EngineResult};
use power_atm::telemetry::NullRecorder;
use power_atm::units::{CoreId, Nanos};
use power_atm::workloads::{realistic_set, Workload};

use crate::metrics::Metrics;
use crate::spans::Spans;
use crate::stats::{debug_digest, fnv1a, FNV_OFFSET};
use crate::{frac, lots, probes, tiny_campaign, workload, Rep, Size};

/// Rollback applied to the thread-worst limits for the steady phase.
pub const STEADY_ROLLBACK: usize = 2;

/// The `characterize` workload.
#[derive(Debug, Clone)]
pub struct Characterize {
    lots: Vec<u64>,
    campaign: CharactConfig,
    apps: usize,
    spans: usize,
    span_ns: f64,
    workers: usize,
}

impl Characterize {
    /// The workload for seed `seed` at `size`: three silicon lots at full
    /// size, one when tiny.
    ///
    /// # Panics
    ///
    /// Panics only if the built-in campaign recipe is invalid.
    #[must_use]
    pub fn new(seed: u64, size: Size, workers: usize) -> Self {
        match size {
            Size::Full => Characterize {
                lots: lots(seed, 3),
                campaign: CharactConfig::standard(),
                apps: realistic_set().len(),
                spans: 40,
                span_ns: 100_000.0,
                workers,
            },
            Size::Tiny => Characterize {
                lots: lots(seed, 1),
                campaign: tiny_campaign(),
                apps: 2,
                spans: 4,
                span_ns: 10_000.0,
                workers,
            },
        }
    }
}

/// The minted chips every repetition characterizes afresh.
#[derive(Debug)]
pub struct State {
    systems: Vec<System>,
}

/// What one lot's campaign and steady phase produced. The digest and
/// the checks are taken from it after the timed phases.
struct Lot {
    charact_s: f64,
    steady_s: f64,
    result: EngineResult,
    reports: Vec<SystemReport>,
    deployed: Result<(), String>,
}

impl Lot {
    fn points(&self) -> u64 {
        self.result.stats.points_simulated
    }

    fn failed_spans(&self) -> u64 {
        self.reports.iter().map(|r| u64::from(!r.is_ok())).sum()
    }

    /// The steady phase's core frequencies, summed over its spans.
    fn mhz(&self) -> f64 {
        self.reports
            .iter()
            .map(|report| {
                #[allow(clippy::cast_precision_loss)]
                let mean = report.cores.iter().map(|c| c.mean_freq.get()).sum::<f64>()
                    / report.cores.len() as f64;
                mean
            })
            .sum()
    }

    fn digest(&self) -> u64 {
        let r = &self.result;
        let mut digest = debug_digest(FNV_OFFSET, &r.table);
        digest = debug_digest(digest, &r.idle);
        digest = debug_digest(digest, &r.ubench);
        digest = debug_digest(digest, &r.realistic);
        self.reports.iter().fold(digest, debug_digest)
    }

    /// The campaign's and the steady phase's own laws over `apps`.
    fn check(&self, apps: usize) -> Result<(), String> {
        self.deployed.clone()?;
        let r = &self.result;
        let t = &r.table;
        let cores = CoreId::all().count();
        if self.points() == 0 {
            Err(String::from("the campaign simulated no points"))
        } else if r.idle.len() != cores
            || r.ubench.len() != cores
            || r.realistic.profiles.len() != cores * apps
        {
            Err(format!(
                "the campaign limited {} idle, {} uBench and {} ⟨app, core⟩ pairs",
                r.idle.len(),
                r.ubench.len(),
                r.realistic.profiles.len()
            ))
        } else if let Some(c) = CoreId::all().find(|c| {
            let i = c.flat_index();
            !(t.thread_worst[i] <= t.thread_normal[i]
                && t.thread_normal[i] <= t.ubench[i]
                && t.ubench[i] <= t.idle[i])
        }) {
            Err(format!("Table I limits of {c} are out of order"))
        } else if self.mhz() <= 0.0 {
            Err(String::from("the steady phase ran at 0 MHz"))
        } else {
            Ok(())
        }
    }
}

impl Characterize {
    fn lot(&self, system: &System, apps: &[&Workload], spans: &mut Spans) -> Lot {
        // A fresh engine: its sweep cache must start empty, or the second
        // repetition would replay the first one's points.
        let engine = CharactEngine::new(system.config().clone(), self.campaign);
        let t0 = Instant::now();
        let result = spans.time("core.charact", || engine.run_parallel(apps, self.workers));
        let charact_s = t0.elapsed().as_secs_f64();

        let mut sys = system.clone();
        let mut deployed = Ok(());
        for c in CoreId::all() {
            let limit = result.table.thread_worst[c.flat_index()].saturating_sub(STEADY_ROLLBACK);
            if let Err(e) = sys.set_reduction(c, limit) {
                deployed = Err(format!("deployed limit of {c} rejected: {e}"));
            }
        }
        sys.assign_all(workload("x264"));
        sys.set_mode_all(MarginMode::Atm);
        let t1 = Instant::now();
        let reports = (0..self.spans)
            .map(|_| {
                spans.time("chip.run", || {
                    sys.run(Nanos::new(self.span_ns), &mut NullRecorder)
                })
            })
            .collect();
        let steady_s = t1.elapsed().as_secs_f64();
        Lot {
            charact_s,
            steady_s,
            result,
            reports,
            deployed,
        }
    }
}

impl crate::Workload for Characterize {
    type State = State;

    fn setup(&self) -> State {
        State {
            systems: self
                .lots
                .iter()
                .map(|&lot| System::new(ChipConfig::power7_plus(lot)))
                .collect(),
        }
    }

    fn rep(&self, state: &State, spans: &mut Spans) -> Rep {
        let apps: Vec<&Workload> = realistic_set().into_iter().take(self.apps).collect();
        let t0 = Instant::now();
        let lots: Vec<Lot> = state
            .systems
            .iter()
            .map(|system| self.lot(system, &apps, spans))
            .collect();
        let run_s = t0.elapsed().as_secs_f64();

        let points: u64 = lots.iter().map(Lot::points).sum();
        let failed_spans: u64 = lots.iter().map(Lot::failed_spans).sum();
        let spans_run = (self.spans * lots.len()) as u64;
        let summed = |f: fn(&CharactStats) -> u64| lots.iter().map(|l| f(&l.result.stats)).sum();
        let hits: u64 = summed(|s| s.cache_hits);
        let misses: u64 = summed(|s| s.cache_misses);
        let charact_s: f64 = lots.iter().map(|l| l.charact_s).sum();
        let busy_ns: u64 = summed(CharactStats::total_wall_ns);
        let phase = |f: fn(&CharactStats) -> u64| ns_to_s(summed(f));

        let mut sim = Metrics::default();
        #[allow(clippy::cast_precision_loss)]
        sim.set(
            "mean_atm_mhz",
            lots.iter().map(Lot::mhz).sum::<f64>() / spans_run as f64,
            "sim_MHz",
        );
        sim.set("failed_frac", frac(failed_spans, spans_run), "ratio");
        #[allow(clippy::cast_precision_loss)]
        sim.set("points", points as f64, "count");
        let mut layer = Metrics::default();
        #[allow(clippy::cast_precision_loss)]
        layer.set("core.charact.points", points as f64, "count");
        layer.set(
            "core.charact.cache_hit_frac",
            frac(hits, hits + misses),
            "ratio",
        );
        let mut host = Metrics::default();
        host.set("core.charact.idle_s", phase(|s| s.idle_wall_ns), "s");
        host.set("core.charact.ubench_s", phase(|s| s.ubench_wall_ns), "s");
        host.set(
            "core.charact.realistic_s",
            phase(|s| s.realistic_wall_ns),
            "s",
        );
        #[allow(clippy::cast_precision_loss)]
        let parallel_eff = ns_to_s(busy_ns) / (self.workers as f64 * charact_s);
        host.set("core.charact.parallel_eff", parallel_eff, "ratio");
        #[allow(clippy::cast_precision_loss)]
        Rep {
            run_s,
            ops: points,
            ops_s: charact_s,
            sim_ns: spans_run as f64 * self.span_ns,
            sim_s: lots.iter().map(|l| l.steady_s).sum(),
            attempted: points + spans_run,
            digest: lots
                .iter()
                .fold(FNV_OFFSET, |h, l| fnv1a(h, &l.digest().to_le_bytes())),
            sim,
            layer,
            host,
            check: lots.iter().try_for_each(|l| l.check(apps.len())),
        }
    }

    fn probe(&self, _state: &State, ledger: &mut Metrics) -> Result<(), String> {
        probes::serving_chip(self.lots[0], &self.campaign, ledger)
    }
}

#[allow(clippy::cast_precision_loss)]
fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}
