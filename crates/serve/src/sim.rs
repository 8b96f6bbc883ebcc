//! The deterministic serving simulator.
//!
//! [`ServeSim`] drives the managed ATM stack with open-loop request
//! traffic. It is a thin driver over one [`ChipServer`], which owns the
//! chip, its per-core queues and the whole per-epoch control body: the
//! [`AtmManager`] postures the chip (critical stream on the fastest core,
//! backgrounds backfilled and throttled to the QoS power budget), each
//! epoch the chip simulation runs briefly to harvest [`ChipEvent`]s, and
//! the supervisor (or, without one, the droop policy) turns failures and
//! droop alarms into CPM rollbacks, critical re-placement, and
//! background throttling. The driver draws the arrivals, runs admission
//! and per-stream accounting for each request, and renders the chip's
//! transitions into the final [`ServeReport`].
//!
//! Everything is a pure function of the seeds: each stream's arrivals are
//! drawn lazily from its own RNG and merged on the fly in
//! `(time, stream, seq)` order, the event loop is serial in virtual time,
//! and the report carries only integers, so a fixed seed yields a
//! byte-identical [`ServeReport`] on every run.
//!
//! The loop's bookkeeping scales with the work done: per-core backlogs
//! live in flat arrays with finish queues popped from the front, the
//! live background cores are listed once per epoch, each epoch's tail is
//! read off that epoch's own sorted latencies, and the critical stream's
//! running p99 is re-read only when it gained samples.
//!
//! [`ChipEvent`]: atm_chip::ChipEvent

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use atm_adapt::{Adapter, NullAdapter};
use atm_capping::{CapConfig, EnergyModel};
use atm_chip::{FailureEvent, FailureKind, FaultHook};
use atm_core::{AtmManager, MarginSupervisor};
use atm_silicon::DriftModel;
use atm_telemetry::{AdmissionDecision, AdmissionVerdict, Recorder, SimTime, TelemetryEvent};
use atm_units::{AtmError, CoreId, Nanos, CORES_PER_PROC, NUM_PROCS};
use atm_workloads::{ServiceProfile, Workload};

use crate::admission::Admission;
use crate::arrival;
use crate::chipstep::{ChipServeConfig, ChipServer};
use crate::config::ServeConfig;
use crate::histogram::LatencyHistogram;
use crate::report::{ServeReport, StreamStats, Transition};
use crate::stream::{StreamClass, StreamSpec};

/// A request awaiting dispatch (fresh or deferred). Ordered by its
/// unique `(time, stream, seq)` key first, so the pending heap pops
/// deterministically; the service draw rides along as raw bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    time: u64,
    stream: usize,
    seq: u32,
    defers: u32,
    orig: u64,
    draw_bits: u64,
}

impl Pending {
    fn key(&self) -> (u64, usize, u32) {
        (self.time, self.stream, self.seq)
    }
}

/// Running per-stream accounting.
#[derive(Debug, Default)]
struct StreamState {
    offered: u64,
    completed: u64,
    shed: u64,
    deferred: u64,
    slo_violations: u64,
    max_queue_depth: u64,
    hist: LatencyHistogram,
    /// This epoch's latencies, sorted and cleared at the barrier.
    epoch_latencies: Vec<u64>,
    epoch_p99: Vec<u64>,
}

/// The serving simulator. Consumed by [`ServeSim::run`].
pub struct ServeSim {
    mgr: AtmManager,
    cfg: ServeConfig,
    streams: Vec<StreamSpec>,
    /// The chip's knobs: the serving ones from `cfg` and the streams,
    /// the cap and the energy model. A supervisor, when attached, is this
    /// run's own, so the config's supervisor thresholds go unused.
    chip: ChipServeConfig,
    supervisor: Option<MarginSupervisor>,
    faults: Option<Box<dyn FaultHook>>,
    injected: Vec<(u32, FailureEvent)>,
    adapter: Box<dyn Adapter>,
    drift: Option<DriftModel>,
}

impl fmt::Debug for ServeSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeSim")
            .field("mgr", &self.mgr)
            .field("cfg", &self.cfg)
            .field("streams", &self.streams)
            .field("chip", &self.chip)
            .field("supervisor", &self.supervisor)
            .field("faults_armed", &self.faults.as_ref().map(|h| h.armed()))
            .field("injected", &self.injected)
            .field("adapter", &self.adapter)
            .field("drift", &self.drift)
            .finish()
    }
}

impl ServeSim {
    /// Builds a simulator over a deployed manager.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] unless `streams` holds exactly
    /// one critical stream and at least one background stream, or if the
    /// config fails [`ServeConfig::check`].
    pub fn new(
        mgr: AtmManager,
        cfg: ServeConfig,
        streams: Vec<StreamSpec>,
    ) -> Result<Self, AtmError> {
        cfg.check()?;
        let mut criticals = streams.iter().filter(|s| s.class == StreamClass::Critical);
        let (Some(critical), None) = (criticals.next(), criticals.next()) else {
            return Err(AtmError::invalid_config(
                "streams",
                "need exactly one critical stream",
            ));
        };
        let backgrounds: Vec<Workload> = streams
            .iter()
            .filter(|s| s.class == StreamClass::Background)
            .map(|s| s.workload.clone())
            .collect();
        if backgrounds.is_empty() {
            return Err(AtmError::invalid_config(
                "streams",
                "need at least one background stream",
            ));
        }
        let chip = ChipServeConfig {
            qos: cfg.qos,
            droop_alarm: cfg.droop_alarm,
            chip_trial: cfg.chip_trial,
            critical_slo_ns: critical.slo_ns,
            refresh_every: cfg.refresh_every,
            energy: Some(EnergyModel::standard(cfg.epoch_ns)),
            ..ChipServeConfig::standard(critical.workload.clone(), backgrounds)
        };
        Ok(ServeSim {
            mgr,
            cfg,
            streams,
            chip,
            supervisor: None,
            faults: None,
            injected: Vec::new(),
            adapter: Box::new(NullAdapter),
            drift: None,
        })
    }

    /// Arms a power cap: each epoch the regulator integrates the chip's
    /// measured power against the budget schedule and throttles (or
    /// releases) through the posture's throttle ladder — background cores
    /// first, the critical core only after the background tier bottoms
    /// out, and never past the slowest p-state. Supervisor actions
    /// outrank the regulator; releases are deferred while over budget.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if `cap` fails
    /// [`CapConfig::check`].
    pub fn set_cap(&mut self, cap: CapConfig) -> Result<(), AtmError> {
        cap.check()?;
        self.chip.capping = Some(cap);
        Ok(())
    }

    /// Replaces the energy model the run integrates with (the default is
    /// [`EnergyModel::standard`] over the config's epoch span).
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if `model` fails
    /// [`EnergyModel::check`].
    pub fn set_energy_model(&mut self, model: EnergyModel) -> Result<(), AtmError> {
        model.check()?;
        self.chip.energy = Some(model);
        Ok(())
    }

    /// Installs an online recharacterization adapter (replacing the
    /// default no-op [`NullAdapter`]). The adapter observes each epoch's
    /// chip harvest, may run micro-probe bursts on queue-idle cores, and
    /// may re-tighten margins through the manager — always below the
    /// supervisor's strike ladder.
    pub fn set_adapter(&mut self, adapter: Box<dyn Adapter>) {
        self.adapter = adapter;
    }

    /// Arms epoch-by-epoch silicon drift (per-core aging plus seasonal
    /// temperature offsets): before each epoch's harvest, every core's
    /// true path delay is re-derived from the pristine silicon at the
    /// model's ppm schedule.
    pub fn set_drift(&mut self, drift: DriftModel) {
        self.drift = Some(drift);
    }

    /// Attaches a margin-safety supervisor. Once attached, the supervisor
    /// owns the failure response — its strike ladder (rollback →
    /// backed-off re-probe → safe mode → quarantine) replaces the plain
    /// droop policy's per-failure rollback, while the policy keeps
    /// handling droop-alarm throttle step-downs. Quarantined and safe-moded cores
    /// drop out of every subsequent placement, so critical streams are
    /// re-placed automatically.
    pub fn set_supervisor(&mut self, supervisor: MarginSupervisor) {
        self.supervisor = Some(supervisor);
    }

    /// Arms a chip-level fault hook (e.g. a resolved `atm-faults`
    /// campaign plan) for the per-epoch chip harvests: each epoch's
    /// hardware trial runs with this hook instead of a clean run. The
    /// hook's tick clock spans the whole serving trace, so one plan
    /// unfolds across epochs deterministically.
    ///
    /// A [`ChipHardFail`](atm_chip::FaultAction::ChipHardFail) kills the
    /// chip for the rest of the run: from the epoch it dies in, every
    /// request is shed.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.faults = Some(hook);
    }

    /// Schedules a synthetic timing failure on `core`, delivered with the
    /// chip events of epoch `epoch` — the test hook for exercising the
    /// degradation path on demand.
    pub fn inject_failure(&mut self, epoch: u32, core: CoreId, kind: FailureKind) {
        self.injected.push((
            epoch,
            FailureEvent {
                core,
                kind,
                at: Nanos::ZERO,
            },
        ));
    }

    /// Runs the full serving trace and returns the deterministic report.
    ///
    /// `workers` is kept for callers that size a thread pool: arrivals
    /// are drawn lazily on the calling thread, so it no longer affects
    /// the run — and, as before, never affects the report.
    ///
    /// The initial posture, chip harvests, admission verdicts, latencies,
    /// rollbacks and throttle step-downs record through `rec`, with the
    /// recorder clock tracking the virtual serving timeline; pass
    /// [`&mut NullRecorder`](atm_telemetry::NullRecorder) for the zero-overhead
    /// unrecorded path — the report is identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn run<R: Recorder>(self, workers: usize, rec: &mut R) -> ServeReport {
        assert!(workers > 0, "need at least one worker");
        let ServeSim {
            mgr,
            cfg,
            streams,
            chip,
            supervisor,
            mut faults,
            injected,
            adapter,
            drift,
        } = self;
        let horizon = u64::from(cfg.epochs) * cfg.epoch_ns;

        let crit_idx = streams
            .iter()
            .position(|s| s.class == StreamClass::Critical)
            .expect("checked in new");
        let crit_slo = streams[crit_idx].slo_ns;
        let profiles: Vec<ServiceProfile> = streams
            .iter()
            .map(|s| s.workload.service_profile())
            .collect();

        let mut chip = ChipServer::with_supervisor(mgr, chip, supervisor, rec)
            .expect("streams validated in new");
        chip.set_adapter(adapter);
        if let Some(d) = drift {
            chip.set_drift(d);
        }

        let mut arrivals = arrival::MergedArrivals::new(&streams, cfg.seed, horizon).peekable();
        // Min-heap of deferred requests.
        let mut pending: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();

        let mut states: Vec<StreamState> = streams.iter().map(|_| StreamState::default()).collect();
        // Per core (by flat index): the finish times still ahead of the
        // clock, in order — the queue depth each dispatch sees.
        let mut finishes: Vec<VecDeque<u64>> = vec![VecDeque::new(); NUM_PROCS * CORES_PER_PROC];
        // The critical stream's running p99, as of the sample count it
        // was read at.
        let mut crit_p99 = (0u64, 0u64);
        let bg_cap = cfg
            .serving_cores
            .map_or(usize::MAX, |n| (n as usize).saturating_sub(1));
        let mut transitions: Vec<Transition> = Vec::new();

        for epoch in 0..cfg.epochs {
            let epoch_start = u64::from(epoch) * cfg.epoch_ns;
            let epoch_end = u64::from(epoch + 1) * cfg.epoch_ns;

            let hook = faults.as_deref_mut().map(|h| h as &mut dyn FaultHook);
            let alive = chip.begin_epoch(hook, &injected, epoch_start, bg_cap, rec);
            let (critical_core, critical_freq_mhz) = chip.critical();
            transitions.extend(chip.actions().iter().map(|a| Transition {
                epoch,
                action: a.to_string(),
                critical_core,
                critical_freq_mhz,
            }));

            let crit_count = states[crit_idx].hist.count();
            let critical_at_risk = crit_slo > 0 && crit_count >= 20 && {
                if crit_p99.0 != crit_count {
                    crit_p99 = (crit_count, states[crit_idx].hist.quantile(0.99));
                }
                crit_p99.1 as f64 > cfg.admission.slo_risk * crit_slo as f64
            };

            // Dispatch this epoch's arrivals and readmissions in
            // (time, stream, seq) order.
            loop {
                let arr_key = arrivals.peek().map(arrival::Request::key);
                let use_pending = match (arr_key, pending.peek().map(|p| p.0.key())) {
                    (Some(a), Some(p)) => p < a,
                    (None, Some(_)) => true,
                    (Some(_), None) => false,
                    (None, None) => break,
                };
                // If the earlier of the two is past the epoch, both are.
                let req = if use_pending {
                    if pending.peek().expect("peeked").0.time >= epoch_end {
                        break;
                    }
                    pending.pop().expect("peeked").0
                } else {
                    if arr_key.expect("peeked").0 >= epoch_end {
                        break;
                    }
                    let a = arrivals.next().expect("peeked");
                    Pending {
                        time: a.time,
                        stream: a.stream,
                        seq: a.seq,
                        defers: 0,
                        orig: a.time,
                        draw_bits: a.draw.to_bits(),
                    }
                };

                let spec = &streams[req.stream];
                let state = &mut states[req.stream];
                if req.defers == 0 {
                    state.offered += 1;
                }
                let now = req.time;
                rec.advance_to(SimTime::from_nanos(now));

                // Target core: critical pinned; background to the live
                // core with the least backlog. A dead chip, or a fully
                // gated background tier, serves nothing.
                let critical = spec.class == StreamClass::Critical;
                let target = if alive { chip.target(critical) } else { None };
                let Some(core) = target else {
                    state.shed += 1;
                    rec.incr("serve.shed", 1);
                    continue;
                };
                let backlog = chip.backlog(core, now);
                let verdict =
                    cfg.admission
                        .decide(spec.class, backlog, req.defers, critical_at_risk);
                if rec.enabled() {
                    rec.record(TelemetryEvent::Admission(AdmissionDecision {
                        t: rec.now(),
                        stream: req.stream as u32,
                        critical,
                        verdict: match verdict {
                            Admission::Accept => AdmissionVerdict::Accept,
                            Admission::Defer => AdmissionVerdict::Defer,
                            Admission::Shed => AdmissionVerdict::Shed,
                        },
                        backlog_ns: backlog,
                    }));
                }
                match verdict {
                    Admission::Shed => {
                        state.shed += 1;
                        rec.incr("serve.shed", 1);
                        continue;
                    }
                    Admission::Defer => {
                        state.deferred += 1;
                        rec.incr("serve.deferred", 1);
                        let mut d = req;
                        d.time = now + cfg.admission.defer_by;
                        d.defers += 1;
                        if d.time >= horizon {
                            state.shed += 1;
                            rec.incr("serve.shed", 1);
                        } else {
                            pending.push(Reverse(d));
                        }
                        continue;
                    }
                    Admission::Accept => {
                        rec.incr("serve.accepted", 1);
                    }
                }

                let svc = (&spec.workload, &profiles[req.stream]);
                let draw = f64::from_bits(req.draw_bits);
                let finish = chip.serve(core, now, draw, critical, svc);
                // A core's finishes only grow (each starts at or after
                // the previous one), so the ones behind the clock are a
                // prefix of its queue.
                let fin = &mut finishes[core.flat_index()];
                while fin.front().is_some_and(|&f| f <= now) {
                    fin.pop_front();
                }
                debug_assert!(fin.back().is_none_or(|&f| f < finish));
                fin.push_back(finish);
                state.max_queue_depth = state.max_queue_depth.max(fin.len() as u64);

                let latency = finish - req.orig;
                rec.observe("serve.latency_ns", latency);
                state.hist.record(latency);
                state.epoch_latencies.push(latency);
                state.completed += 1;
                if spec.slo_ns > 0 && latency > spec.slo_ns {
                    state.slo_violations += 1;
                }
            }
            if alive {
                chip.end_epoch();
            }

            for state in &mut states {
                state.epoch_latencies.sort_unstable();
                state.epoch_p99.push(LatencyHistogram::quantile_of_sorted(
                    &state.epoch_latencies,
                    0.99,
                ));
                state.epoch_latencies.clear();
            }
        }

        // Anything still deferred past the horizon was never served.
        for Reverse(p) in pending.into_vec() {
            states[p.stream].shed += 1;
            rec.incr("serve.shed", 1);
        }

        let streams: Vec<StreamStats> = streams
            .iter()
            .zip(states)
            .map(|(spec, st)| StreamStats {
                name: spec.name.clone(),
                class: spec.class,
                offered: st.offered,
                completed: st.completed,
                shed: st.shed,
                deferred: st.deferred,
                slo_ns: spec.slo_ns,
                slo_violations: st.slo_violations,
                p50_ns: st.hist.quantile(0.5),
                p95_ns: st.hist.quantile(0.95),
                p99_ns: st.hist.quantile(0.99),
                max_ns: st.hist.max(),
                mean_ns: st.hist.mean(),
                max_queue_depth: st.max_queue_depth,
                epoch_p99_ns: st.epoch_p99,
            })
            .collect();
        let summary = chip.summary();
        ServeReport {
            seed: cfg.seed,
            epochs: cfg.epochs,
            epoch_ns: cfg.epoch_ns,
            completed: streams.iter().map(|s| s.completed).sum(),
            shed: streams.iter().map(|s| s.shed).sum(),
            deferred: streams.iter().map(|s| s.deferred).sum(),
            critical_core: chip.critical().0,
            transitions,
            streams,
            adapt: chip.adapt_report(),
            energy: summary.energy.expect("a serving run always meters energy"),
            cap: summary.cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_chip::{ChipConfig, System};
    use atm_core::charact::CharactConfig;
    use atm_core::Governor;
    use atm_telemetry::NullRecorder;
    use atm_workloads::by_name;

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_still_panics() {
        let sys = System::new(ChipConfig::power7_plus(42));
        let campaign = CharactConfig::builder()
            .trial(Nanos::new(2_000.0))
            .repeats(1)
            .build()
            .unwrap();
        let mgr = AtmManager::deploy(sys, Governor::Default, &campaign);
        let pattern = crate::ArrivalPattern::Poisson {
            mean_gap: 50_000_000,
        };
        let streams = vec![
            StreamSpec::critical(by_name("squeezenet").unwrap(), pattern, 0),
            StreamSpec::background(by_name("x264").unwrap(), pattern),
        ];
        let sim = ServeSim::new(mgr, ServeConfig::quick(42), streams).unwrap();
        let _ = sim.run(0, &mut NullRecorder);
    }
}
