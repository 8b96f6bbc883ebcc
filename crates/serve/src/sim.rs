//! The deterministic serving simulator.
//!
//! [`ServeSim`] drives the managed ATM stack with open-loop request
//! traffic: the [`AtmManager`] postures the chip (critical stream on the
//! fastest core, backgrounds backfilled and throttled to the QoS power
//! budget), and a discrete-event loop dispatches seeded arrivals onto
//! per-core FIFO queues whose service rates follow the cores' settled
//! frequencies. Each epoch the chip simulation runs briefly to harvest
//! [`ChipEvent`]s; the [`DegradationPolicy`] turns failures and droop
//! alarms into CPM rollbacks, critical re-placement, and background
//! throttling, all recorded in the final [`ServeReport`].
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

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use atm_adapt::{AdaptContext, Adapter, NullAdapter};
use atm_capping::{CapAction, CapConfig, CapReport, EnergyMeter, EnergyModel, PowerRegulator};
use atm_chip::{ChipEvent, FailureEvent, FailureKind, FaultHook, PStateTable};
use atm_core::{AtmManager, MarginSupervisor, ServePosture, SupervisorAction};
use atm_silicon::DriftModel;
use atm_telemetry::{AdmissionDecision, AdmissionVerdict, Recorder, SimTime, TelemetryEvent};
use atm_units::{AtmError, CoreId, Nanos, ProcId, CORES_PER_PROC, NUM_PROCS};
use atm_workloads::{ServiceProfile, Workload};

use crate::admission::Admission;
use crate::arrival;
use crate::config::ServeConfig;
use crate::degrade::{DegradationPolicy, DegradeAction};
use crate::histogram::LatencyHistogram;
use crate::report::{ServeReport, StreamStats, Transition};
use crate::stream::{StreamClass, StreamSpec};

/// A request awaiting dispatch (fresh or deferred). Ordered by
/// `(time, stream, seq)` so the pending heap pops deterministically; the
/// service draw rides along unordered.
#[derive(Debug, Clone, Copy)]
struct Pending {
    time: u64,
    stream: usize,
    seq: u32,
    defers: u32,
    orig: u64,
    draw: f64,
}

impl Pending {
    fn key(&self) -> (u64, usize, u32) {
        (self.time, self.stream, self.seq)
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.key().cmp(&self.key())
    }
}

/// Running per-stream accounting.
#[derive(Debug)]
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

impl StreamState {
    fn new() -> Self {
        StreamState {
            offered: 0,
            completed: 0,
            shed: 0,
            deferred: 0,
            slo_violations: 0,
            max_queue_depth: 0,
            hist: LatencyHistogram::new(),
            epoch_latencies: Vec::new(),
            epoch_p99: Vec::new(),
        }
    }
}

/// The serving simulator. Consumed by [`ServeSim::run`].
pub struct ServeSim {
    mgr: AtmManager,
    cfg: ServeConfig,
    streams: Vec<StreamSpec>,
    policy: DegradationPolicy,
    supervisor: Option<MarginSupervisor>,
    faults: Option<Box<dyn FaultHook>>,
    injected: Vec<(u32, FailureEvent)>,
    adapter: Box<dyn Adapter>,
    drift: Option<DriftModel>,
    capping: Option<CapConfig>,
    energy: Option<EnergyModel>,
}

impl fmt::Debug for ServeSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeSim")
            .field("mgr", &self.mgr)
            .field("cfg", &self.cfg)
            .field("streams", &self.streams)
            .field("policy", &self.policy)
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
        let criticals = streams
            .iter()
            .filter(|s| s.class == StreamClass::Critical)
            .count();
        if criticals != 1 {
            return Err(AtmError::invalid_config(
                "streams",
                "need exactly one critical stream",
            ));
        }
        if streams.len() == criticals {
            return Err(AtmError::invalid_config(
                "streams",
                "need at least one background stream",
            ));
        }
        Ok(ServeSim {
            mgr,
            cfg,
            streams,
            policy: DegradationPolicy::default(),
            supervisor: None,
            faults: None,
            injected: Vec::new(),
            adapter: Box::new(NullAdapter),
            drift: None,
            capping: None,
            energy: None,
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
        self.capping = Some(cap);
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
        self.energy = Some(model);
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

    /// Overrides the degradation policy.
    pub fn set_policy(&mut self, policy: DegradationPolicy) {
        self.policy = policy;
    }

    /// Attaches a margin-safety supervisor. Once attached, the supervisor
    /// owns the failure response — its strike ladder (rollback →
    /// backed-off re-probe → safe mode → quarantine) replaces the plain
    /// policy's per-failure rollback, while the policy keeps handling
    /// droop-alarm throttle step-downs. Quarantined and safe-moded cores
    /// drop out of every subsequent placement, so critical streams are
    /// re-placed automatically.
    pub fn set_supervisor(&mut self, supervisor: MarginSupervisor) {
        self.supervisor = Some(supervisor);
    }

    /// Arms a chip-level fault hook (e.g. a resolved `atm-faults`
    /// campaign plan) for the per-epoch chip harvests: each epoch's
    /// hardware trial runs through
    /// [`System::run_faulted`](atm_chip::System::run_faulted) with this
    /// hook instead of a clean run. The hook's tick clock spans the whole
    /// serving trace, so one plan unfolds across epochs deterministically.
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
    /// Chip harvests, admission verdicts, latencies, rollbacks and
    /// throttle step-downs record through `rec`, with the recorder clock
    /// tracking the virtual serving timeline; pass
    /// [`&mut NullRecorder`](atm_telemetry::NullRecorder) for the zero-overhead
    /// unrecorded path — the report is identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn run<R: Recorder>(self, workers: usize, rec: &mut R) -> ServeReport {
        // Disassemble the simulator up front: the manager needs exclusive
        // mutable access through the whole trace, so the config and stream
        // specs move into locals and are borrowed from there — no per-run
        // clones of the config or the critical spec.
        assert!(workers > 0, "need at least one worker");
        let ServeSim {
            mut mgr,
            cfg,
            streams,
            policy,
            mut supervisor,
            mut faults,
            injected,
            mut adapter,
            drift,
            capping,
            energy,
        } = self;
        let proc = ProcId::new(0);
        let baseline = mgr.system().config().pstates.nominal().frequency;
        // The p-state table is still owned by the system while `mgr` is
        // borrowed mutably at every throttle step, so one copy per run.
        let pstates = mgr.system().config().pstates.clone();
        let horizon = u64::from(cfg.epochs) * cfg.epoch_ns;

        let crit_idx = streams
            .iter()
            .position(|s| s.class == StreamClass::Critical)
            .expect("checked in new");
        let critical_spec = &streams[crit_idx];
        let backgrounds: Vec<Workload> = streams
            .iter()
            .filter(|s| s.class == StreamClass::Background)
            .map(|s| s.workload.clone())
            .collect();
        let profiles: Vec<ServiceProfile> = streams
            .iter()
            .map(|s| s.workload.service_profile())
            .collect();
        let crit_slo = critical_spec.slo_ns;

        mgr.system_mut().set_droop_alarm(cfg.droop_alarm);
        let mut posture = mgr
            .serve_posture(&critical_spec.workload, &backgrounds, cfg.qos, rec)
            .expect("streams validated in new");
        // Posturing itself settles and trains predictors; the alarms those
        // runs raise are calibration noise, not serving-time events.
        mgr.system_mut().drain_events();
        if let Some(sup) = supervisor.as_mut() {
            sup.attach(mgr.system());
        }
        let mut throttle_extra: usize = 0;
        let mut meter =
            EnergyMeter::new(energy.unwrap_or_else(|| EnergyModel::standard(cfg.epoch_ns)));
        let mut cap = capping.map(|c| (PowerRegulator::new(c.regulator), c, CapReport::new()));

        let mut arrivals = arrival::MergedArrivals::new(&streams, cfg.seed, horizon).peekable();
        let mut pending: BinaryHeap<Pending> = BinaryHeap::new();

        let mut states: Vec<StreamState> = streams.iter().map(|_| StreamState::new()).collect();
        // Per core (by flat index): when its queue drains (0 if it never
        // served), and the finish times still ahead of the clock, in
        // order.
        let mut free_at = [0u64; NUM_PROCS * CORES_PER_PROC];
        let mut finishes: Vec<VecDeque<u64>> = vec![VecDeque::new(); free_at.len()];
        // The critical stream's running p99, as of the sample count it
        // was read at.
        let mut crit_p99 = (0u64, 0u64);
        let bg_cap = cfg
            .serving_cores
            .map_or(usize::MAX, |n| (n as usize).saturating_sub(1));
        let mut live_bg: Vec<CoreId> = Vec::new();
        let mut transitions: Vec<Transition> = Vec::new();
        let mut action_texts: Vec<String> = Vec::new();

        for epoch in 0..cfg.epochs {
            let epoch_start = u64::from(epoch) * cfg.epoch_ns;
            let epoch_end = u64::from(epoch + 1) * cfg.epoch_ns;

            if let Some(d) = drift {
                mgr.system_mut().apply_drift(&d, u64::from(epoch));
            }

            // Harvest chip events at the current posture, plus injections.
            let harvest = match faults.as_deref_mut() {
                Some(mut hook) => mgr.system_mut().run_faulted(cfg.chip_trial, &mut hook, rec),
                None => mgr.system_mut().run(cfg.chip_trial, rec),
            };
            let measured_mw = (harvest.procs[0].mean_power.get() * 1_000.0).round() as u64;
            let mut events = mgr.system_mut().drain_events();
            for (e, f) in &injected {
                if *e == epoch {
                    events.push(ChipEvent::Failure(*f));
                }
            }

            let mut needs_replace = false;
            let mut throttled = false;
            let mut rollback_fired = false;
            let mut epoch_busy_ns: u64 = 0;
            let mut epoch_completed: u64 = 0;

            // The supervisor (when attached) owns the failure ladder; the
            // plain policy keeps the droop-alarm throttle response.
            let mut actions = policy.react(&events, posture.placement.critical_core);
            if let Some(sup) = supervisor.as_mut() {
                actions.retain(|a| matches!(a, DegradeAction::ThrottleDown { .. }));
                let sup_actions = sup.observe_window(mgr.system(), &events);
                let _ = mgr.apply_supervisor_actions(&sup_actions, rec);
                if !sup_actions.is_empty() {
                    needs_replace = true;
                    rollback_fired = true;
                }
                for a in &sup_actions {
                    action_texts.push(match a {
                        SupervisorAction::Rollback { core, steps } => {
                            format!("supervisor rollback {core} by {steps}")
                        }
                        SupervisorAction::Reprobe { core, steps } => {
                            format!("supervisor re-probe {core} by {steps}")
                        }
                        SupervisorAction::SafeMode { core } => {
                            format!("supervisor safe mode {core}")
                        }
                        SupervisorAction::Quarantine { core } => {
                            format!("supervisor quarantine {core}")
                        }
                    });
                }
            }
            for action in &actions {
                match action {
                    DegradeAction::Rollback { core, cause } => {
                        let red = mgr.rollback_core(*core, 1, rec);
                        needs_replace = true;
                        rollback_fired = true;
                        action_texts.push(format!("rollback {core} to reduction {red} ({cause})"));
                    }
                    DegradeAction::ThrottleDown { core } => {
                        throttle_extra += 1;
                        throttled = true;
                        rec.incr("serve.throttle_stepdowns", 1);
                        action_texts.push(format!(
                            "background throttle step-down (droop alarms on {core})"
                        ));
                    }
                }
            }

            if needs_replace {
                posture = mgr
                    .serve_posture(&critical_spec.workload, &backgrounds, cfg.qos, rec)
                    .expect("streams validated in new");
                if throttle_extra > 0 {
                    apply_extra_throttle(&mut mgr, &mut posture, throttle_extra, &pstates, proc);
                }
                mgr.system_mut().drain_events();
            } else if throttled {
                apply_extra_throttle(&mut mgr, &mut posture, throttle_extra, &pstates, proc);
                mgr.system_mut().drain_events();
            } else if epoch > 0 && epoch % cfg.refresh_every == 0 {
                posture.core_freqs = mgr.measure_core_freqs(proc);
                mgr.system_mut().drain_events();
            }

            if adapter.enabled() {
                let serving: Vec<CoreId> = posture.core_freqs.iter().map(|(c, _)| *c).collect();
                let idle: Vec<CoreId> = posture
                    .placement
                    .background_cores
                    .iter()
                    .filter(|c| free_at[c.flat_index()] <= epoch_start)
                    .copied()
                    .collect();
                let blocked: std::collections::BTreeSet<CoreId> = serving
                    .iter()
                    .filter(|c| {
                        supervisor.as_ref().is_some_and(|s| s.on_probation(**c))
                            || mgr.safe_mode_cores().contains(c)
                            || mgr.quarantined_cores().contains(c)
                    })
                    .copied()
                    .collect();
                let backlog_ns = free_at
                    .iter()
                    .map(|f| f.saturating_sub(epoch_start))
                    .sum::<u64>();
                let changed = adapter.on_epoch(AdaptContext {
                    mgr: &mut mgr,
                    harvest: &harvest,
                    epoch: u64::from(epoch),
                    backlog_ns,
                    serving: &serving,
                    idle: &idle,
                    critical_core: posture.placement.critical_core,
                    blocked: &blocked,
                });
                if changed {
                    posture.core_freqs = mgr.measure_core_freqs(proc);
                    action_texts.push(String::from("adapter re-tighten"));
                }
                mgr.system_mut().drain_events();
            }

            // The power regulator gets the last word on margin modes:
            // integrate this epoch's measured power against the cap in
            // force, commit or suppress the proposal (rollbacks outrank,
            // releases wait until the chip is back under budget), and
            // restate the committed depth on top of whatever throttle
            // plan the droop ladder left current.
            if let Some((regulator, cap_cfg, cap_report)) = cap.as_mut() {
                let cap_mw = cap_cfg.budget.cap_at(epoch);
                let action = regulator.propose(measured_mw, cap_mw, rec);
                let over_budget = measured_mw > cap_mw;
                let (committed, suppressed) = match action {
                    CapAction::Release(_) if rollback_fired || over_budget => {
                        (CapAction::Hold, true)
                    }
                    a => (a, false),
                };
                regulator.commit(committed);
                cap_report.count_action(committed, suppressed);
                let depth = regulator.depth();
                cap_report.push_epoch(cap_mw, measured_mw, depth, regulator.integral_mwe());
                match committed {
                    CapAction::Throttle(n) => {
                        action_texts.push(format!("cap throttle {n} to depth {depth}"));
                    }
                    CapAction::Release(n) => {
                        action_texts.push(format!("cap release {n} to depth {depth}"));
                    }
                    CapAction::Hold => {}
                }
                if depth > 0 || !matches!(committed, CapAction::Hold) {
                    if let Some(base) = posture.placement.plan.clone() {
                        let bg_depth = depth.min(base.setting.rungs_below(&pstates));
                        let crit_depth = depth - bg_depth;
                        let _ = mgr.apply_cap_levels(
                            &base,
                            posture.placement.critical_core,
                            bg_depth,
                            crit_depth,
                            rec,
                        );
                        posture.core_freqs = mgr.measure_core_freqs(proc);
                        mgr.system_mut().drain_events();
                    }
                }
            }
            for text in action_texts.drain(..) {
                transitions.push(Transition {
                    epoch,
                    action: text,
                    critical_core: posture.placement.critical_core,
                    critical_freq_mhz: posture
                        .freq_of(posture.placement.critical_core)
                        .get()
                        .round() as u64,
                });
            }

            let crit_count = states[crit_idx].hist.count();
            let critical_at_risk = crit_slo > 0 && crit_count >= 20 && {
                if crit_p99.0 != crit_count {
                    crit_p99 = (crit_count, states[crit_idx].hist.quantile(0.99));
                }
                crit_p99.1 as f64 > cfg.admission.slo_risk * crit_slo as f64
            };

            // The background cores that can take work this epoch: the
            // posture holds still while the epoch's requests dispatch.
            live_bg.clear();
            live_bg.extend(
                posture
                    .placement
                    .background_cores
                    .iter()
                    .take(bg_cap)
                    .filter(|c| posture.freq_of(**c).get() > 0.0),
            );

            // Dispatch this epoch's arrivals and readmissions in
            // (time, stream, seq) order.
            loop {
                let arr_key = arrivals.peek().map(arrival::Request::key);
                let use_pending = match (arr_key, pending.peek().map(Pending::key)) {
                    (Some(a), Some(p)) => p < a,
                    (None, Some(_)) => true,
                    (Some(_), None) => false,
                    (None, None) => break,
                };
                // If the earlier of the two is past the epoch, both are.
                let req = if use_pending {
                    if pending.peek().expect("peeked").time >= epoch_end {
                        break;
                    }
                    pending.pop().expect("peeked")
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
                        draw: a.draw,
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
                // core with the least backlog (ties to the lowest id).
                let core = match spec.class {
                    StreamClass::Critical => posture.placement.critical_core,
                    StreamClass::Background => {
                        let live = live_bg
                            .iter()
                            .min_by_key(|c| (free_at[c.flat_index()], c.flat_index()))
                            .copied();
                        match live {
                            Some(c) => c,
                            None => {
                                // Whole background tier gated: nothing can
                                // serve this request.
                                state.shed += 1;
                                rec.incr("serve.shed", 1);
                                continue;
                            }
                        }
                    }
                };
                let slot = core.flat_index();
                let backlog = free_at[slot].saturating_sub(now);
                let verdict =
                    cfg.admission
                        .decide(spec.class, backlog, req.defers, critical_at_risk);
                if rec.enabled() {
                    rec.record(TelemetryEvent::Admission(AdmissionDecision {
                        t: rec.now(),
                        stream: req.stream as u32,
                        critical: spec.class == StreamClass::Critical,
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
                            pending.push(d);
                        }
                        continue;
                    }
                    Admission::Accept => {
                        rec.incr("serve.accepted", 1);
                    }
                }

                let freq = posture.freq_of(core);
                let service = profiles[req.stream]
                    .sample(&spec.workload, freq, baseline, req.draw)
                    .get()
                    .round()
                    .max(1.0) as u64;
                let start = now.max(free_at[slot]);
                let finish = start + service;
                free_at[slot] = finish;
                // A core's finishes only grow (each starts at or after
                // the previous one), so the ones behind the clock are a
                // prefix of its queue.
                let fin = &mut finishes[slot];
                while fin.front().is_some_and(|&f| f <= now) {
                    fin.pop_front();
                }
                debug_assert!(fin.back().is_none_or(|&f| f < finish));
                fin.push_back(finish);
                state.max_queue_depth = state.max_queue_depth.max(fin.len() as u64);

                let latency = finish - req.orig;
                if adapter.enabled() && spec.class == StreamClass::Critical {
                    let freq_khz = (freq.get() * 1_000.0).round() as u64;
                    let baseline_khz = (baseline.get() * 1_000.0).round() as u64;
                    adapter.on_service(spec.workload.name(), freq_khz, baseline_khz, service);
                }
                rec.observe("serve.latency_ns", latency);
                state.hist.record(latency);
                state.epoch_latencies.push(latency);
                state.completed += 1;
                epoch_busy_ns += service;
                epoch_completed += 1;
                if spec.slo_ns > 0 && latency > spec.slo_ns {
                    state.slo_violations += 1;
                }
            }

            let powered = posture
                .core_freqs
                .iter()
                .filter(|(_, f)| f.get() > 0.0)
                .count() as u32;
            meter.observe_epoch(measured_mw, powered, epoch_busy_ns);
            meter.add_requests(epoch_completed);

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
        for p in pending.into_vec() {
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
        ServeReport {
            seed: cfg.seed,
            epochs: cfg.epochs,
            epoch_ns: cfg.epoch_ns,
            completed: streams.iter().map(|s| s.completed).sum(),
            shed: streams.iter().map(|s| s.shed).sum(),
            deferred: streams.iter().map(|s| s.deferred).sum(),
            critical_core: posture.placement.critical_core,
            transitions,
            streams,
            adapt: adapter.report(),
            energy: meter.report(),
            cap: cap.map(|(_, _, report)| report),
        }
    }
}

/// Steps the posture's background throttle `extra` rungs further down
/// the ladder, applies it, and re-measures the settled frequencies.
fn apply_extra_throttle(
    mgr: &mut AtmManager,
    posture: &mut ServePosture,
    extra: usize,
    pstates: &PStateTable,
    proc: ProcId,
) {
    let Some(mut plan) = posture.placement.plan.clone() else {
        return;
    };
    for _ in 0..extra {
        match plan.step_down(pstates) {
            Some(next) => plan = next,
            None => break,
        }
    }
    plan.apply(mgr.system_mut());
    posture.placement.plan = Some(plan);
    posture.core_freqs = mgr.measure_core_freqs(proc);
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
