//! The one managed-chip epoch body, steppable from the outside.
//!
//! [`ChipServer`] owns a managed chip, its control ladders and its
//! per-core queues. Each epoch it runs silicon drift → a short hardware
//! trial harvesting [`ChipEvent`]s → the supervisor ladder (or, without
//! one, the plain droop policy's CPM rollback) and the droop throttle →
//! re-posture → the online adapter → the power regulator, then serves
//! what its caller hands it. [`ServeSim`](crate::ServeSim) drives one
//! chip over its own timeline (arrivals, admission, report); a fleet's
//! barrier loop calls [`ChipServer::step_epoch`] with the requests routed
//! to this chip, reads a [`ChipSnapshot`] at each barrier and folds the
//! [`ChipSummary`] into its report. Callers choose features by what they
//! pass in — a supervisor or none, their recorder, the service profile
//! to sample. Every piece of state is integer-valued or deterministic,
//! so a chip stepped by any worker thread produces the same bytes.

use std::collections::BTreeMap;
use std::fmt;

use atm_adapt::{AdaptContext, AdaptReport, Adapter, NullAdapter};
use atm_capping::{
    CapAction, CapConfig, CapReport, EnergyMeter, EnergyModel, EnergyReport, PowerRegulator,
};
use atm_chip::{ChipEvent, FailureEvent, FailureKind, FaultHook, PStateTable, SystemReport};
use atm_core::{
    AtmManager, MarginSupervisor, QosTarget, ServePosture, SupervisorAction, SupervisorConfig,
};
use atm_silicon::DriftModel;
use atm_telemetry::{NullRecorder, Recorder};
use atm_units::{AtmError, CoreId, MegaHz, Nanos, ProcId, CORES_PER_PROC, NUM_PROCS};
use atm_workloads::{ServiceProfile, Workload};

use crate::degrade::{self, DegradeAction, RollbackCause};
use crate::histogram::LatencyHistogram;

/// Per-chip serving knobs — the subset of [`ServeConfig`](crate::ServeConfig)
/// that applies to one chip of a fleet (the fleet owns the timeline, the
/// seeds, and the traffic shape).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipServeConfig {
    /// The latency-critical workload each chip hosts.
    pub critical: Workload,
    /// Background workloads backfilling the remaining cores (round-robin).
    pub backgrounds: Vec<Workload>,
    /// QoS target for the critical stream (drives posture and budget).
    pub qos: QosTarget,
    /// Droop-alarm threshold armed on the chip; `None` disables alarms.
    pub droop_alarm: Option<MegaHz>,
    /// Chip-simulation time per epoch used to harvest chip events.
    pub chip_trial: Nanos,
    /// p99 SLO for critical requests, in nanoseconds (0 = no SLO).
    pub critical_slo_ns: u64,
    /// Epochs between periodic service-rate refreshes when nothing
    /// degraded.
    pub refresh_every: u32,
    /// Supervisor thresholds for this chip's margin-safety ladder.
    pub supervisor: SupervisorConfig,
    /// Optional power cap: budget schedule plus regulator knobs. Under a
    /// fleet budget the per-epoch split pushed in through
    /// [`ChipServer::set_epoch_cap_mw`] overrides the local schedule.
    pub capping: Option<CapConfig>,
    /// Optional integer picojoule energy accounting; when set, the chip's
    /// [`ChipSummary`] carries an [`EnergyReport`].
    pub energy: Option<EnergyModel>,
}

impl ChipServeConfig {
    /// Standard per-chip knobs over the given critical/background pair:
    /// 1 µs harvest trials, 25 MHz droop alarms, 10% QoS, 250 ms SLO.
    #[must_use]
    pub fn standard(critical: Workload, backgrounds: Vec<Workload>) -> Self {
        ChipServeConfig {
            critical,
            backgrounds,
            qos: QosTarget::improvement_pct(10.0),
            droop_alarm: Some(MegaHz::new(25.0)),
            chip_trial: Nanos::new(1_000.0),
            critical_slo_ns: 250_000_000,
            refresh_every: 4,
            supervisor: SupervisorConfig::default(),
            capping: None,
            energy: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if `backgrounds` is empty,
    /// `chip_trial` is not positive and finite, or `refresh_every` is
    /// zero.
    pub fn check(&self) -> Result<(), AtmError> {
        if self.backgrounds.is_empty() {
            return Err(AtmError::invalid_config(
                "backgrounds",
                "need at least one background workload",
            ));
        }
        if !self.chip_trial.get().is_finite() || self.chip_trial.get() <= 0.0 {
            return Err(AtmError::invalid_config(
                "chip_trial",
                "must be positive and finite",
            ));
        }
        if self.refresh_every == 0 {
            return Err(AtmError::invalid_config(
                "refresh_every",
                "must be at least 1",
            ));
        }
        if let Some(capping) = &self.capping {
            capping.check()?;
        }
        if let Some(energy) = &self.energy {
            energy.check()?;
        }
        Ok(())
    }
}

/// One request routed to a chip for an epoch: arrival time on the global
/// fleet timeline, class, and the pre-drawn service jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipRequest {
    /// Arrival time (virtual ns from fleet-trace start).
    pub at: u64,
    /// Whether this is a critical-stream request.
    pub critical: bool,
    /// Uniform draw in `[0, 1)` for the request's service-time jitter.
    pub draw: f64,
}

/// The per-chip state the fleet router reads at each epoch barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipSnapshot {
    /// Whether the chip is still running. A hard-failed chip stays in the
    /// fleet (its account survives for the final report) but must receive
    /// no traffic until the failover machinery resurrects it.
    pub alive: bool,
    /// Settled frequency of the fastest core still eligible for placement
    /// (not quarantined, not safe-moded), in whole MHz. Zero when every
    /// core is excluded.
    pub fastest_healthy_mhz: u64,
    /// Total queued-work backlog across serving cores, in ns past `now`.
    pub backlog_ns: u64,
    /// Cores quarantined by the supervisor (terminal).
    pub quarantined: u32,
    /// Cores held at the static-margin baseline by the supervisor.
    pub safe_mode: u32,
    /// The least healthy core's supervisor health score (0–100).
    pub min_health: u32,
}

/// The chip's final integer account, folded into the fleet report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipSummary {
    /// Requests served to completion.
    pub completed: u64,
    /// Requests stranded on this chip (background tier fully gated).
    pub shed: u64,
    /// Critical completions.
    pub critical_completed: u64,
    /// Critical completions that violated the SLO.
    pub critical_slo_violations: u64,
    /// p99 latency over every completion (ns).
    pub p99_ns: u64,
    /// Supervisor/degradation actions applied over the chip's lifetime
    /// (adapter re-tightens and regulator moves are not counted).
    pub transitions: u64,
    /// Final quarantined-core count.
    pub quarantined: u32,
    /// Final safe-mode-core count.
    pub safe_mode: u32,
    /// Final fastest healthy core frequency (whole MHz).
    pub fastest_healthy_mhz: u64,
    /// The power regulator's account (absent unless the chip was capped).
    pub cap: Option<CapReport>,
    /// The energy meter's account (absent unless energy accounting ran).
    pub energy: Option<EnergyReport>,
}

/// What one [`ChipServer::step_epoch`] call could not absorb.
///
/// A live chip absorbs every request routed to it (dispatch is a
/// commitment), so `rejected` is empty. A chip that is dead — or died
/// during this epoch's harvest, before anything was dispatched — bounces
/// the whole batch back; the fleet's failover ladder owns their fate.
#[derive(Debug, Clone, Default, PartialEq)]
#[must_use = "rejected requests must be retried or shed, never dropped"]
pub struct EpochOutcome {
    /// Requests the chip could not serve because it is hard-failed.
    pub rejected: Vec<ChipRequest>,
}

/// One posture transition the epoch body applied, in the order applied:
/// supervisor ladder steps, then the droop policy's rollbacks and
/// throttle step-downs, then an adapter re-tighten, then a regulator move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EpochAction {
    /// A supervisor ladder step.
    Supervisor(SupervisorAction),
    /// The plain policy rolled `core` back one CPM step, to `reduction`.
    Rollback {
        core: CoreId,
        reduction: usize,
        cause: RollbackCause,
    },
    /// The background tier stepped one rung down after droop alarms on
    /// `core`.
    Throttle { core: CoreId },
    /// The adapter re-tightened a margin.
    Retighten,
    /// The regulator committed a throttle or release, leaving `depth`.
    Cap { action: CapAction, depth: u32 },
}

impl fmt::Display for EpochAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EpochAction::Supervisor(SupervisorAction::Rollback { core, steps }) => {
                write!(f, "supervisor rollback {core} by {steps}")
            }
            EpochAction::Supervisor(SupervisorAction::Reprobe { core, steps }) => {
                write!(f, "supervisor re-probe {core} by {steps}")
            }
            EpochAction::Supervisor(SupervisorAction::SafeMode { core }) => {
                write!(f, "supervisor safe mode {core}")
            }
            EpochAction::Supervisor(SupervisorAction::Quarantine { core }) => {
                write!(f, "supervisor quarantine {core}")
            }
            EpochAction::Rollback {
                core,
                reduction,
                cause,
            } => write!(f, "rollback {core} to reduction {reduction} ({cause})"),
            EpochAction::Throttle { core } => {
                write!(f, "background throttle step-down (droop alarms on {core})")
            }
            EpochAction::Retighten => f.write_str("adapter re-tighten"),
            EpochAction::Cap { action, depth } => match action {
                CapAction::Throttle(n) => write!(f, "cap throttle {n} to depth {depth}"),
                CapAction::Release(n) => write!(f, "cap release {n} to depth {depth}"),
                CapAction::Hold => write!(f, "cap hold at depth {depth}"),
            },
        }
    }
}

/// The regulator's control state: its configuration and its integral and
/// depth. Part of the [`Machine`], so it rewinds on resurrection.
#[derive(Debug, Clone)]
struct CapControl {
    cfg: CapConfig,
    regulator: PowerRegulator,
}

/// The regulator's run report and the fleet's per-epoch cap override
/// (when one is pushed in). Part of the account, so it stays cumulative
/// through resurrection.
#[derive(Debug, Clone)]
struct CapAccount {
    report: CapReport,
    override_mw: Option<u64>,
}

/// The half of a [`ChipServer`] that failover rewinds: the managed chip,
/// its control ladders and the posture they maintain. Everything else —
/// queues, histograms, counters, the energy meter, the regulator's
/// report — is the account, which survives resurrection.
#[derive(Debug, Clone)]
struct Machine {
    mgr: AtmManager,
    cfg: ChipServeConfig,
    /// The margin-safety ladder (`None` = the plain droop policy owns the
    /// failure response).
    supervisor: Option<MarginSupervisor>,
    posture: ServePosture,
    pstates: PStateTable,
    baseline: MegaHz,
    /// `(workload, profile)` served by each postured core.
    core_svc: BTreeMap<CoreId, (Workload, ServiceProfile)>,
    throttle_extra: usize,
    /// The online recharacterization seam ([`NullAdapter`] = off).
    adapter: Box<dyn Adapter>,
    /// Silicon aging/seasonal drift applied each epoch (`None` = pristine).
    drift: Option<DriftModel>,
    /// The power regulator (`None` = uncapped).
    cap: Option<CapControl>,
}

impl Machine {
    /// Re-reads the posture's settled core frequencies and drops the
    /// settling run's calibration alarms.
    fn remeasure(&mut self) {
        self.posture.core_freqs = self.mgr.measure_core_freqs(ProcId::new(0));
        self.mgr.system_mut().drain_events();
    }

    /// Steps the posture's background throttle `throttle_extra` rungs
    /// down the ladder (the response to droop-alarm storms) and
    /// re-measures.
    fn apply_extra_throttle(&mut self) {
        if let Some(mut plan) = self.posture.placement.plan.clone() {
            for _ in 0..self.throttle_extra {
                match plan.step_down(&self.pstates) {
                    Some(next) => plan = next,
                    None => break,
                }
            }
            plan.apply(self.mgr.system_mut());
            self.posture.placement.plan = Some(plan);
            self.posture.core_freqs = self.mgr.measure_core_freqs(ProcId::new(0));
        }
        self.mgr.system_mut().drain_events();
    }
}

/// One managed chip, steppable epoch by epoch (see the module docs).
///
/// The `Debug` rendering is exhaustive on purpose: it is the canonical
/// byte-identity witness the checkpoint machinery checksums, so every
/// field — all of them integer-valued, ordered maps, or
/// shortest-roundtrip floats — must appear in it.
#[derive(Debug, Clone)]
pub struct ChipServer {
    /// What [`ChipServer::resurrect_from`] rewinds.
    machine: Machine,
    /// When each core's queue drains, by flat core index (0 = never
    /// served).
    free_at: [u64; NUM_PROCS * CORES_PER_PROC],
    /// The background cores taking work this epoch, in placement order.
    live_bg: Vec<CoreId>,
    /// This epoch's transitions, in the order applied.
    actions: Vec<EpochAction>,
    crit_hist: LatencyHistogram,
    bg_hist: LatencyHistogram,
    completed: u64,
    shed: u64,
    critical_completed: u64,
    critical_slo_violations: u64,
    transitions: u64,
    epoch: u32,
    /// The regulator's account (`None` = uncapped).
    cap: Option<CapAccount>,
    /// The energy integrator (`None` = no energy accounting).
    meter: Option<EnergyMeter>,
    /// Chip power measured at this epoch's harvest, integer milliwatts.
    measured_mw: u64,
    /// Request service time dispatched this epoch, ns.
    epoch_busy_ns: u64,
    /// Requests completed this epoch.
    epoch_completed: u64,
    /// The epoch this chip hard-failed (`None` = alive). A dead chip
    /// rejects every routed request and skips its harvest until
    /// resurrected.
    dead_since: Option<u32>,
}

/// A sealed deep copy of a whole [`ChipServer`] — machine *and* account —
/// taken at an epoch barrier.
///
/// Restoring one and stepping forward is byte-identical to having never
/// left: the copy carries the manager, the supervisor ladder, the queues,
/// the histograms, the regulator integral and the adapter's learned
/// state. Failover does not use it: resurrection keeps the account, so
/// it restores from the smaller [`MachineCheckpoint`].
#[derive(Debug, Clone)]
pub struct ChipServerCheckpoint {
    state: ChipServer,
}

impl ChipServerCheckpoint {
    /// Materializes a fresh server from the checkpoint — equivalent to
    /// [`ChipServer::restore`] without needing a server to restore into.
    #[must_use]
    pub fn thaw(&self) -> ChipServer {
        self.state.clone()
    }
}

/// A deep copy of only the machine half of a [`ChipServer`] — manager,
/// supervisor ladder, posture, adapter, drift model and regulator control
/// state — the capsule [`ChipServer::resurrect_from`] brings a
/// hard-failed chip back from.
///
/// It leaves out the account (queues, latency histograms, counters,
/// energy meter, regulator report), which resurrection keeps, so it is
/// cheaper to take than a full [`ChipServerCheckpoint`].
#[derive(Debug, Clone)]
pub struct MachineCheckpoint {
    machine: Machine,
}

impl ChipServer {
    /// Postures a deployed manager for incremental serving, watched by a
    /// supervisor built from the config's thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if the config fails
    /// [`ChipServeConfig::check`].
    pub fn new(mgr: AtmManager, cfg: ChipServeConfig) -> Result<Self, AtmError> {
        let supervisor = MarginSupervisor::new(cfg.supervisor);
        Self::with_supervisor(mgr, cfg, Some(supervisor), &mut NullRecorder)
    }

    /// Postures a deployed manager (recording the posture through `rec`)
    /// and attaches `supervisor`; `None` leaves the failure response to
    /// the plain droop policy.
    pub(crate) fn with_supervisor<R: Recorder>(
        mut mgr: AtmManager,
        cfg: ChipServeConfig,
        mut supervisor: Option<MarginSupervisor>,
        rec: &mut R,
    ) -> Result<Self, AtmError> {
        cfg.check()?;
        let baseline = mgr.system().config().pstates.nominal().frequency;
        let pstates = mgr.system().config().pstates.clone();
        mgr.system_mut().set_droop_alarm(cfg.droop_alarm);
        let posture = mgr.serve_posture(&cfg.critical, &cfg.backgrounds, cfg.qos, rec)?;
        // Posturing settles and trains predictors; the alarms those runs
        // raise are calibration noise, not serving-time events.
        mgr.system_mut().drain_events();
        if let Some(sup) = supervisor.as_mut() {
            sup.attach(mgr.system());
        }
        let core_svc = service_map(&cfg, &posture);
        let cap = cfg.capping.clone().map(|c| CapControl {
            regulator: PowerRegulator::new(c.regulator),
            cfg: c,
        });
        let cap_account = cap.as_ref().map(|_| CapAccount {
            report: CapReport::new(),
            override_mw: None,
        });
        let meter = cfg.energy.map(EnergyMeter::new);
        Ok(ChipServer {
            machine: Machine {
                mgr,
                cfg,
                supervisor,
                posture,
                pstates,
                baseline,
                core_svc,
                throttle_extra: 0,
                adapter: Box::new(NullAdapter),
                drift: None,
                cap,
            },
            free_at: [0; NUM_PROCS * CORES_PER_PROC],
            live_bg: Vec::new(),
            actions: Vec::new(),
            crit_hist: LatencyHistogram::new(),
            bg_hist: LatencyHistogram::new(),
            completed: 0,
            shed: 0,
            critical_completed: 0,
            critical_slo_violations: 0,
            transitions: 0,
            epoch: 0,
            cap: cap_account,
            meter,
            measured_mw: 0,
            epoch_busy_ns: 0,
            epoch_completed: 0,
            dead_since: None,
        })
    }

    /// Installs an online adapter (replacing the default [`NullAdapter`]).
    pub fn set_adapter(&mut self, adapter: Box<dyn Adapter>) {
        self.machine.adapter = adapter;
    }

    /// Arms epoch-by-epoch silicon drift (aging + seasonal temperature).
    pub fn set_drift(&mut self, drift: DriftModel) {
        self.machine.drift = Some(drift);
    }

    /// The adapter's account, if one is running.
    #[must_use]
    pub fn adapt_report(&self) -> Option<AdaptReport> {
        self.machine.adapter.report()
    }

    /// Overrides the cap in force for subsequent epochs, in milliwatts —
    /// the fleet budget's per-epoch split seam. `None` reverts to the
    /// chip's own schedule. Ignored on an uncapped chip.
    pub fn set_epoch_cap_mw(&mut self, cap_mw: Option<u64>) {
        if let Some(cap) = self.cap.as_mut() {
            cap.override_mw = cap_mw;
        }
    }

    /// The energy meter's account so far, if energy accounting is on.
    #[must_use]
    pub fn energy_report(&self) -> Option<EnergyReport> {
        self.meter.as_ref().map(EnergyMeter::report)
    }

    /// Steps one serving epoch: runs the epoch body (see the module docs)
    /// with the harvest through `faults` when armed, then dispatches
    /// `requests` — which must be sorted by arrival time — onto the
    /// per-core queues, sampling each service time from the profile of
    /// the core it lands on.
    ///
    /// The caller (the fleet loop) owns the timeline: requests carry
    /// global timestamps and this chip only ever sees the ones routed to
    /// it.
    ///
    /// A dead chip — hard-failed in a previous epoch, or during this
    /// epoch's harvest trial, before anything was dispatched — rejects
    /// the whole batch through the returned [`EpochOutcome`] and performs
    /// no work beyond advancing its epoch counter.
    pub fn step_epoch(
        &mut self,
        requests: &[ChipRequest],
        faults: Option<&mut dyn FaultHook>,
    ) -> EpochOutcome {
        // The epoch boundary on the fleet timeline: the first routed
        // arrival. An empty epoch means every queue has drained relative
        // to any later boundary, so the backlog reads zero either way.
        let now = requests.first().map_or(u64::MAX, |r| r.at);
        if !self.begin_epoch(faults, &[], now, usize::MAX, &mut NullRecorder) {
            return EpochOutcome {
                rejected: requests.to_vec(),
            };
        }
        // The account counts the field responses to chip events, not
        // adapter or regulator moves.
        self.transitions += self
            .actions
            .iter()
            .filter(|a| !matches!(a, EpochAction::Retighten | EpochAction::Cap { .. }))
            .count() as u64;
        // Lent out for the batch so each request can borrow its core's
        // workload while the queues are served.
        let core_svc = std::mem::take(&mut self.machine.core_svc);
        for req in requests {
            self.dispatch(req, &core_svc);
        }
        self.machine.core_svc = core_svc;
        self.end_epoch();
        EpochOutcome::default()
    }

    /// Opens an epoch: applies silicon drift, runs a short hardware trial
    /// (through `faults` when armed) to harvest chip events, adds the
    /// `injected` failures scheduled for this epoch, and hands the events
    /// to the supervisor ladder — or, without one, to the plain policy's
    /// rollback — and the droop policy's throttle. It then re-postures
    /// when anything changed, runs the adapter against the queues as of
    /// `now`, lets the regulator actuate, and lists the first `bg_cap`
    /// postured background cores still powered as this epoch's live
    /// tier. The transitions it applied are left in
    /// [`actions`](Self::actions).
    ///
    /// Returns whether the chip can serve this epoch. A chip that is dead,
    /// or hard-fails during the trial, has already closed the epoch.
    pub(crate) fn begin_epoch<R: Recorder>(
        &mut self,
        faults: Option<&mut dyn FaultHook>,
        injected: &[(u32, FailureEvent)],
        now: u64,
        bg_cap: usize,
        rec: &mut R,
    ) -> bool {
        self.actions.clear();
        if self.dead_since.is_none() {
            self.control(faults, injected, now, rec);
        }
        if self.dead_since.is_some() {
            self.epoch += 1;
            return false;
        }
        let posture = &self.machine.posture;
        self.live_bg.clear();
        self.live_bg.extend(
            posture
                .placement
                .background_cores
                .iter()
                .take(bg_cap)
                .filter(|c| posture.freq_of(**c).get() > 0.0),
        );
        true
    }

    /// The epoch body proper (see [`begin_epoch`](Self::begin_epoch)).
    fn control<R: Recorder>(
        &mut self,
        faults: Option<&mut dyn FaultHook>,
        injected: &[(u32, FailureEvent)],
        now: u64,
        rec: &mut R,
    ) {
        let epoch = self.epoch;
        let m = &mut self.machine;
        if let Some(drift) = m.drift {
            m.mgr.system_mut().apply_drift(&drift, u64::from(epoch));
        }
        let harvest = match faults {
            Some(mut hook) => m
                .mgr
                .system_mut()
                .run_faulted(m.cfg.chip_trial, &mut hook, rec),
            None => m.mgr.system_mut().run(m.cfg.chip_trial, rec),
        };
        if harvest
            .failure
            .is_some_and(|f| f.kind == FailureKind::ChipHardFail)
        {
            // Whole-chip outage: freeze the machine where the abort left
            // it (the account survives for the final report) and let the
            // caller's failover (if any) take over.
            self.dead_since = Some(epoch);
            m.mgr.system_mut().drain_events();
            return;
        }
        self.measured_mw = (harvest.procs[0].mean_power.get() * 1_000.0).round() as u64;
        let mut events = m.mgr.system_mut().drain_events();
        events.extend(
            injected
                .iter()
                .filter(|(e, _)| *e == epoch)
                .map(|(_, f)| ChipEvent::Failure(*f)),
        );

        let mut responses = degrade::react(&events, m.posture.placement.critical_core);
        if let Some(sup) = m.supervisor.as_mut() {
            // The supervisor owns the failure ladder; the plain policy
            // keeps the droop-alarm throttle response.
            responses.retain(|a| matches!(a, DegradeAction::ThrottleDown { .. }));
            let sup_actions = sup.observe_window(m.mgr.system(), &events);
            let _ = m.mgr.apply_supervisor_actions(&sup_actions, rec);
            self.actions
                .extend(sup_actions.into_iter().map(EpochAction::Supervisor));
        }
        let mut rolled_back = !self.actions.is_empty();
        let mut throttled = false;
        for response in responses {
            match response {
                DegradeAction::Rollback { core, cause } => {
                    let reduction = m.mgr.rollback_core(core, 1, rec);
                    rolled_back = true;
                    self.actions.push(EpochAction::Rollback {
                        core,
                        reduction,
                        cause,
                    });
                }
                DegradeAction::ThrottleDown { core } => {
                    m.throttle_extra += 1;
                    throttled = true;
                    rec.incr("serve.throttle_stepdowns", 1);
                    self.actions.push(EpochAction::Throttle { core });
                }
            }
        }

        if rolled_back {
            m.posture = m
                .mgr
                .serve_posture(&m.cfg.critical, &m.cfg.backgrounds, m.cfg.qos, rec)
                .expect("config validated at construction");
            if m.throttle_extra > 0 {
                m.apply_extra_throttle();
            } else {
                m.mgr.system_mut().drain_events();
            }
            m.core_svc = service_map(&m.cfg, &m.posture);
        } else if throttled {
            m.apply_extra_throttle();
        } else if epoch > 0 && epoch.is_multiple_of(m.cfg.refresh_every) {
            m.remeasure();
        }

        if m.adapter.enabled() {
            self.run_adapter(&harvest, now);
        }
        self.regulate(rolled_back, rec);
    }

    /// The regulator's epoch hook: integrate measured power against the
    /// cap in force, commit or suppress the proposal, and actuate through
    /// [`AtmManager::apply_cap_levels`] relative to the posture's own
    /// throttle plan (droop escalations and cap depth compose).
    ///
    /// Two suppression rules keep the regulator subordinate:
    /// a release proposed in the same epoch as a rollback (by the
    /// supervisor or the plain policy) is vetoed — rollbacks outrank the
    /// regulator, so a rolled-back core is never re-raised by a cap
    /// release — and releases are deferred while measured power still
    /// exceeds the cap.
    fn regulate<R: Recorder>(&mut self, rolled_back: bool, rec: &mut R) {
        let measured_mw = self.measured_mw;
        let m = &mut self.machine;
        let (Some(ctl), Some(account)) = (m.cap.as_mut(), self.cap.as_mut()) else {
            return;
        };
        let cap_mw = account
            .override_mw
            .unwrap_or_else(|| ctl.cfg.budget.cap_at(self.epoch));
        let action = ctl.regulator.propose(measured_mw, cap_mw, rec);
        let over_budget = measured_mw > cap_mw;
        let (committed, suppressed) = match action {
            CapAction::Release(_) if rolled_back || over_budget => (CapAction::Hold, true),
            a => (a, false),
        };
        ctl.regulator.commit(committed);
        account.report.count_action(committed, suppressed);
        let depth = ctl.regulator.depth();
        account
            .report
            .push_epoch(cap_mw, measured_mw, depth, ctl.regulator.integral_mwe());
        if committed != CapAction::Hold {
            self.actions.push(EpochAction::Cap {
                action: committed,
                depth,
            });
        }
        // Re-apply every epoch the cap binds: re-postures and droop
        // step-downs reset margin modes, so the depth must be restated on
        // top of whatever plan is now current.
        if depth == 0 && committed == CapAction::Hold {
            return;
        }
        let Some(base) = m.posture.placement.plan.clone() else {
            return;
        };
        let bg_depth = depth.min(base.setting.rungs_below(&m.pstates));
        let critical = m.posture.placement.critical_core;
        let _ = m
            .mgr
            .apply_cap_levels(&base, critical, bg_depth, depth - bg_depth, rec);
        m.remeasure();
    }

    /// Runs one epoch of online recharacterization against the harvest
    /// the degradation ladder just consumed, reading the queues as of
    /// `now`. Re-measures the posture when the adapter re-tightened
    /// anything.
    fn run_adapter(&mut self, harvest: &SystemReport, now: u64) {
        let m = &mut self.machine;
        let serving: Vec<CoreId> = m.posture.core_freqs.iter().map(|(c, _)| *c).collect();
        let critical_core = m.posture.placement.critical_core;
        let idle: Vec<CoreId> = m
            .posture
            .placement
            .background_cores
            .iter()
            .filter(|c| self.free_at[c.flat_index()] <= now)
            .copied()
            .collect();
        let blocked: std::collections::BTreeSet<CoreId> = serving
            .iter()
            .filter(|c| {
                m.supervisor.as_ref().is_some_and(|s| s.on_probation(**c))
                    || m.mgr.safe_mode_cores().contains(c)
                    || m.mgr.quarantined_cores().contains(c)
            })
            .copied()
            .collect();
        let changed = m.adapter.on_epoch(AdaptContext {
            mgr: &mut m.mgr,
            harvest,
            epoch: u64::from(self.epoch),
            backlog_ns: backlog_sum(&self.free_at, now),
            serving: &serving,
            idle: &idle,
            critical_core,
            blocked: &blocked,
        });
        if changed {
            m.posture.core_freqs = m.mgr.measure_core_freqs(ProcId::new(0));
            self.actions.push(EpochAction::Retighten);
        }
        m.mgr.system_mut().drain_events();
    }

    /// This epoch's transitions, in the order applied.
    pub(crate) fn actions(&self) -> &[EpochAction] {
        &self.actions
    }

    /// The critical core and its settled frequency, in whole MHz.
    pub(crate) fn critical(&self) -> (CoreId, u64) {
        let posture = &self.machine.posture;
        let core = posture.placement.critical_core;
        (core, posture.freq_of(core).get().round() as u64)
    }

    /// The core a request of this class goes to: the critical core, or
    /// the live background core with the least backlog (ties to the
    /// lowest id). `None` when the whole background tier is gated.
    #[inline]
    pub(crate) fn target(&self, critical: bool) -> Option<CoreId> {
        if critical {
            return Some(self.machine.posture.placement.critical_core);
        }
        self.live_bg
            .iter()
            .min_by_key(|c| (self.free_at[c.flat_index()], c.flat_index()))
            .copied()
    }

    /// Queued work on `core` still ahead of `now`, in ns.
    #[inline]
    pub(crate) fn backlog(&self, core: CoreId, now: u64) -> u64 {
        self.free_at[core.flat_index()].saturating_sub(now)
    }

    /// Queues one request arriving at `at` on `core`, with its service
    /// time sampled from `profile` at the core's settled frequency, and
    /// returns when it finishes. Critical services feed the adapter.
    #[inline]
    pub(crate) fn serve(
        &mut self,
        core: CoreId,
        at: u64,
        draw: f64,
        critical: bool,
        (workload, profile): (&Workload, &ServiceProfile),
    ) -> u64 {
        let m = &mut self.machine;
        let freq = m.posture.freq_of(core);
        let service = profile
            .sample(workload, freq, m.baseline, draw)
            .get()
            .round()
            .max(1.0) as u64;
        let slot = core.flat_index();
        let finish = at.max(self.free_at[slot]) + service;
        self.free_at[slot] = finish;
        self.epoch_busy_ns += service;
        self.epoch_completed += 1;
        if critical && m.adapter.enabled() {
            let freq_khz = (freq.get() * 1_000.0).round() as u64;
            let baseline_khz = (m.baseline.get() * 1_000.0).round() as u64;
            m.adapter
                .on_service(workload.name(), freq_khz, baseline_khz, service);
        }
        finish
    }

    /// Closes a live epoch: meters its energy and advances the counter.
    pub(crate) fn end_epoch(&mut self) {
        if let Some(meter) = self.meter.as_mut() {
            let powered = self
                .machine
                .posture
                .core_freqs
                .iter()
                .filter(|(_, f)| f.get() > 0.0)
                .count() as u32;
            meter.observe_epoch(self.measured_mw, powered, self.epoch_busy_ns);
            meter.add_requests(self.epoch_completed);
        }
        self.epoch_busy_ns = 0;
        self.epoch_completed = 0;
        self.epoch += 1;
    }

    /// Serves one routed request into the chip's own account, on the
    /// profile of the core it lands on.
    fn dispatch(
        &mut self,
        req: &ChipRequest,
        core_svc: &BTreeMap<CoreId, (Workload, ServiceProfile)>,
    ) {
        let Some(core) = self.target(req.critical) else {
            // Whole background tier gated: nothing can serve it.
            self.shed += 1;
            return;
        };
        let (workload, profile) = core_svc
            .get(&core)
            .unwrap_or_else(|| core_svc.first_key_value().expect("postured cores").1);
        let latency =
            self.serve(core, req.at, req.draw, req.critical, (workload, profile)) - req.at;
        self.completed += 1;
        if req.critical {
            self.crit_hist.record(latency);
            self.critical_completed += 1;
            let slo = self.machine.cfg.critical_slo_ns;
            if slo > 0 && latency > slo {
                self.critical_slo_violations += 1;
            }
        } else {
            self.bg_hist.record(latency);
        }
    }

    /// The barrier-time view the fleet router places traffic with.
    #[must_use]
    pub fn snapshot(&self, now: u64) -> ChipSnapshot {
        let m = &self.machine;
        let excluded = m.mgr.supervisor_excluded();
        let fastest = m
            .posture
            .core_freqs
            .iter()
            .filter(|(c, _)| !excluded.contains(c))
            .map(|(_, f)| f.get().round() as u64)
            .max()
            .unwrap_or(0);
        let min_health = m.supervisor.as_ref().map_or(100, |sup| {
            m.posture
                .core_freqs
                .iter()
                .map(|(core, _)| sup.health(*core))
                .fold(100, u32::min)
        });
        ChipSnapshot {
            alive: self.dead_since.is_none(),
            fastest_healthy_mhz: fastest,
            backlog_ns: backlog_sum(&self.free_at, now),
            quarantined: m.mgr.quarantined_cores().len() as u32,
            safe_mode: m.mgr.safe_mode_cores().len() as u32,
            min_health,
        }
    }

    /// Whether the chip has hard-failed and not been resurrected.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead_since.is_some()
    }

    /// Seals a deep copy of the whole serving state. Restoring it and
    /// stepping forward is byte-identical to never having stopped.
    #[must_use]
    pub fn checkpoint(&self) -> ChipServerCheckpoint {
        ChipServerCheckpoint {
            state: self.clone(),
        }
    }

    /// Rewinds the chip to `cp`, exactly — machine, queues, histograms
    /// and counters all return to the sealed instant.
    pub fn restore(&mut self, cp: &ChipServerCheckpoint) {
        *self = cp.state.clone();
    }

    /// Copies only the machine half of the chip — the capsule
    /// [`resurrect_from`](Self::resurrect_from) needs, without the
    /// account it keeps.
    #[must_use]
    pub fn machine_checkpoint(&self) -> MachineCheckpoint {
        MachineCheckpoint {
            machine: self.machine.clone(),
        }
    }

    /// Brings a hard-failed chip back from `cp` with failover semantics:
    /// the *machine* rewinds (manager, supervisor ladder, posture,
    /// adapter's learned state, drift model, regulator control state),
    /// but the *account* does not — completions, sheds, latency
    /// histograms, the energy meter and the regulator's report keep their
    /// cumulative values so exactly-once accounting survives the
    /// resurrection. Queues come back cold (`free_at` cleared), the
    /// per-epoch scratch counters are zeroed, and the epoch counter keeps
    /// the fleet's current position on the timeline.
    ///
    /// The fleet layer is expected to follow this with a supervisor-style
    /// probation window before trusting the chip with critical traffic.
    pub fn resurrect_from(&mut self, cp: &MachineCheckpoint) {
        self.machine = cp.machine.clone();
        self.free_at = [0; NUM_PROCS * CORES_PER_PROC];
        self.measured_mw = 0;
        self.epoch_busy_ns = 0;
        self.epoch_completed = 0;
        self.dead_since = None;
    }

    /// The critical- and background-latency histograms (for fleet-level
    /// merging).
    #[must_use]
    pub fn histograms(&self) -> (&LatencyHistogram, &LatencyHistogram) {
        (&self.crit_hist, &self.bg_hist)
    }

    /// Closes the chip's account.
    #[must_use]
    pub fn summary(&self) -> ChipSummary {
        let mut all = self.crit_hist.clone();
        all.merge(&self.bg_hist);
        let snap = self.snapshot(u64::MAX);
        ChipSummary {
            completed: self.completed,
            shed: self.shed,
            critical_completed: self.critical_completed,
            critical_slo_violations: self.critical_slo_violations,
            p99_ns: all.quantile(0.99),
            transitions: self.transitions,
            quarantined: snap.quarantined,
            safe_mode: snap.safe_mode,
            fastest_healthy_mhz: snap.fastest_healthy_mhz,
            cap: self.cap.as_ref().map(|c| c.report.clone()),
            energy: self.energy_report(),
        }
    }
}

/// Queued work past `now` summed over every core (cores that never served
/// contribute nothing).
fn backlog_sum(free_at: &[u64], now: u64) -> u64 {
    free_at.iter().map(|f| f.saturating_sub(now)).sum()
}

/// Maps each postured core to the workload (and service profile) it
/// hosts: the critical core to the critical workload, background cores to
/// the round-robin background assignment `serve_posture` made.
fn service_map(
    cfg: &ChipServeConfig,
    posture: &ServePosture,
) -> BTreeMap<CoreId, (Workload, ServiceProfile)> {
    let mut map = BTreeMap::new();
    map.insert(
        posture.placement.critical_core,
        (cfg.critical.clone(), cfg.critical.service_profile()),
    );
    for (i, core) in posture.placement.background_cores.iter().enumerate() {
        let w = cfg.backgrounds[i % cfg.backgrounds.len()].clone();
        let p = w.service_profile();
        map.insert(*core, (w, p));
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_chip::{ChipConfig, System};
    use atm_core::charact::CharactConfig;
    use atm_core::Governor;
    use atm_workloads::by_name;

    fn config() -> ChipServeConfig {
        ChipServeConfig::standard(
            by_name("squeezenet").unwrap().clone(),
            vec![by_name("x264").unwrap().clone()],
        )
    }

    fn server_with(seed: u64, cfg: ChipServeConfig) -> ChipServer {
        let sys = System::new(ChipConfig::power7_plus(seed));
        let mgr = AtmManager::deploy(
            sys,
            Governor::Default,
            &CharactConfig::builder()
                .trial(Nanos::new(2_000.0))
                .repeats(1)
                .build()
                .unwrap(),
        );
        ChipServer::new(mgr, cfg).unwrap()
    }

    fn server(seed: u64) -> ChipServer {
        server_with(seed, config())
    }

    fn traffic(epoch: u64, epoch_ns: u64) -> Vec<ChipRequest> {
        (0..20)
            .map(|i| ChipRequest {
                at: epoch * epoch_ns + i * (epoch_ns / 20),
                critical: i.is_multiple_of(5),
                draw: f64::from(u32::try_from(i).unwrap()) / 20.0,
            })
            .collect()
    }

    /// Hard-fails the chip on the first tick of the harvest it arms.
    struct Killer;

    impl FaultHook for Killer {
        fn armed(&self) -> bool {
            true
        }
        fn on_tick(&mut self, _now: Nanos, tick: u64, out: &mut Vec<atm_chip::FaultAction>) {
            if tick == 0 {
                out.push(atm_chip::FaultAction::ChipHardFail {
                    core: CoreId::new(0, 0),
                });
            }
        }
    }

    #[test]
    fn stepping_is_deterministic() {
        let run = || {
            let mut srv = server(42);
            for e in 0..3u64 {
                let out = srv.step_epoch(&traffic(e, 1_000_000), None);
                assert!(out.rejected.is_empty(), "live chip absorbed everything");
            }
            (format!("{:?}", srv.summary()), srv.snapshot(3_000_000))
        };
        let (a, snap_a) = run();
        let (b, snap_b) = run();
        assert_eq!(a, b);
        assert_eq!(snap_a, snap_b);
    }

    #[test]
    fn served_requests_land_in_the_account() {
        let mut srv = server(7);
        let out = srv.step_epoch(&traffic(0, 1_000_000), None);
        assert!(out.rejected.is_empty());
        let summary = srv.summary();
        assert_eq!(summary.completed + summary.shed, 20);
        assert!(summary.critical_completed >= 1);
        let snap = srv.snapshot(1_000_000);
        assert!(snap.fastest_healthy_mhz > 4_000, "{snap:?}");
        assert_eq!(snap.quarantined, 0);
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let mut srv = server(42);
        let _ = srv.step_epoch(&traffic(0, 1_000_000), None);
        let cp = srv.checkpoint();
        for e in 1..3u64 {
            let _ = srv.step_epoch(&traffic(e, 1_000_000), None);
        }
        let gold = format!("{srv:#?}");
        srv.restore(&cp);
        for e in 1..3u64 {
            let _ = srv.step_epoch(&traffic(e, 1_000_000), None);
        }
        assert_eq!(format!("{srv:#?}"), gold);
    }

    #[test]
    fn hard_fail_bounces_batches_and_resurrection_keeps_the_account() {
        let mut srv = server(42);
        let _ = srv.step_epoch(&traffic(0, 1_000_000), None);
        let cp = srv.machine_checkpoint();
        let completed_before = srv.summary().completed;

        let batch = traffic(1, 1_000_000);
        let mut killer = Killer;
        let out = srv.step_epoch(&batch, Some(&mut killer));
        assert!(srv.is_dead());
        assert_eq!(srv.dead_since, Some(1));
        assert_eq!(out.rejected, batch, "nothing dispatched on the death epoch");
        assert!(!srv.snapshot(2_000_000).alive);
        // Dead chips keep bouncing until resurrected.
        let out = srv.step_epoch(&batch, None);
        assert_eq!(out.rejected.len(), batch.len());
        assert_eq!(srv.summary().completed, completed_before);

        srv.resurrect_from(&cp);
        assert!(!srv.is_dead());
        assert_eq!(
            srv.summary().completed,
            completed_before,
            "the cumulative account survives resurrection"
        );
        let out = srv.step_epoch(&traffic(3, 1_000_000), None);
        assert!(out.rejected.is_empty());
        assert!(srv.summary().completed > completed_before);
    }

    #[test]
    fn resurrection_swaps_in_the_capsule_machine_and_keeps_the_account() {
        // Capped and metered, so the regulator report and the energy
        // meter are part of the account under test.
        let mut srv = server_with(
            42,
            ChipServeConfig {
                capping: Some(CapConfig::standard(atm_capping::PowerBudget::steady(
                    100_000,
                ))),
                energy: Some(EnergyModel::standard(1_000_000)),
                ..config()
            },
        );
        let _ = srv.step_epoch(&traffic(0, 1_000_000), None);
        let capsule = srv.machine_checkpoint();
        for e in 1..3u64 {
            let _ = srv.step_epoch(&traffic(e, 1_000_000), None);
        }
        let _ = srv.step_epoch(&traffic(3, 1_000_000), Some(&mut Killer));
        assert!(srv.is_dead());

        let account = |s: &ChipServer| {
            format!(
                "{:#?}",
                (
                    (s.completed, s.shed, s.critical_completed),
                    (s.critical_slo_violations, s.transitions, s.epoch),
                    (&s.crit_hist, &s.bg_hist, &s.cap, &s.meter),
                )
            )
        };
        let before = account(&srv);
        assert!(srv.completed > 0);
        assert_eq!(srv.cap.as_ref().map(|c| c.report.epochs), Some(3));
        assert!(srv.energy_report().is_some_and(|e| e.total_pj > 0));
        let capsule_machine = format!("{:#?}", capsule.machine);
        assert_ne!(
            format!("{:#?}", srv.machine),
            capsule_machine,
            "the machine moved on after the capsule was taken"
        );

        srv.resurrect_from(&capsule);
        assert_eq!(format!("{:#?}", srv.machine), capsule_machine);
        assert_eq!(account(&srv), before, "the account survives untouched");
        assert!(srv.free_at.iter().all(|&f| f == 0), "queues come back cold");
        assert_eq!(
            (srv.measured_mw, srv.epoch_busy_ns, srv.epoch_completed),
            (0, 0, 0)
        );
        assert_eq!(srv.dead_since, None);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let cfg = ChipServeConfig {
            backgrounds: Vec::new(),
            ..config()
        };
        assert!(cfg.check().is_err());
        let cfg = ChipServeConfig {
            refresh_every: 0,
            ..config()
        };
        assert!(cfg.check().is_err());
    }
}
