//! The fine-tuned ATM manager (Sec. VII, Figs. 13–14).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use atm_chip::{MarginMode, System};
use atm_telemetry::{Recorder, RollbackEvent, TelemetryEvent};
use atm_units::{AtmError, CoreId, MegaHz, Nanos, ProcId, Watts};
use atm_workloads::Workload;
use serde::{Deserialize, Serialize};

use crate::charact::{CharactConfig, RealisticResult};
use crate::finetune::FineTuner;
use crate::governor::Governor;
use crate::predictor::{FreqPredictor, PerfPredictor};
use crate::qos::QosTarget;
use crate::scheduler::{Placement, Scheduler};
use crate::stress::{stress_test_deploy, StressTestResult};
use crate::supervisor::SupervisorAction;
use crate::throttle::{throttle_to_budget, ThrottlePlan, ThrottleSetting};

/// Frequency headroom added to the QoS-required frequency when computing
/// the balanced power budget, covering droop-transient losses.
const QOS_HEADROOM: MegaHz = MegaHz::new_const(60.0);

/// The margin strategies compared in the paper's Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// Chip-wide static margin at 4.2 GHz (the customer-predictability
    /// baseline).
    StaticMargin,
    /// Default (preset) ATM, unmanaged: ATM indiscriminately on for every
    /// core, uniform ~4.6 GHz calibration.
    DefaultAtm,
    /// Fine-tuned ATM, unmanaged: thread-worst limits deployed, but the
    /// critical job may land on the slowest core and background jobs run
    /// at full tilt.
    FineTunedUnmanaged,
    /// Managed for maximum critical performance: critical on the fastest
    /// core, background cores dropped to the lowest p-state.
    ManagedMax,
    /// Managed for balance: critical just meets its QoS target; background
    /// throttled the minimal amount that keeps chip power within the
    /// predicted budget.
    ManagedBalanced(QosTarget),
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::StaticMargin => f.write_str("static margin"),
            Strategy::DefaultAtm => f.write_str("default ATM"),
            Strategy::FineTunedUnmanaged => f.write_str("fine-tuned unmanaged"),
            Strategy::ManagedMax => f.write_str("managed (max critical)"),
            Strategy::ManagedBalanced(q) => write!(f, "managed (balanced, {q})"),
        }
    }
}

/// The measured outcome of running a ⟨critical : background⟩ pair under a
/// strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManagedOutcome {
    /// The strategy evaluated.
    pub strategy: Strategy,
    /// Critical application name.
    pub critical: String,
    /// Background application name.
    pub background: String,
    /// Core the critical application ran on.
    pub critical_core: CoreId,
    /// Mean frequency of the critical core over the measured run.
    pub critical_freq: MegaHz,
    /// Critical-application speedup over the 4.2 GHz static baseline.
    pub speedup: f64,
    /// Background throttle setting in effect (None for the baselines where
    /// backgrounds are not explicitly managed).
    pub background_setting: Option<ThrottleSetting>,
    /// Mean chip power of the evaluation socket.
    pub chip_power: Watts,
    /// Whether the measured run completed without failure (always true at
    /// validated configurations).
    pub ok: bool,
}

/// The ATM manager: deploys a fine-tuned configuration via the test-time
/// stress-test, trains the predictors, and schedules
/// ⟨critical : background⟩ pairs under the paper's strategies.
///
/// Evaluation follows the paper: all work is co-located on processor 0,
/// one core runs the critical application, the remaining seven run copies
/// of the background application, and socket 1 idles.
///
/// # Examples
///
/// ```no_run
/// use atm_chip::{ChipConfig, System};
/// use atm_core::{AtmManager, Governor, QosTarget};
/// use atm_core::charact::CharactConfig;
/// use atm_telemetry::NullRecorder;
/// use atm_workloads::by_name;
///
/// let sys = System::new(ChipConfig::default());
/// let mut mgr = AtmManager::deploy(sys, Governor::Default, &CharactConfig::standard());
/// let outcome = mgr.evaluate_pair(
///     by_name("squeezenet").unwrap(),
///     by_name("x264").unwrap(),
///     atm_core::manager::Strategy::ManagedBalanced(QosTarget::improvement_pct(10.0)),
///     &mut NullRecorder,
/// );
/// assert!(outcome.speedup >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct AtmManager {
    system: System,
    governor: Governor,
    deployed: StressTestResult,
    realistic: Option<RealisticResult>,
    /// Ordered so the manager's `Debug` rendering (the checkpoint layer's
    /// byte-identity witness) is deterministic.
    freq_predictors: BTreeMap<CoreId, FreqPredictor>,
    measure_duration: Nanos,
    /// Extra per-core CPM rollback applied after field failures
    /// ([`AtmManager::rollback_core`]); survives re-posturing because the
    /// governor map is adjusted by these overrides on every application.
    rollback_overrides: BTreeMap<CoreId, usize>,
    /// Cores the supervisor has quarantined: clock-gated, idle, and
    /// excluded from every placement until the manager is redeployed.
    quarantined: BTreeSet<CoreId>,
    /// Cores reverted to the static-margin baseline by the supervisor's
    /// safe mode: reduction pinned at 0, never placed as critical.
    safe_mode: BTreeSet<CoreId>,
}

/// The serving posture produced by [`AtmManager::serve_posture`]: where
/// the critical stream runs, how the background cores are throttled, and
/// the settled per-core frequencies the serving layer converts into
/// request service rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServePosture {
    /// The placement (critical core, background cores, throttle plan).
    pub placement: Placement,
    /// Settled mean frequency of every socket-0 core under this posture.
    pub core_freqs: Vec<(CoreId, MegaHz)>,
    /// The chip power budget the background throttle was fitted to.
    pub budget: Watts,
}

impl ServePosture {
    /// The settled frequency of `core` under this posture (zero if the
    /// core is not part of the posture's socket).
    #[must_use]
    pub fn freq_of(&self, core: CoreId) -> MegaHz {
        self.core_freqs
            .iter()
            .find(|(c, _)| *c == core)
            .map_or(MegaHz::ZERO, |(_, f)| *f)
    }
}

/// A complete captured [`AtmManager`] state (see
/// [`AtmManager::checkpoint`]).
#[derive(Debug, Clone)]
pub struct ManagerCheckpoint {
    state: AtmManager,
}

impl AtmManager {
    /// Deploys a fine-tuned configuration on `system`: runs the test-time
    /// stress-test per core, applies the governor's reduction map, and
    /// takes ownership of the system.
    #[must_use]
    pub fn deploy(mut system: System, governor: Governor, cfg: &CharactConfig) -> Self {
        let deployed = stress_test_deploy(&mut system, governor.extra_rollback(), cfg);
        AtmManager {
            system,
            governor,
            deployed,
            realistic: None,
            freq_predictors: BTreeMap::new(),
            measure_duration: Nanos::new(100_000.0),
            rollback_overrides: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            safe_mode: BTreeSet::new(),
        }
    }

    /// Attaches per-⟨app, core⟩ profiles so the aggressive governor can
    /// use application-specific limits.
    pub fn set_realistic_profiles(&mut self, realistic: RealisticResult) {
        self.realistic = Some(realistic);
    }

    /// The deployed stress-test result.
    #[must_use]
    pub fn deployed(&self) -> &StressTestResult {
        &self.deployed
    }

    /// The governor in effect.
    #[must_use]
    pub fn governor(&self) -> Governor {
        self.governor
    }

    /// The managed system.
    #[must_use]
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable access to the managed system (for experiments that need to
    /// reconfigure between evaluations).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// Captures the manager's complete state — the managed system, the
    /// deploy table, realistic profiles, cached predictors, rollback
    /// overrides, and the quarantine/safe-mode sets — as a value.
    /// Restoring with [`AtmManager::restore`] and continuing is
    /// byte-identical to never stopping.
    #[must_use]
    pub fn checkpoint(&self) -> ManagerCheckpoint {
        ManagerCheckpoint {
            state: self.clone(),
        }
    }

    /// Restores the complete state captured by [`AtmManager::checkpoint`],
    /// discarding everything managed since.
    pub fn restore(&mut self, cp: &ManagerCheckpoint) {
        *self = cp.state.clone();
    }

    /// Sets the measured-run duration (default 100 µs).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive.
    pub fn set_measure_duration(&mut self, duration: Nanos) {
        assert!(duration.get() > 0.0, "duration must be positive");
        self.measure_duration = duration;
    }

    /// The per-core frequency predictor, trained on demand and cached.
    pub fn freq_predictor(&mut self, core: CoreId) -> FreqPredictor {
        if let Some(p) = self.freq_predictors.get(&core) {
            return *p;
        }
        let p = FreqPredictor::train(&mut self.system, core);
        self.freq_predictors.insert(core, p);
        p
    }

    /// Runs one ⟨critical : background⟩ pair under `strategy` and measures
    /// the critical application's speedup over the static-margin baseline
    /// (one bar group of Fig. 14).
    ///
    /// The measured run, throttle decision and power-budget gauge record
    /// through `rec`; pass [`&mut NullRecorder`](atm_telemetry::NullRecorder) for the
    /// zero-overhead unrecorded path — the outcome is identical either
    /// way.
    pub fn evaluate_pair<R: Recorder>(
        &mut self,
        critical: &Workload,
        background: &Workload,
        strategy: Strategy,
        rec: &mut R,
    ) -> ManagedOutcome {
        let proc = ProcId::new(0);
        let baseline = self.system.config().pstates.nominal().frequency;

        // Reset posture: socket 1 idles static; socket 0 gets the pair.
        self.system.idle_all();
        self.system.set_mode_all(MarginMode::Static);

        let (critical_core, background_setting) = match strategy {
            Strategy::StaticMargin => {
                let core = CoreId::new(0, 0);
                self.place(core, critical, background, MarginMode::Static);
                (core, None)
            }
            Strategy::DefaultAtm => {
                // Preset configuration: reduction 0 everywhere, ATM on for
                // every core, arbitrary placement (cores are uniform).
                let saved = self.deployed.deployed_map();
                FineTuner::new(&mut self.system)
                    .apply_map(&[0; 16])
                    .expect("zero map always valid");
                let core = CoreId::new(0, 0);
                self.place(core, critical, background, MarginMode::Atm);
                let outcome =
                    self.measure(strategy, critical, background, core, None, baseline, rec);
                FineTuner::new(&mut self.system)
                    .apply_map(&saved)
                    .expect("restoring deployed map");
                return outcome;
            }
            Strategy::FineTunedUnmanaged => {
                self.apply_governor_map(critical);
                // Careless placement: the slowest fine-tuned core.
                let core = Scheduler::new(&mut self.system).slowest_core(proc);
                self.place(core, critical, background, MarginMode::Atm);
                (core, Some(ThrottleSetting::AtmMax))
            }
            Strategy::ManagedMax => {
                self.apply_governor_map(critical);
                let robust = self.governor.robust_cores_only();
                let core = Scheduler::new(&mut self.system).fastest_core(proc, robust);
                let lowest = self.system.config().pstates.lowest().frequency;
                self.place(core, critical, background, MarginMode::Fixed(lowest));
                self.system.set_mode(core, MarginMode::Atm);
                (core, Some(ThrottleSetting::Fixed(lowest)))
            }
            Strategy::ManagedBalanced(qos) => {
                self.apply_governor_map(critical);
                let robust = self.governor.robust_cores_only();
                let core = Scheduler::new(&mut self.system).fastest_core(proc, robust);

                // Predict the frequency the QoS needs and the chip power
                // budget that sustains it (Fig. 13's predictor chain). The
                // headroom covers the average frequency lost to transient
                // droop responses, which the settled predictor cannot see.
                let perf = PerfPredictor::train(critical, baseline);
                let f_req = perf.freq_for(qos.speedup()) + QOS_HEADROOM;
                let freq_pred = self.freq_predictor(core);
                let budget = freq_pred.power_for(f_req);
                rec.gauge("manager.budget_w", budget.get());

                self.place(core, critical, background, MarginMode::Atm);
                self.system.set_mode(core, MarginMode::Atm);
                let bg_cores: Vec<CoreId> = proc.cores().filter(|c| *c != core).collect();
                let plan =
                    throttle_to_budget(&mut self.system, &bg_cores, budget, proc.index(), rec);
                (core, Some(plan.setting))
            }
        };

        self.measure(
            strategy,
            critical,
            background,
            critical_core,
            background_setting,
            baseline,
            rec,
        )
    }

    /// Applies the governor's reduction map for `critical`, adjusted by
    /// any post-failure rollback overrides.
    fn apply_governor_map(&mut self, critical: &Workload) {
        let mut map = self.governor.reduction_map(
            &self.deployed,
            self.realistic.as_ref(),
            Some(critical.name()),
        );
        for (&core, &extra) in &self.rollback_overrides {
            let slot = core.flat_index();
            map[slot] = map[slot].saturating_sub(extra);
        }
        // Safe-moded and quarantined cores stay at the static-margin
        // baseline (reduction 0) no matter what the governor proposes.
        for &core in self.safe_mode.iter().chain(self.quarantined.iter()) {
            map[core.flat_index()] = 0;
        }
        FineTuner::new(&mut self.system)
            .apply_map(&map)
            .expect("governor maps derive from validated limits");
    }

    /// Rolls back `core`'s CPM fine-tuning by `steps` additional delay
    /// steps (floored at the preset configuration) — the field response to
    /// a failure or persistent droop alarms on that core. The override is
    /// remembered: every future governor-map application (including
    /// [`AtmManager::serve_posture`]) keeps the rollback, and the core's
    /// cached frequency predictor is retrained on demand.
    ///
    /// Bumps the `manager.rollbacks` counter and records a
    /// [`atm_telemetry::RollbackEvent`] through `rec`; pass
    /// [`&mut NullRecorder`](atm_telemetry::NullRecorder) for the zero-overhead
    /// unrecorded path. Returns the core's new reduction.
    pub fn rollback_core<R: Recorder>(&mut self, core: CoreId, steps: usize, rec: &mut R) -> usize {
        let entry = self.rollback_overrides.entry(core).or_insert(0);
        *entry += steps;
        let current = self.system.core(core).reduction();
        let new = current.saturating_sub(steps);
        self.system
            .set_reduction(core, new)
            .expect("lowering a reduction is always valid");
        self.freq_predictors.remove(&core);
        rec.incr("manager.rollbacks", 1);
        if rec.enabled() {
            rec.record(TelemetryEvent::Rollback(RollbackEvent {
                t: rec.now(),
                core,
                steps: steps as u32,
                new_reduction: new as u32,
            }));
        }
        new
    }

    /// The cumulative post-failure rollback override on `core`.
    #[must_use]
    pub fn rollback_override(&self, core: CoreId) -> usize {
        self.rollback_overrides.get(&core).copied().unwrap_or(0)
    }

    /// Applies a batch of [`MarginSupervisor`](crate::MarginSupervisor)
    /// decisions to the managed system. Returns `true` when the serving
    /// layer must recompute its placement (a core was quarantined or
    /// dropped to safe mode — either can take the critical core out of
    /// rotation).
    ///
    /// Rollbacks and re-probes record through `rec` and the
    /// `manager.quarantines` / `manager.safe_modes` counters are bumped;
    /// pass [`&mut NullRecorder`](atm_telemetry::NullRecorder) for the zero-overhead
    /// unrecorded path.
    pub fn apply_supervisor_actions<R: Recorder>(
        &mut self,
        actions: &[SupervisorAction],
        rec: &mut R,
    ) -> bool {
        let mut needs_replace = false;
        for action in actions {
            let core = action.core();
            if self.quarantined.contains(&core) {
                continue;
            }
            match *action {
                SupervisorAction::Rollback { steps, .. } => {
                    if !self.safe_mode.contains(&core) {
                        let _ = self.rollback_core(core, steps, rec);
                    }
                }
                SupervisorAction::Reprobe { steps, .. } => {
                    if !self.safe_mode.contains(&core) {
                        let _ = self.reprobe_core(core, steps, rec);
                    }
                }
                SupervisorAction::SafeMode { .. } => {
                    self.safe_mode_core(core);
                    rec.incr("manager.safe_modes", 1);
                    needs_replace = true;
                }
                SupervisorAction::Quarantine { .. } => {
                    self.quarantine_core(core);
                    rec.incr("manager.quarantines", 1);
                    needs_replace = true;
                }
            }
        }
        needs_replace
    }

    /// Cautiously restores fine-tuning after a clean probation: `steps` of
    /// the rollback override come back off, and the core's live reduction
    /// climbs by `steps`, capped at the stress-test-validated deployment.
    /// Re-probes record through `rec` (`manager.reprobes`); pass
    /// [`&mut NullRecorder`](atm_telemetry::NullRecorder) for the unrecorded path.
    ///
    /// Returns the core's new reduction.
    pub fn reprobe_core<R: Recorder>(&mut self, core: CoreId, steps: usize, rec: &mut R) -> usize {
        if let Some(over) = self.rollback_overrides.get_mut(&core) {
            *over = over.saturating_sub(steps);
            if *over == 0 {
                self.rollback_overrides.remove(&core);
            }
        }
        let ceiling = self.deployed.deployed_map()[core.flat_index()];
        let new = (self.system.core(core).reduction() + steps).min(ceiling);
        self.system
            .set_reduction(core, new)
            .expect("re-probe never exceeds the validated deployment");
        self.freq_predictors.remove(&core);
        rec.incr("manager.reprobes", 1);
        new
    }

    /// Re-tightens `core`'s fine-tuning by up to `steps`: the online
    /// adaptation hook. The new reduction is capped at the stress-tested
    /// deployment ceiling *minus the supervisor's live rollback override*,
    /// so adaptation can never undo a strike — a rolled-back core stays
    /// rolled back until its probation clears through the normal re-probe
    /// path. Quarantined and safe-mode cores are left untouched.
    ///
    /// Bumps the `manager.retightens` counter through `rec`; pass
    /// [`&mut NullRecorder`](atm_telemetry::NullRecorder) for the unrecorded path.
    /// Returns the core's reduction after the call.
    pub fn retighten_core<R: Recorder>(
        &mut self,
        core: CoreId,
        steps: usize,
        rec: &mut R,
    ) -> usize {
        if self.quarantined.contains(&core) || self.safe_mode.contains(&core) {
            return self.system.core(core).reduction();
        }
        let ceiling = self.deployed.deployed_map()[core.flat_index()]
            .saturating_sub(self.rollback_override(core));
        let current = self.system.core(core).reduction();
        if ceiling <= current {
            // Nothing left to tighten (or a live rollback owns the gap):
            // re-tightening must never *loosen*, so leave the core alone.
            return current;
        }
        let new = current.saturating_add(steps).min(ceiling);
        self.system
            .set_reduction(core, new)
            .expect("re-tighten never exceeds the validated deployment");
        self.freq_predictors.remove(&core);
        rec.incr("manager.retightens", 1);
        new
    }

    /// Quarantines `core`: clock-gated, idled, reduction pinned at 0, and
    /// excluded from every future placement. Terminal until redeployment.
    pub fn quarantine_core(&mut self, core: CoreId) {
        self.safe_mode.remove(&core);
        self.quarantined.insert(core);
        self.system
            .set_reduction(core, 0)
            .expect("zero reduction is always valid");
        self.system.assign(core, Workload::idle());
        self.system.set_mode(core, MarginMode::Gated);
        self.freq_predictors.remove(&core);
    }

    /// Drops `core` to safe mode: static margin, reduction 0 — exactly the
    /// never-tuned baseline configuration, which is correct by
    /// construction. The core stays powered but is excluded from every
    /// future placement and never re-enters ATM mode under this manager.
    pub fn safe_mode_core(&mut self, core: CoreId) {
        self.safe_mode.insert(core);
        self.system
            .set_reduction(core, 0)
            .expect("zero reduction is always valid");
        self.system.set_mode(core, MarginMode::Static);
        self.freq_predictors.remove(&core);
    }

    /// The cores currently quarantined by supervisor actions.
    #[must_use]
    pub fn quarantined_cores(&self) -> &BTreeSet<CoreId> {
        &self.quarantined
    }

    /// The cores currently held in safe mode by supervisor actions.
    #[must_use]
    pub fn safe_mode_cores(&self) -> &BTreeSet<CoreId> {
        &self.safe_mode
    }

    /// The cores a placement must exclude (quarantined ∪ safe mode), in
    /// core order.
    #[must_use]
    pub fn supervisor_excluded(&self) -> Vec<CoreId> {
        self.quarantined.union(&self.safe_mode).copied().collect()
    }

    /// Computes the serving posture for a critical stream with background
    /// co-runners (the serving layer's placement hook): the governor map
    /// is applied, the critical workload lands on the fastest (optionally
    /// robust-only) core via [`Scheduler::place_critical`], the background
    /// workloads backfill the remaining socket-0 cores round-robin in ATM
    /// mode, and the background cores are throttled to the power budget
    /// the predictor chain derives from `qos` — exactly the
    /// `ManagedBalanced` pipeline, but returning the full posture instead
    /// of running a one-shot measurement.
    ///
    /// The power-budget gauge and throttle decision record through
    /// `rec`; pass [`&mut NullRecorder`](atm_telemetry::NullRecorder) for the
    /// zero-overhead unrecorded path.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if `backgrounds` is empty.
    pub fn serve_posture<R: Recorder>(
        &mut self,
        critical: &Workload,
        backgrounds: &[Workload],
        qos: QosTarget,
        rec: &mut R,
    ) -> Result<ServePosture, AtmError> {
        if backgrounds.is_empty() {
            return Err(AtmError::invalid_config(
                "backgrounds",
                "need at least one background workload",
            ));
        }
        let proc = ProcId::new(0);
        let baseline = self.system.config().pstates.nominal().frequency;

        self.system.idle_all();
        self.system.set_mode_all(MarginMode::Static);
        // The posture reset must not wake quarantined cores.
        for &q in &self.quarantined {
            self.system.set_mode(q, MarginMode::Gated);
        }
        self.apply_governor_map(critical);

        let robust = self.governor.robust_cores_only();
        let excluded = self.supervisor_excluded();
        let mut placement =
            Scheduler::new(&mut self.system).place_critical_excluding(proc, robust, &excluded);
        let core = placement.critical_core;

        // Predictor chain (Fig. 13): QoS → required frequency → power
        // budget that sustains it.
        let perf = PerfPredictor::train(critical, baseline);
        let f_req = perf.freq_for(qos.speedup()) + QOS_HEADROOM;
        let freq_pred = self.freq_predictor(core);
        let budget = freq_pred.power_for(f_req);
        rec.gauge("manager.budget_w", budget.get());

        self.system.assign(core, critical.clone());
        self.system.set_mode(core, MarginMode::Atm);
        for (i, &bg_core) in placement.background_cores.iter().enumerate() {
            self.system
                .assign(bg_core, backgrounds[i % backgrounds.len()].clone());
            self.system.set_mode(bg_core, MarginMode::Atm);
        }
        let plan = throttle_to_budget(
            &mut self.system,
            &placement.background_cores,
            budget,
            proc.index(),
            rec,
        );
        placement.plan = Some(plan);

        let report = self.system.settle();
        let core_freqs = proc
            .cores()
            .map(|c| (c, report.core(c).mean_freq))
            .collect();
        Ok(ServePosture {
            placement,
            core_freqs,
            budget,
        })
    }

    /// The power regulator's actuation seam: applies a cap throttle depth
    /// on top of a serving posture, background-before-critical.
    ///
    /// `base` is the posture's own background throttle plan (the
    /// regulator's depth is always relative to it, so droop-policy
    /// escalations and cap throttles compose instead of fighting);
    /// `bg_depth` rungs are taken off the background cores first, and
    /// `crit_depth` pins the critical core that many ladder rungs below
    /// ATM-max — clamped above [`ThrottleSetting::Gated`], a power cap may
    /// slow the critical stream but never kill it.
    ///
    /// Supervisor state always outranks the regulator: quarantined and
    /// safe-mode cores are skipped entirely, and because the seam moves
    /// *margin modes* only, a rolled-back core's reduction (the
    /// `retighten_core` ceiling: deployment minus live rollback override)
    /// is untouched — a cap release can never undo a strike.
    ///
    /// Returns the background setting now in force.
    pub fn apply_cap_levels<R: Recorder>(
        &mut self,
        base: &ThrottlePlan,
        critical: CoreId,
        bg_depth: u32,
        crit_depth: u32,
        rec: &mut R,
    ) -> ThrottleSetting {
        // Never gate the critical core: clamp it one rung above the
        // bottom, at the slowest p-state.
        let pstates = &self.system.config().pstates;
        let bg_setting = base.setting.stepped(pstates, bg_depth);
        let slowest = ThrottleSetting::AtmMax.rungs_below(pstates) - 1;
        let crit_setting = ThrottleSetting::AtmMax.stepped(pstates, crit_depth.min(slowest));
        for &core in &base.cores {
            if self.quarantined.contains(&core) || self.safe_mode.contains(&core) {
                continue;
            }
            self.system.set_mode(core, bg_setting.margin_mode());
        }
        if !self.quarantined.contains(&critical) && !self.safe_mode.contains(&critical) {
            self.system.set_mode(critical, crit_setting.margin_mode());
        }
        if rec.enabled() {
            rec.incr("manager.cap_applications", 1);
            rec.gauge("manager.cap_bg_depth", f64::from(bg_depth));
            rec.gauge("manager.cap_crit_depth", f64::from(crit_depth));
        }
        bg_setting
    }

    /// Re-settles the current schedule and reports each of `proc`'s cores'
    /// steady-state frequency — the serving layer's per-epoch service-rate
    /// refresh.
    pub fn measure_core_freqs(&mut self, proc: ProcId) -> Vec<(CoreId, MegaHz)> {
        let report = self.system.settle();
        proc.cores()
            .map(|c| (c, report.core(c).mean_freq))
            .collect()
    }

    /// Places the pair on socket 0: `critical` on `core` (in ATM mode
    /// unless the whole evaluation is static), `background` replicated on
    /// the seven siblings at `bg_mode`.
    fn place(
        &mut self,
        core: CoreId,
        critical: &Workload,
        background: &Workload,
        bg_mode: MarginMode,
    ) {
        self.system.assign(core, critical.clone());
        let critical_mode = if bg_mode == MarginMode::Static {
            MarginMode::Static
        } else {
            MarginMode::Atm
        };
        self.system.set_mode(core, critical_mode);
        for sib in ProcId::new(0).cores().filter(|c| *c != core) {
            self.system.assign(sib, background.clone());
            self.system.set_mode(sib, bg_mode);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn measure<R: Recorder>(
        &mut self,
        strategy: Strategy,
        critical: &Workload,
        background: &Workload,
        critical_core: CoreId,
        background_setting: Option<ThrottleSetting>,
        baseline: MegaHz,
        rec: &mut R,
    ) -> ManagedOutcome {
        let report = self.system.run(self.measure_duration, rec);
        let critical_freq = report.core(critical_core).mean_freq;
        ManagedOutcome {
            strategy,
            critical: critical.name().to_owned(),
            background: background.name().to_owned(),
            critical_core,
            critical_freq,
            speedup: critical.speedup(critical_freq, baseline),
            background_setting,
            chip_power: report.procs[0].mean_power,
            ok: report.is_ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_chip::ChipConfig;
    use atm_telemetry::NullRecorder;
    use atm_workloads::by_name;

    fn manager() -> AtmManager {
        let sys = System::new(ChipConfig::default());
        AtmManager::deploy(sys, Governor::Default, &CharactConfig::quick())
    }

    #[test]
    fn fig14_ordering_holds_for_squeezenet_x264() {
        let mut mgr = manager();
        let critical = by_name("squeezenet").unwrap();
        let background = by_name("x264").unwrap();

        let s_static = mgr.evaluate_pair(
            critical,
            background,
            Strategy::StaticMargin,
            &mut NullRecorder,
        );
        let s_default = mgr.evaluate_pair(
            critical,
            background,
            Strategy::DefaultAtm,
            &mut NullRecorder,
        );
        let s_unmanaged = mgr.evaluate_pair(
            critical,
            background,
            Strategy::FineTunedUnmanaged,
            &mut NullRecorder,
        );
        let s_max = mgr.evaluate_pair(
            critical,
            background,
            Strategy::ManagedMax,
            &mut NullRecorder,
        );

        assert!((s_static.speedup - 1.0).abs() < 1e-9);
        assert!(
            s_default.speedup > 1.02,
            "default ATM {:.3}",
            s_default.speedup
        );
        assert!(
            s_unmanaged.speedup > s_default.speedup,
            "fine-tuned unmanaged {:.3} vs default {:.3}",
            s_unmanaged.speedup,
            s_default.speedup
        );
        assert!(
            s_max.speedup > s_unmanaged.speedup,
            "managed max {:.3} vs unmanaged {:.3}",
            s_max.speedup,
            s_unmanaged.speedup
        );
        for s in [&s_static, &s_default, &s_unmanaged, &s_max] {
            assert!(s.ok, "{} run failed", s.strategy);
        }
    }

    #[test]
    fn balanced_meets_ten_percent_qos() {
        let mut mgr = manager();
        let critical = by_name("squeezenet").unwrap();
        let background = by_name("lu_cb").unwrap();
        let qos = QosTarget::improvement_pct(10.0);
        let outcome = mgr.evaluate_pair(
            critical,
            background,
            Strategy::ManagedBalanced(qos),
            &mut NullRecorder,
        );
        assert!(
            qos.met_by(outcome.speedup),
            "balanced speedup {:.3} misses {qos}",
            outcome.speedup
        );
        assert!(outcome.ok);
    }

    #[test]
    fn managed_max_uses_fastest_core_and_lowest_pstate() {
        let mut mgr = manager();
        let critical = by_name("seq2seq").unwrap();
        let background = by_name("swaptions").unwrap();
        let outcome = mgr.evaluate_pair(
            critical,
            background,
            Strategy::ManagedMax,
            &mut NullRecorder,
        );
        assert_eq!(
            outcome.background_setting,
            Some(ThrottleSetting::Fixed(MegaHz::new(2100.0)))
        );
        let expected = Scheduler::new(mgr.system_mut()).fastest_core(ProcId::new(0), false);
        assert_eq!(outcome.critical_core, expected);
    }

    #[test]
    fn serve_posture_places_critical_on_fastest_and_fills_plan() {
        let mut mgr = manager();
        let critical = by_name("squeezenet").unwrap();
        let bgs = [
            by_name("x264").unwrap().clone(),
            by_name("lu_cb").unwrap().clone(),
        ];
        let posture = mgr
            .serve_posture(
                critical,
                &bgs,
                QosTarget::improvement_pct(10.0),
                &mut NullRecorder,
            )
            .expect("non-empty backgrounds");

        assert_eq!(posture.placement.background_cores.len(), 7);
        assert!(
            posture.placement.plan.is_some(),
            "throttle plan must be filled"
        );
        assert!(posture.budget.get() > 0.0);
        // Every socket-0 core has a settled frequency; the critical core's
        // meets the QoS-required clock region (ATM above static margin).
        assert_eq!(posture.core_freqs.len(), 8);
        let crit_freq = posture.freq_of(posture.placement.critical_core);
        assert!(crit_freq.get() > 4200.0, "critical at {crit_freq}");
        // The critical core carries the critical workload on the system.
        assert_eq!(
            mgr.system()
                .core(posture.placement.critical_core)
                .workload()
                .name(),
            "squeezenet"
        );
        // Background cores carry the backgrounds round-robin.
        for (i, &c) in posture.placement.background_cores.iter().enumerate() {
            assert_eq!(mgr.system().core(c).workload().name(), bgs[i % 2].name());
        }
    }

    #[test]
    fn rollback_core_persists_across_reposturing() {
        let mut mgr = manager();
        let critical = by_name("squeezenet").unwrap();
        let bgs = [by_name("x264").unwrap().clone()];
        let qos = QosTarget::improvement_pct(5.0);
        let first = mgr
            .serve_posture(critical, &bgs, qos, &mut NullRecorder)
            .expect("non-empty backgrounds");
        let victim = first.placement.critical_core;
        let before = mgr.system().core(victim).reduction();
        if before == 0 {
            // Nothing to roll back on this silicon; the override still
            // registers.
            let _ = mgr.rollback_core(victim, 2, &mut NullRecorder);
            assert_eq!(mgr.rollback_override(victim), 2);
            return;
        }
        let after = mgr.rollback_core(victim, 2, &mut NullRecorder);
        assert_eq!(after, before.saturating_sub(2));
        // Re-posturing re-applies the governor map — the rollback must
        // survive it.
        let _ = mgr
            .serve_posture(critical, &bgs, qos, &mut NullRecorder)
            .expect("non-empty backgrounds");
        assert_eq!(mgr.system().core(victim).reduction(), after);
    }

    #[test]
    fn default_atm_restores_deployed_map() {
        let mut mgr = manager();
        let before: Vec<usize> = CoreId::all()
            .map(|c| mgr.system().core(c).reduction())
            .collect();
        let _ = mgr.evaluate_pair(
            by_name("babi").unwrap(),
            by_name("raytrace").unwrap(),
            Strategy::DefaultAtm,
            &mut NullRecorder,
        );
        let after: Vec<usize> = CoreId::all()
            .map(|c| mgr.system().core(c).reduction())
            .collect();
        assert_eq!(before, after);
    }

    /// The cap seam steps the background plan and pins the critical core
    /// down the ladder, clamped at the slowest p-state: a cap may slow the
    /// critical core but never gate it.
    #[test]
    fn cap_levels_step_the_background_and_never_gate_the_critical_core() {
        let mut mgr = manager();
        let pstates = mgr.system().config().pstates.clone();
        let ladder = ThrottleSetting::ladder(&pstates);
        let critical = CoreId::new(0, 0);
        let base = ThrottlePlan {
            cores: (1..8).map(|c| CoreId::new(0, c)).collect(),
            setting: ladder[1],
        };
        for (bg_depth, crit_depth) in [(0, 0), (2, 3), (20, 8), (20, 9), (20, 40)] {
            let bg = mgr.apply_cap_levels(&base, critical, bg_depth, crit_depth, &mut NullRecorder);
            assert_eq!(bg, base.setting.stepped(&pstates, bg_depth));
            assert_eq!(
                mgr.system().core(CoreId::new(0, 3)).mode(),
                bg.margin_mode()
            );
            let crit = ladder[(crit_depth as usize).min(ladder.len() - 2)];
            assert_eq!(mgr.system().core(critical).mode(), crit.margin_mode());
            assert_ne!(crit, ThrottleSetting::Gated);
        }
    }
}
