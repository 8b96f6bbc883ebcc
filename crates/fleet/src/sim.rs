//! The sharded fleet simulation loop.
//!
//! [`FleetSim`] steps hundreds of whole managed chips — each with its own
//! silicon lot, [`MarginSupervisor`](atm_core::MarginSupervisor) ladder,
//! and serving queues — through a shared epoch-barrier timeline:
//!
//! 1. **Route** (serial): the placement policy reads every chip's
//!    barrier snapshot and maps each traffic lane onto a chip. Drained
//!    and dead chips get nothing; overloaded targets defer fresh requests
//!    by one epoch; a fully drained fleet sheds.
//! 2. **Step** (parallel): chips absorb their routed batches
//!    independently — one [`ChipServer::step_epoch`] each, distributed
//!    round-robin over `std::thread::scope` workers. No cross-chip state
//!    is touched, so the schedule cannot leak into the results.
//! 3. **Barrier** (serial): snapshots and epoch outcomes are collected
//!    *in chip order* and feed the next epoch's routing. Everything that
//!    reacts to a chip failure — retry ladders, periodic checkpoints,
//!    resurrection, probation — happens here, serially, so failover
//!    decisions are worker-count independent too.
//!
//! Because routing is a pure function of the snapshots, each chip is a
//! pure function of its lot seed and routed batches, and the merge at
//! every barrier is order-fixed, the [`FleetReport`] is a pure function
//! of `(FleetConfig, seed)` — byte-identical for any worker count.
//!
//! The loop itself is externally steppable: [`FleetSim::start`] returns a
//! [`FleetRun`] that advances one epoch per [`FleetRun::step_epoch`]
//! call, can be checkpointed and restored mid-run (byte-identically — the
//! resume identity behind failover resurrection and `atm-recovery`'s
//! fault-campaign bisection), and [`FleetRun::finish`]es into the same report
//! [`FleetSim::run`] produces.

use std::sync::Arc;

use atm_adapt::OnlineAdapter;
use atm_capping::{CapConfig, EnergyModel, EnergyReport};
use atm_chip::{ChipConfig, FaultHook, System};
use atm_core::{AtmManager, Governor};
use atm_faults::{CampaignHook, FleetFaultPlan};
use atm_serve::{
    ChipRequest, ChipServer, ChipSnapshot, EpochOutcome, LatencyHistogram, MachineCheckpoint,
};
use atm_units::AtmError;

use crate::config::{FailoverConfig, FleetConfig};
use crate::placement::route;
use crate::report::{ChipRow, FleetReport, LatencyBands, RoutingCounters};
use crate::traffic::{generate_fleet, mix, LaneRequest};

/// One chip of the running fleet: the steppable server plus the routing
/// bookkeeping the fleet report needs.
#[derive(Debug, Clone)]
struct ChipState {
    server: ChipServer,
    hook: Option<CampaignHook>,
    lot: u64,
    critical_routed: u64,
    background_routed: u64,
    /// Last epoch a critical request was routed here (`-1` = never).
    last_critical_epoch: i64,
    /// First epoch whose routing drained this chip (`-1` = never).
    drained_from_epoch: i64,
}

/// A request in flight between routing decisions: deferred for one epoch,
/// queued in a per-chip batch before the deterministic sort, or riding
/// the failover retry ladder. The `(stream, lane, seq)` triple makes
/// every batch order total and schedule-independent; `attempts` counts
/// how many times a dead chip has bounced it.
#[derive(Debug, Clone, Copy)]
struct Pending {
    stream: u32,
    lane: u32,
    critical: bool,
    attempts: u32,
    req: LaneRequest,
}

/// One parked retry: the bounced request plus the epoch its backoff
/// expires.
#[derive(Debug, Clone, Copy)]
struct Retry {
    pending: Pending,
    not_before: u32,
}

/// A sharded fleet run (see the module docs).
#[derive(Debug)]
pub struct FleetSim {
    cfg: FleetConfig,
}

impl FleetSim {
    /// Validates the configuration and prepares a run.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if the config fails
    /// [`FleetConfig::check`].
    pub fn new(cfg: FleetConfig) -> Result<Self, AtmError> {
        cfg.check()?;
        Ok(FleetSim { cfg })
    }

    /// Runs the fleet to completion on up to `workers` threads and
    /// returns the deterministic report.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn run(self, workers: usize) -> FleetReport {
        let mut run = self.start(workers);
        while !run.done() {
            run.step_epoch(workers);
        }
        run.finish()
    }

    /// Deploys the fleet (in parallel over up to `workers` threads) and
    /// returns the steppable run positioned before epoch 0. Stepping it
    /// to completion and finishing is byte-identical to [`FleetSim::run`].
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn start(self, workers: usize) -> FleetRun {
        assert!(workers > 0, "need at least one worker");
        let cfg = self.cfg;
        let chips = cfg.chips as usize;

        // Deploy the fleet: each chip is fine-tuned on its own silicon
        // lot, independent of every other chip, so deploys parallelize.
        let states = build_fleet(&cfg, workers);

        let horizon = u64::from(cfg.epochs) * cfg.epoch_ns;
        let traces = Arc::new(generate_fleet(
            &cfg.traffic,
            cfg.chips,
            cfg.seed,
            horizon,
            workers,
        ));
        let routing = RoutingCounters {
            generated: traces
                .iter()
                .flat_map(|lanes| lanes.iter().map(|l| l.len() as u64))
                .sum(),
            ..RoutingCounters::default()
        };

        let cursors: Vec<Vec<usize>> = traces.iter().map(|l| vec![0; l.len()]).collect();
        let snapshots: Vec<ChipSnapshot> = states.iter().map(|s| s.server.snapshot(0)).collect();
        FleetRun {
            states,
            traces,
            cursors,
            snapshots,
            deferred: Vec::new(),
            retries: Vec::new(),
            prev_critical: Vec::new(),
            routing,
            epoch: 0,
            machine_cps: vec![None; chips],
            dead_epoch: vec![None; chips],
            probation_until: vec![-1; chips],
            cfg,
        }
    }
}

/// A fleet run in flight: everything between two epoch barriers, as one
/// deep-clonable value.
///
/// The struct exists so the loop can be *paused*: `checkpoint()` takes a
/// deep copy (chips, queues, hooks, retry ladders, counters — all of it;
/// only the immutable traffic traces are shared) and `restore()` rewinds
/// to one, with the guarantee that
/// `step… ≡ step…; restore(checkpoint); step…` byte-for-byte. Its `Debug`
/// rendering is exhaustive and deterministic on purpose — it is the
/// canonical byte-identity witness the resume-identity tests compare.
#[derive(Debug, Clone)]
pub struct FleetRun {
    cfg: FleetConfig,
    states: Vec<ChipState>,
    /// Every lane's arrivals for the whole horizon, fixed at `start`:
    /// shared, so checkpoints and restores never copy them.
    traces: Arc<Vec<Vec<Vec<LaneRequest>>>>,
    cursors: Vec<Vec<usize>>,
    snapshots: Vec<ChipSnapshot>,
    deferred: Vec<Pending>,
    retries: Vec<Retry>,
    prev_critical: Vec<Option<u32>>,
    routing: RoutingCounters,
    epoch: u32,
    /// Latest periodic machine checkpoint per chip (failover only, and
    /// only for chips carrying a fault hook — the only chips that can
    /// hard-fail).
    machine_cps: Vec<Option<MachineCheckpoint>>,
    /// The epoch each dead chip's failure was detected (`None` = alive).
    dead_epoch: Vec<Option<u32>>,
    /// First epoch each resurrected chip may take critical traffic again
    /// (`-1` = not on probation).
    probation_until: Vec<i64>,
}

/// An opaque deep copy of a [`FleetRun`] at an epoch boundary.
#[derive(Debug, Clone)]
pub struct FleetRunCheckpoint {
    state: FleetRun,
}

impl FleetRunCheckpoint {
    /// Materializes a fresh run from the checkpoint — equivalent to
    /// [`FleetRun::restore`] without needing a run to restore into.
    #[must_use]
    pub fn thaw(&self) -> FleetRun {
        self.state.clone()
    }
}

impl FleetRun {
    /// The next epoch to be stepped (0-based).
    #[must_use]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether every configured epoch has been stepped.
    #[must_use]
    pub fn done(&self) -> bool {
        self.epoch >= self.cfg.epochs
    }

    /// The barrier snapshots routing will read next.
    #[must_use]
    pub fn snapshots(&self) -> &[ChipSnapshot] {
        &self.snapshots
    }

    /// The run's configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The largest cumulative fault-hook tick counter across the fleet
    /// (zero when no chip carries a hook). The bisection driver uses this
    /// to pick a checkpoint boundary that provably precedes a fault
    /// subset's first firing.
    #[must_use]
    pub fn max_hook_ticks(&self) -> u64 {
        self.states
            .iter()
            .filter_map(|s| s.hook.as_ref().map(CampaignHook::ticks_seen))
            .max()
            .unwrap_or(0)
    }

    /// Takes a deep copy of the whole run.
    #[must_use]
    pub fn checkpoint(&self) -> FleetRunCheckpoint {
        FleetRunCheckpoint {
            state: self.clone(),
        }
    }

    /// Rewinds the run to `cp`, exactly.
    pub fn restore(&mut self, cp: &FleetRunCheckpoint) {
        *self = cp.state.clone();
    }

    /// Replaces every chip's fault hook with `plan` resolved afresh, each
    /// hook fast-forwarded to the tick position the chip's current hook
    /// has reached — the bisection replay shortcut. Chips the plan does
    /// not afflict keep their current hook (typically the empty
    /// tick-counter hook of a bisection baseline), so the harvest path
    /// stays identical across subsets.
    ///
    /// # Panics
    ///
    /// Panics if a chip carries no hook (the run must have been started
    /// with a fault plan armed, even an empty one), or if a firing of the
    /// new plan lands before the chip's current tick position (restore an
    /// earlier checkpoint instead — see [`CampaignHook::advance_to_tick`]).
    pub fn rearm_faults(&mut self, plan: &FleetFaultPlan) {
        for (chip, state) in self.states.iter_mut().enumerate() {
            let ticks = state
                .hook
                .as_ref()
                .expect("rearm_faults needs a hook on every chip")
                .ticks_seen();
            if let Some(mut hook) = plan.hook_for_chip(self.cfg.seed, chip as u32) {
                hook.advance_to_tick(ticks);
                state.hook = Some(hook);
            }
        }
    }

    /// Steps one fleet epoch on up to `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or the run is already [`done`](Self::done).
    pub fn step_epoch(&mut self, workers: usize) {
        assert!(workers > 0, "need at least one worker");
        assert!(!self.done(), "the run has already finished");
        let epoch = self.epoch;
        let chips = self.cfg.chips as usize;
        let epoch_end = (u64::from(epoch) + 1) * self.cfg.epoch_ns;

        // Failover, part 1 (serial): resurrect chips that have served
        // their outage, cold, from their last machine checkpoint.
        if let Some(failover) = self.cfg.failover {
            self.resurrect_due(epoch, failover);
        }
        let probation: Vec<bool> = self
            .probation_until
            .iter()
            .map(|&until| until > i64::from(epoch))
            .collect();

        let table = route(
            &self.snapshots,
            &self.cfg.placement,
            self.cfg.chips,
            &probation,
        );
        // Split the global cap over the same barrier snapshots the
        // router reads: backlog-weighted, exact, worker-independent.
        // Dead chips draw nothing, so their share reflows to the living.
        if let Some(budget) = &self.cfg.budget {
            let loads: Vec<u64> = self
                .snapshots
                .iter()
                .map(|s| if s.alive { s.backlog_ns } else { 0 })
                .collect();
            let shares = budget.split(epoch, &loads);
            for (state, share) in self.states.iter_mut().zip(&shares) {
                state.server.set_epoch_cap_mw(Some(*share));
            }
        }
        for (chip, drained) in table.drained.iter().enumerate() {
            if *drained && self.states[chip].drained_from_epoch < 0 {
                self.states[chip].drained_from_epoch = i64::from(epoch);
            }
        }
        if epoch > 0 {
            self.routing.critical_reroutes += table
                .critical
                .iter()
                .zip(&self.prev_critical)
                .filter(|(now, before)| now != before)
                .count() as u64;
        }
        self.prev_critical.clone_from(&table.critical);

        let mut batches: Vec<Vec<Pending>> = vec![Vec::new(); chips];
        // Failover, part 2 (serial): re-route retries whose backoff has
        // expired. Critical retries pick their own target — the fastest
        // live chip that is neither on probation nor quarantine-heavy —
        // because the one request we cannot lose twice must not land on
        // silicon that is already struggling.
        if !self.retries.is_empty() {
            let due: Vec<Retry> = {
                let (due, later): (Vec<Retry>, Vec<Retry>) =
                    self.retries.drain(..).partition(|r| r.not_before <= epoch);
                self.retries = later;
                due
            };
            let failover = self.cfg.failover.unwrap_or_default();
            for retry in due {
                let p = retry.pending;
                let target = if p.critical {
                    self.best_retry_target(&probation, failover.quarantine_avoid)
                } else {
                    table.background[p.lane as usize]
                };
                match target {
                    Some(t) => {
                        self.routing.retried += 1;
                        batches[t as usize].push(p);
                    }
                    None => self.routing.retry_shed += 1,
                }
            }
        }
        // Re-route last epoch's deferrals: a request defers at most once,
        // so this time it lands or sheds.
        for p in std::mem::take(&mut self.deferred) {
            let target = if p.critical {
                table.critical[p.lane as usize]
            } else {
                table.background[p.lane as usize]
            };
            match target {
                Some(t) => batches[t as usize].push(p),
                None => self.routing.shed += 1,
            }
        }
        // Fresh arrivals of this epoch, lane by lane.
        for (stream, spec) in self.cfg.traffic.iter().enumerate() {
            for lane in 0..chips {
                let trace = &self.traces[stream][lane];
                let cursor = &mut self.cursors[stream][lane];
                let target = if spec.critical {
                    table.critical[lane]
                } else {
                    table.background[lane]
                };
                while *cursor < trace.len() && trace[*cursor].time < epoch_end {
                    let p = Pending {
                        stream: stream as u32,
                        lane: lane as u32,
                        critical: spec.critical,
                        attempts: 0,
                        req: trace[*cursor],
                    };
                    *cursor += 1;
                    match target {
                        Some(t)
                            if self.snapshots[t as usize].backlog_ns
                                > self.cfg.placement.defer_backlog_ns =>
                        {
                            self.routing.deferred += 1;
                            self.deferred.push(p);
                        }
                        Some(t) => batches[t as usize].push(p),
                        None => self.routing.shed += 1,
                    }
                }
            }
        }

        // Freeze each batch into a schedule-independent total order.
        for batch in &mut batches {
            batch.sort_by_key(|p| (p.req.time, p.stream, p.lane, p.req.seq));
        }
        let requests: Vec<Vec<ChipRequest>> = batches
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|p| ChipRequest {
                        at: p.req.time,
                        critical: p.critical,
                        draw: p.req.draw,
                    })
                    .collect()
            })
            .collect();

        let outcomes = step_epoch_sharded(&mut self.states, requests, workers);

        // The barrier: close the books in chip order, whatever schedule
        // the workers ran. Absorbed batches are routed; bounced batches
        // climb the retry ladder (or are shed when no failover is armed).
        for (chip, (batch, outcome)) in batches.into_iter().zip(outcomes).enumerate() {
            if outcome.rejected.is_empty() {
                let state = &mut self.states[chip];
                for p in &batch {
                    self.routing.routed += 1;
                    if p.critical {
                        state.critical_routed += 1;
                        state.last_critical_epoch = i64::from(epoch);
                    } else {
                        state.background_routed += 1;
                    }
                }
            } else {
                debug_assert_eq!(
                    outcome.rejected.len(),
                    batch.len(),
                    "a dead chip bounces all or nothing"
                );
                for p in batch {
                    self.requeue_bounced(p, epoch);
                }
            }
            if self.states[chip].server.is_dead() && self.dead_epoch[chip].is_none() {
                self.dead_epoch[chip] = Some(epoch);
                self.routing.hard_failed_chips += 1;
            }
        }

        // Barrier snapshots, in chip order.
        self.snapshots = self
            .states
            .iter()
            .map(|s| s.server.snapshot(epoch_end))
            .collect();

        // Failover, part 3 (serial): periodic machine checkpoints, the
        // capsule resurrection restores from. A chip hard-fails only
        // through its fault hook, so a chip without one can never die
        // and its capsule would never be read: skip it. Hooks are fixed
        // at `start`, and `rearm_faults` only swaps a hook for another
        // (it demands one on every chip), so bisection replays still
        // checkpoint every chip.
        if let Some(failover) = self.cfg.failover {
            if failover.checkpoint_every > 0
                && (epoch + 1).is_multiple_of(failover.checkpoint_every)
            {
                for (chip, state) in self.states.iter().enumerate() {
                    if state.hook.is_some() && !state.server.is_dead() {
                        self.machine_cps[chip] = Some(state.server.machine_checkpoint());
                    }
                }
            }
        }

        self.epoch += 1;
    }

    /// Closes the run's books and merges the per-chip accounts into the
    /// deterministic fleet report. Finishing early (before [`done`](Self::done))
    /// is allowed — in-flight deferred and retried requests simply land
    /// in their `*_unserved` buckets.
    #[must_use]
    pub fn finish(self) -> FleetReport {
        let mut routing = self.routing;
        // Scope the ledger to arrivals the stepped epochs actually
        // consumed, so the conservation law is checkable at any barrier.
        // Every trace entry lands strictly inside the horizon, so a
        // completed run's count equals the planned total from `start`.
        routing.generated = self
            .cursors
            .iter()
            .flat_map(|lanes| lanes.iter().map(|&c| c as u64))
            .sum();
        routing.deferred_unserved = self.deferred.len() as u64;
        routing.retry_unserved = self.retries.len() as u64;
        routing.drained_chips = self
            .states
            .iter()
            .filter(|s| s.drained_from_epoch >= 0)
            .count() as u32;
        finish(&self.cfg, self.states, routing)
    }

    /// The fastest live chip eligible for a critical retry: not draining,
    /// not on probation, and with fewer than `quarantine_avoid`
    /// quarantined cores. Ties go to the lower chip id.
    fn best_retry_target(&self, probation: &[bool], quarantine_avoid: u32) -> Option<u32> {
        (0..self.snapshots.len() as u32)
            .filter(|&c| {
                let s = &self.snapshots[c as usize];
                s.alive
                    && s.quarantined < self.cfg.placement.drain_quarantined
                    && s.quarantined < quarantine_avoid
                    && !probation[c as usize]
            })
            .min_by_key(|&c| {
                (
                    std::cmp::Reverse(self.snapshots[c as usize].fastest_healthy_mhz),
                    c,
                )
            })
    }

    /// Puts one bounced request onto the retry ladder: attempt `a` waits
    /// `backoff_base_epochs << (a − 1)` epochs, saturating; past the
    /// budget (or with no failover armed) the request is permanently
    /// shed.
    fn requeue_bounced(&mut self, mut p: Pending, epoch: u32) {
        let Some(failover) = self.cfg.failover else {
            self.routing.retry_shed += 1;
            return;
        };
        p.attempts += 1;
        if p.attempts > failover.retry_budget {
            self.routing.retry_shed += 1;
            return;
        }
        let backoff = failover
            .backoff_base_epochs
            .checked_shl(p.attempts - 1)
            .unwrap_or(u32::MAX);
        self.retries.push(Retry {
            pending: p,
            not_before: epoch.saturating_add(backoff),
        });
    }

    /// Resurrects every chip whose outage has lasted `resurrect_after`
    /// epochs and that has a machine checkpoint to come back from. The
    /// account (completions, sheds, histograms, meters) survives; the
    /// queues come back cold; the chip starts a probation window barred
    /// from critical traffic.
    fn resurrect_due(&mut self, epoch: u32, failover: FailoverConfig) {
        for chip in 0..self.states.len() {
            let Some(died) = self.dead_epoch[chip] else {
                continue;
            };
            if epoch.saturating_sub(died) < failover.resurrect_after {
                continue;
            }
            let Some(cp) = &self.machine_cps[chip] else {
                continue; // nothing to come back from: stays dead
            };
            self.states[chip].server.resurrect_from(cp);
            self.dead_epoch[chip] = None;
            self.probation_until[chip] =
                i64::from(epoch).saturating_add(i64::from(failover.probation_epochs));
            self.routing.resurrected_chips += 1;
            // The chip re-enters routing at this barrier: refresh its
            // snapshot at the same instant the others were taken.
            self.snapshots[chip] = self.states[chip]
                .server
                .snapshot(u64::from(epoch) * self.cfg.epoch_ns);
        }
    }
}

/// Deploys every chip of the fleet, round-robin over `workers` threads.
/// Chip `c`'s silicon lot is `mix`-derived from the fleet seed, so fleets
/// with different seeds draw different silicon.
fn build_fleet(cfg: &FleetConfig, workers: usize) -> Vec<ChipState> {
    let mut slots: Vec<Option<ChipState>> = (0..cfg.chips).map(|_| None).collect();
    let workers = workers.min(slots.len()).max(1);
    let mut chunks: Vec<Vec<(u32, &mut Option<ChipState>)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (chip, slot) in slots.iter_mut().enumerate() {
        chunks[chip % workers].push((chip as u32, slot));
    }
    std::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(|| {
                for (chip, slot) in chunk {
                    *slot = Some(build_chip(cfg, chip));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every chip slot filled"))
        .collect()
}

/// Deploys one chip: mint the lot's silicon, fine-tune, posture, and arm
/// the fault hook when the fleet plan afflicts this chip.
fn build_chip(cfg: &FleetConfig, chip: u32) -> ChipState {
    let lot = mix(cfg.seed ^ mix(0xC417_5000 ^ u64::from(chip)));
    let mut sys = System::new(ChipConfig::power7_plus(lot));
    sys.set_stride(cfg.stride);
    let mgr = AtmManager::deploy(sys, Governor::Default, &cfg.charact);
    let mut chip_cfg = cfg.chip.clone();
    // Every fleet chip meters energy over the fleet's epoch span, and a
    // global budget arms a fleet-driven regulator on chips without one.
    if chip_cfg.energy.is_none() {
        chip_cfg.energy = Some(EnergyModel::standard(cfg.epoch_ns));
    }
    if cfg.budget.is_some() && chip_cfg.capping.is_none() {
        chip_cfg.capping = Some(CapConfig::fleet_driven());
    }
    let mut server = ChipServer::new(mgr, chip_cfg).expect("config validated in FleetSim::new");
    if let Some(drift) = cfg.drift {
        // Rebase the model per chip: every chip ages from its own seed,
        // still a pure function of the fleet seed.
        server.set_drift(drift.with_seed(mix(drift.seed() ^ mix(0xAD4A_7000 ^ u64::from(chip)))));
    }
    if let Some(adapt) = cfg.adapt {
        server.set_adapter(Box::new(OnlineAdapter::new(adapt)));
    }
    let hook = cfg
        .faults
        .as_ref()
        .and_then(|f| f.hook_for_chip(cfg.seed, chip));
    ChipState {
        server,
        hook,
        lot,
        critical_routed: 0,
        background_routed: 0,
        last_critical_epoch: -1,
        drained_from_epoch: -1,
    }
}

/// Steps every chip through one epoch, round-robin over `workers`
/// threads, and collects each chip's [`EpochOutcome`] *in chip order*.
/// Chips touch only their own state, so the worker schedule cannot affect
/// any result.
fn step_epoch_sharded(
    states: &mut [ChipState],
    batches: Vec<Vec<ChipRequest>>,
    workers: usize,
) -> Vec<EpochOutcome> {
    let workers = workers.min(states.len()).max(1);
    let mut outcomes: Vec<EpochOutcome> = vec![EpochOutcome::default(); states.len()];
    let mut chunks: Vec<Vec<(&mut ChipState, Vec<ChipRequest>, &mut EpochOutcome)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (chip, ((state, batch), slot)) in states
        .iter_mut()
        .zip(batches)
        .zip(outcomes.iter_mut())
        .enumerate()
    {
        chunks[chip % workers].push((state, batch, slot));
    }
    std::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(|| {
                for (state, batch, slot) in chunk {
                    let hook = state.hook.as_mut().map(|h| h as &mut dyn FaultHook);
                    *slot = state.server.step_epoch(&batch, hook);
                }
            });
        }
    });
    outcomes
}

/// Merges the per-chip accounts into the fleet report, in chip order.
fn finish(cfg: &FleetConfig, states: Vec<ChipState>, routing: RoutingCounters) -> FleetReport {
    let mut crit = LatencyHistogram::new();
    let mut bg = LatencyHistogram::new();
    let mut rows = Vec::with_capacity(states.len());
    let mut energy = EnergyReport::default();
    let mut caps = Vec::new();
    for (chip, state) in states.iter().enumerate() {
        let (c, b) = state.server.histograms();
        crit.merge(c);
        bg.merge(b);
        let summary = state.server.summary();
        if let Some(e) = &summary.energy {
            energy.merge(e);
        }
        if let Some(cap) = &summary.cap {
            caps.push(cap.clone());
        }
        rows.push(ChipRow {
            energy_pj: summary.energy.map_or(0, |e| e.total_pj),
            chip: chip as u32,
            lot: state.lot,
            completed: summary.completed,
            shed: summary.shed,
            critical_routed: state.critical_routed,
            background_routed: state.background_routed,
            critical_slo_violations: summary.critical_slo_violations,
            p99_ns: summary.p99_ns,
            transitions: summary.transitions,
            quarantined: summary.quarantined,
            safe_mode: summary.safe_mode,
            fastest_healthy_mhz: summary.fastest_healthy_mhz,
            drained_from_epoch: state.drained_from_epoch,
            last_critical_epoch: state.last_critical_epoch,
        });
    }
    let adapt = if cfg.adapt.is_some() {
        states
            .iter()
            .map(|s| {
                s.server
                    .adapt_report()
                    .expect("every chip runs an adapter when cfg.adapt is set")
            })
            .collect()
    } else {
        Vec::new()
    };
    FleetReport {
        seed: cfg.seed,
        chips: cfg.chips,
        epochs: cfg.epochs,
        epoch_ns: cfg.epoch_ns,
        routing,
        critical: LatencyBands::from_histogram(&crit),
        background: LatencyBands::from_histogram(&bg),
        rows,
        adapt,
        energy,
        caps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_faults::{chip_killer, FaultPlan};

    fn tiny(seed: u64) -> FleetConfig {
        FleetConfig::quick(seed).with_chips(3).with_epochs(2)
    }

    #[test]
    fn a_tiny_fleet_runs_and_balances_the_books() {
        let report = FleetSim::new(tiny(42)).unwrap().run(2);
        assert_eq!(report.chips, 3);
        assert!(report.routing.generated > 0);
        assert!(report.completed() > 0);
        assert!(report.conservation_holds(), "{:?}", report.routing);
        assert!(report.drained_respected());
    }

    #[test]
    fn worker_count_cannot_leak_into_the_report() {
        let a = FleetSim::new(tiny(7)).unwrap().run(1);
        let b = FleetSim::new(tiny(7)).unwrap().run(3);
        assert_eq!(a, b);
    }

    #[test]
    fn the_seed_reaches_the_silicon_and_the_traffic() {
        let a = FleetSim::new(tiny(7)).unwrap().run(2);
        let b = FleetSim::new(tiny(8)).unwrap().run(2);
        assert_ne!(a.rows[0].lot, b.rows[0].lot);
        assert_ne!(a.routing.generated, b.routing.generated);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        assert!(FleetSim::new(tiny(1).with_chips(0)).is_err());
    }

    #[test]
    fn stepping_matches_the_one_shot_run() {
        let gold = FleetSim::new(tiny(42)).unwrap().run(2);
        let mut run = FleetSim::new(tiny(42)).unwrap().start(2);
        while !run.done() {
            run.step_epoch(2);
        }
        assert_eq!(run.finish(), gold);
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let mut run = FleetSim::new(tiny(42)).unwrap().start(1);
        run.step_epoch(1);
        let cp = run.checkpoint();
        run.step_epoch(1);
        let gold = format!("{run:#?}");
        run.restore(&cp);
        run.step_epoch(1);
        assert_eq!(format!("{run:#?}"), gold);
    }

    #[test]
    fn a_hard_failed_chip_fails_over_and_the_law_holds() {
        // A 4-epoch fleet where the plan kills one chip's harvest early;
        // the failover ladder retries the bounced batch elsewhere.
        let cfg = FleetConfig::quick(42)
            .with_chips(3)
            .with_epochs(4)
            .with_faults(FleetFaultPlan::new(chip_killer(5), 3))
            .with_failover(FailoverConfig::default());
        let report = FleetSim::new(cfg).unwrap().run(2);
        assert!(
            report.routing.hard_failed_chips >= 1,
            "{:?}",
            report.routing
        );
        assert!(report.routing.retried > 0, "{:?}", report.routing);
        assert!(report.conservation_holds(), "{:?}", report.routing);
    }

    #[test]
    fn without_failover_bounced_requests_are_shed() {
        let cfg = FleetConfig::quick(42)
            .with_chips(3)
            .with_epochs(4)
            .with_faults(FleetFaultPlan::new(chip_killer(5), 3));
        let report = FleetSim::new(cfg).unwrap().run(2);
        assert!(
            report.routing.hard_failed_chips >= 1,
            "{:?}",
            report.routing
        );
        assert_eq!(report.routing.retried, 0);
        assert!(report.routing.retry_shed > 0, "{:?}", report.routing);
        assert!(report.conservation_holds(), "{:?}", report.routing);
    }

    #[test]
    fn machine_checkpoints_cover_exactly_the_hooked_chips_alive_at_a_barrier() {
        // Harvests run 20 hook ticks per epoch: a kill at tick 5 lands
        // before the first barrier, a kill at tick 25 just after it.
        let (mut hooked_with_cp, mut hooked_without_cp, mut unhooked) = (0, 0, 0);
        for kill_tick in [5, 25] {
            let cfg = FleetConfig::quick(42)
                .with_epochs(3)
                .with_faults(FleetFaultPlan::new(chip_killer(kill_tick), 2))
                .with_failover(FailoverConfig::default());
            let mut run = FleetSim::new(cfg).unwrap().start(2);
            let mut alive_at_barrier = vec![false; run.states.len()];
            while !run.done() {
                run.step_epoch(2);
                for (chip, state) in run.states.iter().enumerate() {
                    if state.hook.is_some() && !state.server.is_dead() {
                        alive_at_barrier[chip] = true;
                    }
                }
            }
            for (chip, state) in run.states.iter().enumerate() {
                assert_eq!(
                    run.machine_cps[chip].is_some(),
                    alive_at_barrier[chip],
                    "chip {chip}, kill at tick {kill_tick}"
                );
                match (state.hook.is_some(), alive_at_barrier[chip]) {
                    (true, true) => hooked_with_cp += 1,
                    (true, false) => hooked_without_cp += 1,
                    (false, _) => unhooked += 1,
                }
            }
        }
        assert!(
            hooked_with_cp > 0 && hooked_without_cp > 0 && unhooked > 0,
            "{hooked_with_cp} {hooked_without_cp} {unhooked}"
        );
    }

    #[test]
    fn a_chip_killed_between_barriers_resurrects_from_the_older_capsule() {
        let failover = FailoverConfig {
            checkpoint_every: 3,
            ..FailoverConfig::default()
        };
        // Barriers close epochs 2, 5, 8; tick 85 falls in epoch 4's
        // harvest (20 hook ticks per epoch).
        let cfg = FleetConfig::quick(42)
            .with_chips(3)
            .with_epochs(8)
            .with_faults(FleetFaultPlan::new(chip_killer(85), 3))
            .with_failover(failover);
        let mut run = FleetSim::new(cfg).unwrap().start(1);
        let victim = run
            .states
            .iter()
            .position(|s| s.hook.is_some())
            .expect("the plan afflicts a chip");
        while run.epoch() < 3 {
            run.step_epoch(1);
        }
        let capsule = format!("{:#?}", run.machine_cps[victim]);
        assert!(run.machine_cps[victim].is_some(), "barrier 2 checkpointed");
        while run.epoch() < 5 {
            run.step_epoch(1);
        }
        assert_eq!(run.dead_epoch[victim], Some(4));
        let at_death = format!(
            "{:#?}",
            Some(run.states[victim].server.machine_checkpoint())
        );
        assert_ne!(at_death, capsule, "the machine moved on after barrier 2");
        run.step_epoch(1);
        assert_eq!(
            format!("{:#?}", run.machine_cps[victim]),
            capsule,
            "a dead chip is not checkpointed at barrier 5"
        );

        // Resurrection is due at epoch 6 (`resurrect_after` = 2).
        run.resurrect_due(6, failover);
        assert!(!run.states[victim].server.is_dead());
        assert_eq!(
            format!(
                "{:#?}",
                Some(run.states[victim].server.machine_checkpoint())
            ),
            capsule,
            "the chip came back as it was at barrier 2"
        );
        while !run.done() {
            run.step_epoch(1);
        }
        let report = run.finish();
        assert_eq!(
            report.routing.resurrected_chips, report.routing.hard_failed_chips,
            "{:?}",
            report.routing
        );
        assert!(report.conservation_holds(), "{:?}", report.routing);
    }

    #[test]
    fn an_empty_fault_plan_counts_ticks_without_changing_the_books() {
        // The bisection baseline: every chip armed with a spec-less hook.
        let plain = FleetSim::new(tiny(7)).unwrap().run(2);
        let counted =
            FleetSim::new(tiny(7).with_faults(FleetFaultPlan::new(FaultPlan::new("baseline"), 1)))
                .unwrap();
        let mut run = counted.start(2);
        while !run.done() {
            run.step_epoch(2);
        }
        assert!(run.max_hook_ticks() > 0, "the hooks saw the harvests");
        assert_eq!(run.finish(), plain, "tick counting is observation-free");
    }
}
