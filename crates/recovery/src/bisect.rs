//! Delta-debugging a failing fault campaign down to its minimal trigger.
//!
//! A fleet campaign that trips some predicate — a chip hard-fails, an
//! SLO collapses, the books stop balancing — usually carries far more
//! injected faults than the one that actually matters. [`bisect`] runs
//! the classic ddmin loop over the campaign's [`FaultSpec`]s and returns
//! a *minimal* failing subset: every spec in it is necessary (removing
//! any one makes the predicate pass).
//!
//! Naively, every subset probe would replay the whole campaign from
//! epoch 0 — O(probes × epochs). The driver instead replays from
//! checkpoints: a single **baseline** pass (no faults injected, every
//! chip armed with a spec-less tick-counter hook) records a
//! [`FleetRunCheckpoint`] at every epoch boundary together with the
//! fleet-wide fault-clock position ([`FleetRun::max_hook_ticks`]). A
//! probe then thaws the latest checkpoint that provably precedes the
//! subset's first firing, re-arms the sub-plan fast-forwarded to the
//! checkpoint's tick position ([`FleetRun::rearm_faults`]), and steps
//! only the remaining window — O(probes × window).
//!
//! Two details keep probes faithful to the full campaign:
//!
//! - **Spec indices are load-bearing.** A [`FaultTarget::Seeded`] spec
//!   draws its core from `(seed, chip, spec-index)`, so *removing* a
//!   spec would silently re-target its neighbours. Probes therefore
//!   **mask** excluded specs — first firing pushed past any horizon —
//!   leaving every surviving spec's index, and hence its resolution,
//!   untouched.
//! - **Observation is free.** The baseline's spec-less hooks (and any
//!   not-yet-exhausted masked spec) keep chips on the exact simulation
//!   path, which is byte-identical to the certified fast path, so the
//!   baseline report equals the no-faults report and probe reports equal
//!   full fresh runs of the same sub-plan.

use atm_faults::{FaultPlan, FaultSpec, FleetFaultPlan};
use atm_fleet::{FleetConfig, FleetReport, FleetRun, FleetRunCheckpoint, FleetSim};
use atm_units::AtmError;
use std::fmt;

#[cfg(doc)]
use atm_faults::FaultTarget;

/// A first firing no run can reach: masked specs park here so they keep
/// their index (and their neighbours' seeded targets) without ever
/// firing.
const MASKED: u64 = u64::MAX;

/// Tuning for one [`bisect`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BisectConfig {
    /// Worker threads for every fleet replay.
    pub workers: usize,
    /// Keep every `n`-th epoch checkpoint during the baseline pass
    /// (1 = every boundary). Sparser marks trade replay time for memory
    /// on long campaigns.
    pub checkpoint_stride: u32,
}

impl Default for BisectConfig {
    fn default() -> Self {
        BisectConfig {
            workers: 1,
            checkpoint_stride: 1,
        }
    }
}

/// Why a bisection could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BisectError {
    /// The fleet config carries no fault campaign to bisect.
    NoCampaign,
    /// The fleet config failed validation.
    Invalid(AtmError),
    /// The *full* campaign does not trip the predicate — there is no
    /// failure to minimize.
    NotTriggered,
    /// The predicate trips with every fault masked, so no fault subset
    /// explains it — the failure lives in the config, not the campaign.
    TriggeredByNothing,
}

impl fmt::Display for BisectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BisectError::NoCampaign => write!(f, "the fleet config arms no fault campaign"),
            BisectError::Invalid(e) => write!(f, "invalid fleet config: {e}"),
            BisectError::NotTriggered => {
                write!(f, "the full campaign does not trip the predicate")
            }
            BisectError::TriggeredByNothing => {
                write!(f, "the predicate trips with every fault masked")
            }
        }
    }
}

impl std::error::Error for BisectError {}

impl From<AtmError> for BisectError {
    fn from(e: AtmError) -> Self {
        BisectError::Invalid(e)
    }
}

/// What a [`bisect`] run found, plus the work it took.
#[derive(Debug, Clone, PartialEq)]
pub struct BisectOutcome {
    /// The minimal failing specs, in campaign order.
    pub minimal: Vec<FaultSpec>,
    /// Their indices into the original plan's `specs`.
    pub minimal_indices: Vec<usize>,
    /// Subset probes replayed (cache-free ddmin probe count).
    pub probes: u32,
    /// Epochs actually stepped across all probes (baseline excluded).
    pub epochs_replayed: u64,
    /// Epochs a fresh-run strategy would have stepped for the same
    /// probes: `probes × campaign epochs`. The checkpoint saving is
    /// `epochs_full − epochs_replayed`.
    pub epochs_full: u64,
}

/// Minimizes `cfg`'s fault campaign against `predicate` (see the module
/// docs for the machinery). The predicate must hold for the full
/// campaign and fail for the empty one; both are verified before the
/// ddmin loop starts.
///
/// # Errors
///
/// See [`BisectError`].
///
/// # Panics
///
/// Panics if `opts.workers` is zero.
pub fn bisect<F>(
    cfg: &FleetConfig,
    predicate: F,
    opts: &BisectConfig,
) -> Result<BisectOutcome, BisectError>
where
    F: Fn(&FleetReport) -> bool,
{
    assert!(opts.workers > 0, "need at least one worker");
    let full = cfg.faults.clone().ok_or(BisectError::NoCampaign)?;
    if full.plan.specs.is_empty() {
        return Err(BisectError::NoCampaign);
    }
    let stride = opts.checkpoint_stride.max(1);

    // Baseline pass: no injections, but a spec-less hook on every chip
    // keeps the fault clock ticking. Record (tick position, checkpoint)
    // at each epoch boundary; the finished report doubles as the
    // empty-subset probe.
    let mut base_cfg = cfg.clone();
    base_cfg.faults = Some(FleetFaultPlan::new(FaultPlan::new("bisect-baseline"), 1));
    let mut run = FleetSim::new(base_cfg)?.start(opts.workers);
    let mut marks: Vec<(u64, FleetRunCheckpoint)> = vec![(run.max_hook_ticks(), run.checkpoint())];
    while !run.done() {
        run.step_epoch(opts.workers);
        if !run.done() && run.epoch().is_multiple_of(stride) {
            marks.push((run.max_hook_ticks(), run.checkpoint()));
        }
    }
    if predicate(&run.finish()) {
        return Err(BisectError::TriggeredByNothing);
    }

    let epochs = u64::from(cfg.epochs);
    let mut probes = 0u32;
    let mut epochs_replayed = 0u64;
    let mut probe = |keep: &[usize]| -> bool {
        probes += 1;
        let mut plan = full.plan.clone();
        for (i, spec) in plan.specs.iter_mut().enumerate() {
            if !keep.contains(&i) {
                spec.start = MASKED;
                spec.period = 0;
                spec.repeats = 1;
            }
        }
        let min_fire = keep
            .iter()
            .map(|&i| full.plan.specs[i].start)
            .min()
            .unwrap_or(MASKED);
        let (_, cp) = marks
            .iter()
            .rev()
            .find(|(ticks, _)| *ticks <= min_fire)
            .unwrap_or(&marks[0]);
        let mut replay: FleetRun = cp.thaw();
        replay.rearm_faults(&FleetFaultPlan::new(plan, full.one_in));
        epochs_replayed += epochs - u64::from(replay.epoch());
        while !replay.done() {
            replay.step_epoch(opts.workers);
        }
        predicate(&replay.finish())
    };

    let all: Vec<usize> = (0..full.plan.specs.len()).collect();
    if !probe(&all) {
        return Err(BisectError::NotTriggered);
    }
    let minimal_indices = ddmin(all, &mut probe);

    let minimal = minimal_indices
        .iter()
        .map(|&i| full.plan.specs[i])
        .collect();
    Ok(BisectOutcome {
        minimal,
        minimal_indices,
        probes,
        epochs_replayed,
        epochs_full: u64::from(probes) * epochs,
    })
}

/// The classic ddmin loop: split the failing set into `granularity`
/// chunks, try each chunk and each complement, recurse on the first that
/// still fails, refine the granularity when nothing does.
fn ddmin(mut current: Vec<usize>, probe: &mut impl FnMut(&[usize]) -> bool) -> Vec<usize> {
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunks = split(&current, granularity);
        let mut reduced = false;

        for chunk in &chunks {
            if probe(chunk) {
                current = chunk.clone();
                granularity = 2;
                reduced = true;
                break;
            }
        }
        if !reduced && granularity > 2 {
            for chunk in &chunks {
                let complement: Vec<usize> = current
                    .iter()
                    .copied()
                    .filter(|i| !chunk.contains(i))
                    .collect();
                if probe(&complement) {
                    current = complement;
                    granularity = (granularity - 1).max(2);
                    reduced = true;
                    break;
                }
            }
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    current
}

/// Splits `set` into `n` contiguous, non-empty, disjoint chunks covering
/// it (fewer when `set` is shorter than `n`).
fn split(set: &[usize], n: usize) -> Vec<Vec<usize>> {
    let n = n.min(set.len()).max(1);
    let base = set.len() / n;
    let extra = set.len() % n;
    let mut out = Vec::with_capacity(n);
    let mut at = 0;
    for k in 0..n {
        let len = base + usize::from(k < extra);
        out.push(set[at..at + len].to_vec());
        at += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_without_overlap() {
        let set: Vec<usize> = (0..7).collect();
        for n in 1..=9 {
            let chunks = split(&set, n);
            let flat: Vec<usize> = chunks.iter().flatten().copied().collect();
            assert_eq!(flat, set, "granularity {n}");
            assert!(chunks.iter().all(|c| !c.is_empty()));
        }
    }

    #[test]
    fn ddmin_finds_a_single_culprit() {
        let mut probe = |s: &[usize]| s.contains(&5);
        assert_eq!(ddmin((0..8).collect(), &mut probe), vec![5]);
    }

    #[test]
    fn ddmin_finds_a_conjunction() {
        // The failure needs BOTH 1 and 6.
        let mut probe = |s: &[usize]| s.contains(&1) && s.contains(&6);
        assert_eq!(ddmin((0..8).collect(), &mut probe), vec![1, 6]);
    }

    fn tiny_fleet() -> FleetConfig {
        FleetConfig::quick(42).with_chips(2).with_epochs(2)
    }

    #[test]
    fn a_fleet_without_faults_is_refused() {
        let never = |_: &FleetReport| false;
        let opts = BisectConfig::default();
        assert_eq!(
            bisect(&tiny_fleet(), never, &opts),
            Err(BisectError::NoCampaign)
        );
        let empty = tiny_fleet().with_faults(FleetFaultPlan::new(FaultPlan::new("empty"), 1));
        assert_eq!(bisect(&empty, never, &opts), Err(BisectError::NoCampaign));
    }

    #[test]
    fn a_predicate_that_always_or_never_trips_is_refused() {
        let cfg = tiny_fleet().with_faults(FleetFaultPlan::new(atm_faults::droop_storm(), 1));
        let opts = BisectConfig::default();
        assert_eq!(
            bisect(&cfg, |_| true, &opts),
            Err(BisectError::TriggeredByNothing)
        );
        assert_eq!(
            bisect(&cfg, |_| false, &opts),
            Err(BisectError::NotTriggered)
        );
    }
}
