//! Background-workload throttling to a chip power budget (Sec. VII-C).

use std::fmt;

use atm_chip::{MarginMode, PStateTable, System};
use atm_telemetry::{Recorder, TelemetryEvent, ThrottleAction, ThrottleRung};
use atm_units::{CoreId, MegaHz, Watts};
use serde::{Deserialize, Serialize};

/// How a background core is run (in decreasing performance order): full
/// fine-tuned ATM, a fixed DVFS frequency, or power-gated. On POWER7+ the
/// rail is shared, so per-core DVFS changes frequency only — exactly the
/// paper's three knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ThrottleSetting {
    /// Aggressive ATM at the deployed CPM configuration.
    AtmMax,
    /// Fixed frequency from the DVFS table.
    Fixed(MegaHz),
    /// Core power-gated.
    Gated,
}

impl ThrottleSetting {
    /// The margin mode implementing this setting.
    #[must_use]
    pub fn margin_mode(&self) -> MarginMode {
        match self {
            ThrottleSetting::AtmMax => MarginMode::Atm,
            ThrottleSetting::Fixed(f) => MarginMode::Fixed(*f),
            ThrottleSetting::Gated => MarginMode::Gated,
        }
    }

    /// The telemetry mirror of this setting: the ladder rung plus the
    /// fixed frequency (zero for the non-DVFS rungs).
    #[must_use]
    pub fn rung(&self) -> (ThrottleRung, MegaHz) {
        match self {
            ThrottleSetting::AtmMax => (ThrottleRung::AtmMax, MegaHz::ZERO),
            ThrottleSetting::Fixed(f) => (ThrottleRung::Fixed, *f),
            ThrottleSetting::Gated => (ThrottleRung::Gated, MegaHz::ZERO),
        }
    }

    /// The candidate ladder, from fastest to slowest, over the given
    /// p-state table.
    #[must_use]
    pub fn ladder(pstates: &PStateTable) -> Vec<ThrottleSetting> {
        let mut ladder = vec![ThrottleSetting::AtmMax];
        ladder.extend(
            pstates
                .states()
                .iter()
                .rev()
                .map(|s| ThrottleSetting::Fixed(s.frequency)),
        );
        ladder.push(ThrottleSetting::Gated);
        ladder
    }

    /// Rung `idx` of [`ladder`](Self::ladder) over `pstates`, clamped at
    /// [`ThrottleSetting::Gated`] — without building the ladder.
    fn rung_at(pstates: &PStateTable, idx: usize) -> ThrottleSetting {
        let states = pstates.states();
        match idx {
            0 => ThrottleSetting::AtmMax,
            i if i <= states.len() => ThrottleSetting::Fixed(states[states.len() - i].frequency),
            _ => ThrottleSetting::Gated,
        }
    }

    /// This setting's index on [`ladder`](Self::ladder) over `pstates`
    /// (its first match), or `None` off the ladder — without building it.
    fn ladder_index(&self, pstates: &PStateTable) -> Option<usize> {
        let states = pstates.states();
        match self {
            ThrottleSetting::AtmMax => Some(0),
            ThrottleSetting::Fixed(f) => states
                .iter()
                .rev()
                .position(|s| s.frequency == *f)
                .map(|p| p + 1),
            ThrottleSetting::Gated => Some(states.len() + 1),
        }
    }

    /// The next rung down the ladder (one notch more throttled), or `None`
    /// if this setting is already [`ThrottleSetting::Gated`] — the
    /// degradation policy's escalation step.
    #[must_use]
    pub fn step_down(&self, pstates: &PStateTable) -> Option<ThrottleSetting> {
        let pos = self.ladder_index(pstates)?;
        (pos <= pstates.states().len()).then(|| ThrottleSetting::rung_at(pstates, pos + 1))
    }

    /// The setting `depth` rungs below this one, clamped at
    /// [`ThrottleSetting::Gated`] — the power regulator's bulk step.
    /// Settings not on the ladder (a fixed frequency outside the p-state
    /// table) step from the nearest slower rung.
    #[must_use]
    pub fn stepped(&self, pstates: &PStateTable, depth: u32) -> ThrottleSetting {
        let pos = self
            .ladder_index(pstates)
            .unwrap_or(pstates.states().len() + 1);
        ThrottleSetting::rung_at(pstates, pos.saturating_add(depth as usize))
    }

    /// How many rungs of headroom remain below this setting before the
    /// ladder bottoms out at [`ThrottleSetting::Gated`].
    #[must_use]
    pub fn rungs_below(&self, pstates: &PStateTable) -> u32 {
        let gated = pstates.states().len() + 1;
        (gated - self.ladder_index(pstates).unwrap_or(gated)) as u32
    }
}

impl fmt::Display for ThrottleSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThrottleSetting::AtmMax => f.write_str("ATM-max"),
            ThrottleSetting::Fixed(freq) => write!(f, "DVFS {freq}"),
            ThrottleSetting::Gated => f.write_str("gated"),
        }
    }
}

/// A uniform throttle plan for a set of background cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThrottlePlan {
    /// The cores being throttled.
    pub cores: Vec<CoreId>,
    /// The setting applied to each of them.
    pub setting: ThrottleSetting,
}

impl ThrottlePlan {
    /// Applies the plan to the system.
    pub fn apply(&self, system: &mut System) {
        for &core in &self.cores {
            system.set_mode(core, self.setting.margin_mode());
        }
    }

    /// The same cores one rung further down the ladder, or `None` if the
    /// plan is already gated.
    #[must_use]
    pub fn step_down(&self, pstates: &PStateTable) -> Option<ThrottlePlan> {
        self.setting.step_down(pstates).map(|setting| ThrottlePlan {
            cores: self.cores.clone(),
            setting,
        })
    }
}

/// Finds the least-throttled uniform background setting that keeps the
/// socket's measured steady-state chip power at or below `budget`, in the
/// spirit of the paper's manager ("throttles background core frequencies
/// by the minimal amount to control total chip power").
///
/// Each candidate is applied and evaluated at the schedule's settled
/// equilibrium; the first (fastest) candidate within budget wins. If even
/// gating exceeds the budget (e.g. the critical core alone is too hungry),
/// the gated plan is returned — there is nothing more to throttle.
///
/// The chosen plan is left applied to the system and recorded into
/// `rec` as an [`atm_telemetry::ThrottleAction`] event stamped with the
/// recorder's clock; pass [`&mut NullRecorder`](atm_telemetry::NullRecorder) for the
/// zero-overhead unrecorded path.
#[must_use]
pub fn throttle_to_budget<R: Recorder>(
    system: &mut System,
    background_cores: &[CoreId],
    budget: Watts,
    proc_index: usize,
    rec: &mut R,
) -> ThrottlePlan {
    let plan = throttle_to_budget_inner(system, background_cores, budget, proc_index);
    if rec.enabled() && !plan.cores.is_empty() {
        let (rung, freq) = plan.setting.rung();
        rec.record(TelemetryEvent::Throttle(ThrottleAction {
            t: rec.now(),
            cores: plan.cores.len() as u32,
            rung,
            freq,
        }));
    }
    plan
}

fn throttle_to_budget_inner(
    system: &mut System,
    background_cores: &[CoreId],
    budget: Watts,
    proc_index: usize,
) -> ThrottlePlan {
    if background_cores.is_empty() {
        // Nothing to throttle: report the fastest setting rather than a
        // misleading "gated" plan over zero cores.
        return ThrottlePlan {
            cores: Vec::new(),
            setting: ThrottleSetting::AtmMax,
        };
    }
    let ladder = ThrottleSetting::ladder(&system.config().pstates.clone());
    let mut chosen = ThrottleSetting::Gated;
    for setting in ladder {
        let plan = ThrottlePlan {
            cores: background_cores.to_vec(),
            setting,
        };
        plan.apply(system);
        let report = system.settle();
        if report.procs[proc_index].mean_power <= budget {
            chosen = setting;
            break;
        }
    }
    let plan = ThrottlePlan {
        cores: background_cores.to_vec(),
        setting: chosen,
    };
    plan.apply(system);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_chip::ChipConfig;
    use atm_telemetry::NullRecorder;
    use atm_workloads::by_name;

    #[test]
    fn ladder_descends_from_atm_to_gate() {
        let ladder = ThrottleSetting::ladder(&PStateTable::power7_plus());
        assert_eq!(ladder.first(), Some(&ThrottleSetting::AtmMax));
        assert_eq!(ladder.last(), Some(&ThrottleSetting::Gated));
        assert_eq!(ladder.len(), 10); // ATM + 8 p-states + gate
                                      // Fixed frequencies descend.
        let fixed: Vec<f64> = ladder
            .iter()
            .filter_map(|s| match s {
                ThrottleSetting::Fixed(f) => Some(f.get()),
                _ => None,
            })
            .collect();
        assert!(fixed.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn generous_budget_keeps_atm_max() {
        let mut sys = System::new(ChipConfig::default());
        let bg: Vec<CoreId> = (1..8).map(|c| CoreId::new(0, c)).collect();
        let lu = by_name("lu_cb").unwrap().clone();
        for &c in &bg {
            sys.assign(c, lu.clone());
        }
        let plan = throttle_to_budget(&mut sys, &bg, Watts::new(500.0), 0, &mut NullRecorder);
        assert_eq!(plan.setting, ThrottleSetting::AtmMax);
    }

    #[test]
    fn tight_budget_forces_throttling() {
        let mut sys = System::new(ChipConfig::default());
        let bg: Vec<CoreId> = (1..8).map(|c| CoreId::new(0, c)).collect();
        let lu = by_name("lu_cb").unwrap().clone();
        for &c in &bg {
            sys.assign(c, lu.clone());
        }
        let plan = throttle_to_budget(&mut sys, &bg, Watts::new(100.0), 0, &mut NullRecorder);
        assert_ne!(plan.setting, ThrottleSetting::AtmMax);
        let report = sys.settle();
        assert!(report.procs[0].mean_power <= Watts::new(100.0));
    }

    #[test]
    fn impossible_budget_gates() {
        let mut sys = System::new(ChipConfig::default());
        let bg: Vec<CoreId> = (1..8).map(|c| CoreId::new(0, c)).collect();
        let plan = throttle_to_budget(&mut sys, &bg, Watts::new(1.0), 0, &mut NullRecorder);
        assert_eq!(plan.setting, ThrottleSetting::Gated);
    }

    #[test]
    fn step_down_walks_the_ladder_to_gated() {
        let pstates = PStateTable::power7_plus();
        let mut setting = ThrottleSetting::AtmMax;
        let mut hops = 0;
        while let Some(next) = setting.step_down(&pstates) {
            setting = next;
            hops += 1;
        }
        assert_eq!(setting, ThrottleSetting::Gated);
        assert_eq!(hops, ThrottleSetting::ladder(&pstates).len() - 1);
        assert_eq!(ThrottleSetting::Gated.step_down(&pstates), None);
    }

    /// The ladder arithmetic walks the p-state table in place and must
    /// agree with indexing the materialized ladder, for every rung and an
    /// off-ladder frequency, at every depth.
    #[test]
    fn ladder_arithmetic_matches_the_materialized_ladder() {
        let pstates = PStateTable::power7_plus();
        let ladder = ThrottleSetting::ladder(&pstates);
        let bottom = ladder.len() - 1;
        let off = ThrottleSetting::Fixed(MegaHz::new(1234.5));
        for setting in ladder.iter().copied().chain([off]) {
            let pos = ladder.iter().position(|s| *s == setting);
            let at = pos.unwrap_or(bottom);
            assert_eq!(setting.rungs_below(&pstates) as usize, bottom - at);
            assert_eq!(
                setting.step_down(&pstates),
                pos.and_then(|p| ladder.get(p + 1).copied())
            );
            for depth in 0..=12u32 {
                assert_eq!(
                    setting.stepped(&pstates, depth),
                    ladder[(at + depth as usize).min(bottom)],
                    "{setting} stepped {depth}"
                );
            }
        }
    }

    #[test]
    fn empty_background_plan_is_a_no_op() {
        let mut sys = System::new(ChipConfig::default());
        let plan = throttle_to_budget(&mut sys, &[], Watts::new(1.0), 0, &mut NullRecorder);
        assert!(plan.cores.is_empty());
        assert_eq!(plan.setting, ThrottleSetting::AtmMax);
    }

    #[test]
    fn setting_to_mode_mapping() {
        assert_eq!(ThrottleSetting::AtmMax.margin_mode(), MarginMode::Atm);
        assert_eq!(ThrottleSetting::Gated.margin_mode(), MarginMode::Gated);
        assert_eq!(
            ThrottleSetting::Fixed(MegaHz::new(2100.0)).margin_mode(),
            MarginMode::Fixed(MegaHz::new(2100.0))
        );
    }
}
