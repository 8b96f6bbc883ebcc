//! Droop-aware degradation policy.
//!
//! The chip publishes [`ChipEvent`]s (timing failures, droop alarms); the
//! policy turns them into management actions on the serving posture:
//!
//! * a **failure** on any core rolls its CPM fine-tuning back one step
//!   (the paper's field response to a characterization miss) and forces a
//!   re-placement, since the core-speed ranking just changed;
//! * **persistent droop alarms** on the critical core (≥ [`ALARM_TRIP`]
//!   in one epoch) do the same — the core is losing cycles to loop
//!   responses the settled predictor never saw;
//! * persistent alarms on a background core throttle the background tier
//!   one rung down the DVFS ladder instead, trading filler throughput for
//!   rail stability.

use std::collections::BTreeMap;
use std::fmt;

use atm_chip::{ChipEvent, FailureKind};
use atm_units::CoreId;

/// Droop alarms on one core within one epoch that trigger action.
pub(crate) const ALARM_TRIP: usize = 3;

/// Why the policy rolled a core back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RollbackCause {
    /// A timing failure of this kind.
    Failure(FailureKind),
    /// This many droop alarms on the critical core in one epoch.
    DroopAlarms(usize),
}

impl fmt::Display for RollbackCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RollbackCause::Failure(kind) => write!(f, "failure: {kind}"),
            RollbackCause::DroopAlarms(n) => write!(f, "{n} droop alarms"),
        }
    }
}

/// One action the policy requests from the serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DegradeAction {
    /// Roll `core`'s CPM fine-tuning back one delay step and re-place.
    Rollback { core: CoreId, cause: RollbackCause },
    /// Step the background throttle one rung down the ladder; `core` is
    /// the background core whose alarms triggered the step.
    ThrottleDown { core: CoreId },
}

/// Digests one epoch's chip events into an ordered action list (failures
/// first, then alarm-tripped cores in core order — the ordering is part of
/// the deterministic contract).
pub(crate) fn react(events: &[ChipEvent], critical: CoreId) -> Vec<DegradeAction> {
    let mut actions = Vec::new();
    let mut alarms: BTreeMap<CoreId, usize> = BTreeMap::new();
    for ev in events {
        match ev {
            ChipEvent::Failure(f) => actions.push(DegradeAction::Rollback {
                core: f.core,
                cause: RollbackCause::Failure(f.kind),
            }),
            ChipEvent::Droop(d) => {
                *alarms.entry(d.core).or_insert(0) += 1;
            }
        }
    }
    for (core, n) in alarms {
        if n < ALARM_TRIP {
            continue;
        }
        if core == critical {
            actions.push(DegradeAction::Rollback {
                core,
                cause: RollbackCause::DroopAlarms(n),
            });
        } else {
            actions.push(DegradeAction::ThrottleDown { core });
        }
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_chip::{DroopAlarm, FailureEvent};
    use atm_units::{MegaHz, Nanos};

    fn droop(core: CoreId) -> ChipEvent {
        ChipEvent::Droop(DroopAlarm {
            core,
            dip: MegaHz::new(30.0),
            at: Nanos::new(10.0),
        })
    }

    #[test]
    fn failure_rolls_back_the_offender() {
        let crit = CoreId::new(0, 2);
        let ev = ChipEvent::Failure(FailureEvent {
            core: crit,
            kind: FailureKind::SystemCrash,
            at: Nanos::new(5.0),
        });
        let actions = react(&[ev], crit);
        assert_eq!(
            actions,
            vec![DegradeAction::Rollback {
                core: crit,
                cause: RollbackCause::Failure(FailureKind::SystemCrash)
            }]
        );
        assert_eq!(
            RollbackCause::Failure(FailureKind::SystemCrash).to_string(),
            format!("failure: {}", FailureKind::SystemCrash)
        );
    }

    #[test]
    fn alarm_bursts_split_by_tenancy() {
        let crit = CoreId::new(0, 0);
        let bg = CoreId::new(0, 5);
        let mut events = Vec::new();
        for _ in 0..ALARM_TRIP {
            events.push(droop(crit));
            events.push(droop(bg));
        }
        // Two alarms on another core stay under the trip threshold.
        events.push(droop(CoreId::new(0, 7)));
        events.push(droop(CoreId::new(0, 7)));
        let actions = react(&events, crit);
        assert_eq!(
            actions,
            vec![
                DegradeAction::Rollback {
                    core: crit,
                    cause: RollbackCause::DroopAlarms(3)
                },
                DegradeAction::ThrottleDown { core: bg },
            ]
        );
        assert_eq!(RollbackCause::DroopAlarms(3).to_string(), "3 droop alarms");
    }
}
