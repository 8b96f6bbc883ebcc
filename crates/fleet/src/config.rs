//! Fleet-run configuration.

use atm_adapt::AdaptConfig;
use atm_capping::FleetBudget;
use atm_core::charact::CharactConfig;
use atm_faults::FleetFaultPlan;
use atm_serve::{ArrivalPattern, ChipServeConfig};
use atm_silicon::DriftModel;
use atm_units::{AtmError, Nanos};
use atm_workloads::by_name;

use serde::{Deserialize, Serialize};

use crate::placement::PlacementConfig;
use crate::traffic::TrafficSpec;

/// Knobs of the fleet's chip-failure failover ladder.
///
/// When armed (see [`FleetConfig::with_failover`]), a request bounced by
/// a hard-failed chip enters a bounded retry ladder instead of being
/// dropped: attempt `a` waits `backoff_base_epochs << (a − 1)` epochs,
/// and a request past `retry_budget` attempts is permanently shed (the
/// `retry_shed` bucket of the extended conservation law). The fleet also
/// periodically checkpoints the machine state of every chip that can
/// fail, so a dead chip can be resurrected cold after `resurrect_after`
/// epochs, serving only background traffic through a probation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailoverConfig {
    /// Maximum delivery attempts per request (first bounce = attempt 1).
    pub retry_budget: u32,
    /// Epochs before the first retry; each further attempt doubles the
    /// wait. Zero retries on the very next epoch.
    pub backoff_base_epochs: u32,
    /// Epochs between periodic per-chip machine checkpoints (0 disables
    /// checkpointing — a dead chip then stays dead). A checkpoint copies
    /// only the machine half of the chip (see
    /// `ChipServer::machine_checkpoint`), since resurrection keeps the
    /// account. Only live chips carrying a fault hook are checkpointed:
    /// a chip hard-fails only through its hook, so the others can never
    /// need a capsule.
    pub checkpoint_every: u32,
    /// Epochs a chip stays dead before resurrection is attempted (needs
    /// a checkpoint to exist).
    pub resurrect_after: u32,
    /// Epochs a resurrected chip is barred from critical traffic while
    /// its cold queues re-warm on background work.
    pub probation_epochs: u32,
    /// Critical-stream retries are never routed to a chip with at least
    /// this many quarantined cores (its margin ladder is already
    /// struggling; the retried request is the one we cannot lose twice).
    pub quarantine_avoid: u32,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            retry_budget: 3,
            backoff_base_epochs: 1,
            checkpoint_every: 1,
            resurrect_after: 2,
            probation_epochs: 2,
            quarantine_avoid: 2,
        }
    }
}

/// Knobs of a fleet simulation.
///
/// Everything a [`FleetSim`](crate::FleetSim) run depends on lives here —
/// the [`FleetReport`](crate::FleetReport) is a pure function of
/// `(FleetConfig, seed)`, independent of the worker count the run is
/// sharded over.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of chips in the fleet.
    pub chips: u32,
    /// Fleet root seed: per-chip silicon lots, traffic lane seeds, and
    /// the fault-affliction map all derive from it.
    pub seed: u64,
    /// Number of fleet epochs (routing intervals).
    pub epochs: u32,
    /// Virtual nanoseconds of traffic per epoch.
    pub epoch_ns: u64,
    /// The fleet's aggregate request streams.
    pub traffic: Vec<TrafficSpec>,
    /// Per-chip serving knobs (every chip runs the same recipe; silicon
    /// variation comes from the per-chip lot seeds).
    pub chip: ChipServeConfig,
    /// Characterization recipe used to fine-tune each chip at deploy.
    pub charact: CharactConfig,
    /// Fleet-placement thresholds.
    pub placement: PlacementConfig,
    /// Optional fleet-wide fault campaign.
    pub faults: Option<FleetFaultPlan>,
    /// Whether chips use the stride fast path (report-identical either
    /// way; `false` exercises the reference tick loop).
    pub stride: bool,
    /// Optional fleet-wide silicon drift: each chip gets this model
    /// rebased on a per-chip seed, so aging scatter differs chip to chip
    /// while staying a pure function of the fleet seed.
    pub drift: Option<DriftModel>,
    /// Optional online recharacterization recipe; when set, every chip
    /// runs an `OnlineAdapter` and the fleet report carries one
    /// `AdaptReport` per chip.
    pub adapt: Option<AdaptConfig>,
    /// Optional global power budget: the cap in force is split across
    /// chips at every epoch barrier, proportional to their snapshot
    /// backlog, and each chip's regulator tracks its share. The split is
    /// exact largest-remainder apportionment over the same snapshots
    /// routing reads, so the whole allocation stays a pure function of
    /// `(FleetConfig, seed)`.
    pub budget: Option<FleetBudget>,
    /// Optional chip-failure failover: bounded retry/backoff for requests
    /// bounced by hard-failed chips, periodic machine checkpoints, and
    /// checkpoint resurrection with a probation window. Without it a
    /// hard-failed chip stays dead and its bounced requests are
    /// immediately `retry_shed`.
    pub failover: Option<FailoverConfig>,
}

impl FleetConfig {
    /// A small fleet for tests and smoke runs: 8 chips × 4 epochs of
    /// 50 ms, one critical and one background stream, 2 µs single-repeat
    /// characterization trials.
    ///
    /// # Panics
    ///
    /// Panics only if the built-in workload catalog is missing its
    /// standard entries (a build defect).
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        FleetConfig {
            chips: 8,
            seed,
            epochs: 4,
            epoch_ns: 50_000_000,
            traffic: vec![
                // SqueezeNet inference runs ~42 ms on a critical core, so
                // an 80 ms per-lane gap keeps each chip's critical queue
                // loaded but sustainable (ρ ≈ 0.5).
                TrafficSpec::critical(
                    "inference",
                    ArrivalPattern::Poisson {
                        mean_gap: 80_000_000,
                    },
                ),
                TrafficSpec::background(
                    "batch",
                    ArrivalPattern::Bursty {
                        mean_gap: 3_000_000,
                        burst_gap: 800_000,
                        phase: 20_000_000,
                    },
                ),
            ],
            chip: ChipServeConfig::standard(
                by_name("squeezenet").expect("catalog").clone(),
                vec![by_name("x264").expect("catalog").clone()],
            ),
            charact: CharactConfig::builder()
                .trial(Nanos::new(2_000.0))
                .repeats(1)
                .build()
                .expect("valid quick characterization"),
            placement: PlacementConfig::default(),
            faults: None,
            stride: true,
            drift: None,
            adapt: None,
            budget: None,
            failover: None,
        }
    }

    /// The standard fleet: 64 chips × 10 epochs of 100 ms over the quick
    /// recipe.
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        FleetConfig {
            chips: 64,
            epochs: 10,
            epoch_ns: 100_000_000,
            ..FleetConfig::quick(seed)
        }
    }

    /// Replaces the chip count (chainable).
    #[must_use]
    pub fn with_chips(mut self, chips: u32) -> Self {
        self.chips = chips;
        self
    }

    /// Replaces the epoch count (chainable).
    #[must_use]
    pub fn with_epochs(mut self, epochs: u32) -> Self {
        self.epochs = epochs;
        self
    }

    /// Arms fleet-wide silicon drift (chainable).
    #[must_use]
    pub fn with_drift(mut self, drift: DriftModel) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Arms per-chip online recharacterization (chainable).
    #[must_use]
    pub fn with_adapt(mut self, adapt: AdaptConfig) -> Self {
        self.adapt = Some(adapt);
        self
    }

    /// Arms a fleet-wide fault campaign (chainable).
    #[must_use]
    pub fn with_faults(mut self, faults: FleetFaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Arms a global power budget, split across chips each epoch
    /// (chainable). Chips without their own cap config get a
    /// fleet-driven regulator automatically.
    #[must_use]
    pub fn with_budget(mut self, budget: FleetBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Arms the chip-failure failover ladder (chainable).
    #[must_use]
    pub fn with_failover(mut self, failover: FailoverConfig) -> Self {
        self.failover = Some(failover);
        self
    }

    /// Sets the stride fast path on or off (chainable).
    #[must_use]
    pub fn with_stride(mut self, stride: bool) -> Self {
        self.stride = stride;
        self
    }

    /// Replaces the placement thresholds (chainable).
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementConfig) -> Self {
        self.placement = placement;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if the fleet is empty (no
    /// chips, no epochs, zero-length epochs, or no traffic) or the
    /// per-chip knobs fail [`ChipServeConfig::check`].
    pub fn check(&self) -> Result<(), AtmError> {
        if self.chips == 0 {
            return Err(AtmError::invalid_config("chips", "need at least one chip"));
        }
        if self.epochs == 0 {
            return Err(AtmError::invalid_config(
                "epochs",
                "need at least one epoch",
            ));
        }
        if self.epoch_ns == 0 {
            return Err(AtmError::invalid_config(
                "epoch_ns",
                "epochs must span time",
            ));
        }
        if self.traffic.is_empty() {
            return Err(AtmError::invalid_config(
                "traffic",
                "need at least one stream",
            ));
        }
        if let Some(adapt) = &self.adapt {
            adapt.check()?;
        }
        if let Some(budget) = &self.budget {
            budget.check()?;
        }
        self.chip.check()
    }

    /// A validating builder seeded from [`FleetConfig::quick`] — the
    /// preferred way to compose a fleet run out of the optional
    /// subsystems (drift, adaptation, faults, a power budget).
    ///
    /// # Examples
    ///
    /// ```
    /// use atm_capping::FleetBudget;
    /// use atm_fleet::FleetConfig;
    ///
    /// let cfg = FleetConfig::builder(42)
    ///     .chips(4)
    ///     .epochs(3)
    ///     .budget(FleetBudget::steady(200_000))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.chips, 4);
    /// assert!(FleetConfig::builder(42).chips(0).build().is_err());
    /// ```
    #[must_use]
    pub fn builder(seed: u64) -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig::quick(seed),
        }
    }
}

/// Builder for [`FleetConfig`]; see [`FleetConfig::builder`].
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// Sets the chip count.
    #[must_use]
    pub fn chips(mut self, chips: u32) -> Self {
        self.config.chips = chips;
        self
    }

    /// Sets the epoch count.
    #[must_use]
    pub fn epochs(mut self, epochs: u32) -> Self {
        self.config.epochs = epochs;
        self
    }

    /// Sets the virtual nanoseconds per epoch.
    #[must_use]
    pub fn epoch_ns(mut self, epoch_ns: u64) -> Self {
        self.config.epoch_ns = epoch_ns;
        self
    }

    /// Arms fleet-wide silicon drift.
    #[must_use]
    pub fn drift(mut self, drift: DriftModel) -> Self {
        self.config.drift = Some(drift);
        self
    }

    /// Arms per-chip online recharacterization.
    #[must_use]
    pub fn adapt(mut self, adapt: AdaptConfig) -> Self {
        self.config.adapt = Some(adapt);
        self
    }

    /// Arms a fleet-wide fault campaign.
    #[must_use]
    pub fn faults(mut self, faults: FleetFaultPlan) -> Self {
        self.config.faults = Some(faults);
        self
    }

    /// Arms a global power budget.
    #[must_use]
    pub fn budget(mut self, budget: FleetBudget) -> Self {
        self.config.budget = Some(budget);
        self
    }

    /// Arms the chip-failure failover ladder.
    #[must_use]
    pub fn failover(mut self, failover: FailoverConfig) -> Self {
        self.config.failover = Some(failover);
        self
    }

    /// Replaces the placement thresholds.
    #[must_use]
    pub fn placement(mut self, placement: PlacementConfig) -> Self {
        self.config.placement = placement;
        self
    }

    /// Sets the stride fast path on or off.
    #[must_use]
    pub fn stride(mut self, stride: bool) -> Self {
        self.config.stride = stride;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if the composed configuration
    /// fails [`FleetConfig::check`].
    pub fn build(self) -> Result<FleetConfig, AtmError> {
        self.config.check()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_and_standard_validate() {
        assert!(FleetConfig::quick(42).check().is_ok());
        assert!(FleetConfig::standard(42).check().is_ok());
    }

    #[test]
    fn degenerate_fleets_are_rejected() {
        assert!(FleetConfig::quick(1).with_chips(0).check().is_err());
        assert!(FleetConfig::quick(1).with_epochs(0).check().is_err());
        let mut no_traffic = FleetConfig::quick(1);
        no_traffic.traffic.clear();
        assert!(no_traffic.check().is_err());
        let mut zero_epoch = FleetConfig::quick(1);
        zero_epoch.epoch_ns = 0;
        assert!(zero_epoch.check().is_err());
    }
}
