//! `power-atm` — fine-tuning the Active Timing Margin control loop.
//!
//! A reproduction of the HPCA 2019 paper *"Fine-Tuning the Active Timing
//! Margin (ATM) Control Loop for Maximizing Multi-Core Efficiency on an
//! IBM POWER Server"*: the per-core CPM fine-tuning technique, the
//! idle → uBench → realistic characterization methodology, and the
//! predictor-driven management scheme — all running against a calibrated
//! simulation of the paper's two-socket POWER7+ platform.
//!
//! This facade re-exports every crate of the stack so applications can
//! depend on one name:
//!
//! | module | contents |
//! |---|---|
//! | [`units`] | typed `Picos`/`MegaHz`/`Volts`/`Watts`/`CoreId` quantities |
//! | [`silicon`] | process variation, path delay, inverter chains |
//! | [`pdn`] | IR drop, di/dt droops, power and thermal models |
//! | [`cpm`] | programmable Critical Path Monitors |
//! | [`dpll`] | the per-core ATM control loop and clocking |
//! | [`workloads`] | calibrated SPEC/PARSEC/ML/stressmark profiles |
//! | [`telemetry`] | zero-overhead-by-default recording of control-loop decisions |
//! | [`chip`] | the two-socket simulator |
//! | [`core`] | fine-tuning, characterization, prediction, management |
//! | [`adapt`] | online recharacterization: live predictor refinement, micro-probes, confidence-gated re-tightening |
//! | [`capping`] | integral power regulator above ATM, power budgets, and the integer-picojoule energy account |
//! | [`serve`] | deterministic request serving with SLO accounting |
//! | [`faults`] | seeded fault-injection campaigns and recovery reports |
//! | [`fleet`] | fleet-scale sharded simulation behind a deterministic epoch-barrier router |
//! | [`recovery`] | fault-campaign bisection over checkpoint replays |
//! | [`experiments`] | regeneration of every paper table and figure |
//!
//! The [`prelude`] re-exports the handful of types nearly every program
//! needs, so `use power_atm::prelude::*;` is enough to get going.
//!
//! # The whole pipeline in one example
//!
//! ```no_run
//! use power_atm::prelude::*;
//!
//! // 1. A server with freshly minted silicon.
//! let sys = System::new(ChipConfig::power7_plus(42));
//!
//! // 2. Vendor test-time deployment: stress-test every core's limit.
//! let mut mgr = AtmManager::deploy(sys, Governor::Default, &CharactConfig::standard());
//!
//! // 3. Field management: critical app to the fastest core, background
//! //    throttled until a 10% speedup over static margin is guaranteed,
//! //    with every control-loop decision recorded.
//! let mut rec = RingRecorder::with_capacity(4096);
//! let outcome = mgr.evaluate_pair(
//!     by_name("squeezenet").unwrap(),
//!     by_name("x264").unwrap(),
//!     Strategy::ManagedBalanced(QosTarget::improvement_pct(10.0)),
//!     &mut rec,
//! );
//! assert!(outcome.ok && outcome.speedup >= 1.10);
//!
//! // 4. The snapshot renders and parses losslessly for offline analysis.
//! let snap = rec.snapshot();
//! assert!(snap.counter("chip.ticks").is_some());
//! ```
//!
//! A quicker taste:
//!
//! ```
//! use power_atm::units::MegaHz;
//!
//! assert_eq!(MegaHz::new(4200.0).to_string(), "4200 MHz");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use atm_units as units;

pub use atm_adapt as adapt;
pub use atm_capping as capping;
pub use atm_chip as chip;
pub use atm_core as core;
pub use atm_cpm as cpm;
pub use atm_dpll as dpll;
pub use atm_experiments as experiments;
pub use atm_faults as faults;
pub use atm_fleet as fleet;
pub use atm_pdn as pdn;
pub use atm_recovery as recovery;
pub use atm_serve as serve;
pub use atm_silicon as silicon;
pub use atm_telemetry as telemetry;
pub use atm_workloads as workloads;

pub mod prelude {
    //! The types nearly every `power-atm` program touches, in one import.
    //!
    //! # Examples
    //!
    //! ```
    //! use power_atm::prelude::*;
    //!
    //! let sys = System::new(ChipConfig::default());
    //! let workload = by_name("squeezenet").unwrap();
    //! assert_eq!(workload.name(), "squeezenet");
    //! let _ = (sys, NullRecorder);
    //! ```

    pub use atm_adapt::{AdaptConfig, AdaptReport, NullAdapter, OnlineAdapter};
    pub use atm_capping::{
        CapConfig, CapReport, EnergyModel, EnergyReport, FleetBudget, PowerBudget, PowerRegulator,
        RegulatorConfig,
    };
    pub use atm_chip::{ChipConfig, MarginMode, System};
    pub use atm_core::charact::CharactConfig;
    pub use atm_core::manager::Strategy;
    pub use atm_core::{AtmManager, Governor, LimitTable, MarginSupervisor, QosTarget};
    pub use atm_faults::{FaultCampaign, FaultPlan};
    pub use atm_fleet::{FleetConfig, FleetConfigBuilder, FleetReport, FleetRun, FleetSim};
    pub use atm_serve::{ServeConfig, ServeSim, StreamSpec};
    pub use atm_silicon::DriftModel;
    pub use atm_telemetry::{NullRecorder, Recorder, RingRecorder, TelemetrySnapshot};
    pub use atm_units::{AtmError, CoreId, MegaHz, Nanos, ProcId, Watts};
    pub use atm_workloads::{by_name, Workload};
}
