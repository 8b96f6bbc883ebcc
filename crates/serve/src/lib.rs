//! `atm-serve` — serving traffic on a fine-tuned ATM server.
//!
//! The paper manages a latency-critical application with one-shot
//! measurements; this crate closes the remaining gap to a *server*: a
//! deterministic discrete-event serving simulator that drives the managed
//! stack with open-loop request streams and accounts for what datacenter
//! operators actually buy — tail latency against an SLO.
//!
//! The pieces, in dispatch order:
//!
//! * [`StreamSpec`]/[`ArrivalPattern`] — seeded open-loop request streams
//!   (Poisson or bursty phases), one critical + any number of background;
//! * [`arrival`] — per-stream traces drawn lazily from each stream's own
//!   seed and merged on the fly into one `(time, stream, seq)` timeline;
//! * [`AdmissionConfig`] — backpressure: defer, then shed background
//!   requests as backlog grows or the critical p99 approaches its SLO;
//! * [`LatencyHistogram`] — fixed-bucket (log-linear) latency tracking
//!   for p50/p95/p99 with bounded memory;
//! * [`ChipServer`] — the one per-epoch control body: chip-in-the-loop
//!   harvest, the supervisor ladder or the droop-aware degradation
//!   policy (CPM rollback, critical re-placement, background throttle
//!   step-downs), the online adapter and the power regulator, over the
//!   per-core queues. The `atm-fleet` barrier loop steps one per chip;
//! * [`ServeSim`] — the single-chip driver: arrivals, admission and
//!   per-stream accounting around one [`ChipServer`];
//! * [`ServeReport`] — the all-integer, `Eq`-comparable account
//!   (determinism is `assert_eq!`-checkable).
//!
//! # Examples
//!
//! ```
//! use atm_chip::{ChipConfig, System};
//! use atm_core::{AtmManager, Governor};
//! use atm_core::charact::CharactConfig;
//! use atm_serve::{ArrivalPattern, ServeConfig, ServeSim, StreamSpec};
//! use atm_telemetry::NullRecorder;
//! use atm_units::Nanos;
//! use atm_workloads::by_name;
//!
//! let sys = System::new(ChipConfig::power7_plus(42));
//! let mgr = AtmManager::deploy(sys, Governor::Default, &CharactConfig::quick());
//! let sq = by_name("squeezenet").unwrap();
//! let x264 = by_name("x264").unwrap();
//! let streams = vec![
//!     StreamSpec::critical(sq, ArrivalPattern::Poisson { mean_gap: 200_000_000 }, 150_000_000),
//!     StreamSpec::background(x264, ArrivalPattern::Poisson { mean_gap: 30_000_000 }),
//! ];
//! let cfg = ServeConfig::builder(42)
//!     .epochs(4)
//!     .epoch_ns(200_000_000)
//!     .chip_trial(Nanos::new(1_000.0))
//!     .build()
//!     .unwrap();
//! let report = ServeSim::new(mgr, cfg, streams).unwrap().run(2, &mut NullRecorder);
//! assert!(report.completed > 0);
//! assert!(report.critical().slo_met());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
pub mod arrival;
mod chipstep;
mod config;
mod degrade;
mod histogram;
mod report;
mod sim;
mod stream;

pub use admission::{Admission, AdmissionConfig};
pub use chipstep::{
    ChipRequest, ChipServeConfig, ChipServer, ChipServerCheckpoint, ChipSnapshot, ChipSummary,
    EpochOutcome, MachineCheckpoint,
};
pub use config::{ServeConfig, ServeConfigBuilder};
pub use histogram::LatencyHistogram;
pub use report::{ServeReport, StreamStats, Transition};
pub use sim::ServeSim;
pub use stream::{ArrivalPattern, StreamClass, StreamSpec};
