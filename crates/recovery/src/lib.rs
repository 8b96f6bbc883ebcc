//! Crash recovery for the ATM stack: fault-campaign bisection over the
//! checkpoints every layer already exposes.
//!
//! Everything below the fleet router is already a deterministic pure
//! function of `(config, seed)`, and every layer exposes a deep-copy
//! checkpoint (`SystemCheckpoint`, `ManagerCheckpoint`,
//! `ChipServerCheckpoint`, `FleetRunCheckpoint`) whose `checkpoint()` /
//! `thaw()` pair satisfies the resume identity
//!
//! ```text
//! run(0..T)  ≡  run(0..k); thaw(checkpoint); run(k..T)      (byte-for-byte)
//! ```
//!
//! Checkpoints are plain in-memory values: no version, no checksum, no
//! serialized form. This crate puts them to work — [`bisect()`]
//! delta-debugs a failing fault campaign to a minimal triggering spec
//! set, replaying from checkpoints instead of from epoch 0 (the
//! [`mod@bisect`] module).
//!
//! The failover machinery itself — hard-failed chips bouncing their
//! batches, the bounded retry/backoff ladder, resurrection from periodic
//! checkpoints with a probation window — lives in the fleet crate
//! ([`atm_fleet::FailoverConfig`]); the repo's `tests/recovery.rs` suite
//! holds it to the exactly-once law.
//!
//! # Checkpointing and thawing a fleet run
//!
//! ```
//! use atm_fleet::{FleetConfig, FleetSim};
//!
//! let mut run = FleetSim::new(FleetConfig::quick(42).with_chips(2).with_epochs(2))
//!     .unwrap()
//!     .start(1);
//! run.step_epoch(1);
//!
//! // Checkpoint mid-run, keep going, then thaw and replay: byte-identical.
//! let cp = run.checkpoint();
//! run.step_epoch(1);
//! let first = run.finish();
//!
//! let mut replay = cp.thaw();
//! replay.step_epoch(1);
//! assert_eq!(replay.finish(), first);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisect;

pub use bisect::{bisect, BisectConfig, BisectError, BisectOutcome};
