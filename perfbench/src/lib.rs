//! Outside-in benchmark of the power-atm stack.
//!
//! Three workloads drive the program's public API from the outside:
//!
//! - [`characterize`]: the paper's idle → uBench → realistic campaign
//!   through `CharactEngine::run_parallel`, then long steady ATM spans at
//!   the deployed limits (tick-kernel bound);
//! - [`serve_brownout`]: one managed chip under `ServeSim::run` with a
//!   power brownout in the middle of the trace (per-call overhead and the
//!   capping epoch bound);
//! - [`fleet_failover`]: a 64-chip fleet with periodic chip hard fails,
//!   failover, drift + adaptation and a fleet budget, stepped epoch by
//!   epoch through `FleetRun` (routing, barrier, checkpoint bound).
//!
//! An untraced run measures the end-to-end metrics of
//! [`metrics::END_TO_END`]; a traced run records [`spans`] around the
//! layer calls, runs the layer [`probes`], and reports
//! [`metrics::PER_LAYER`]. Every repetition checks its report's own laws
//! and that its simulated output is byte-identical to the first
//! repetition's.

pub mod characterize;
pub mod fleet_failover;
pub mod metrics;
pub mod probes;
pub mod serve_brownout;
pub mod spans;
pub mod stats;

use std::time::Instant;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use power_atm::core::charact::CharactConfig;
use power_atm::units::Nanos;
use power_atm::workloads::by_name;
use spans::Spans;
use stats::median;

/// The workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["characterize", "serve-brownout", "fleet-failover"];

/// Set-up runs before the first repetition and again after each one,
/// each time repeating until this many seconds have passed (at least
/// once). Its samples thus span the whole measured window, as the
/// repetitions do, and the host's drifting speed weighs on `setup_s` as
/// it does on `run_s`.
const SETUP_SLICE_S: f64 = 0.1;

/// How big a workload's unit of work is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A seconds-long size for the benchmark's own tests.
    Tiny,
}

/// What one repetition of a workload's measured phase produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds of the whole repetition.
    pub run_s: f64,
    /// Operations completed (characterization points, or requests).
    pub ops: u64,
    /// Host seconds `ops` were produced in.
    pub ops_s: f64,
    /// Simulated chip nanoseconds run.
    pub sim_ns: f64,
    /// Host seconds `sim_ns` were simulated in.
    pub sim_s: f64,
    /// Operations attempted (the result line's `attempted`).
    pub attempted: u64,
    /// FNV-1a digest of the full `{:#?}` simulated output.
    pub digest: u64,
    /// Deterministic simulated outcomes (identical on every repetition).
    pub sim: Metrics,
    /// Per-layer counts taken from the reports (identical on every
    /// repetition).
    pub layer: Metrics,
    /// Per-layer host times of this repetition (filled in traced
    /// repetitions; the traced run reports their medians).
    pub host: Metrics,
    /// The report's own laws; `Err` names the first one broken.
    pub check: Result<(), String>,
}

/// One workload: a set-up, a repeatable measured phase, and layer probes.
pub trait Workload {
    /// Everything set-up builds and every repetition starts from.
    type State;

    /// Builds the state the measured phase starts from (timed as
    /// `setup_s`).
    fn setup(&self) -> Self::State;

    /// Runs one repetition of the measured phase, recording a span around
    /// each layer call into `spans` (a fresh recorder per repetition).
    fn rep(&self, state: &Self::State, spans: &mut Spans) -> Rep;

    /// Fills the per-layer metrics the flow does not yield by itself:
    /// direct calls on the workload's own deployed chip (and fleet).
    ///
    /// # Errors
    ///
    /// Fails when a probe's own check fails.
    fn probe(&self, state: &Self::State, ledger: &mut Metrics) -> Result<(), String>;
}

/// Run options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seconds the measured phase runs for (at least one repetition).
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
}

/// What a whole run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// The first failed check, if any.
    pub failure: Option<String>,
    /// Operations attempted over every measured repetition.
    pub attempted: u64,
    /// The metrics of the result line.
    pub metrics: Metrics,
    /// Deterministic simulated outcomes.
    pub sim: Metrics,
    /// Digest of the simulated output (identical on every repetition).
    pub digest: u64,
    /// Set-up repetitions made.
    pub setup_reps: usize,
    /// Measured repetitions made.
    pub reps: usize,
    /// Per-span (calls, seconds) totals of a traced run.
    pub span_totals: Vec<(String, usize, f64)>,
}

/// Runs `w` under `opts`.
pub fn run<W: Workload>(w: &W, opts: &Options) -> Outcome {
    // Each set-up replaces the state; the simulator is deterministic, so
    // every repetition starts from the same state, which the digest check
    // below confirms.
    let mut setup_times = Vec::new();
    let mut state = None;
    let mut set_up = |state: &mut Option<W::State>| {
        let slice = Instant::now();
        loop {
            drop(state.take());
            let t0 = Instant::now();
            let s = w.setup();
            setup_times.push(t0.elapsed().as_secs_f64());
            *state = Some(s);
            if slice.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                break;
            }
        }
    };
    set_up(&mut state);

    // The measured phase: untraced repetitions, or untraced and traced
    // repetitions alternating (their ratio prices the tracing).
    let mut reps: Vec<Rep> = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut traced_host: Vec<Metrics> = Vec::new();
    let mut spans = Spans::on();
    let start = Instant::now();
    let min_reps = if opts.trace { 2 } else { 1 };
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < opts.seconds {
        if !reps.is_empty() {
            set_up(&mut state);
        }
        let state = state.as_ref().expect("set up before each repetition");
        let rep = if opts.trace && reps.len() % 2 == 1 {
            let mut rep_spans = Spans::on();
            let rep = w.rep(state, &mut rep_spans);
            spans.merge(rep_spans);
            traced_s.push(rep.run_s);
            traced_host.push(rep.host.clone());
            rep
        } else {
            let rep = w.rep(state, &mut Spans::off());
            untraced_s.push(rep.run_s);
            rep
        };
        reps.push(rep);
    }
    let state = state.expect("set up at least once");

    let first = &reps[0];
    let mut failure = reps.iter().find_map(|r| r.check.clone().err());
    if failure.is_none() {
        failure = reps
            .iter()
            .position(|r| r.digest != first.digest || r.sim != first.sim || r.layer != first.layer)
            .map(|i| format!("repetition {i} simulated a different output than repetition 0"));
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();

    let mut metrics;
    if opts.trace {
        metrics = Metrics::zeroed(PER_LAYER);
        for name in first.layer.names() {
            metrics.put(name, first.layer.get(name).expect("named"));
        }
        // Trace mode makes at least two repetitions, so one is traced.
        for name in traced_host[0].names() {
            let values: Vec<f64> = traced_host.iter().filter_map(|h| h.get(name)).collect();
            metrics.put(name, median(&values));
        }
        metrics.put(
            "trace.overhead_frac",
            median(&traced_s) / median(&untraced_s) - 1.0,
        );
        metrics.put(
            "trace.attributed_frac",
            spans.total_s() / traced_s.iter().sum::<f64>(),
        );
        if let Err(why) = w.probe(&state, &mut metrics) {
            failure.get_or_insert(why);
        }
    } else {
        metrics = Metrics::zeroed(END_TO_END);
        let per = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        metrics.put("setup_s", median(&setup_times));
        metrics.put("run_s", per(&|r| r.run_s));
        #[allow(clippy::cast_precision_loss)]
        metrics.put("ops_per_s", per(&|r| r.ops as f64 / r.ops_s));
        metrics.put("sim_ns_per_s", per(&|r| r.sim_ns / r.sim_s));
        metrics.put("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
    }
    if failure.is_none() && !metrics.all_finite() {
        failure = Some(String::from("a metric is not a finite number"));
    }

    Outcome {
        correct: failure.is_none(),
        failure,
        attempted,
        metrics,
        sim: first.sim.clone(),
        digest: first.digest,
        setup_reps: setup_times.len(),
        reps: reps.len(),
        span_totals: spans
            .totals()
            .into_iter()
            .map(|(k, (n, s))| (k.to_owned(), n, s))
            .collect(),
    }
}

/// Worker threads the workloads use: two, or fewer on a smaller host.
#[must_use]
pub fn workers() -> usize {
    stats::nproc().clamp(1, 2)
}

/// The `k` silicon lots (and traffic seeds) a workload spreads its run
/// over: lot 0 is `seed` itself, the rest are offset by the 64-bit golden
/// ratio. Averaging over several lots keeps one lot's luck (its limits,
/// its arrivals, its fault draw) from setting the run's cost.
#[must_use]
pub fn lots(seed: u64, k: u64) -> Vec<u64> {
    (0..k)
        .map(|i| seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// A workload of the program's built-in catalog.
///
/// # Panics
///
/// Panics if `name` is not in the catalog.
#[must_use]
pub fn workload(name: &str) -> &'static power_atm::workloads::Workload {
    by_name(name).expect("workload in the built-in catalog")
}

/// The seconds-long characterization campaign of the tiny sizes: 2 µs
/// trials, one repeat.
///
/// # Panics
///
/// Panics only if the recipe is invalid.
#[must_use]
pub fn tiny_campaign() -> CharactConfig {
    CharactConfig::builder()
        .trial(Nanos::new(2_000.0))
        .repeats(1)
        .build()
        .expect("valid tiny campaign")
}

/// Ratio of two counts, 0 when the denominator is 0.
#[must_use]
pub fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        #[allow(clippy::cast_precision_loss)]
        let r = num as f64 / den as f64;
        r
    }
}
