//! Wall-time spans recorded by the benchmark around its own calls into
//! the program's layers. Nothing inside the program is instrumented: a
//! span covers one public-API call, from the outside.
//!
//! Spans never nest (each wraps one top-level layer call made by the
//! benchmark), so their sum is the part of a repetition's host time the
//! timed layer calls account for.

use std::collections::BTreeMap;
use std::time::Instant;

/// A span recorder, switched on only in traced runs.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    calls: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// A recorder that records nothing and adds no clock reads.
    #[must_use]
    pub fn off() -> Self {
        Spans::default()
    }

    /// A recorder that keeps every span in memory.
    #[must_use]
    pub fn on() -> Self {
        Spans {
            on: true,
            calls: BTreeMap::new(),
        }
    }

    /// Runs `f`, recording its wall time under `name` when switched on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.calls
            .entry(name)
            .or_default()
            .push(t0.elapsed().as_secs_f64());
        out
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Appends every span of `other`.
    pub fn merge(&mut self, other: Spans) {
        for (name, calls) in other.calls {
            self.calls.entry(name).or_default().extend(calls);
        }
    }

    /// Every recorded duration of `name`, in seconds, in call order.
    #[must_use]
    pub fn durations(&self, name: &str) -> &[f64] {
        self.calls.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total seconds recorded over every span.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.calls.values().flatten().sum()
    }

    /// Per-span totals in seconds, by name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, (usize, f64)> {
        self.calls
            .iter()
            .map(|(k, v)| (*k, (v.len(), v.iter().sum())))
            .collect()
    }
}
