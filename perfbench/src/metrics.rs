//! Metric names, units and the JSON the benchmark prints.
//!
//! The two tables below are the benchmark's contract: an untraced run
//! prints exactly [`END_TO_END`], a traced run exactly [`PER_LAYER`].
//! `BENCHMARK.json` at the repository root lists the same names and
//! units (the `contract` test keeps them in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: host-side costs a user of the simulator sees.
/// Every workload prints every one of them, and none of them is ever 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_ns_per_s", "sim_ns/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that never calls into
/// a layer reports that layer's flow metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("chip.kernel_us_per_sim_us", "us/sim_us"),
    ("chip.run_fixed_us", "us"),
    ("chip.settle_us", "us"),
    ("core.deploy_s", "s"),
    ("core.charact.idle_s", "s"),
    ("core.charact.ubench_s", "s"),
    ("core.charact.realistic_s", "s"),
    ("core.charact.points", "count"),
    ("core.charact.cache_hit_frac", "ratio"),
    ("core.charact.parallel_eff", "ratio"),
    ("core.serve_posture_us", "us"),
    ("core.measure_core_freqs_us", "us"),
    ("core.apply_cap_levels_us", "us"),
    ("capping.epochs", "count"),
    ("capping.throttle_steps", "count"),
    ("capping.release_steps", "count"),
    ("capping.over_budget_epochs", "count"),
    ("serve.run_s", "s"),
    ("serve.step_epoch_us", "us"),
    ("serve.dispatch_ns_per_req", "ns"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.transitions", "count"),
    ("serve.completed_frac", "ratio"),
    ("fleet.start_s", "s"),
    ("fleet.step_epoch_ms.p50", "ms"),
    ("fleet.step_epoch_ms.p90", "ms"),
    ("fleet.finish_ms", "ms"),
    ("fleet.parallel_eff", "ratio"),
    ("fleet.routed", "count"),
    ("fleet.shed", "count"),
    ("fleet.deferred", "count"),
    ("fleet.retried", "count"),
    ("fleet.retry_shed", "count"),
    ("fleet.hard_failed_chips", "count"),
    ("fleet.resurrected_chips", "count"),
    ("fleet.routed_frac", "ratio"),
    ("recovery.fleet_checkpoint_ms", "ms"),
    ("recovery.fleet_restore_ms", "ms"),
    ("recovery.chip_checkpoint_us", "us"),
    ("adapt.observations", "count"),
    ("adapt.probes_run", "count"),
    ("adapt.retightens", "count"),
    ("faults.hook_ticks", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
];

/// One named value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// The unit, as listed in the tables above.
    pub unit: &'static str,
}

/// An ordered set of named metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    /// Every metric of `table`, each set to 0.
    #[must_use]
    pub fn zeroed(table: &[(&str, &'static str)]) -> Self {
        let mut m = Metrics::default();
        for &(name, unit) in table {
            m.set(name, 0.0, unit);
        }
        m
    }

    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), Metric { value, unit });
    }

    /// Sets `name` to `value`, keeping the unit it already has.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the set (a typo in the benchmark).
    pub fn put(&mut self, name: &str, value: f64) {
        self.0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown metric {name}"))
            .value = value;
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }

    /// The names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// Adds every metric of `other`, its name prefixed by `prefix` and a
    /// dot.
    pub fn extend_prefixed(&mut self, prefix: &str, other: &Metrics) {
        for (name, &m) in &other.0 {
            self.0.insert(format!("{prefix}.{name}"), m);
        }
    }

    /// Whether every value is a finite number.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.0.values().all(|m| m.value.is_finite())
    }

    /// The JSON object `{"name": {"value": v, "unit": "u"}, …}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, m)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form,
/// which never uses an exponent); non-finite values become `null`.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("null")
    }
}

/// A JSON string literal (escapes quotes, backslashes and controls).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
