//! # perfbench — the repository's end-to-end benchmark
//!
//! One command runs one workload of the paper-fleet audit through the
//! public entry points (`Study::build`, `Study::run_sharded(1, 1)`,
//! `report::render_*`, `ops::study_metrics`, `VerdictStore`), checks its
//! outputs, and prints every metric by name with its unit. See
//! `README.md` in this directory for the metrics, the workloads and the
//! layer map.

pub mod layers;
pub mod measure;
pub mod sys;
pub mod workload;

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("honest_unaccused_ratio", "ratio"),
    ("credible_precision", "ratio"),
    ("truth_coverage", "ratio"),
    ("measured_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with their units. The `wall.*`
/// times are the audit, publish and reopen steps end to end: on a shared
/// box they drift too much from run to run to carry a regression bound
/// (see README.md), so they are reported here, next to their layers.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall.audit_s", "s"),
    ("wall.publish_s", "s"),
    ("wall.reopen_s", "s"),
    ("worldmap.build_s", "s"),
    ("netsim.build_s", "s"),
    ("atlas.place_s", "s"),
    ("atlas.calibrate_s", "s"),
    ("providers.deploy_s", "s"),
    ("setup.rss_mb", "MB"),
    ("netsim.tunnel_probe_s", "s"),
    ("netsim.landmark_probe_s", "s"),
    ("netsim.probes", "count"),
    ("netsim.probe_timeouts", "count"),
    ("geoloc.eta_s", "s"),
    ("geoloc.reliability_s", "s"),
    ("geoloc.retries", "count"),
    ("geoloc.fallbacks", "count"),
    ("geoloc.twophase_s", "s"),
    ("geoloc.useful_ratio", "ratio"),
    ("geoloc.cbgpp_fit_s", "s"),
    ("geoloc.raster_s", "s"),
    ("geoloc.intersect_s", "s"),
    ("geoloc.cache_lookup_s", "s"),
    ("geoloc.cache_hit_ratio", "ratio"),
    ("geoloc.assess_s", "s"),
    ("vpnstudy.orchestration_s", "s"),
    ("other_s", "s"),
    ("obs.trace_jsonl_s", "s"),
    ("obs.trace_mb", "MB"),
    ("obs.openmetrics_s", "s"),
    ("vpnstudy.report_s", "s"),
    ("store.append_s", "s"),
    ("store.mb", "MB"),
    ("store.open_s", "s"),
    ("store.query_s", "s"),
    ("trace_overhead_s", "s"),
    ("truth.honest_false_accused", "count"),
    ("truth.dishonest_credible", "count"),
    ("truth.unmeasured_ratio", "ratio"),
    ("machine.calib_s", "s"),
];

/// True when `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `values` (sorts in place; the mean of the middle pair for
/// an even count). Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Output checks of one run. A run with any failed check prints no
/// result and exits non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    failed: Vec<String>,
    passed: usize,
}

impl Checks {
    /// Record one check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(what());
        }
    }

    /// Failed checks, in order.
    pub fn failures(&self) -> &[String] {
        &self.failed
    }

    /// Checks that passed.
    pub fn passed(&self) -> usize {
        self.passed
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
///
/// `expected` is [`END_TO_END`] or [`PER_LAYER`]; a metric missing from
/// `values`, an extra one, or a non-finite value is an error.
pub fn result_json(
    expected: &[(&str, &str)],
    values: &[(&str, f64)],
    attempted: usize,
    failed: usize,
) -> Result<String, String> {
    if values.len() != expected.len() {
        return Err(format!(
            "{} metrics measured, {} expected",
            values.len(),
            expected.len()
        ));
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in expected.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}
