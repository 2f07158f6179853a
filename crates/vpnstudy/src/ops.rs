//! Operational telemetry for a finished study: the OpenMetrics
//! exposition and the SLO rules that `report::render_ops` /
//! `figures ops` surface and CI gates on.
//!
//! Everything here is *derived* — the recorder already holds the
//! counters, histograms and spans; this module maps them into
//! registered `pv_*` families ([`study_metrics`]), folds in the verdict
//! store's staleness picture ([`store_metrics`]), and judges the result
//! against the four rules of [`SLO_RULES`] ([`evaluate_slos`]).
//!
//! Compartments survive the mapping: a family registered as
//! deterministic in [`obs::registry`] carries only seed-pure values, so
//! [`obs::export::MetricSet::render_filtered`] over
//! [`obs::export::deterministic_family`] is byte-identical for any
//! `PV_THREADS` — that rendering is what `ci.sh` diffs.

use crate::audit::StudyResults;
use crate::store::{RevalidationPriority, VerdictStore};
use geoloc::assess::Assessment;
use obs::export::{recorder_metrics, MetricSet};
use obs::registry;
use std::fmt::Write as _;

/// What makes an [`SloRule`] fire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every sample of the family strictly above this threshold.
    Above(f64),
    /// Every sample (one per value of the label `per`) that reached
    /// `factor` × the same-labelled sample of the prior epoch. Silent
    /// without a prior epoch (a first run is not a regression); a prior
    /// epoch that lacks the sample counts as 0, so any positive value
    /// fires.
    Spike {
        /// The label the family's samples fan out over.
        per: &'static str,
        /// Fire at `current ≥ factor × prior`.
        factor: f64,
    },
}

/// One SLO rule: a registered metric family and the trigger that
/// judges each of its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloRule {
    /// Rule name, carried by every alert it raises.
    pub name: &'static str,
    /// One-line reason, printed above the rule in the ruleset.
    pub help: &'static str,
    /// The family the rule reads.
    pub family: &'static str,
    /// When it fires.
    pub trigger: Trigger,
}

/// The SLO rules. Thresholds are the study's stated operating envelope:
/// more than 30 % probe loss, a pile of landmarks whose retry budget
/// ran dry, a provider's suspicious-verdict rate doubling against the
/// prior epoch, or any urgent verdict sitting stale in the store.
pub const SLO_RULES: [SloRule; 4] = [
    SloRule {
        name: "probe_loss",
        help: "Fraction of sent probes that never completed.",
        family: "pv_probe_loss_rate",
        trigger: Trigger::Above(0.3),
    },
    SloRule {
        name: "retry_exhaustion",
        help: "Landmarks abandoned after the full retry budget.",
        family: "pv_retry_exhaustion_total",
        trigger: Trigger::Above(10.0),
    },
    SloRule {
        name: "suspicious_spike",
        help: "Per-provider False/Suspicious rate doubling vs the prior store epoch.",
        family: "pv_suspicious_rate",
        trigger: Trigger::Spike {
            per: "provider",
            factor: 2.0,
        },
    },
    SloRule {
        name: "stale_urgent",
        help: "Refuted/withheld verdicts overdue for revalidation.",
        family: "pv_stale_urgent_verdicts",
        trigger: Trigger::Above(0.0),
    },
];

/// [`SLO_RULES`] as text: each rule's help as a `#` line, then the rule
/// itself (`probe_loss: pv_probe_loss_rate > 0.3`).
pub fn render_rules() -> String {
    let mut out = String::new();
    for rule in &SLO_RULES {
        let _ = writeln!(out, "# {}", rule.help);
        let _ = match rule.trigger {
            Trigger::Above(value) => writeln!(out, "{}: {} > {value}", rule.name, rule.family),
            Trigger::Spike { per, factor } => writeln!(
                out,
                "{}: {}{{{per}}} spikes x{factor} vs prior",
                rule.name, rule.family
            ),
        };
    }
    out
}

/// One fired SLO alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The rule that fired.
    pub rule: &'static str,
    /// The fully-labelled sample that breached, e.g.
    /// `pv_suspicious_rate{provider="3"}`.
    pub metric: String,
    /// What was observed against what, one line.
    pub detail: String,
}

impl Alert {
    /// Render as one report line.
    pub fn render_line(&self) -> String {
        format!("ALERT {:<24} {}", self.rule, self.detail)
    }
}

/// Evaluate [`SLO_RULES`] over a study's metrics, with an optional
/// prior-epoch metric set for the spike rule. Alerts come in rule
/// order, then sample order; a family absent from `current` is quiet.
pub fn evaluate_slos(current: &MetricSet, prior: Option<&MetricSet>) -> Vec<Alert> {
    let mut alerts = Vec::new();
    for rule in &SLO_RULES {
        for (labels, observed) in current.samples(rule.family) {
            let metric = sample_name(rule.family, labels);
            let detail = match rule.trigger {
                Trigger::Above(value) if observed > value => {
                    format!("{metric} = {observed} > {value}")
                }
                Trigger::Above(_) => continue,
                Trigger::Spike { factor, .. } => {
                    let Some(prior) = prior else { continue };
                    let label_refs: Vec<(&str, &str)> = labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    let before = prior.value(rule.family, &label_refs).unwrap_or(0.0);
                    let fires = if before <= 0.0 {
                        observed > 0.0
                    } else {
                        observed >= factor * before
                    };
                    if !fires {
                        continue;
                    }
                    format!("{metric} = {observed} spiked x{factor} vs prior {before}")
                }
            };
            alerts.push(Alert {
                rule: rule.name,
                metric,
                detail,
            });
        }
    }
    alerts
}

/// `family{k="v",...}`, or the bare family for an unlabelled sample.
fn sample_name(family: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{family}{{{}}}", pairs.join(","))
}

/// Set a gauge whose family is registered in [`obs::registry`], pulling
/// the `# HELP` text from the registry so exposition and registry can
/// never drift apart.
fn gauge(set: &mut MetricSet, family: &str, labels: &[(&str, &str)], value: f64) {
    let help = registry::family(family)
        .unwrap_or_else(|| panic!("gauge {family:?} not in obs::registry"))
        .help;
    set.set_gauge(family, help, labels, value);
}

/// Per-provider fraction of audited proxies whose refined verdict was
/// withheld or refuted (`False` or `Suspicious`), provider-indexed.
/// This is the quantity the `suspicious_spike` rule watches.
pub fn suspicious_rates(results: &StudyResults) -> Vec<(usize, f64)> {
    let mut per: Vec<(usize, usize)> = Vec::new(); // (flagged, total) by provider
    for r in &results.records {
        if per.len() <= r.proxy.provider {
            per.resize(r.proxy.provider + 1, (0, 0));
        }
        let e = &mut per[r.proxy.provider];
        e.1 += 1;
        if matches!(
            r.refined.assessment,
            Assessment::False | Assessment::Suspicious
        ) {
            e.0 += 1;
        }
    }
    per.into_iter()
        .enumerate()
        .filter(|(_, (_, total))| *total > 0)
        .map(|(p, (flagged, total))| (p, flagged as f64 / total as f64))
        .collect()
}

/// Build the full metric set for a finished study: every recorder
/// counter/histogram/span family via [`obs::export::recorder_metrics`],
/// plus the derived gauges — probe loss rate, per-provider suspicious
/// rates, proxies audited (deterministic compartment), and the worker
/// count and elapsed time (wall compartment).
pub fn study_metrics(results: &StudyResults) -> Result<MetricSet, String> {
    let mut set = recorder_metrics(&results.obs)?;

    // Deterministic derived gauges.
    let sent = results.obs.counter("net.probe.sent");
    let completed = results.obs.counter("net.probe.completed");
    let loss = if sent == 0 {
        0.0
    } else {
        sent.saturating_sub(completed) as f64 / sent as f64
    };
    gauge(&mut set, "pv_probe_loss_rate", &[], loss);
    for (provider, rate) in suspicious_rates(results) {
        let label = provider.to_string();
        gauge(
            &mut set,
            "pv_suspicious_rate",
            &[("provider", label.as_str())],
            rate,
        );
    }
    let done = (results.records.len() + results.failures.len()) as f64;
    gauge(&mut set, "pv_progress_proxies_done", &[], done);

    // Wall-compartment gauges: run shape and timing.
    gauge(&mut set, "pv_audit_threads", &[], results.threads as f64);
    gauge(&mut set, "pv_audit_elapsed_ms", &[], results.elapsed_ms as f64);
    Ok(set)
}

/// Fold the verdict store's health into a metric set: recorded epochs,
/// the bytes of a torn trailing epoch dropped on open, and the count of
/// urgent-priority stale verdicts under the caller's clock and TTL (the
/// `stale_urgent` rule's input).
pub fn store_metrics(set: &mut MetricSet, store: &VerdictStore, now_ms: u64, ttl_ms: u64) {
    gauge(set, "pv_store_epochs", &[], store.epochs().len() as f64);
    gauge(set, "pv_store_dropped_bytes", &[], store.dropped_bytes() as f64);
    let urgent = store
        .revalidation_queue(now_ms, ttl_ms)
        .iter()
        .filter(|(_, p)| *p == RevalidationPriority::Urgent)
        .count();
    gauge(set, "pv_stale_urgent_verdicts", &[], urgent as f64);
}

/// Per-provider suspicious rates of one stored epoch, rendered as a
/// prior-epoch metric set for the `suspicious_spike` rule. `None` when
/// the store has no such epoch.
pub fn epoch_suspicious_metrics(store: &VerdictStore, epoch: u64) -> Option<MetricSet> {
    if epoch as usize >= store.epochs().len() {
        return None;
    }
    let mut per: Vec<(usize, usize)> = Vec::new();
    for v in store.verdicts().iter().filter(|v| v.epoch == epoch) {
        if per.len() <= v.provider {
            per.resize(v.provider + 1, (0, 0));
        }
        let e = &mut per[v.provider];
        e.1 += 1;
        if matches!(v.refined, Assessment::False | Assessment::Suspicious) {
            e.0 += 1;
        }
    }
    let mut set = MetricSet::new();
    for (provider, (flagged, total)) in per.into_iter().enumerate() {
        if total == 0 {
            continue;
        }
        let label = provider.to_string();
        gauge(
            &mut set,
            "pv_suspicious_rate",
            &[("provider", label.as_str())],
            flagged as f64 / total as f64,
        );
    }
    Some(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Study;
    use crate::config::StudyConfig;
    use obs::export::parse_exposition;
    use std::sync::OnceLock;

    fn metrics() -> &'static (StudyResults, MetricSet) {
        static M: OnceLock<(StudyResults, MetricSet)> = OnceLock::new();
        M.get_or_init(|| {
            let mut cfg = StudyConfig::small(41);
            cfg.total_proxies = 24;
            let mut study = Study::build(cfg);
            let results = study.run_with_threads(2);
            let set = study_metrics(&results).expect("every emitted metric is registered");
            (results, set)
        })
    }

    #[test]
    fn study_metrics_render_and_round_trip() {
        let (_, set) = metrics();
        assert!(set.lint_against_registry().is_empty());
        let text = set.render();
        let parsed = parse_exposition(&text).expect("exposition parses");
        assert_eq!(parsed.render(), text, "round-trip must be byte-exact");
        assert!(parsed.family("pv_probe_total").is_some());
        assert!(parsed.value("pv_progress_proxies_done", &[]).unwrap() > 0.0);
        assert_eq!(parsed.value("pv_audit_threads", &[]), Some(2.0));
    }

    #[test]
    fn worker_count_is_exported_with_recording_off() {
        let mut cfg = StudyConfig::small(41);
        cfg.total_proxies = 12;
        cfg.obs_level = obs::Level::Off;
        let mut study = Study::build(cfg);
        let results = study.run_with_threads(2);
        let set = study_metrics(&results).expect("exports cleanly at Off");
        assert_eq!(set.value("pv_audit_threads", &[]), Some(2.0));
    }

    #[test]
    fn loss_rate_and_suspicious_rates_are_probabilities() {
        let (results, set) = metrics();
        let loss = set.value("pv_probe_loss_rate", &[]).unwrap();
        assert!((0.0..=1.0).contains(&loss));
        for (p, rate) in suspicious_rates(results) {
            assert!((0.0..=1.0).contains(&rate), "provider {p} rate {rate}");
        }
    }

    #[test]
    fn ruleset_renders_the_four_rules() {
        assert_eq!(
            render_rules(),
            "\
# Fraction of sent probes that never completed.
probe_loss: pv_probe_loss_rate > 0.3
# Landmarks abandoned after the full retry budget.
retry_exhaustion: pv_retry_exhaustion_total > 10
# Per-provider False/Suspicious rate doubling vs the prior store epoch.
suspicious_spike: pv_suspicious_rate{provider} spikes x2 vs prior
# Refuted/withheld verdicts overdue for revalidation.
stale_urgent: pv_stale_urgent_verdicts > 0
"
        );
        for rule in &SLO_RULES {
            assert!(registry::family(rule.family).is_some(), "{}", rule.family);
        }
    }

    #[test]
    fn slos_are_quiet_on_a_healthy_run() {
        let (_, set) = metrics();
        // A clean small study must not trip loss/exhaustion/staleness;
        // the spike rule has no prior here and suspicious defaults 0.
        let alerts = evaluate_slos(set, None);
        let loud: Vec<&str> = alerts.iter().map(|a| a.rule).collect();
        assert!(
            !loud.contains(&"probe_loss") && !loud.contains(&"stale_urgent"),
            "healthy run tripped: {loud:?}"
        );
    }

    #[allow(clippy::type_complexity)]
    fn set(samples: &[(&str, &[(&str, &str)], f64)]) -> MetricSet {
        let mut s = MetricSet::new();
        for (name, labels, v) in samples {
            s.set_gauge(name, "", labels, *v);
        }
        s
    }

    #[test]
    fn a_threshold_rule_fires_once_per_matching_sample() {
        let current = set(&[
            ("pv_probe_loss_rate", &[("shard", "a")], 0.4),
            ("pv_probe_loss_rate", &[("shard", "b")], 0.1),
            ("pv_probe_loss_rate", &[("shard", "c")], 0.9),
            ("pv_stale_urgent_verdicts", &[], 0.0),
        ]);
        let alerts = evaluate_slos(&current, None);
        assert_eq!(alerts.len(), 2, "{alerts:?}");
        assert!(alerts.iter().all(|a| a.rule == "probe_loss"));
        assert_eq!(alerts[0].metric, "pv_probe_loss_rate{shard=\"a\"}");
        assert_eq!(alerts[1].metric, "pv_probe_loss_rate{shard=\"c\"}");
        assert_eq!(
            alerts[0].render_line(),
            "ALERT probe_loss               pv_probe_loss_rate{shard=\"a\"} = 0.4 > 0.3"
        );
    }

    #[test]
    fn a_spike_fires_against_a_calmer_prior() {
        let prior = set(&[
            ("pv_suspicious_rate", &[("provider", "alpha")], 0.2),
            ("pv_suspicious_rate", &[("provider", "beta")], 0.0),
        ]);
        let current = set(&[
            ("pv_suspicious_rate", &[("provider", "alpha")], 0.5),
            ("pv_suspicious_rate", &[("provider", "beta")], 0.1),
            ("pv_suspicious_rate", &[("provider", "gamma")], 0.0),
        ]);
        // alpha: 0.5 ≥ 2×0.2 fires; beta: prior 0 and current > 0 fires;
        // gamma: current 0 stays quiet.
        let alerts = evaluate_slos(&current, Some(&prior));
        let fired: Vec<&str> = alerts.iter().map(|a| a.metric.as_str()).collect();
        assert_eq!(
            fired,
            [
                "pv_suspicious_rate{provider=\"alpha\"}",
                "pv_suspicious_rate{provider=\"beta\"}",
            ]
        );
        assert!(alerts.iter().all(|a| a.rule == "suspicious_spike"));
        assert_eq!(
            alerts[0].detail,
            "pv_suspicious_rate{provider=\"alpha\"} = 0.5 spiked x2 vs prior 0.2"
        );
    }

    #[test]
    fn a_sample_missing_from_the_prior_counts_as_zero() {
        let prior = set(&[("pv_suspicious_rate", &[("provider", "alpha")], 0.4)]);
        let current = set(&[
            ("pv_suspicious_rate", &[("provider", "new")], 0.01),
            ("pv_suspicious_rate", &[("provider", "idle")], 0.0),
        ]);
        let alerts = evaluate_slos(&current, Some(&prior));
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].metric, "pv_suspicious_rate{provider=\"new\"}");
    }

    #[test]
    fn spikes_stay_silent_without_a_prior_epoch() {
        let current = set(&[("pv_suspicious_rate", &[("provider", "alpha")], 0.9)]);
        assert!(evaluate_slos(&current, None).is_empty());
    }

    #[test]
    fn below_the_factor_nothing_fires() {
        let prior = set(&[("pv_suspicious_rate", &[("provider", "alpha")], 0.2)]);
        let calm = set(&[("pv_suspicious_rate", &[("provider", "alpha")], 0.3)]);
        assert!(evaluate_slos(&calm, Some(&prior)).is_empty());
    }

    #[test]
    fn a_missing_family_is_quiet() {
        let empty = MetricSet::new();
        assert!(evaluate_slos(&empty, Some(&empty)).is_empty());
        assert!(evaluate_slos(&empty, None).is_empty());
    }

    #[test]
    fn store_metrics_count_urgent_staleness() {
        let (results, _) = metrics();
        let dir = std::env::temp_dir().join(format!("pv-ops-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = VerdictStore::open(dir.join("v.jsonl")).unwrap();
        store.append_epoch(results, 1_000).unwrap();
        let mut set = MetricSet::new();
        // Everything fresh: no urgent staleness.
        store_metrics(&mut set, &store, 1_500, 10_000);
        assert_eq!(set.value("pv_stale_urgent_verdicts", &[]), Some(0.0));
        assert_eq!(set.value("pv_store_epochs", &[]), Some(1.0));
        assert_eq!(set.value("pv_store_dropped_bytes", &[]), Some(0.0));
        // Far past the TTL: every refuted/withheld verdict turns urgent,
        // and the stale_urgent rule fires iff any exist.
        store_metrics(&mut set, &store, 10_000_000, 10);
        let urgent = set.value("pv_stale_urgent_verdicts", &[]).unwrap();
        let refuted = results
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r.refined.assessment,
                    Assessment::False | Assessment::Suspicious
                )
            })
            .count();
        assert_eq!(urgent as usize, refuted);
        let alerts = evaluate_slos(&set, None);
        assert_eq!(
            alerts.iter().any(|a| a.rule == "stale_urgent"),
            refuted > 0
        );
    }

    #[test]
    fn store_metrics_report_a_torn_tail() {
        let (results, _) = metrics();
        let dir = std::env::temp_dir().join(format!("pv-ops-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.jsonl");
        let mut store = VerdictStore::open(&path).unwrap();
        store.append_epoch(results, 1_000).unwrap();
        let first = std::fs::metadata(&path).unwrap().len();
        store.append_epoch(results, 2_000).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut the second epoch in half, as a crash mid-append would.
        let cut = (first as usize + full.len()) / 2;
        std::fs::write(&path, &full[..cut]).unwrap();
        let reopened = VerdictStore::open(&path).unwrap();
        let mut set = MetricSet::new();
        store_metrics(&mut set, &reopened, 2_000, 10_000);
        assert_eq!(set.value("pv_store_epochs", &[]), Some(1.0));
        let dropped = set.value("pv_store_dropped_bytes", &[]).unwrap();
        assert!(dropped > 0.0);
        assert_eq!(dropped as usize, cut - first as usize);
    }

    #[test]
    fn suspicious_spike_fires_against_a_calmer_prior_epoch() {
        let (results, set) = metrics();
        if suspicious_rates(results).iter().all(|(_, r)| *r == 0.0) {
            return; // nothing to spike against in this seed
        }
        // Prior epoch where every provider was clean: any nonzero
        // current rate is a spike (prior 0 → fires iff current > 0).
        let mut prior = MetricSet::new();
        for (p, _) in suspicious_rates(results) {
            let label = p.to_string();
            gauge(
                &mut prior,
                "pv_suspicious_rate",
                &[("provider", label.as_str())],
                0.0,
            );
        }
        let alerts = evaluate_slos(set, Some(&prior));
        assert!(alerts.iter().any(|a| a.rule == "suspicious_spike"));
    }

    #[test]
    fn epoch_suspicious_metrics_read_back_the_store() {
        let (results, _) = metrics();
        let dir = std::env::temp_dir().join(format!("pv-ops-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = VerdictStore::open(dir.join("v.jsonl")).unwrap();
        store.append_epoch(results, 1_000).unwrap();
        let prior = epoch_suspicious_metrics(&store, 0).unwrap();
        for (p, rate) in suspicious_rates(results) {
            let label = p.to_string();
            let got = prior
                .value("pv_suspicious_rate", &[("provider", label.as_str())])
                .unwrap();
            assert!((got - rate).abs() < 1e-12);
        }
        assert!(epoch_suspicious_metrics(&store, 5).is_none());
    }
}
