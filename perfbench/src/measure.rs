//! The timed steps of a run, each around public entry points only, and
//! the output checks that go with them.

use crate::workload::Workload;
use crate::Checks;
use atlas::{CalibrationDb, Constellation};
use geokit::GeoGrid;
use geoloc::assess::Assessment;
use netsim::{FilterPolicy, NodeId, WorldNet, WorldNetConfig};
use obs::Level;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use vpnstudy::report::{self, tally_records};
use vpnstudy::{ops, ProviderSet, Study, StudyConfig, StudyResults, VerdictStore};
use worldmap::market::MarketSurvey;
use worldmap::{DataCenterRegistry, WorldAtlas};

/// Daily epochs the publish step appends to a fresh store.
pub const EPOCHS: u64 = 30;
/// Store clock of the first epoch, ms.
pub const EPOCH0_MS: u64 = 1_700_000_000_000;
/// One day, ms: the spacing of the epochs.
pub const DAY_MS: u64 = 86_400_000;
/// Revalidation TTL of the query step.
pub const TTL_MS: u64 = 7 * DAY_MS;
/// Query clock: ten days after the last epoch, so every verdict is stale.
pub const QUERY_NOW_MS: u64 = EPOCH0_MS + (EPOCHS - 1 + 10) * DAY_MS;

/// Run `f` and return its value with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// Names of the set-up steps [`split_setup`] times, in call order.
pub const SETUP_STEPS: [&str; 5] = [
    "worldmap.build_s",
    "netsim.build_s",
    "atlas.place_s",
    "atlas.calibrate_s",
    "providers.deploy_s",
];

/// What a split set-up produced that `Study::build` must reproduce.
pub struct SetupParts {
    /// The deployed fleet.
    pub providers: ProviderSet,
    /// The measurement client.
    pub client: NodeId,
}

/// `Study::build`'s public steps, called in its order and timed one by
/// one (seconds, in [`SETUP_STEPS`] order).
pub fn split_setup(config: &StudyConfig) -> ([f64; 5], SetupParts) {
    let mut secs = [0.0; 5];
    let ((atlas, survey), s) = timed(|| {
        let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(config.grid_resolution_deg)));
        let registry = DataCenterRegistry::from_atlas(&atlas);
        // The same seed salt as `Study::build`; `check_parts` catches drift.
        let survey = MarketSurvey::generate(&atlas, config.seed ^ 0x5a1e5);
        black_box(registry);
        (atlas, survey)
    });
    secs[0] = s;
    let (mut world, s) = timed(|| {
        WorldNet::build(
            Arc::clone(&atlas),
            WorldNetConfig {
                seed: config.seed,
                ..WorldNetConfig::default()
            },
        )
    });
    secs[1] = s;
    let (constellation, s) = timed(|| Constellation::place(&mut world, &config.constellation));
    secs[2] = s;
    let (calibration, s) = timed(|| {
        CalibrationDb::collect(
            world.network_mut(),
            &constellation,
            config.calibration_pings,
        )
    });
    secs[3] = s;
    black_box(calibration);
    let ((providers, client), s) = timed(|| {
        let providers = ProviderSet::deploy(&mut world, &survey, config);
        let client = world.attach_host(config.client_location, FilterPolicy::default());
        (providers, client)
    });
    secs[4] = s;
    (secs, SetupParts { providers, client })
}

/// Check that a split set-up reproduced `Study::build`'s fleet and client.
pub fn check_parts(checks: &mut Checks, parts: &SetupParts, study: &Study) {
    checks.check(parts.client == study.client, || {
        format!(
            "split set-up client {} != Study::build client {}",
            parts.client, study.client
        )
    });
    let (a, b) = (&parts.providers.proxies, &study.providers.proxies);
    let same = a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.node == y.node
                && x.provider == y.provider
                && x.claimed == y.claimed
                && x.true_country == y.true_country
                && x.true_location.lat().to_bits() == y.true_location.lat().to_bits()
                && x.true_location.lon().to_bits() == y.true_location.lon().to_bits()
                && x.group_key == y.group_key
                && x.pingable == y.pingable
                && x.gateway == y.gateway
        });
    checks.check(same, || {
        "split set-up fleet differs from Study::build's".into()
    });
}

/// Build a workload's study (untimed) with its faults injected.
pub fn build(workload: Workload, seed: u64, level: Level) -> Study {
    let mut study = Study::build(workload.config(seed, level));
    workload.apply_faults(&mut study, seed);
    study
}

/// The audit, pinned to one shard on one worker so `PV_SHARDS` and
/// `PV_THREADS` cannot change a workload.
pub fn audit(study: &mut Study) -> (StudyResults, f64) {
    timed(|| study.run_sharded(1, 1))
}

/// Check that every deployed proxy got exactly one outcome.
pub fn check_audit(checks: &mut Checks, study: &Study, results: &StudyResults) {
    let fleet = study.providers.proxies.len();
    let done = results.records.len() + results.failures.len();
    checks.check(done == fleet, || {
        format!("records + failures = {done}, fleet = {fleet}")
    });
    checks.check(results.unmeasured == results.failures.len(), || {
        format!(
            "unmeasured = {}, failures = {}",
            results.unmeasured,
            results.failures.len()
        )
    });
    let mut nodes: Vec<NodeId> = results
        .records
        .iter()
        .map(|r| r.proxy.node)
        .chain(results.failures.iter().map(|f| f.proxy.node))
        .collect();
    nodes.sort_unstable();
    let mut want: Vec<NodeId> = study.providers.proxies.iter().map(|p| p.node).collect();
    want.sort_unstable();
    checks.check(nodes == want, || {
        "audited proxies differ from the fleet".into()
    });
}

/// Verdicts scored against the simulator's ground truth. The pipeline
/// never reads `true_country`; only this scoring does.
#[derive(Debug, Clone, PartialEq)]
pub struct Truth {
    /// Raw (credible, uncertain, false) tally.
    pub raw: (usize, usize, usize),
    /// Refined (credible, uncertain, false) tally.
    pub refined: (usize, usize, usize),
    /// Measured proxies whose claimed country is the true one.
    pub honest: usize,
    /// Refined `False` where the claimed country is the true one.
    pub honest_false_accused: usize,
    /// Refined `Credible` where the claimed country is not the true one.
    pub dishonest_credible: usize,
    /// `StudyResults::coverage_of_truth()`.
    pub coverage: f64,
    /// Proxies with a verdict.
    pub measured: usize,
    /// Proxies without one.
    pub unmeasured: usize,
}

impl Truth {
    /// Score a finished audit.
    pub fn of(results: &StudyResults) -> Truth {
        let mut honest_count = 0;
        let mut honest_false_accused = 0;
        let mut dishonest_credible = 0;
        for r in &results.records {
            let honest = r.proxy.claimed == r.proxy.true_country;
            honest_count += usize::from(honest);
            match r.refined.assessment {
                Assessment::False if honest => honest_false_accused += 1,
                Assessment::Credible if !honest => dishonest_credible += 1,
                _ => {}
            }
        }
        let refined = tally_records(results, true).three_way();
        Truth {
            raw: tally_records(results, false).three_way(),
            refined,
            honest: honest_count,
            honest_false_accused,
            dishonest_credible,
            coverage: results.coverage_of_truth(),
            measured: results.records.len(),
            unmeasured: results.failures.len(),
        }
    }

    /// Share of refined `Credible` verdicts given to honest proxies.
    pub fn credible_precision(&self) -> f64 {
        let credible = self.refined.0;
        if credible == 0 {
            return 0.0;
        }
        (credible - self.dishonest_credible) as f64 / credible as f64
    }

    /// Share of measured honest proxies whose refined verdict is not
    /// `False`: one minus the false-accusation rate.
    pub fn honest_unaccused_ratio(&self) -> f64 {
        if self.honest == 0 {
            return 0.0;
        }
        (self.honest - self.honest_false_accused) as f64 / self.honest as f64
    }

    /// Deployed proxies.
    pub fn fleet(&self) -> usize {
        self.measured + self.unmeasured
    }
}

/// Wall time of each publish step, seconds, and what it wrote.
#[derive(Debug, Clone, Copy, Default)]
pub struct Publish {
    /// Report: overall, reliability, Fig. 21 and the ops dashboard.
    pub report_s: f64,
    /// Event trace as JSONL.
    pub trace_s: f64,
    /// `ops::study_metrics` plus the OpenMetrics rendering.
    pub openmetrics_s: f64,
    /// [`EPOCHS`] appends to a fresh store.
    pub append_s: f64,
    /// Trace JSONL size, bytes.
    pub trace_bytes: usize,
    /// Store file size, bytes.
    pub store_bytes: u64,
}

impl Publish {
    /// The whole publish step.
    pub fn total_s(&self) -> f64 {
        self.report_s + self.trace_s + self.openmetrics_s + self.append_s
    }
}

/// Publish a finished audit: OpenMetrics exposition, report, trace JSONL,
/// then [`EPOCHS`] daily epochs into a fresh store at `store_path`.
pub fn publish(
    checks: &mut Checks,
    study: &Study,
    results: &StudyResults,
    store_path: &Path,
) -> std::io::Result<Publish> {
    let mut p = Publish::default();
    let ((set, exposition), s) = timed(|| {
        let set = ops::study_metrics(results);
        let text = set.as_ref().map(|s| s.render()).unwrap_or_default();
        (set, text)
    });
    p.openmetrics_s = s;
    let set = match set {
        Ok(set) => set,
        Err(e) => {
            checks.check(false, || format!("ops::study_metrics failed: {e}"));
            return Ok(p);
        }
    };
    match obs::export::parse_exposition(&exposition) {
        Ok(parsed) => {
            checks.check(parsed.render() == exposition, || {
                "OpenMetrics exposition does not round-trip".into()
            });
            checks.check(parsed.families.len() == set.family_names().len(), || {
                format!(
                    "exposition parsed {} families, rendered {}",
                    parsed.families.len(),
                    set.family_names().len()
                )
            });
        }
        Err(e) => checks.check(false, || {
            format!("OpenMetrics exposition does not parse: {e}")
        }),
    }
    let lint = set.lint_against_registry();
    checks.check(lint.is_empty(), || format!("exposition lint: {lint:?}"));

    let (report, s) = timed(|| {
        let alerts = ops::evaluate_slos(&set, None);
        let mut text = report::render_overall(study, results);
        text.push_str(&report::render_reliability(results));
        text.push_str(&report::render_fig21(study, results));
        text.push_str(&report::render_ops(results, &set, &alerts));
        text
    });
    p.report_s = s;
    checks.check(!report.is_empty(), || "empty report".into());

    let (trace, s) = timed(|| results.trace_jsonl());
    p.trace_s = s;
    p.trace_bytes = trace.len();
    let lines = trace.lines().count();
    let events = results.obs.events_len();
    checks.check(lines == events, || {
        format!("trace JSONL has {lines} lines for {events} recorded events")
    });
    drop(trace);

    let _ = std::fs::remove_file(store_path);
    let (appended, s) = timed(|| -> std::io::Result<()> {
        let mut store = VerdictStore::open(store_path)?;
        for day in 0..EPOCHS {
            store.append_epoch(results, EPOCH0_MS + day * DAY_MS)?;
        }
        Ok(())
    });
    appended?;
    p.append_s = s;
    p.store_bytes = std::fs::metadata(store_path)?.len();
    Ok(p)
}

/// Wall time of a cold reopen and of the query set, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reopen {
    /// `VerdictStore::open`: replay of the whole file.
    pub open_s: f64,
    /// Every proxy looked up, the revalidation queue, every provider
    /// trend and the per-country false rates.
    pub query_s: f64,
}

/// Reopen the store [`publish`] wrote, answer the query set, and check
/// the answers against the audit.
pub fn reopen(
    checks: &mut Checks,
    study: &Study,
    results: &StudyResults,
    store_path: &Path,
) -> std::io::Result<Reopen> {
    let nodes: Vec<NodeId> = study.providers.proxies.iter().map(|p| p.node).collect();
    let providers = study.providers.profiles.len();
    let (store, open_s) = timed(|| VerdictStore::open(store_path));
    let store = store?;
    let ((lookups, queue, trends, rates), query_s) = timed(|| {
        let lookups: Vec<_> = nodes
            .iter()
            .map(|&n| store.lookup(n, QUERY_NOW_MS, TTL_MS))
            .collect();
        let queue = store.revalidation_queue(QUERY_NOW_MS, TTL_MS);
        let trends: Vec<_> = (0..providers).map(|p| store.provider_trend(p)).collect();
        let rates = store.country_false_rates();
        (lookups, queue, trends, rates)
    });

    checks.check(store.epochs().len() == EPOCHS as usize, || {
        format!(
            "reopened store holds {} epochs, want {EPOCHS}",
            store.epochs().len()
        )
    });
    let last = EPOCHS - 1;
    let measured: std::collections::HashMap<NodeId, Assessment> = results
        .records
        .iter()
        .map(|r| (r.proxy.node, r.refined.assessment))
        .collect();
    let mut wrong = 0usize;
    for (node, answer) in nodes.iter().zip(&lookups) {
        let ok = match (measured.get(node), answer) {
            (Some(&want), Some(a)) => a.verdict.epoch == last && a.verdict.refined == want,
            (None, None) => true,
            _ => false,
        };
        wrong += usize::from(!ok);
    }
    checks.check(wrong == 0, || {
        format!("{wrong} lookups disagree with the last epoch's refined verdicts")
    });
    checks.check(queue.len() == results.records.len(), || {
        format!(
            "revalidation queue holds {}, want every measured proxy ({})",
            queue.len(),
            results.records.len()
        )
    });
    let last_epoch: usize = trends
        .iter()
        .map(|t| t.last().map_or(0, |(_, tally)| tally.total()))
        .sum();
    checks.check(
        trends.iter().all(|t| t.len() == EPOCHS as usize) && last_epoch == results.records.len(),
        || format!("provider trends cover {last_epoch} verdicts in the last epoch"),
    );
    let rated: usize = rates.iter().map(|(_, tally)| tally.total()).sum();
    checks.check(rated == EPOCHS as usize * results.records.len(), || {
        format!("country false rates cover {rated} verdicts")
    });
    Ok(Reopen { open_s, query_s })
}
