//! The full §6 audit: build the world, deploy the providers, measure
//! every proxy through its tunnel, locate it with CBG++, and judge every
//! country claim.

use crate::config::StudyConfig;
use crate::providers::{DeployedProxy, ProviderSet};
use atlas::{CalibrationDb, Constellation, LandmarkServer};
use geokit::{GeoGrid, GeoPoint, Region};
use geoloc::algorithms::CbgPlusPlus;
use geoloc::assess::{assess_claim, Assessment, ClaimVerdict, ContinentVerdict};
use geoloc::defense::{run_defense, DefenseReport, TunnelPings};
use geoloc::disambiguate::{by_data_centers, by_touched_sets, resolve};
use geoloc::iclab::{IclabChecker, IclabVerdict};
use geoloc::proxy::{estimate_eta, min_of, EtaEstimate, ProxyContext, DEFAULT_ETA};
use geoloc::reliability::{MeasurementDiagnostics, ProbeScheduler};
use geoloc::twophase::{
    make_observation, run_two_phase_reliable, MeasurementStatus, ProxyProber, RttProber,
};
use netsim::{FilterPolicy, Network, NodeId, SimDuration, WorldNet, WorldNetConfig};
use obs::Recorder;
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use worldmap::market::MarketSurvey;
use worldmap::{Continent, CountryId, DataCenterRegistry, WorldAtlas};

/// Everything the audit measured and concluded about one proxy.
#[derive(Debug)]
pub struct ProxyRecord {
    /// The deployed proxy (ground truth included for evaluation; the
    /// measurement pipeline never reads it).
    pub proxy: DeployedProxy,
    /// Continent inferred in phase 1.
    pub continent_guess: Continent,
    /// The raw CBG++ verdict on the provider's claim.
    pub verdict: ClaimVerdict,
    /// The verdict after data-center and co-location disambiguation.
    pub refined: ClaimVerdict,
    /// Data-center resolution of the prediction region, if unique.
    pub dc_country: Option<CountryId>,
    /// Prediction-region area, km².
    pub region_area_km2: f64,
    /// Prediction-region centroid.
    pub centroid: Option<GeoPoint>,
    /// Lightweight copies of the observations: (landmark, one-way ms).
    pub observations: Vec<(GeoPoint, f64)>,
    /// Minimum tunnel self-ping, ms.
    pub self_ping_ms: f64,
    /// ICLab checker verdict for the claim.
    pub iclab: IclabVerdict,
    /// What the measurement cost: attempts, retries, timeouts, dead
    /// landmarks, quorum degradation.
    pub diagnostics: MeasurementDiagnostics,
    /// What the Byzantine-defense layer found, when the study ran with
    /// [`DefenseConfig::enabled`](geoloc::DefenseConfig). `None` when
    /// the defense is off (the default).
    pub defense: Option<DefenseReport>,
}

/// Why a proxy produced no [`ProxyRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureFailure {
    /// Nothing answered: no tunnel, or no landmark at all.
    Unmeasurable,
    /// Some landmarks answered, but fewer than the configured minimum —
    /// too thin to back a verdict.
    InsufficientData,
}

/// A proxy the audit could not credibly measure, with the evidence of
/// how hard it tried. The paper's pipeline must never *silently* shrink
/// its denominator: every input proxy ends up either in `records` or
/// here.
#[derive(Debug)]
pub struct UnmeasuredProxy {
    /// The proxy in question.
    pub proxy: DeployedProxy,
    /// Which way the measurement fell short.
    pub failure: MeasureFailure,
    /// What was attempted before giving up.
    pub diagnostics: MeasurementDiagnostics,
}

/// The built study, ready to run.
pub struct Study {
    /// Configuration it was built from.
    pub config: StudyConfig,
    /// The simulated world (network + atlas).
    pub world: WorldNet,
    /// The landmark constellation.
    pub constellation: Constellation,
    /// Anchor-mesh calibration.
    pub calibration: CalibrationDb,
    /// The provider fleet.
    pub providers: ProviderSet,
    /// Data-center registry for disambiguation.
    pub registry: DataCenterRegistry,
    /// The market survey (Fig. 14 context).
    pub survey: MarketSurvey,
    /// The measurement client (Frankfurt).
    pub client: NodeId,
    /// Plausibility mask for predictions.
    pub mask: Region,
}

// Read-only fixtures share one built study across test threads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Study>();
};

/// Results of a full audit run.
pub struct StudyResults {
    /// One record per successfully measured proxy.
    pub records: Vec<ProxyRecord>,
    /// The η estimate used for tunnel-leg correction.
    pub eta: Option<EtaEstimate>,
    /// Proxies that could not be measured, with explicit verdicts and
    /// diagnostics (`records.len() + failures.len()` equals the number
    /// of proxies deployed).
    pub failures: Vec<UnmeasuredProxy>,
    /// Count of unmeasured proxies (`failures.len()`, kept as a plain
    /// number for quick summaries).
    pub unmeasured: usize,
    /// The study's observability recorder: per-proxy event buffers
    /// merged in proxy order (deterministic for any thread count), plus
    /// the wall-clock profile tree that must never enter a determinism
    /// diff.
    pub obs: Recorder,
    /// Worker count the audit actually ran with.
    pub threads: usize,
    /// Wall-clock milliseconds the audit took, from η estimation until
    /// the last proxy's trace is absorbed. Never part of a determinism
    /// diff.
    pub elapsed_ms: u64,
}

/// The shape [`StudyResults::cache_stats`] returns: always zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

impl Study {
    /// Build the world, constellation, calibration, and provider fleet.
    pub fn build(config: StudyConfig) -> Study {
        let grid = GeoGrid::new(config.grid_resolution_deg);
        let atlas = Arc::new(WorldAtlas::new(grid));
        let registry = DataCenterRegistry::from_atlas(&atlas);
        let survey = MarketSurvey::generate(&atlas, config.seed ^ 0x5a1e5);
        let mut world = WorldNet::build(
            Arc::clone(&atlas),
            WorldNetConfig {
                seed: config.seed,
                ..WorldNetConfig::default()
            },
        );
        let constellation = Constellation::place(&mut world, &config.constellation);
        let calibration =
            CalibrationDb::collect(world.network_mut(), &constellation, config.calibration_pings);
        let providers = ProviderSet::deploy(&mut world, &survey, &config);
        let client = world.attach_host(config.client_location, FilterPolicy::default());
        let mask = atlas.plausibility_mask().clone();
        Study {
            config,
            world,
            constellation,
            calibration,
            providers,
            registry,
            survey,
            client,
            mask,
        }
    }

    /// Run the audit over every deployed proxy on
    /// [`parallel::configured_threads`] workers (`PV_THREADS` pins the
    /// count; results are byte-identical for any value — see
    /// [`run_with_threads`](Study::run_with_threads)).
    pub fn run(&mut self) -> StudyResults {
        self.run_with_threads(parallel::configured_threads())
    }

    /// Forwards to [`run_with_threads`](Study::run_with_threads) and
    /// ignores `_shards`. A stub kept only because the `perfbench/`
    /// benchmark still calls it; the next benchmark change removes it.
    pub fn run_sharded(&mut self, _shards: usize, threads: usize) -> StudyResults {
        self.run_with_threads(threads)
    }

    /// Run the audit with an explicit worker count.
    ///
    /// **The determinism contract:** any thread count is byte-identical
    /// to the 1-thread run. η is estimated serially on the master
    /// network; then every proxy forks the master [`Network`] and a
    /// [`Recorder`] of its own, and its outcome is a pure function of
    /// `(config.seed, proxy.node)` and the shared read-only world. The
    /// per-proxy traces are absorbed in proxy order, never in
    /// completion order, so the merged trace and the records do not
    /// depend on scheduling.
    pub fn run_with_threads(&mut self, threads: usize) -> StudyResults {
        let threads = threads.max(1);
        let started = Instant::now();
        let atlas = Arc::clone(self.world.atlas());
        let recorder = Recorder::new(self.config.obs_level);
        let run_span = recorder.profile_span("audit.run");

        // η estimation over the pingable subset (§5.3, Fig. 13). Runs
        // serially on the master network before any proxy forks, so its
        // events land at the head of the trace in a fixed order and
        // every proxy forks from the same post-η clock.
        self.world.network_mut().set_recorder(recorder.clone());
        let pingable: Vec<NodeId> = self
            .providers
            .proxies
            .iter()
            .filter(|p| p.pingable)
            .map(|p| p.node)
            .collect();
        let eta_span = recorder.profile_span("audit.eta_estimation");
        let eta_est = estimate_eta(
            self.world.network_mut(),
            self.client,
            &pingable,
            self.config.self_ping_attempts,
        );
        drop(eta_span);
        let eta = eta_est.map_or(DEFAULT_ETA, |e| e.eta());
        if recorder.events_enabled() {
            recorder.set_now_ns(self.world.network().now().as_nanos());
            recorder.event(
                "audit",
                "eta_estimated",
                vec![
                    ("eta", eta.into()),
                    ("pingable", pingable.len().into()),
                ],
            );
        }

        // One landmark server for the whole fleet: the phase-1 anchor
        // selection, per-landmark continent table, and calibration-anchor
        // mapping are pure functions of the constellation, so every
        // proxy shares one read-only server instead of rebuilding it.
        let server = LandmarkServer::new(&self.constellation, &self.calibration, &atlas);
        let ctx = AuditCtx {
            network: self.world.network(),
            client: self.client,
            eta,
            config: &self.config,
            server: &server,
            atlas: &atlas,
            mask: &self.mask,
            registry: &self.registry,
            obs: &recorder,
        };
        let outcomes = parallel::map_indexed(threads, self.providers.proxies.clone(), |_, proxy| {
            measure_one_proxy(proxy, &ctx)
        });

        // Merge the worker-local buffers back in proxy order: the study
        // trace is byte-identical for any thread count.
        let absorb_span = recorder.profile_span("audit.absorb");
        let mut records: Vec<ProxyRecord> = Vec::with_capacity(outcomes.len());
        let mut failures: Vec<UnmeasuredProxy> = Vec::new();
        for outcome in outcomes {
            recorder.absorb(&outcome.trace);
            match outcome.result {
                ProxyResult::Record(r) => records.push(*r),
                ProxyResult::Failure(f) => failures.push(f),
            }
        }
        drop(absorb_span);
        drop(run_span);
        let elapsed_ms = started.elapsed().as_millis() as u64;

        // The recorder belongs to this run: detach it from the shared
        // network so later ad-hoc measurements (figure harnesses,
        // benches) don't keep appending to a finished run's trace.
        self.world.network_mut().set_recorder(Recorder::off());

        let merge_span = recorder.profile_span("audit.merge");
        // Co-location group disambiguation (Fig. 16): within a group, the
        // true country must be common to every member's touched set.
        apply_group_disambiguation(&mut records);
        drop(merge_span);

        let unmeasured = failures.len();
        StudyResults {
            records,
            eta: eta_est,
            failures,
            unmeasured,
            obs: recorder,
            threads,
            elapsed_ms,
        }
    }
}

/// Everything [`measure_one_proxy`] needs beyond the proxy itself:
/// the shared read-only world, the study knobs, and the observability
/// recorder workers fork their per-proxy buffers from.
struct AuditCtx<'a> {
    network: &'a Network,
    client: NodeId,
    eta: f64,
    config: &'a StudyConfig,
    /// The shared landmark server — stood up once per run, never per
    /// proxy (its tables are pure functions of the constellation).
    server: &'a LandmarkServer<'a>,
    atlas: &'a Arc<WorldAtlas>,
    mask: &'a Region,
    registry: &'a DataCenterRegistry,
    obs: &'a Recorder,
}

/// What one proxy's measurement produced, plus the worker-local event
/// buffer it recorded along the way (absorbed by the collector in proxy
/// order, never in completion order).
struct ProxyOutcome {
    result: ProxyResult,
    trace: Recorder,
}

enum ProxyResult {
    Record(Box<ProxyRecord>),
    Failure(UnmeasuredProxy),
}

/// Measure, locate, and judge one proxy. Pure in the parallelism sense:
/// every stochastic input is derived from `(config.seed, proxy.node)`
/// and the shared read-only world, so the outcome is independent of
/// which worker runs it and in what order.
fn measure_one_proxy(proxy: DeployedProxy, ctx: &AuditCtx<'_>) -> ProxyOutcome {
    let AuditCtx {
        network,
        client,
        eta,
        config,
        server,
        atlas,
        mask,
        registry,
        ..
    } = *ctx;
    let reliability = &config.reliability;
    // The per-proxy trace is detached from the study recorder (so
    // workers never interleave) and merged back in proxy order.
    let rec = ctx.obs.fork();
    // Rooted explicitly so the profile tree has the same shape whether
    // this ran inline on the coordinator (1 thread) or on a worker.
    let span = rec.profile_span_root("audit.proxy");
    if rec.events_enabled() {
        rec.event(
            "audit",
            "proxy_start",
            vec![
                ("node", proxy.node.into()),
                ("provider", proxy.provider.into()),
            ],
        );
    }
    let mix = u64::from(proxy.node).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut net = network.fork(config.seed ^ 0xf0bca ^ mix);
    net.set_recorder(rec.clone());
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xaad17 ^ mix);
    // Establish the tunnel context with the same retry budget as a
    // probe: a flap during session setup should not write the proxy
    // off. The backoff here is deterministic (no jitter) — it only
    // advances the sim clock.
    let establish_span = rec.profile_span("audit.establish");
    let mut establish_attempts = 0usize;
    let mut ctx_established = None;
    for attempt in 0..reliability.retry.max_attempts.max(1) {
        if attempt > 0 {
            net.advance(SimDuration::from_ms(
                reliability.retry.backoff_ms(attempt - 1),
            ));
        }
        establish_attempts += 1;
        ctx_established = ProxyContext::establish(
            &mut net,
            client,
            proxy.node,
            eta,
            config.self_ping_attempts,
        );
        if ctx_established.is_some() {
            break;
        }
    }
    drop(establish_span);
    let Some(tunnel) = ctx_established else {
        drop(span);
        return finish_proxy(
            rec,
            &net,
            "tunnel_failed",
            ProxyResult::Failure(UnmeasuredProxy {
                proxy,
                failure: MeasureFailure::Unmeasurable,
                diagnostics: MeasurementDiagnostics {
                    attempts: establish_attempts,
                    retries: establish_attempts - 1,
                    timeouts: establish_attempts,
                    ..Default::default()
                },
            }),
        );
    };
    let prober = ProxyProber::new(tunnel, config.attempts_per_landmark);
    let mut scheduler = ProbeScheduler::new(
        prober,
        reliability.retry,
        config.seed ^ 0xba0ff ^ u64::from(proxy.node),
    );
    let outcome = run_two_phase_reliable(&mut net, server, &mut scheduler, &mut rng, reliability);
    let mut diagnostics = outcome.diagnostics;
    diagnostics.attempts += establish_attempts;
    diagnostics.retries += establish_attempts - 1;
    // Physically impossible corrected readings (clamped negatives) are
    // tallied by the prober as it probes; fold them into the proxy's
    // diagnostics so the defense layer and the reliability report see
    // them.
    diagnostics.infeasible_readings += scheduler.inner.stats.infeasible_readings;
    let two_phase = match (outcome.status, outcome.result) {
        (MeasurementStatus::Ok, Some(r)) => r,
        (status, _) => {
            let (label, failure) = if status == MeasurementStatus::InsufficientData {
                ("insufficient_data", MeasureFailure::InsufficientData)
            } else {
                ("unmeasurable", MeasureFailure::Unmeasurable)
            };
            drop(span);
            return finish_proxy(
                rec,
                &net,
                label,
                ProxyResult::Failure(UnmeasuredProxy {
                    proxy,
                    failure,
                    diagnostics,
                }),
            );
        }
    };

    let locate_span = rec.profile_span("audit.locate");
    let prediction =
        CbgPlusPlus.locate_traced(&two_phase.observations, mask, &rec);
    drop(locate_span);
    let assess_span = rec.profile_span("audit.assess");
    let verdict = assess_claim(atlas, &prediction.region, proxy.claimed);

    // Data-center disambiguation (Fig. 15).
    let dc_country = by_data_centers(registry, &prediction.region);
    let mut refined = verdict.clone();
    refined.assessment = resolve(verdict.assessment, dc_country, proxy.claimed);

    // Byzantine defense (opt-in): look for evidence of actively shaped
    // measurements, re-locate on the trimmed observation set, and
    // withhold any non-False verdict when evidence is found.
    let mut defense = None;
    if config.defense.enabled {
        let defense_span = rec.profile_span("audit.defense");
        // Challenge sweep: re-probe a deterministic stride across the
        // *whole* constellation. The two-phase path only probes what
        // the (possibly shaped) phase-1 guess selects — the one set an
        // active adversary rehearses — so readings it never expected to
        // produce are the cheapest source of contradictions.
        let mut defense_obs = two_phase.observations.clone();
        if config.defense.challenge_fraction > 0.0 {
            let landmarks = server.constellation().landmarks();
            let total = landmarks.len();
            let want = ((total as f64) * config.defense.challenge_fraction).ceil() as usize;
            let stride = total.div_ceil(want.max(1)).max(1);
            let infeasible_before = scheduler.inner.stats.infeasible_readings;
            let mut swept_dead = 0usize;
            let mut swept_ok = 0usize;
            for id in (0..total).step_by(stride) {
                let lm = &landmarks[id];
                let seen = defense_obs.iter().any(|o| {
                    o.landmark.lat().to_bits() == lm.location.lat().to_bits()
                        && o.landmark.lon().to_bits() == lm.location.lon().to_bits()
                });
                if seen {
                    continue;
                }
                // The sweep probes the raw prober, past the scheduler's
                // sanitation, so it drops garbage readings the same way.
                let reading = if lm.port_80_open {
                    scheduler.inner.probe(&mut net, lm.node)
                } else {
                    scheduler.inner.probe_fallback(&mut net, lm.node)
                };
                match reading {
                    Some(ms) if scheduler.policy.accepts_reading(ms) => {
                        swept_ok += 1;
                        defense_obs.push(make_observation(server, id, ms));
                    }
                    Some(_) => {
                        diagnostics.corrupt_readings += 1;
                        rec.count("rel.corrupt_reading", 1);
                    }
                    None => swept_dead += 1,
                }
            }
            diagnostics.infeasible_readings +=
                scheduler.inner.stats.infeasible_readings - infeasible_before;
            diagnostics.landmarks_measured += swept_ok;
            diagnostics.dead_landmarks += swept_dead;
        }
        // Pingable proxies also get the direct-ping cross-check: an
        // honest tunnel satisfies η·C ≈ D (Fig. 13), so a wildly larger
        // self-ping is evidence no amount of reply-shaping can hide.
        let direct_ping_ms = if proxy.pingable {
            min_of(config.self_ping_attempts, || {
                net.ping(client, proxy.node).map(|d| d.as_ms())
            })
        } else {
            None
        };
        let report = run_defense(
            &defense_obs,
            &diagnostics,
            TunnelPings {
                self_ping_ms: scheduler.inner.ctx.self_ping_ms,
                direct_ping_ms,
                eta,
            },
            mask,
            &rec,
            &config.defense,
        );
        if !report.flagged.is_empty() {
            // Re-locate without the flagged observations: the robust
            // verdict stands on the readings no landmark pair disputes
            // (challenge-sweep readings included).
            let kept: Vec<_> = defense_obs
                .iter()
                .enumerate()
                .filter(|(i, _)| !report.flagged.contains(i))
                .map(|(_, o)| o.clone())
                .collect();
            let robust = CbgPlusPlus.locate_traced(&kept, mask, &rec);
            refined = assess_claim(atlas, &robust.region, proxy.claimed);
            refined.assessment = resolve(
                refined.assessment,
                by_data_centers(registry, &robust.region),
                proxy.claimed,
            );
        }
        // Evidence of tampering withholds any verdict short of False:
        // a proven-false claim stays false (the lie is established), but
        // "credible" readings from a caught manipulator prove nothing.
        if report.suspicious() && refined.assessment != Assessment::False {
            refined.assessment = Assessment::Suspicious;
        }
        defense = Some(report);
        drop(defense_span);
    }

    let iclab = IclabChecker::default().check(atlas, proxy.claimed, &two_phase.observations);
    drop(assess_span);
    drop(span);
    finish_proxy(
        rec,
        &net,
        "measured",
        ProxyResult::Record(Box::new(ProxyRecord {
            continent_guess: two_phase.continent,
            region_area_km2: prediction.region.area_km2(),
            centroid: prediction.region.centroid(),
            observations: two_phase
                .observations
                .iter()
                .map(|o| (o.landmark, o.one_way_ms))
                .collect(),
            self_ping_ms: scheduler.inner.ctx.self_ping_ms,
            iclab,
            verdict,
            refined,
            dc_country,
            diagnostics,
            defense,
            proxy,
        })),
    )
}

/// Stamp the closing event on a proxy's trace and package the outcome.
/// Also folds the ledger outcome into the `audit.*` counters the
/// reliability report cross-checks against its recount.
fn finish_proxy(
    rec: Recorder,
    net: &Network,
    status: &'static str,
    result: ProxyResult,
) -> ProxyOutcome {
    rec.count(
        match status {
            "measured" => "audit.measured",
            "insufficient_data" => "audit.insufficient",
            _ => "audit.unmeasurable",
        },
        1,
    );
    if rec.events_enabled() {
        rec.set_now_ns(net.now().as_nanos());
        rec.event("audit", "proxy_done", vec![("status", status.into())]);
    }
    ProxyOutcome { result, trace: rec }
}

/// One study's reliability ledger: how many proxies got a verdict, how
/// many were refused one (and why), and the summed measurement effort.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilitySummary {
    /// Proxies with a full measurement and verdict.
    pub measured: usize,
    /// Proxies refused a verdict for thin data.
    pub insufficient: usize,
    /// Proxies that never answered anything.
    pub unmeasurable: usize,
    /// Runs that missed the phase-1 quorum and degraded to a sweep.
    pub quorum_degraded: usize,
    /// Summed diagnostics across every proxy (measured or not).
    pub totals: MeasurementDiagnostics,
}

impl ReliabilitySummary {
    /// The ledger partition `(measured, insufficient, unmeasurable)` —
    /// sums to the number of proxies deployed.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.measured, self.insufficient, self.unmeasurable)
    }
}

/// Resolve groups (same provider + AS + /24) whose members' regions share
/// exactly one country; upgrade members' uncertain verdicts accordingly.
fn apply_group_disambiguation(records: &mut [ProxyRecord]) {
    use std::collections::HashMap;
    let mut groups: HashMap<(usize, CountryId, usize), Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        groups.entry(r.proxy.group_key).or_default().push(i);
    }
    for members in groups.values() {
        if members.len() < 2 {
            continue;
        }
        let touched_sets: Vec<Vec<CountryId>> = members
            .iter()
            .map(|&i| records[i].verdict.touched.iter().map(|&(c, _)| c).collect())
            .collect();
        let refs: Vec<&[CountryId]> = touched_sets.iter().map(Vec::as_slice).collect();
        let country = by_touched_sets(&refs);
        for &i in members {
            let r = &mut records[i];
            r.refined.assessment = resolve(r.refined.assessment, country, r.proxy.claimed);
        }
    }
}

impl StudyResults {
    /// (credible, uncertain, false) counts under a verdict selector.
    /// Withheld verdicts live outside the 3-way split; see
    /// [`StudyResults::suspicious`].
    pub fn counts(&self, refined: bool) -> (usize, usize, usize) {
        crate::report::tally_records(self, refined).three_way()
    }

    /// Proxies whose verdict was *withheld* by the defense layer under a
    /// verdict selector (always 0 for the baseline selector — only the
    /// refined pipeline degrades to `Suspicious`).
    pub fn suspicious(&self, refined: bool) -> usize {
        crate::report::tally_records(self, refined).suspicious
    }

    /// Fig. 17 row categories: (credible, uncertain-country
    /// continent-credible, uncertain-both, false-country
    /// continent-credible, false-country continent-uncertain,
    /// continent-false), using refined verdicts.
    pub fn fig17_categories(&self) -> [usize; 6] {
        let mut out = [0usize; 6];
        for r in &self.records {
            let idx = match (r.refined.assessment, r.refined.continent) {
                (Assessment::Credible, _) => 0,
                (Assessment::Uncertain, ContinentVerdict::Credible) => 1,
                // A withheld (Suspicious) verdict is maximal uncertainty
                // at both levels.
                (Assessment::Uncertain | Assessment::Suspicious, _) => 2,
                (Assessment::False, ContinentVerdict::Credible) => 3,
                (Assessment::False, ContinentVerdict::Uncertain) => 4,
                (Assessment::False, ContinentVerdict::False) => 5,
            };
            out[idx] += 1;
        }
        out
    }

    /// Agreement rate with provider claims per provider, for a verdict
    /// mode: `generous` counts uncertain as agreement ("generous"), else
    /// only credible ("strict") — Fig. 21's two CBG++ rows.
    pub fn cbgpp_agreement(&self, provider: usize, generous: bool) -> f64 {
        let (mut agree, mut total) = (0usize, 0usize);
        for r in &self.records {
            if r.proxy.provider != provider {
                continue;
            }
            total += 1;
            match r.refined.assessment {
                Assessment::Credible => agree += 1,
                Assessment::Uncertain if generous => agree += 1,
                _ => {}
            }
        }
        if total == 0 {
            0.0
        } else {
            agree as f64 / total as f64
        }
    }

    /// ICLab agreement rate per provider (accepted / total).
    pub fn iclab_agreement(&self, provider: usize) -> f64 {
        let (mut agree, mut total) = (0usize, 0usize);
        for r in &self.records {
            if r.proxy.provider != provider {
                continue;
            }
            total += 1;
            if r.iclab == IclabVerdict::Accepted {
                agree += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            agree as f64 / total as f64
        }
    }

    /// Always zero: the audit has no disk cache. A stub kept only
    /// because the `perfbench/` benchmark still reads it; the
    /// follow-up benchmark change that retires the `geoloc.raster_s`,
    /// `geoloc.cache_lookup_s` and `geoloc.cache_hit_ratio` layers
    /// removes it.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// The study's full event trace as JSON Lines, one event per line,
    /// merged in proxy order — byte-identical for any thread count.
    /// Empty unless the study ran at [`obs::Level::Events`].
    pub fn trace_jsonl(&self) -> String {
        self.obs.events_jsonl()
    }

    /// Aggregate the per-proxy measurement diagnostics into one
    /// study-level reliability picture.
    pub fn reliability_summary(&self) -> ReliabilitySummary {
        let mut totals = MeasurementDiagnostics::default();
        let mut quorum_degraded = 0usize;
        for r in &self.records {
            totals.absorb(&r.diagnostics);
            if r.diagnostics.quorum_degraded {
                quorum_degraded += 1;
            }
        }
        let mut insufficient = 0usize;
        let mut unmeasurable = 0usize;
        for f in &self.failures {
            totals.absorb(&f.diagnostics);
            if f.diagnostics.quorum_degraded {
                quorum_degraded += 1;
            }
            match f.failure {
                MeasureFailure::InsufficientData => insufficient += 1,
                MeasureFailure::Unmeasurable => unmeasurable += 1,
            }
        }
        ReliabilitySummary {
            measured: self.records.len(),
            insufficient,
            unmeasurable,
            quorum_degraded,
            totals,
        }
    }

    /// Evaluation-only ground-truth check: fraction of records whose
    /// prediction covered the proxy's true country.
    pub fn coverage_of_truth(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let covered = self
            .records
            .iter()
            .filter(|r| {
                r.verdict
                    .touched
                    .iter()
                    .any(|&(c, _)| c == r.proxy.true_country)
            })
            .count();
        covered as f64 / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The shared small study, built once and only read.
    fn results() -> &'static (Study, StudyResults) {
        static S: OnceLock<(Study, StudyResults)> = OnceLock::new();
        S.get_or_init(|| {
            let mut study = Study::build(StudyConfig::small(41));
            let results = study.run();
            (study, results)
        })
    }

    #[test]
    fn nearly_all_proxies_are_measured() {
        let (study, res) = results();
        assert!(
            res.records.len() + res.unmeasured == study.providers.proxies.len()
        );
        assert!(
            res.records.len() * 10 >= study.providers.proxies.len() * 9,
            "only {} of {} measured",
            res.records.len(),
            study.providers.proxies.len()
        );
    }

    #[test]
    fn reliability_summary_accounts_for_every_proxy() {
        let (study, res) = results();
        let s = res.reliability_summary();
        assert_eq!(
            s.measured + s.insufficient + s.unmeasurable,
            study.providers.proxies.len(),
            "a proxy fell out of the ledger"
        );
        assert_eq!(res.failures.len(), res.unmeasured);
        assert!(s.totals.attempts > 0);
        assert!(s.totals.landmarks_measured > 0);
        for r in &res.records {
            assert!(!r.diagnostics.is_empty(), "record without diagnostics");
        }
        for f in &res.failures {
            assert!(!f.diagnostics.is_empty(), "failure without diagnostics");
        }
        let rendered = crate::report::render_reliability(res);
        assert!(rendered.contains("measured"));
        assert!(rendered.contains("phase 1"));
    }

    #[test]
    fn recorder_ledger_agrees_with_reliability_recount() {
        // The audit.* counters are emitted at measurement time; the
        // summary is recounted from the records afterwards. They must
        // tell the same story or a layer is lying.
        let (study, res) = results();
        let s = res.reliability_summary();
        assert_eq!(res.obs.counter("audit.measured") as usize, s.measured);
        assert_eq!(
            res.obs.counter("audit.insufficient") as usize,
            s.insufficient
        );
        assert_eq!(
            res.obs.counter("audit.unmeasurable") as usize,
            s.unmeasurable
        );
        assert_eq!(
            res.obs.counter("tp.quorum_degraded") as usize,
            s.quorum_degraded
        );
        let (m, i, u) = s.counts();
        assert_eq!(m + i + u, study.providers.proxies.len());
        assert!(res.obs.counter("net.probe.sent") > 0);
        assert!(
            res.obs.counter("net.probe.sent")
                >= res.obs.counter("net.probe.completed")
                    + res.obs.counter("net.probe.timeout")
        );
    }

    #[test]
    fn trace_has_one_start_and_done_per_proxy_in_proxy_order() {
        let (study, res) = results();
        let n = study.providers.proxies.len();
        res.obs.with_events(|evs| {
            let starts: Vec<u64> = evs
                .iter()
                .filter(|e| e.name == "proxy_start")
                .map(|e| e.field_u64("node").unwrap())
                .collect();
            assert_eq!(starts.len(), n);
            let expected: Vec<u64> = study
                .providers
                .proxies
                .iter()
                .map(|p| u64::from(p.node))
                .collect();
            assert_eq!(starts, expected, "trace not merged in proxy order");
            assert_eq!(
                evs.iter().filter(|e| e.name == "proxy_done").count(),
                n
            );
        });
        assert_eq!(res.trace_jsonl().lines().count(), res.obs.events_len());
        // Wall compartment: one audit.proxy profile root per proxy,
        // with the measurement stages nested beneath it.
        let proxy_stat = res
            .obs
            .profile_stat("audit.proxy")
            .expect("per-proxy profile root");
        assert_eq!(proxy_stat.count as usize, n);
        assert!(proxy_stat.self_ns <= proxy_stat.cum_ns);
    }

    #[test]
    fn progress_wall_clock_runs_with_recording_off() {
        let mut cfg = StudyConfig::small(41);
        cfg.total_proxies = 12;
        cfg.obs_level = obs::Level::Off;
        let mut study = Study::build(cfg);
        let res = study.run_with_threads(1);
        // The profiler is a no-op at `Off`; the run's wall clock is not.
        assert!(res.obs.profile().is_empty());
        assert!(res.elapsed_ms > 0);
    }

    #[test]
    fn defended_audit_drops_corrupt_challenge_readings() {
        // Every reading is garbage-prone: a NaN from the challenge sweep
        // must be dropped and tallied like the scheduler's, not turned
        // into an observation.
        let mut cfg = StudyConfig::small(41);
        cfg.total_proxies = 12;
        cfg.defense.enabled = true;
        let mut study = Study::build(cfg);
        study.world.network_mut().faults_mut().set_corrupt_chance(1.0);
        let res = study.run_with_threads(1);
        assert_eq!(res.records.len() + res.failures.len(), 12);
        assert!(
            res.records.iter().any(|r| r.defense.is_some()),
            "no proxy reached the defense sweep"
        );
        let tallied: usize = res
            .records
            .iter()
            .map(|r| r.diagnostics.corrupt_readings)
            .chain(res.failures.iter().map(|f| f.diagnostics.corrupt_readings))
            .sum();
        assert!(tallied > 0);
        assert_eq!(res.obs.counter("rel.corrupt_reading") as usize, tallied);
    }

    #[test]
    fn profile_tree_covers_the_audit_stages() {
        let (study, res) = results();
        let n = study.providers.proxies.len();
        // Coordinator roots.
        assert_eq!(res.obs.profile_stat("audit.run").unwrap().count, 1);
        assert_eq!(
            res.obs
                .profile_stat("audit.run/audit.eta_estimation")
                .unwrap()
                .count,
            1
        );
        // Worker stages nest under audit.proxy; every measured proxy
        // ran phase 1 and located, and each probe bottoms out in the
        // simulator's net.probe span.
        let measured = res.records.len() as u64;
        assert!(measured > 0);
        let phase1 = res
            .obs
            .profile_stat("audit.proxy/twophase.phase1")
            .expect("phase-1 span");
        assert!(phase1.count as usize <= n);
        let locate = res
            .obs
            .profile_stat("audit.proxy/audit.locate")
            .expect("locate span");
        assert_eq!(locate.count, measured);
        let rel_probe = res
            .obs
            .profile_stat("audit.proxy/twophase.phase1/rel.probe")
            .expect("scheduler probe span");
        let net_probe = res
            .obs
            .profile_stat("audit.proxy/twophase.phase1/rel.probe/net.probe")
            .expect("simulator probe span");
        assert!(net_probe.count >= rel_probe.count);
        // Disk intersections under the locate stage.
        let intersect = res
            .obs
            .profile_stat("audit.proxy/audit.locate/cbgpp.baseline/subset.intersect")
            .expect("baseline intersection span");
        assert!(intersect.count >= measured);
        // Self time never exceeds cumulative anywhere in the tree.
        for (path, stat) in res.obs.profile() {
            assert!(stat.self_ns <= stat.cum_ns, "self > cum at {path}");
        }
        // The rendered tree indents children under their parents.
        let tree = res.obs.render_profile();
        assert!(tree.contains("audit.proxy"));
        assert!(tree.contains("  audit.locate"), "no indented child:\n{tree}");
    }

    #[test]
    fn obs_level_off_records_nothing_but_results_match() {
        let mut cfg = StudyConfig::small(41);
        cfg.total_proxies = 8;
        cfg.obs_level = obs::Level::Off;
        let mut quiet = Study::build(cfg.clone());
        let quiet_res = quiet.run_with_threads(2);
        assert_eq!(quiet_res.obs.events_len(), 0);
        assert_eq!(quiet_res.obs.counter("net.probe.sent"), 0);
        cfg.obs_level = obs::Level::Events;
        let mut loud = Study::build(cfg);
        let loud_res = loud.run_with_threads(2);
        assert!(loud_res.obs.events_len() > 0);
        // Observability depth never changes the science.
        assert_eq!(quiet_res.records.len(), loud_res.records.len());
        for (a, b) in quiet_res.records.iter().zip(&loud_res.records) {
            assert_eq!(a.proxy.node, b.proxy.node);
            assert_eq!(a.region_area_km2.to_bits(), b.region_area_km2.to_bits());
            assert_eq!(a.verdict.assessment, b.verdict.assessment);
        }
    }

    #[test]
    fn eta_is_estimated_near_half() {
        let (_, res) = results();
        if let Some(eta) = res.eta {
            assert!(
                (eta.eta() - 0.5).abs() < 0.1,
                "η = {} from {} samples",
                eta.eta(),
                eta.samples
            );
        }
    }

    #[test]
    fn predictions_cover_the_true_country_mostly() {
        // CBG++'s design goal: be certain the proxy is where we say it
        // is. At small scale a few borderline regions are tolerable.
        let (_, res) = results();
        let cov = res.coverage_of_truth();
        assert!(cov >= 0.8, "true-country coverage {cov}");
    }

    #[test]
    fn verdict_mix_is_paper_shaped() {
        // The headline: a sizeable fraction of claims false, a sizeable
        // fraction credible/uncertain.
        let (_, res) = results();
        let (credible, uncertain, false_) = res.counts(true);
        let total = credible + uncertain + false_;
        assert!(total > 0);
        assert!(
            false_ * 5 >= total,
            "too few false verdicts: {false_}/{total}"
        );
        assert!(
            credible + uncertain > 0,
            "no claim survived at all — miscalibrated pipeline"
        );
    }

    #[test]
    fn false_verdicts_are_usually_actually_false() {
        // Precision check against ground truth: when the pipeline says
        // "false", the provider claim should indeed be wrong nearly
        // always (the paper's priority: never wrongly accuse).
        let (_, res) = results();
        let (mut right, mut total) = (0usize, 0usize);
        for r in &res.records {
            if r.refined.assessment == Assessment::False {
                total += 1;
                if r.proxy.claimed != r.proxy.true_country {
                    right += 1;
                }
            }
        }
        if total > 0 {
            let precision = right as f64 / total as f64;
            assert!(precision >= 0.9, "false-verdict precision {precision}");
        }
    }

    #[test]
    fn refinement_only_resolves_uncertainty() {
        let (_, res) = results();
        for r in &res.records {
            if r.verdict.assessment != Assessment::Uncertain {
                assert_eq!(r.verdict.assessment, r.refined.assessment);
            }
        }
        let (_, u_raw, _) = res.counts(false);
        let (_, u_ref, _) = res.counts(true);
        assert!(u_ref <= u_raw, "refinement increased uncertainty");
    }

    #[test]
    fn fig17_categories_partition_records() {
        let (_, res) = results();
        let cats = res.fig17_categories();
        assert_eq!(cats.iter().sum::<usize>(), res.records.len());
    }

    #[test]
    fn agreement_rates_are_probabilities() {
        let (study, res) = results();
        for p in 0..study.providers.profiles.len() {
            let strict = res.cbgpp_agreement(p, false);
            let generous = res.cbgpp_agreement(p, true);
            assert!((0.0..=1.0).contains(&strict));
            assert!(generous >= strict);
            let iclab = res.iclab_agreement(p);
            assert!((0.0..=1.0).contains(&iclab));
        }
    }

    /// A results value with nothing in it — no study ran at all.
    fn empty_results() -> StudyResults {
        StudyResults {
            records: Vec::new(),
            eta: None,
            failures: Vec::new(),
            unmeasured: 0,
            obs: Recorder::off(),
            threads: 1,
            elapsed_ms: 0,
        }
    }

    fn dummy_proxy(node: NodeId) -> DeployedProxy {
        DeployedProxy {
            node,
            provider: 0,
            claimed: 0,
            true_country: 0,
            true_location: geokit::GeoPoint::new(0.0, 0.0),
            group_key: (0, 0, 0),
            pingable: false,
            gateway: node,
        }
    }

    #[test]
    fn empty_study_has_all_zero_ledgers() {
        let res = empty_results();
        let s = res.reliability_summary();
        assert_eq!(s.counts(), (0, 0, 0));
        assert_eq!(s.quorum_degraded, 0);
        assert_eq!(res.counts(false), (0, 0, 0));
        assert_eq!(res.counts(true), (0, 0, 0));
        assert_eq!(res.fig17_categories(), [0; 6]);
        assert_eq!(res.cache_stats(), CacheStats::default());
        // Rendering must cope: no division by zero, no panic.
        let rendered = crate::report::render_reliability(&res);
        assert!(rendered.contains("0 total"));
        assert!(crate::report::render_observability(&res).contains("0 events"));
        assert!(res.trace_jsonl().is_empty());
    }

    #[test]
    fn all_unmeasured_study_partitions_into_failure_kinds() {
        let mut res = empty_results();
        res.failures = vec![
            UnmeasuredProxy {
                proxy: dummy_proxy(1),
                failure: MeasureFailure::Unmeasurable,
                diagnostics: MeasurementDiagnostics::default(),
            },
            UnmeasuredProxy {
                proxy: dummy_proxy(2),
                failure: MeasureFailure::InsufficientData,
                diagnostics: MeasurementDiagnostics::default(),
            },
            UnmeasuredProxy {
                proxy: dummy_proxy(3),
                failure: MeasureFailure::Unmeasurable,
                diagnostics: MeasurementDiagnostics::default(),
            },
        ];
        res.unmeasured = res.failures.len();
        let s = res.reliability_summary();
        assert_eq!(s.counts(), (0, 1, 2));
        // Nothing was measured, so every verdict table is empty …
        assert_eq!(res.counts(true), (0, 0, 0));
        assert_eq!(res.fig17_categories(), [0; 6]);
        // … but the reliability ledger still accounts for every proxy.
        let rendered = crate::report::render_reliability(&res);
        assert!(rendered.contains("3 total"));
        assert!(rendered.contains("2 unmeasurable"));
    }
}
