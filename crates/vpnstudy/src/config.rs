//! Study configuration: one knob set for the whole reproduction.

use atlas::ConstellationConfig;
use geokit::GeoPoint;
use geoloc::{DefenseConfig, ReliabilityConfig};

/// All parameters of a study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Master seed; every stochastic choice derives from it.
    pub seed: u64,
    /// Grid resolution in degrees for all prediction regions.
    pub grid_resolution_deg: f64,
    /// Landmark constellation shape.
    pub constellation: ConstellationConfig,
    /// Anchor-mesh pings per pair for calibration ("two weeks of pings").
    pub calibration_pings: usize,
    /// Measurement attempts per landmark (minimum taken).
    pub attempts_per_landmark: usize,
    /// Self-ping attempts when establishing a proxy context.
    pub self_ping_attempts: usize,
    /// Total proxy servers across all providers (the paper tested 2269).
    pub total_proxies: usize,
    /// Measurement client location (the paper used one host in
    /// Frankfurt, Germany).
    pub client_location: GeoPoint,
    /// Number of crowdsourced validation hosts (paper: 40 volunteers +
    /// 150 Mechanical Turk workers).
    pub crowd_volunteers: usize,
    /// Number of paid crowdsourced hosts.
    pub crowd_workers: usize,
    /// Measurement reliability policy: retries, backoff, method
    /// fallback, and quorum thresholds for degraded runs.
    pub reliability: ReliabilityConfig,
    /// Observability depth: `Off` (no recording), `Counters`
    /// (counters + histograms), or `Events` (adds the per-probe event
    /// trace). The default, `Events`, is what the determinism gate and
    /// the trace figure consume.
    pub obs_level: obs::Level,
    /// Byzantine-defense knobs (pairwise consistency, trimmed robust
    /// subset, quorum, side-channel evidence). Disabled by default so
    /// the baseline pipeline — and its pinned determinism fingerprints —
    /// are untouched unless a study opts in.
    pub defense: DefenseConfig,
}

impl StudyConfig {
    /// Paper-scale configuration: 2269 proxies, 250 anchors, 0.5° grid.
    pub fn paper() -> StudyConfig {
        StudyConfig {
            seed: 0x12C_2018,
            grid_resolution_deg: 0.5,
            constellation: ConstellationConfig::default(),
            calibration_pings: 40,
            attempts_per_landmark: 3,
            self_ping_attempts: 10,
            total_proxies: 2269,
            client_location: GeoPoint::new(50.11, 8.68),
            crowd_volunteers: 40,
            crowd_workers: 150,
            reliability: ReliabilityConfig::default(),
            obs_level: obs::Level::Events,
            defense: DefenseConfig::default(),
        }
    }

    /// A scaled-down configuration for tests: same structure, minutes →
    /// seconds.
    pub fn small(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            grid_resolution_deg: 1.0,
            constellation: ConstellationConfig::small(seed ^ 0x5ca1e),
            calibration_pings: 8,
            attempts_per_landmark: 3,
            self_ping_attempts: 8,
            total_proxies: 70,
            client_location: GeoPoint::new(50.11, 8.68),
            crowd_volunteers: 6,
            crowd_workers: 14,
            reliability: ReliabilityConfig::default(),
            obs_level: obs::Level::Events,
            defense: DefenseConfig::default(),
        }
    }
}
