//! Attribute the audit's span profile to the repository's layers.
//!
//! The audit already records a hierarchical span profile
//! ([`obs::Recorder::profile`]); every path's *self* time is credited to
//! exactly one layer here, by the span's own name (and, for `net.probe`,
//! by which stage issued the probe). A span no rule names lands in
//! [`OTHER`], so a new span in the program shows up as unattributed time
//! instead of silently inflating a named layer.

use obs::ProfileStat;

/// The per-layer metric every unmatched span's self time rolls into.
pub const OTHER: &str = "other_s";

/// The named audit layers, in report order.
pub const AUDIT_LAYERS: &[&str] = &[
    "netsim.tunnel_probe_s",
    "netsim.landmark_probe_s",
    "geoloc.eta_s",
    "geoloc.reliability_s",
    "geoloc.twophase_s",
    "geoloc.cbgpp_fit_s",
    "geoloc.raster_s",
    "geoloc.intersect_s",
    "geoloc.cache_lookup_s",
    "geoloc.assess_s",
    "vpnstudy.orchestration_s",
];

/// The layer a profile path's self time belongs to.
pub fn layer_of(path: &str) -> &'static str {
    let leaf = path.rsplit('/').next().unwrap_or(path);
    match leaf {
        // Probes toward the proxy itself: η estimation and the tunnel
        // self-pings at establish, where per-proxy route trees get built.
        "net.probe"
            if path.contains("audit.establish") || path.contains("audit.eta_estimation") =>
        {
            "netsim.tunnel_probe_s"
        }
        // Probes through the tunnel to landmarks, issued by two-phase.
        "net.probe" if path.contains("twophase.") => "netsim.landmark_probe_s",
        "audit.eta_estimation" | "audit.establish" => "geoloc.eta_s",
        "rel.probe" | "rel.backoff" => "geoloc.reliability_s",
        "twophase.phase1" | "twophase.phase2" | "twophase.sweep" => "geoloc.twophase_s",
        "cbgpp.baseline" | "cbgpp.bestline" => "geoloc.cbgpp_fit_s",
        "cache.rasterize" => "geoloc.raster_s",
        "subset.intersect" | "subset.counting_sweep" => "geoloc.intersect_s",
        "cache.lookup" => "geoloc.cache_lookup_s",
        "audit.assess" => "geoloc.assess_s",
        "audit.run" | "audit.shard" | "audit.proxy" | "audit.locate" | "audit.absorb"
        | "audit.merge" => "vpnstudy.orchestration_s",
        _ => OTHER,
    }
}

/// Self time per layer, nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rollup {
    /// One entry per [`AUDIT_LAYERS`] name, in that order.
    pub layers: Vec<(&'static str, u128)>,
    /// Self time of spans no rule names.
    pub other_ns: u128,
}

impl Rollup {
    /// Self time credited to `layer` (0 for an unknown name).
    pub fn ns(&self, layer: &str) -> u128 {
        if layer == OTHER {
            return self.other_ns;
        }
        self.layers
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(0, |&(_, ns)| ns)
    }

    /// Sum of every layer's self time, [`OTHER`] included.
    pub fn total_ns(&self) -> u128 {
        self.layers.iter().map(|&(_, ns)| ns).sum::<u128>() + self.other_ns
    }
}

/// Roll a profile snapshot up into per-layer self time.
pub fn rollup(profile: &[(String, ProfileStat)]) -> Rollup {
    let mut out = Rollup {
        layers: AUDIT_LAYERS.iter().map(|&name| (name, 0)).collect(),
        other_ns: 0,
    };
    for (path, stat) in profile {
        match layer_of(path) {
            OTHER => out.other_ns += stat.self_ns,
            layer => {
                let slot = out
                    .layers
                    .iter_mut()
                    .find(|(name, _)| *name == layer)
                    .expect("layer_of only returns AUDIT_LAYERS names or OTHER");
                slot.1 += stat.self_ns;
            }
        }
    }
    out
}

/// Span count at paths whose leaf is `leaf` and whose path contains
/// `within` — e.g. the landmark probes are the `net.probe` spans under a
/// `twophase.` stage.
pub fn span_count(profile: &[(String, ProfileStat)], leaf: &str, within: &str) -> u64 {
    profile
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(leaf) && path.contains(within))
        .map(|(_, stat)| stat.count)
        .sum()
}
