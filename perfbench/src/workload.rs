//! The three workloads, generated from a seed.
//!
//! Every workload audits the paper fleet (2269 proxies, 250 anchors plus
//! ~600 probes, 40 calibration pings). They differ in what they stress:
//!
//! * `paper` — `StudyConfig::paper()` with obs `Off`: the baseline,
//!   dominated by the algorithm layer at 0.5°.
//! * `paper-ops` — `StudyConfig::paper()` as shipped (obs `Events`): the
//!   event trace and its export on top of the same audit.
//! * `coarse-lossy` — a 2° grid, 5 % per-hop loss and every 5th landmark
//!   down: probing and the reliability layer dominate instead.

use atlas::ConstellationConfig;
use netsim::NodeId;
use obs::Level;
use vpnstudy::{Study, StudyConfig};

/// The seed of `StudyConfig::paper()`; the default `--seed`.
pub const PAPER_SEED: u64 = 0x12C_2018;

/// Per-hop drop probability on `coarse-lossy` (the fault sweep's
/// harshest step).
pub const COARSE_HOP_LOSS: f64 = 0.05;

/// On `coarse-lossy`, one landmark in this many is down for the whole run.
pub const COARSE_OUTAGE_STRIDE: usize = 5;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper audit with recording off.
    Paper,
    /// The paper audit as shipped (event trace on), then publish and query.
    PaperOps,
    /// The paper fleet on a 2° grid under probe loss and landmark outages.
    CoarseLossy,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::PaperOps, Workload::CoarseLossy];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::PaperOps => "paper-ops",
            Workload::CoarseLossy => "coarse-lossy",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The recording level of the workload as a user runs it.
    pub fn level(self) -> Level {
        match self {
            Workload::PaperOps => Level::Events,
            Workload::Paper | Workload::CoarseLossy => Level::Off,
        }
    }

    /// The recording level of the traced run: `Counters` adds the span
    /// profile and counters; `paper-ops` already records everything.
    pub fn traced_level(self) -> Level {
        match self {
            Workload::PaperOps => Level::Events,
            Workload::Paper | Workload::CoarseLossy => Level::Counters,
        }
    }

    /// The study configuration for `seed` at recording level `level`.
    ///
    /// The seed drives `StudyConfig.seed` and the constellation seed;
    /// [`PAPER_SEED`] reproduces `StudyConfig::paper()` exactly.
    pub fn config(self, seed: u64, level: Level) -> StudyConfig {
        let mut config = StudyConfig::paper();
        config.seed = seed;
        config.constellation.seed = ConstellationConfig::default().seed ^ seed ^ PAPER_SEED;
        config.obs_level = level;
        if self == Workload::CoarseLossy {
            config.grid_resolution_deg = 2.0;
        }
        config
    }

    /// Inject the workload's faults into a built study (after set-up, so
    /// calibration is clean). On `coarse-lossy` the seed picks which
    /// residue class of landmarks goes down; [`PAPER_SEED`] takes down
    /// landmarks 0, 5, 10, … like the fault sweep.
    pub fn apply_faults(self, study: &mut Study, seed: u64) {
        if self != Workload::CoarseLossy {
            return;
        }
        let offset = ((seed ^ PAPER_SEED) % COARSE_OUTAGE_STRIDE as u64) as usize;
        let down: Vec<NodeId> = study
            .constellation
            .landmarks()
            .iter()
            .skip(offset)
            .step_by(COARSE_OUTAGE_STRIDE)
            .map(|l| l.node)
            .collect();
        let network = study.world.network_mut();
        let t0 = network.now();
        for node in down {
            network.faults_mut().add_permanent_outage(node, t0);
        }
        network.faults_mut().set_drop_chance(COARSE_HOP_LOSS);
    }
}
