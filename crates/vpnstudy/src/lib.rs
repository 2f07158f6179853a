#![warn(missing_docs)]

//! # vpnstudy — the end-to-end VPN location audit (paper §6)
//!
//! Everything needed to reproduce the study: seven synthetic VPN
//! providers with Fig. 14-shaped claim profiles and ground-truth server
//! placement concentrated where hosting is cheap; deployment of their
//! servers into the simulated Internet; the measurement client; the
//! two-phase, proxy-adapted CBG++ pipeline; claim assessment with
//! data-center and AS+/24 disambiguation; the IP-to-location database
//! simulation; the crowdsourced validation cohort of §5; and the
//! aggregation/reporting that regenerates Figs. 9–23.
//!
//! The whole study is one seeded, deterministic object: build a
//! [`Study`], call [`Study::run`], and interrogate the results.

pub mod audit;
pub mod campaign;
pub mod colocation;
pub mod config;
pub mod confusion;
pub mod crowd;
pub mod feasibility;
pub mod ipdb;
pub mod longitudinal;
pub mod ops;
pub mod providers;
pub mod report;
pub mod store;
pub mod testbench;

pub use audit::{
    MeasureFailure, ProxyRecord, ReliabilitySummary, Study, StudyResults, UnmeasuredProxy,
};
pub use config::StudyConfig;
pub use ops::{evaluate_slos, store_metrics, study_metrics};
pub use providers::{DeployedProxy, ProviderProfile, ProviderSet};
pub use report::{tally_records, VerdictTally};
pub use store::{
    EpochId, EpochMeta, Freshness, LookupAnswer, RevalidationPriority, StoredFailure,
    StoredVerdict, VerdictStore,
};
