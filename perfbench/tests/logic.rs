//! Tests of the benchmark's own logic: the span → layer map, the layer
//! roll-up, metric and workload names, the `VmHWM` parser and the result
//! line.
//!
//! Run with `cargo test --offline --manifest-path perfbench/Cargo.toml`.

use obs::json::Json;
use obs::Level;
use perfbench::layers::{layer_of, rollup, span_count, AUDIT_LAYERS, OTHER};
use perfbench::sys::parse_vmhwm_mb;
use perfbench::workload::{Workload, PAPER_SEED};
use perfbench::{median, result_json, valid_name, END_TO_END, PER_LAYER};
use std::sync::OnceLock;
use vpnstudy::{Study, StudyConfig};

/// The span profile of one small-scale audit at `Counters`, on one worker.
fn small_profile() -> &'static Vec<(String, obs::ProfileStat)> {
    static PROFILE: OnceLock<Vec<(String, obs::ProfileStat)>> = OnceLock::new();
    PROFILE.get_or_init(|| {
        let mut config = StudyConfig::small(41);
        config.obs_level = Level::Counters;
        let mut study = Study::build(config);
        study.run_sharded(1, 1).obs.profile()
    })
}

#[test]
fn every_span_of_a_small_audit_maps_to_a_named_layer() {
    let profile = small_profile();
    assert!(!profile.is_empty());
    for (path, _) in profile {
        let layer = layer_of(path);
        assert!(
            layer == OTHER || AUDIT_LAYERS.contains(&layer),
            "{path} maps to {layer}, which is neither a layer nor {OTHER}"
        );
    }
    let unmatched: Vec<&String> = profile
        .iter()
        .map(|(path, _)| path)
        .filter(|path| layer_of(path) == OTHER)
        .collect();
    assert!(unmatched.is_empty(), "spans without a layer: {unmatched:?}");
}

#[test]
fn every_named_layer_is_a_per_layer_metric() {
    for layer in AUDIT_LAYERS.iter().chain([&OTHER]) {
        assert!(
            PER_LAYER.iter().any(|(name, _)| name == layer),
            "{layer} is not reported"
        );
    }
}

#[test]
fn layer_self_times_sum_to_the_profiled_total() {
    let profile = small_profile();
    let r = rollup(profile);
    let self_total: u128 = profile.iter().map(|(_, s)| s.self_ns).sum();
    assert_eq!(r.total_ns(), self_total);
    // On one worker every span nests under `audit.run` or `audit.merge`,
    // so the self times add up to those two spans' cumulative time.
    let top: u128 = ["audit.run", "audit.merge"]
        .iter()
        .map(|p| {
            profile
                .iter()
                .find(|(path, _)| path == p)
                .expect(p)
                .1
                .cum_ns
        })
        .sum();
    assert_eq!(r.total_ns(), top);
    assert!(AUDIT_LAYERS.iter().all(|l| r.ns(l) > 0), "{r:?}");
}

#[test]
fn probes_split_by_the_stage_that_sent_them() {
    assert_eq!(
        layer_of("audit.proxy/audit.establish/net.probe"),
        "netsim.tunnel_probe_s"
    );
    assert_eq!(
        layer_of("audit.run/audit.eta_estimation/net.probe"),
        "netsim.tunnel_probe_s"
    );
    assert_eq!(
        layer_of("audit.proxy/twophase.phase2/rel.probe/net.probe"),
        "netsim.landmark_probe_s"
    );
    assert_eq!(layer_of("audit.proxy/audit.defense/net.probe"), OTHER);
    assert_eq!(layer_of("audit.proxy/audit.defense"), OTHER);
    let profile = small_profile();
    let landmark = span_count(profile, "net.probe", "twophase.");
    let all = span_count(profile, "net.probe", "");
    assert!(landmark > 0 && landmark < all, "{landmark} of {all}");
}

#[test]
fn names_use_only_the_allowed_characters_and_are_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(name, _)| *name)
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    for name in &names {
        assert!(valid_name(name), "bad name {name:?}");
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
    for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?}"
        );
    }
    assert!(!valid_name(""));
    assert!(!valid_name("-lead"));
    assert!(!valid_name("has space"));
    assert!(!valid_name("slash/ed"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(valid_name("paper-ops"));
    assert!(valid_name("geoloc.cbgpp_fit_s"));
}

#[test]
fn benchmark_json_names_the_metrics_and_workloads_this_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit").and_then(Json::as_str).map(str::to_string),
                )
            })
            .collect()
    };
    let listed = |table: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(names("end_to_end"), listed(END_TO_END));
    assert_eq!(names("per_layer"), listed(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    for w in &workloads {
        assert_eq!(Workload::parse(w).map(Workload::name), Some(w.as_str()));
    }
}

#[test]
fn vmhwm_parser_reads_kilobytes_as_megabytes() {
    let status = "Name:\tperfbench\nVmPeak:\t 2640 kB\nVmHWM:\t 1869824 kB\nVmRSS:\t 1440 kB\n";
    assert_eq!(parse_vmhwm_mb(status), Some(1826.0));
    assert_eq!(parse_vmhwm_mb("VmHWM:    512 kB"), Some(0.5));
    assert_eq!(parse_vmhwm_mb("VmRSS:\t 1440 kB\n"), None);
    assert_eq!(parse_vmhwm_mb("VmHWM:\t 1440 MB\n"), None);
    assert_eq!(parse_vmhwm_mb("VmHWM:\t lots kB\n"), None);
    assert_eq!(parse_vmhwm_mb("VmHWM:\n"), None);
    assert!(perfbench::sys::peak_rss_mb().is_some_and(|mb| mb > 0.0));
}

#[test]
fn the_paper_seed_reproduces_the_paper_configuration() {
    let paper = StudyConfig::paper();
    for w in Workload::ALL {
        let c = w.config(PAPER_SEED, w.level());
        assert_eq!(c.seed, paper.seed);
        assert_eq!(c.constellation.seed, paper.constellation.seed);
        assert_eq!(c.total_proxies, 2269);
        assert_eq!(c.calibration_pings, 40);
    }
    assert_eq!(
        Workload::Paper
            .config(PAPER_SEED, Level::Off)
            .grid_resolution_deg,
        0.5
    );
    assert_eq!(
        Workload::CoarseLossy
            .config(PAPER_SEED, Level::Off)
            .grid_resolution_deg,
        2.0
    );
    assert_eq!(Workload::PaperOps.level(), paper.obs_level);
    let other = Workload::Paper.config(7, Level::Off);
    assert_ne!(other.seed, paper.seed);
    assert_ne!(other.constellation.seed, paper.constellation.seed);
}

#[test]
fn median_and_result_line() {
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);

    let values: Vec<(&str, f64)> = END_TO_END.iter().map(|&(n, _)| (n, 1.25)).collect();
    let line = result_json(END_TO_END, &values, 2269, 0).expect("complete metrics");
    let doc = Json::parse(&line).expect("result line parses");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(2269.0));
    let metrics = doc.get("metrics").expect("metrics");
    for (name, unit) in END_TO_END {
        let m = metrics.get(name).expect(name);
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
    }

    assert!(result_json(END_TO_END, &values[1..], 1, 0).is_err());
    let mut nan = values.clone();
    nan[0].1 = f64::NAN;
    assert!(result_json(END_TO_END, &nan, 1, 0).is_err());
    let mut renamed = values.clone();
    renamed[0].0 = "not_a_metric";
    assert!(result_json(END_TO_END, &renamed, 1, 0).is_err());
}
