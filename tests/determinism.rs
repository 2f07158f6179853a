//! Reproducibility: the entire study is a pure function of its seed.

use proxy_verifier::vpnstudy::{Study, StudyConfig};
use proxy_verifier::Assessment;

fn digest(seed: u64) -> Vec<(u32, usize, usize, u8, u64)> {
    let mut study = Study::build(StudyConfig::small(seed));
    let results = study.run();
    results
        .records
        .iter()
        .map(|r| {
            let a = match r.refined.assessment {
                Assessment::Credible => 0u8,
                Assessment::Uncertain => 1,
                Assessment::False => 2,
                Assessment::Suspicious => 3,
            };
            (
                r.proxy.node,
                r.proxy.claimed,
                r.proxy.true_country,
                a,
                r.region_area_km2.to_bits(),
            )
        })
        .collect()
}

#[test]
fn same_seed_same_study_bit_for_bit() {
    assert_eq!(digest(77), digest(77));
}

#[test]
fn different_seeds_differ() {
    assert_ne!(digest(77), digest(78));
}

/// A full fingerprint of a study's deterministic output: every record
/// field that ends up in a report (float bits included, so "close" is
/// not good enough), every failure, and the η estimate.
fn full_fingerprint(results: &proxy_verifier::vpnstudy::audit::StudyResults) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if let Some(eta) = &results.eta {
        let _ = writeln!(out, "eta {:x} {:x} {}", eta.eta().to_bits(), eta.r_squared.to_bits(), eta.samples);
    }
    for r in &results.records {
        let _ = writeln!(
            out,
            "rec {} {} {} {:?} {:?} {:?} {:?} {:x} {:?} {:x} {} {} {} {}",
            r.proxy.node,
            r.proxy.claimed,
            r.proxy.true_country,
            r.verdict.assessment,
            r.verdict.continent,
            r.refined.assessment,
            r.dc_country,
            r.region_area_km2.to_bits(),
            r.centroid.map(|c| (c.lat().to_bits(), c.lon().to_bits())),
            r.self_ping_ms.to_bits(),
            r.observations.len(),
            r.diagnostics.attempts,
            r.diagnostics.retries,
            r.diagnostics.timeouts,
        );
        for (lm, ms) in &r.observations {
            let _ = writeln!(out, "  obs {:x} {:x} {:x}", lm.lat().to_bits(), lm.lon().to_bits(), ms.to_bits());
        }
    }
    for f in &results.failures {
        let _ = writeln!(
            out,
            "fail {} {:?} {} {} {}",
            f.proxy.node, f.failure, f.diagnostics.attempts, f.diagnostics.retries, f.diagnostics.timeouts
        );
    }
    out
}

/// The tentpole guarantee of the parallel audit engine: fanning the
/// proxies out across worker threads must not change a single bit of
/// any deterministic output — records, failures, observations, η —
/// relative to the serial (1-thread) path.
#[test]
fn thread_count_never_changes_the_study() {
    let run = |threads: usize| {
        let mut study = Study::build(StudyConfig::small(77));
        let results = study.run_with_threads(threads);
        assert_eq!(results.threads, threads.max(1));
        full_fingerprint(&results)
    };
    let serial = run(1);
    assert!(!serial.is_empty(), "study produced no output at all");
    for threads in [2, 4, 8, 16] {
        assert_eq!(
            serial,
            run(threads),
            "study output diverged at {threads} threads"
        );
    }
}

/// `Study::run_sharded` survives only as a forwarder for callers of the
/// old shard API; it ignores the shard count, so any shard count × any
/// worker budget must reproduce the 1-thread run byte for byte: the
/// fingerprint, the JSONL trace and the rendered observability block.
#[test]
fn shard_count_never_changes_the_study() {
    use proxy_verifier::vpnstudy::report;
    let run = |results: proxy_verifier::vpnstudy::audit::StudyResults| {
        (
            full_fingerprint(&results),
            results.trace_jsonl(),
            report::render_observability(&results),
        )
    };
    let reference = run(Study::build(StudyConfig::small(77)).run_with_threads(1));
    assert!(!reference.0.is_empty(), "study produced no output at all");
    for shards in [2, 5] {
        for threads in [1, 8] {
            let results = Study::build(StudyConfig::small(77)).run_sharded(shards, threads);
            assert_eq!(results.threads, threads);
            assert!(
                reference == run(results),
                "output diverged at {shards} shards x {threads} threads"
            );
        }
    }
}

/// More workers than proxies leaves some workers with nothing to claim;
/// the output must not notice.
#[test]
fn more_threads_than_proxies_is_byte_identical_too() {
    let run = |threads: usize| {
        let mut config = StudyConfig::small(91);
        config.total_proxies = 6;
        let mut study = Study::build(config);
        full_fingerprint(&study.run_with_threads(threads))
    };
    assert_eq!(run(1), run(13), "idle workers changed the output");
}

/// The observability layer's determinism contract: the JSONL event
/// trace and the rendered observability block are byte-identical at any
/// thread count. Per-proxy event buffers are recorded worker-locally
/// and absorbed in proxy order, so the merged stream must not depend on
/// which worker measured which proxy — only the wall-clock compartment
/// (timing spans, elapsed time) may differ, and it is excluded here.
#[test]
fn trace_and_observability_report_are_thread_count_invariant() {
    use proxy_verifier::vpnstudy::report;
    let run = |threads: usize| {
        let mut study = Study::build(StudyConfig::small(77));
        let results = study.run_with_threads(threads);
        (
            results.trace_jsonl(),
            report::render_observability(&results),
        )
    };
    let (trace1, obs1) = run(1);
    assert!(
        trace1.lines().count() > 100,
        "trace suspiciously small: {} lines",
        trace1.lines().count()
    );
    for threads in [8, 16] {
        let (trace_n, obs_n) = run(threads);
        assert_eq!(
            trace1, trace_n,
            "JSONL trace diverged between 1 and {threads} threads"
        );
        assert_eq!(
            obs1, obs_n,
            "observability report diverged between 1 and {threads} threads"
        );
    }
}

/// End-to-end check on the in-repo RNG substrate: two fully independent
/// studies built from the same `StudyConfig` seed must agree on every
/// audit verdict count, both for the single-round and the refined pass.
#[test]
fn same_seed_same_verdict_counts() {
    let counts = |seed: u64| {
        let mut study = Study::build(StudyConfig::small(seed));
        let results = study.run();
        (results.counts(false), results.counts(true))
    };
    let (initial_a, refined_a) = counts(41);
    let (initial_b, refined_b) = counts(41);
    assert_eq!(initial_a, initial_b, "initial-pass verdict counts diverged");
    assert_eq!(refined_a, refined_b, "refined-pass verdict counts diverged");
    let (c, u, f) = refined_a;
    assert!(c + u + f > 0, "study produced no verdicts");
}
