//! Exact ratchets on the paper-scale study: error counts, probe volume
//! and peak memory, each checked against a ceiling recorded from an
//! earlier run.
//!
//! The study is a pure function of its seed, so every count here is
//! exact and the same on any machine. A ceiling only moves down: when a
//! change lowers a count, lower its constant to match in the same
//! change; never raise one to let a change pass.
//!
//! This file holds exactly one test, so the process's `VmHWM` is that
//! study's peak and nothing else's.

use proxy_verifier::obs::Level;
use proxy_verifier::vpnstudy::{Study, StudyConfig, StudyResults};
use proxy_verifier::Assessment;

/// Honest proxies whose refined verdict is `False`. Lower it when a change lowers the count; never raise it.
const MAX_HONEST_REFINED_FALSE: usize = 111;
/// Honest proxies whose raw verdict is `False`. Lower it when a change lowers the count; never raise it.
const MAX_HONEST_RAW_FALSE: usize = 38;
/// Probes the audit sends (`net.probe.sent`). Lower it when a change lowers the count; never raise it.
const MAX_PROBES_SENT: u64 = 339_219;
/// Peak resident set of this test process on Linux, kB. The study
/// peaked at 25.4-26.0 MB in the test profile on a 2-vCPU x86-64 box;
/// the ceiling allows 1.5x that for allocator and libc differences
/// between machines. Lower it when a change lowers the peak; never
/// raise it.
const MAX_VM_HWM_KB: u64 = 39_000;

/// Measured proxies whose verdict is `assessment` (the refined one when
/// `refined`, else the raw one) among the honest proxies, whose claimed
/// country is the true one, or else among the dishonest ones.
fn count(results: &StudyResults, refined: bool, assessment: Assessment, honest: bool) -> usize {
    results
        .records
        .iter()
        .filter(|r| {
            let verdict = if refined { &r.refined } else { &r.verdict };
            verdict.assessment == assessment && (r.proxy.claimed == r.proxy.true_country) == honest
        })
        .count()
}

/// `VmHWM` from `/proc/self/status`, kB.
#[cfg(target_os = "linux")]
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM in kB")
}

#[test]
fn paper_study_stays_under_its_ratchets() {
    let mut study = Study::build(StudyConfig {
        obs_level: Level::Counters,
        ..StudyConfig::paper()
    });
    // A fixed worker count, so the peak does not follow the runner's cores.
    let results = study.run_with_threads(2);

    let honest_refined_false = count(&results, true, Assessment::False, true);
    let honest_raw_false = count(&results, false, Assessment::False, true);
    let dishonest_refined_credible = count(&results, true, Assessment::Credible, false);
    let dishonest_raw_credible = count(&results, false, Assessment::Credible, false);
    let probes = results.obs.counter("net.probe.sent");
    eprintln!(
        "honest false refined {honest_refined_false} raw {honest_raw_false}; \
         dishonest credible refined {dishonest_refined_credible} raw {dishonest_raw_credible}; \
         unmeasured {}; probes {probes}",
        results.unmeasured
    );

    assert!(
        honest_refined_false <= MAX_HONEST_REFINED_FALSE,
        "{honest_refined_false} honest proxies refined False, ceiling {MAX_HONEST_REFINED_FALSE}"
    );
    assert!(
        honest_raw_false <= MAX_HONEST_RAW_FALSE,
        "{honest_raw_false} honest proxies raw False, ceiling {MAX_HONEST_RAW_FALSE}"
    );
    assert_eq!(
        dishonest_refined_credible, 0,
        "dishonest proxies refined Credible"
    );
    assert_eq!(dishonest_raw_credible, 0, "dishonest proxies raw Credible");
    assert_eq!(results.unmeasured, 0, "unmeasured proxies");
    assert!(
        probes <= MAX_PROBES_SENT,
        "{probes} probes sent, ceiling {MAX_PROBES_SENT}"
    );

    #[cfg(target_os = "linux")]
    {
        let hwm = vm_hwm_kb();
        eprintln!("VmHWM {hwm} kB");
        assert!(
            hwm <= MAX_VM_HWM_KB,
            "VmHWM {hwm} kB, ceiling {MAX_VM_HWM_KB} kB"
        );
    }
}
