//! Render the audit's deterministic report blocks for the CI
//! determinism gate.
//!
//! `ci.sh` runs this under `PV_THREADS=1`, `8`, and `16` and fails on
//! any byte difference, proving that the parallel audit engine changes
//! nothing the study reports. Everything printed here must therefore be
//! a pure function of the study seed: the perf telemetry block
//! (`render_perf_telemetry`) is absent because it prints the worker
//! count. The observability block, the deterministic half
//! of the progress-snapshot stream, and the full JSONL event trace are
//! included too: per-proxy event buffers and snapshot deltas are merged
//! in proxy order, so they must be byte-identical at any thread count.

use vpnstudy::audit::Study;
use vpnstudy::campaign::{shaping_plan, AdversaryModel};
use vpnstudy::report;
use vpnstudy::StudyConfig;

fn main() {
    let mut study = Study::build(StudyConfig::small(0xd1ff));
    // `Study::run` reads PV_THREADS via `parallel::configured_threads`.
    let results = study.run();
    print!("{}", report::render_overall(&study, &results));
    println!("---");
    print!("{}", report::render_reliability(&results));
    println!("---");
    print!("{}", report::render_fig21(&study, &results));
    println!("---");
    print!("{}", report::render_observability(&results));
    println!("---");
    // The deterministic half of each progress snapshot: a pure function
    // of (seed, snapshot_every), so it diffs byte-identically across
    // every thread count. The wall half (elapsed, ETA) is
    // deliberately absent from this rendering.
    print!("{}", results.snapshots_jsonl());
    println!("---");
    print!("{}", results.trace_jsonl());

    // The same gate with the active-adversary layer armed and the
    // Byzantine defense on: holds, selective timeouts, collusion,
    // self-ping inflation, the challenge sweep, and every `defense`
    // event must be just as scheduling-independent as the honest run.
    let mut armed = Study::build(StudyConfig::small(0xd1ff));
    armed.config.defense.enabled = true;
    let (plan, _) = shaping_plan(&armed, AdversaryModel::FullShaping, 0.66);
    *armed.world.network_mut().adversary_mut() = plan;
    let armed_results = armed.run();
    println!("--- armed ---");
    print!("{}", report::render_overall(&armed, &armed_results));
    println!("---");
    print!("{}", report::render_reliability(&armed_results));
    println!("---");
    print!("{}", report::render_observability(&armed_results));
    println!("---");
    print!("{}", armed_results.snapshots_jsonl());
    println!("---");
    print!("{}", armed_results.trace_jsonl());
}
