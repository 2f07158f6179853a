//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is the result object; a
//! machine fingerprint line comes before it. Any failed output check
//! exits with code 1 and prints no result.

use obs::Level;
use perfbench::layers::{self, AUDIT_LAYERS, OTHER};
use perfbench::measure::{self, Publish, Reopen, Truth, SETUP_STEPS};
use perfbench::workload::{Workload, PAPER_SEED};
use perfbench::{median, sys, Checks, END_TO_END, PER_LAYER};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Internal flag: run only the untraced audit (see [`untraced_audit`]).
const UNTRACED_AUDIT: &str = "--untraced-audit";
/// Minimum split set-up samples of a traced run.
const MIN_SETUPS: usize = 3;
/// Minimum rounds of short-step samples per run (see [`rounds`]).
const MIN_ROUNDS: usize = 3;
/// Publishes per round.
const PUBLISH_PER_ROUND: usize = 3;
/// Cold reopens of each published store. Reopen samples are the
/// noisiest of the short steps (±30 % apiece on a shared box), so they
/// get the most.
const REOPEN_PER_PUBLISH: usize = 2;
/// Bytes per MB in every `_mb` metric.
const MB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run only the untraced audit and print its time and
    /// verdicts (the traced run's reference, in a process of its own).
    untraced_audit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PAPER_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut untraced_audit = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            UNTRACED_AUDIT => untraced_audit = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        untraced_audit,
    })
}

/// Scratch directory for store files inside the working directory,
/// removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> io::Result<Scratch> {
        let dir = Path::new(".perfbench_tmp").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    fn store(&self) -> PathBuf {
        self.0.join("store.jsonl")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// Samples of the short steps, taken after the audit.
#[derive(Default)]
struct Rounds {
    setups: Vec<f64>,
    pubs: Vec<Publish>,
    reopens: Vec<Reopen>,
}

impl Rounds {
    /// Medians of the whole publish step and of the whole reopen step.
    fn totals(&self) -> (f64, f64) {
        let publish = median(&mut self.pubs.iter().map(Publish::total_s).collect::<Vec<_>>());
        let reopen = median(
            &mut self
                .reopens
                .iter()
                .map(|r| r.open_s + r.query_s)
                .collect::<Vec<_>>(),
        );
        (publish, reopen)
    }

    /// Per-step medians of the publish and reopen samples.
    fn medians(&self) -> (Publish, Reopen) {
        let med =
            |f: &dyn Fn(&Publish) -> f64| median(&mut self.pubs.iter().map(f).collect::<Vec<_>>());
        let publish = Publish {
            report_s: med(&|p| p.report_s),
            trace_s: med(&|p| p.trace_s),
            openmetrics_s: med(&|p| p.openmetrics_s),
            append_s: med(&|p| p.append_s),
            trace_bytes: self.pubs[0].trace_bytes,
            store_bytes: self.pubs[0].store_bytes,
        };
        let med = |f: &dyn Fn(&Reopen) -> f64| {
            median(&mut self.reopens.iter().map(f).collect::<Vec<_>>())
        };
        let reopen = Reopen {
            open_s: med(&|r| r.open_s),
            query_s: med(&|r| r.query_s),
        };
        (publish, reopen)
    }
}

/// Rounds of (one `Study::build` of `setup`, when given, then
/// [`PUBLISH_PER_ROUND`] publishes, each followed by
/// [`REOPEN_PER_PUBLISH`] reopens) until
/// `budget_s` seconds are spent and at least [`MIN_ROUNDS`] ran. Every
/// short step is thus sampled across the same stretch of time, so a
/// slow spell of the machine moves few of the samples of any one step.
fn rounds(
    checks: &mut Checks,
    study: &vpnstudy::Study,
    results: &vpnstudy::StudyResults,
    setup: Option<&vpnstudy::StudyConfig>,
    budget_s: f64,
) -> io::Result<Rounds> {
    let scratch = Scratch::new()?;
    let store = scratch.store();
    let start = std::time::Instant::now();
    let mut out = Rounds::default();
    for round in 0.. {
        if round >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        if let Some(config) = setup {
            let (built, secs) = measure::timed(|| vpnstudy::Study::build(config.clone()));
            drop(built);
            out.setups.push(secs);
        }
        for _ in 0..PUBLISH_PER_ROUND {
            out.pubs
                .push(measure::publish(checks, study, results, &store)?);
            for _ in 0..REOPEN_PER_PUBLISH {
                out.reopens
                    .push(measure::reopen(checks, study, results, &store)?);
            }
            std::fs::remove_file(&store)?;
        }
    }
    Ok(out)
}

/// The end-to-end run: set-up, the audit, then rounds of set-up,
/// publish and reopen samples.
fn end_to_end(args: &Args, checks: &mut Checks) -> io::Result<(Vec<(&'static str, f64)>, usize)> {
    let w = args.workload;
    let config = w.config(args.seed, w.level());
    let (mut study, first_setup_s) = measure::timed(|| vpnstudy::Study::build(config.clone()));
    w.apply_faults(&mut study, args.seed);
    let (wait0, cpu0) = (sys::run_queue_wait_s(), sys::process_user_sys_s());
    let (results, audit_s) = measure::audit(&mut study);
    let (wait1, cpu1) = (sys::run_queue_wait_s(), sys::process_user_sys_s());
    if let (Some(w0), Some((u0, s0)), Some(w1), Some((u1, s1))) = (wait0, cpu0, wait1, cpu1) {
        // Machine drift shows as user time tracking wall time with no
        // wait to run; scheduling trouble would show as wait.
        eprintln!(
            "[perfbench] audit: {audit_s:.3} s wall, {:.2} s user, {:.2} s system, \
             {:.3} s waiting to run",
            u1 - u0,
            s1 - s0,
            w1 - w0
        );
    }
    measure::check_audit(checks, &study, &results);
    let truth = Truth::of(&results);
    let mut r = rounds(checks, &study, &results, Some(&config), args.seconds)?;
    r.setups.push(first_setup_s);
    let peak = sys::peak_rss_mb().unwrap_or(f64::NAN);
    let fleet = truth.fleet();
    eprintln!(
        "[perfbench] {} seed {}: {} set-ups, {} publishes, refined {:?}, raw {:?}, \
         unmeasured {}, honest measured {}, honest accused {}, dishonest credible {}",
        w.name(),
        args.seed,
        r.setups.len(),
        r.pubs.len(),
        truth.refined,
        truth.raw,
        truth.unmeasured,
        truth.honest,
        truth.honest_false_accused,
        truth.dishonest_credible
    );
    let (publish_s, reopen_s) = r.totals();
    // The steps' wall times go with every run, outside the metrics:
    // their drift on a shared box exceeds any allowed bound.
    println!(
        "{{\"wall\":{{\"audit_s\":{audit_s},\"publish_s\":{publish_s},\"reopen_s\":{reopen_s}}}}}"
    );
    Ok((
        vec![
            ("setup_s", median(&mut r.setups)),
            ("peak_rss_mb", peak),
            ("honest_unaccused_ratio", truth.honest_unaccused_ratio()),
            ("credible_precision", truth.credible_precision()),
            ("truth_coverage", truth.coverage),
            ("measured_ratio", truth.measured as f64 / fleet as f64),
        ],
        fleet,
    ))
}

/// The traced run: split set-up, an untraced and a traced audit, and the
/// publish and store steps timed one by one.
fn traced(
    args: &Args,
    checks: &mut Checks,
    calib_s: f64,
) -> io::Result<(Vec<(&'static str, f64)>, usize)> {
    let w = args.workload;
    let config = w.config(args.seed, Level::Off);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // Set-up, step by step, until the budget is spent.
    let start = std::time::Instant::now();
    let mut steps: Vec<Vec<f64>> = vec![Vec::new(); SETUP_STEPS.len()];
    let mut parts;
    loop {
        let (secs, p) = measure::split_setup(&config);
        parts = p;
        for (samples, s) in steps.iter_mut().zip(secs) {
            samples.push(s);
        }
        if steps[0].len() >= MIN_SETUPS && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    for (name, samples) in SETUP_STEPS.iter().zip(&mut steps) {
        out.push((name, median(samples)));
    }
    out.push(("setup.rss_mb", sys::peak_rss_mb().unwrap_or(f64::NAN)));

    // Untraced audit, in a process of its own: the reference for the
    // overhead and the verdicts. Neither audit inherits the other's heap.
    let (untraced_s, untraced_truth) = untraced_reference(args)?;

    // Traced audit.
    let mut study = measure::build(w, args.seed, w.traced_level());
    measure::check_parts(checks, &parts, &study);
    drop(parts);
    let (results, traced_s) = measure::audit(&mut study);
    measure::check_audit(checks, &study, &results);
    let truth = Truth::of(&results);
    let traced_truth = format!("{truth:?}");
    checks.check(traced_truth == untraced_truth, || {
        format!("traced verdicts {traced_truth} differ from untraced {untraced_truth}")
    });

    let profile = results.obs.profile();
    let rollup = layers::rollup(&profile);
    let named_ns: u128 = AUDIT_LAYERS.iter().map(|l| rollup.ns(l)).sum();
    for &layer in AUDIT_LAYERS {
        out.push((layer, rollup.ns(layer) as f64 / 1e9));
    }
    // Unmatched spans plus audit time no span covers.
    out.push((OTHER, traced_s - named_ns as f64 / 1e9));

    let summary = results.reliability_summary();
    let landmark_probes = layers::span_count(&profile, "net.probe", "twophase.");
    let observations: usize = results.records.iter().map(|r| r.observations.len()).sum();
    let cache = results.cache_stats();
    out.push((
        "netsim.probes",
        results.obs.counter("net.probe.sent") as f64,
    ));
    out.push((
        "netsim.probe_timeouts",
        results.obs.counter("net.probe.timeout") as f64,
    ));
    out.push(("geoloc.retries", summary.totals.retries as f64));
    out.push(("geoloc.fallbacks", summary.totals.fallbacks as f64));
    out.push((
        "geoloc.useful_ratio",
        observations as f64 / landmark_probes.max(1) as f64,
    ));
    out.push((
        "geoloc.cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    ));

    let r = rounds(checks, &study, &results, None, 0.0)?;
    let (publish, reopen) = r.medians();
    let (publish_s, reopen_s) = r.totals();
    out.push(("wall.audit_s", untraced_s));
    out.push(("wall.publish_s", publish_s));
    out.push(("wall.reopen_s", reopen_s));
    out.push(("obs.trace_jsonl_s", publish.trace_s));
    out.push(("obs.trace_mb", publish.trace_bytes as f64 / MB));
    out.push(("obs.openmetrics_s", publish.openmetrics_s));
    out.push(("vpnstudy.report_s", publish.report_s));
    out.push(("store.append_s", publish.append_s));
    out.push(("store.mb", publish.store_bytes as f64 / MB));
    out.push(("store.open_s", reopen.open_s));
    out.push(("store.query_s", reopen.query_s));
    out.push(("trace_overhead_s", traced_s - untraced_s));
    out.push((
        "truth.honest_false_accused",
        truth.honest_false_accused as f64,
    ));
    out.push(("truth.dishonest_credible", truth.dishonest_credible as f64));
    out.push((
        "truth.unmeasured_ratio",
        truth.unmeasured as f64 / truth.fleet() as f64,
    ));
    out.push(("machine.calib_s", calib_s));
    eprintln!(
        "[perfbench] {} seed {} traced: audit {traced_s:.3} s vs untraced {untraced_s:.3} s",
        w.name(),
        args.seed
    );
    Ok((out, truth.fleet()))
}

/// Child mode: build the workload with recording off, audit it, and
/// print `<audit seconds> <verdicts scored against truth>`.
fn untraced_audit(args: &Args) -> ExitCode {
    let mut study = measure::build(args.workload, args.seed, Level::Off);
    let (results, secs) = measure::audit(&mut study);
    println!("{secs} {:?}", Truth::of(&results));
    ExitCode::SUCCESS
}

/// Run [`untraced_audit`] in a child process and wait for it.
fn untraced_reference(args: &Args) -> io::Result<(f64, String)> {
    let seed = args.seed.to_string();
    let out = Command::new(std::env::current_exe()?)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &seed,
            UNTRACED_AUDIT,
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "untraced audit exited with {}",
            out.status
        )));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let bad = || io::Error::other(format!("untraced audit printed {text:?}"));
    let (secs, truth) = text.trim().split_once(' ').ok_or_else(bad)?;
    Ok((secs.parse().map_err(|_| bad())?, truth.to_string()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper|paper-ops|coarse-lossy> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if args.untraced_audit {
        return untraced_audit(&args);
    }
    let machine = sys::machine();
    println!("{}", machine.json());

    let mut checks = Checks::default();
    let run = if args.trace {
        traced(&args, &mut checks, machine.calib_s)
    } else {
        end_to_end(&args, &mut checks)
    };
    let (values, fleet) = match run {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: I/O error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !checks.failures().is_empty() {
        for f in checks.failures() {
            eprintln!("perfbench: check failed: {f}");
        }
        return ExitCode::FAILURE;
    }
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    match perfbench::result_json(expected, &values, fleet, 0) {
        Ok(line) => {
            eprintln!("[perfbench] {} output checks passed", checks.passed());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
