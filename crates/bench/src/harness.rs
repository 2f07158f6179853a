//! A minimal, zero-dependency stand-in for the slice of Criterion's API
//! the benches in `benches/` use.
//!
//! The workspace builds fully offline, so the real `criterion` crate is
//! out of reach. This harness keeps the bench sources nearly unchanged
//! (same `Criterion` / `Bencher` / `BatchSize` names, same
//! `criterion_group!` / `criterion_main!` macros) while measuring with
//! plain `std::time::Instant`:
//!
//! * warm up the routine briefly and estimate its per-iteration cost;
//! * pick an iteration count per sample targeting ~5 ms of work;
//! * take `sample_size` samples (default 50) and report the median,
//!   10th- and 90th-percentile per-iteration time.
//!
//! ## Sample-count override: `PV_BENCH_SAMPLES`
//!
//! Setting the `PV_BENCH_SAMPLES` environment variable overrides *every*
//! sample count — the default, `--sample-size`, and per-group
//! [`BenchmarkGroup::sample_size`] calls alike (clamped to a minimum of
//! 2). This is the smoke mode: `PV_BENCH_SAMPLES=5 cargo bench` runs
//! the full suite in seconds with noisier numbers, while local runs
//! without the variable keep the full 50-sample statistics.
//!
//! ## Output files
//!
//! Results print to stdout and land in `bench_output/` (directory
//! overridable via the `BENCH_OUTPUT_DIR` environment variable):
//!
//! * `<bench-binary>.txt` — one human-readable line per bench. The file
//!   is **merged keyed by bench name**: re-running a bench (even a
//!   `cargo bench -- <filter>` subset) replaces that bench's previous
//!   line in place and leaves the others, so the report always reflects
//!   each bench's latest run exactly once.
//! * `BENCH_<group>.json` — a machine-readable [`BenchArtifact`] per
//!   bench group (median/p10/p90 ns, iteration counts, thread count, `git describe`
//!   when available, and recorder counters when the group captured one
//!   via [`BenchmarkGroup::capture_recorder`]). Merged the same way.
//!
//! No statistical outlier rejection is attempted — this is a regression
//! smoke-harness, not a rigorous measurement tool.

use crate::artifact::{BenchArtifact, BenchRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How `Bencher::iter_batched` amortises setup cost. The real Criterion
/// uses this to size batches; here each iteration re-runs setup untimed,
/// so the variants only document intent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is cheap to hold many of (timing per call).
    SmallInput,
    /// Setup output is expensive; keep at most one alive.
    LargeInput,
}

/// Timing summary for one benchmark, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Sampled {
    /// Benchmark identifier as printed.
    pub name: String,
    /// Median per-iteration time (ns).
    pub median_ns: f64,
    /// 10th percentile (ns).
    pub p10_ns: f64,
    /// 90th percentile (ns).
    pub p90_ns: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples taken.
    pub samples: usize,
}

/// Collects per-iteration timings for one benchmark routine.
///
/// Handed to the `|b| b.iter(...)` closure; `iter`/`iter_batched` run
/// the warmup + sampling loop and stash the raw samples for `Criterion`
/// to summarise.
pub struct Bencher {
    sample_size: usize,
    /// Per-iteration times in ns, one entry per sample.
    sample_ns: Vec<f64>,
    iters_per_sample: u64,
}

/// Target wall time per timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(5);
/// Warmup budget before iteration-count calibration.
const WARMUP_TARGET: Duration = Duration::from_millis(50);

impl Bencher {
    fn new(sample_size: usize) -> Bencher {
        Bencher {
            sample_size,
            sample_ns: Vec::new(),
            iters_per_sample: 1,
        }
    }

    /// Benchmark `routine`, timing every call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warmup + calibration: run until the budget is spent, tracking
        // the observed per-call cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP_TARGET && warm_iters < 1_000_000 {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let iters = iters_for_target(per_iter);

        self.iters_per_sample = iters;
        self.sample_ns.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = t0.elapsed().as_nanos() as f64;
            self.sample_ns.push(elapsed / iters as f64);
        }
    }

    /// Benchmark `routine` on fresh input from `setup`; only `routine`
    /// is timed.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        let mut warm_timed = Duration::ZERO;
        while warm_start.elapsed() < WARMUP_TARGET && warm_iters < 1_000_000 {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            warm_timed += t0.elapsed();
            warm_iters += 1;
        }
        let per_iter = warm_timed.as_secs_f64() / warm_iters.max(1) as f64;
        let iters = iters_for_target(per_iter);

        self.iters_per_sample = iters;
        self.sample_ns.clear();
        for _ in 0..self.sample_size {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let t0 = Instant::now();
                std::hint::black_box(routine(input));
                timed += t0.elapsed();
            }
            self.sample_ns
                .push(timed.as_nanos() as f64 / iters as f64);
        }
    }
}

/// Iterations per sample so one sample takes ~`SAMPLE_TARGET`.
fn iters_for_target(per_iter_secs: f64) -> u64 {
    if per_iter_secs <= 0.0 {
        return 1;
    }
    ((SAMPLE_TARGET.as_secs_f64() / per_iter_secs) as u64).clamp(1, 10_000_000)
}

/// Drop-in for `criterion::Criterion`: runs benchmarks, prints one
/// summary line each, and writes the collected report at `finalize`.
pub struct Criterion {
    sample_size: usize,
    filter: Option<String>,
    results: Vec<Sampled>,
    /// Recorders captured per group for the JSON artifacts.
    captured: Vec<(String, obs::Recorder)>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 50,
            filter: None,
            results: Vec::new(),
            captured: Vec::new(),
        }
    }
}

/// The `PV_BENCH_SAMPLES` override, when set to a usable number.
fn env_sample_override() -> Option<usize> {
    std::env::var("PV_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(2))
}

impl Criterion {
    /// Build from the bench binary's CLI arguments. Understands the
    /// flags cargo passes (`--bench` is ignored) and treats the first
    /// free argument as a substring filter on benchmark names, like
    /// `cargo bench -- <filter>` does.
    pub fn from_args() -> Criterion {
        let mut c = Criterion::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                // Flags cargo's bench runner passes through.
                "--bench" | "--test" | "--quiet" | "-q" | "--exact" | "--nocapture" => {}
                "--sample-size" => {
                    if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                        c.sample_size = n;
                    }
                }
                other if other.starts_with("--") => {} // unknown flags: ignore
                free => {
                    if c.filter.is_none() {
                        c.filter = Some(free.to_string());
                    }
                }
            }
        }
        c
    }

    /// Run a single benchmark at the default sample size.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let sample_size = self.sample_size;
        self.run_one(name.into(), sample_size, f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            sample_size: self.sample_size,
            name: name.into(),
            recorder: None,
            criterion: self,
        }
    }

    fn run_one<F>(&mut self, name: String, sample_size: usize, f: F)
    where
        F: FnOnce(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        // The env override is the smoke switch: it wins over both the
        // default and any per-group sample_size() call.
        let mut bencher = Bencher::new(env_sample_override().unwrap_or(sample_size).max(2));
        f(&mut bencher);
        self.results.push(summarize(&name, &bencher));
        println!("{}", report_line(self.results.last().expect("just pushed")));
    }

    /// Print the trailer and write the report files (text + JSON
    /// artifacts), merging into any existing files keyed by bench name
    /// so each bench appears exactly once with its latest numbers —
    /// filtered runs update just their subset. Called by
    /// `criterion_main!` after every group has run.
    pub fn finalize(&mut self) {
        if self.results.is_empty() {
            println!("(no benchmarks matched)");
            return;
        }
        // `cargo bench` runs the binary with cwd = the bench crate, so
        // anchor the default on the workspace root, next to the figure
        // outputs, rather than on the current directory.
        let dir = std::env::var("BENCH_OUTPUT_DIR").unwrap_or_else(|_| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_output").into()
        });
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: could not create {dir}: {e}");
            return;
        }
        let stem = bench_binary_stem();

        // --- text report, merged keyed by bench name --------------------
        let txt_path = std::path::Path::new(&dir).join(format!("{stem}.txt"));
        let existing = std::fs::read_to_string(&txt_path).unwrap_or_default();
        let merged = merge_report_lines(&existing, &self.results);
        if std::fs::write(&txt_path, merged).is_err() {
            eprintln!("warning: could not write bench report to {}", txt_path.display());
        } else {
            println!("report written to {}", txt_path.display());
        }

        // --- JSON artifacts, one per bench group ------------------------
        let mut by_group: BTreeMap<String, Vec<BenchRecord>> = BTreeMap::new();
        for s in &self.results {
            let group = s.name.split('/').next().unwrap_or(&s.name).to_string();
            by_group.entry(group).or_default().push(BenchRecord::from(s));
        }
        let threads = parallel::configured_threads() as u64;
        let git = git_describe();
        for (group, records) in by_group {
            let path =
                std::path::Path::new(&dir).join(BenchArtifact::file_name(&group));
            let mut artifact = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| BenchArtifact::parse(&text).ok())
                .unwrap_or_default();
            artifact.group = group.clone();
            artifact.generated_by = stem.clone();
            artifact.threads = threads;
            artifact.git.clone_from(&git);
            if let Some((_, rec)) = self.captured.iter().find(|(g, _)| *g == group) {
                artifact.counters = rec
                    .counters()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect();
            }
            artifact.merge_results(&records);
            if std::fs::write(&path, artifact.to_json()).is_err() {
                eprintln!("warning: could not write {}", path.display());
            } else {
                println!("artifact written to {}", path.display());
            }
        }
    }
}

/// This bench binary's name with cargo's `-<hash>` suffix stripped.
fn bench_binary_stem() -> String {
    std::env::args()
        .next()
        .and_then(|p| {
            std::path::Path::new(&p)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .map(|s| match s.rfind('-') {
            Some(i) if s[i + 1..].chars().all(|c| c.is_ascii_hexdigit()) => {
                s[..i].to_string()
            }
            _ => s,
        })
        .unwrap_or_else(|| "bench".into())
}

/// `git describe --always --dirty` at the workspace root, if git and a
/// checkout are available.
fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// Merge fresh results into an existing text report: lines whose bench
/// name matches a fresh result are replaced in place, other lines are
/// kept, and brand-new benches append at the end — so the file always
/// holds each bench's latest run exactly once, never duplicates.
fn merge_report_lines(existing: &str, fresh: &[Sampled]) -> String {
    let mut remaining: Vec<&Sampled> = fresh.iter().collect();
    let mut out = String::new();
    for line in existing.lines() {
        let key = line.split(" median ").next().unwrap_or(line).trim_end();
        match remaining.iter().position(|s| s.name == key) {
            Some(i) => {
                let _ = writeln!(out, "{}", report_line(remaining.remove(i)));
            }
            None => {
                let _ = writeln!(out, "{line}");
            }
        }
    }
    for s in remaining {
        let _ = writeln!(out, "{}", report_line(s));
    }
    out
}

/// A named batch of benchmarks sharing a sample size, mirroring
/// `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    recorder: Option<obs::Recorder>,
}

impl BenchmarkGroup<'_> {
    /// Override the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Attach a recorder whose counters should land in this group's
    /// `BENCH_<group>.json` artifact. The snapshot is taken at
    /// `finalize`, after every bench in the group has run, so counters
    /// accumulated during the benches (probe counts, retries) appear
    /// in the artifact alongside the timings.
    pub fn capture_recorder(&mut self, rec: &obs::Recorder) -> &mut Self {
        self.recorder = Some(rec.clone());
        self
    }

    /// Run one benchmark within the group (name prefixed by the group's).
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name.into());
        let sample_size = self.sample_size;
        self.criterion.run_one(full, sample_size, f);
        self
    }

    /// End the group, handing any captured recorder to the parent
    /// `Criterion` for the JSON artifact.
    pub fn finish(self) {
        if let Some(rec) = self.recorder {
            self.criterion.captured.push((self.name, rec));
        }
    }
}

fn summarize(name: &str, bencher: &Bencher) -> Sampled {
    let mut ns = bencher.sample_ns.clone();
    ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    Sampled {
        name: name.to_string(),
        median_ns: percentile(&ns, 0.50),
        p10_ns: percentile(&ns, 0.10),
        p90_ns: percentile(&ns, 0.90),
        iters_per_sample: bencher.iters_per_sample,
        samples: ns.len(),
    }
}

/// Linear-interpolated percentile of an ascending slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }
}

fn report_line(s: &Sampled) -> String {
    format!(
        "{:<44} median {:>10}  p10 {:>10}  p90 {:>10}  ({} samples x {} iters)",
        s.name,
        fmt_ns(s.median_ns),
        fmt_ns(s.p10_ns),
        fmt_ns(s.p90_ns),
        s.samples,
        s.iters_per_sample,
    )
}

/// Human units: ns below 1 µs, µs below 1 ms, ms beyond.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

/// Mirror of `criterion::criterion_group!`: bundles bench functions into
/// one runner function taking `&mut Criterion`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::harness::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Mirror of `criterion::criterion_main!`: generates `fn main` that runs
/// each group against one argument-configured `Criterion` and writes the
/// report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::from_args();
            $( $group(&mut c); )+
            c.finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(12_345.0), "12.35 µs");
        assert_eq!(fmt_ns(12_345_678.0), "12.35 ms");
    }

    #[test]
    fn iters_scale_inversely_with_cost() {
        assert_eq!(iters_for_target(1.0), 1); // 1 s per iter → one at a time
        assert!(iters_for_target(1e-9) > 1_000_000); // 1 ns per iter → many
        assert_eq!(iters_for_target(0.0), 1);
    }

    #[test]
    fn bencher_measures_a_cheap_routine() {
        let mut b = Bencher::new(5);
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(std::hint::black_box(17));
            acc
        });
        assert_eq!(b.sample_ns.len(), 5);
        assert!(b.sample_ns.iter().all(|&ns| ns > 0.0));
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut b = Bencher::new(3);
        b.iter_batched(
            || vec![1u64; 16],
            |v| v.iter().sum::<u64>(),
            BatchSize::SmallInput,
        );
        assert_eq!(b.sample_ns.len(), 3);
    }

    #[test]
    fn groups_prefix_names_and_filter_applies() {
        let mut c = Criterion {
            sample_size: 3,
            filter: Some("keep".into()),
            results: Vec::new(),
            captured: Vec::new(),
        };
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(2);
            g.bench_function("keep-me", |b| b.iter(|| std::hint::black_box(1 + 1)));
            g.bench_function("skip-me", |b| b.iter(|| std::hint::black_box(2 + 2)));
            g.finish();
        }
        assert_eq!(c.results.len(), 1);
        assert_eq!(c.results[0].name, "g/keep-me");
        assert_eq!(c.results[0].samples, 2);
    }

    fn sampled(name: &str, median: f64) -> Sampled {
        Sampled {
            name: name.into(),
            median_ns: median,
            p10_ns: median * 0.9,
            p90_ns: median * 1.1,
            iters_per_sample: 10,
            samples: 5,
        }
    }

    #[test]
    fn merge_replaces_matching_lines_in_place_and_appends_new() {
        let old = format!(
            "{}\n{}\n",
            report_line(&sampled("g/alpha", 100.0)),
            report_line(&sampled("g/beta", 200.0)),
        );
        let fresh = [sampled("g/beta", 999.0), sampled("g/gamma", 300.0)];
        let merged = merge_report_lines(&old, &fresh);
        let lines: Vec<&str> = merged.lines().collect();
        // alpha untouched, beta replaced in place, gamma appended — no dupes.
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("g/alpha"));
        assert!(lines[1].starts_with("g/beta") && lines[1].contains("999.0 ns"));
        assert!(lines[2].starts_with("g/gamma"));
        // Re-merging the same results is idempotent.
        assert_eq!(merge_report_lines(&merged, &fresh), merged);
    }

    #[test]
    fn merge_into_empty_report_just_lists_fresh_results() {
        let fresh = [sampled("solo", 42.0)];
        let merged = merge_report_lines("", &fresh);
        assert_eq!(merged.lines().count(), 1);
        assert!(merged.starts_with("solo"));
    }

    #[test]
    fn finished_group_hands_captured_recorder_to_criterion() {
        let mut c = Criterion {
            sample_size: 2,
            filter: None,
            results: Vec::new(),
            captured: Vec::new(),
        };
        let rec = obs::Recorder::new(obs::Level::Counters);
        rec.count("probes", 7);
        {
            let mut g = c.benchmark_group("cap");
            g.capture_recorder(&rec);
            g.finish();
        }
        assert_eq!(c.captured.len(), 1);
        assert_eq!(c.captured[0].0, "cap");
        assert_eq!(c.captured[0].1.counter("probes"), 7);
    }
}
