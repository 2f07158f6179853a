#!/usr/bin/env sh
# Tier-1 gate, run exactly as CI runs it: fully offline against an empty
# registry. The workspace has zero external dependencies, so this must
# succeed on a clean checkout with no network.
set -eu

export CARGO_NET_OFFLINE=true

cargo build --release --offline
cargo test -q --offline

# The benchmark under perfbench/ is a separate, frozen crate that calls
# the study's public entry points; it must at least still compile.
cargo test --no-run -q --release --offline --manifest-path perfbench/Cargo.toml

# Lint gate: the workspace must be clippy-clean, warnings as errors.
cargo clippy --offline --workspace --all-targets -- -D warnings

# Doc gate: rustdoc must be warning-free, so an intra-doc link to a
# renamed or deleted item fails here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Every example must at least build; quickstart must actually run.
cargo build --release --examples --offline
cargo run -q --release --offline --example quickstart > /dev/null

# Reliability smoke: the audit under probe loss + landmark outages must
# stay deterministic and account for every proxy.
cargo test -q --offline --test fault_campaign

# Adversary smoke: active timing attacks must be caught (or provably
# harmless), and an armed, defended study must stay byte-deterministic
# across thread counts.
cargo test -q --offline --test adversary_campaign

# Parallelism determinism gate: the rendered study report — including
# the observability block and the full JSONL event trace — must be
# byte-identical whether the audit fans out over 1, 8, or 16 workers
# (16 oversubscribes every CI box, which is exactly the point: heavy
# preemption shakes out scheduling dependence). Any diff means a
# proxy's result (or its recorded trace) depended on scheduling — a
# bug, not noise.
report_dir="$(mktemp -d)"
trap 'rm -rf "$report_dir"' EXIT
for t in 1 8 16; do
    PV_THREADS=$t cargo run -q --release --offline -p bench --bin determinism_report \
        > "$report_dir/report-${t}thread.txt"
done
for t in 8 16; do
    cmp "$report_dir/report-1thread.txt" "$report_dir/report-${t}thread.txt" || {
        echo "FAIL: study report differs between PV_THREADS=1 and PV_THREADS=$t" >&2
        exit 1
    }
done

# Results freshness gate: the committed small-scale headline numbers
# must be exactly what the current code prints. A diff means either a
# behaviour change (refresh bench_output/headline_small.txt on purpose,
# and say why) or an accidental one (fix the code).
cargo run -q --release --offline -p bench --bin figures -- headline --scale small \
    > "$report_dir/headline_small.txt"
cmp bench_output/headline_small.txt "$report_dir/headline_small.txt" || {
    echo "FAIL: figures headline --scale small differs from bench_output/headline_small.txt" >&2
    exit 1
}

# Verdict-store smoke: write a study epoch to disk, reopen the file
# cold, and answer the lookup/trend/false-rate queries without
# re-measurement (tests/verdict_store.rs).
cargo test -q --offline --test verdict_store

# Telemetry export gate (tests/ops_telemetry.rs is the in-process
# version; this is the shipped binary):
#  1. the deterministic subset of the OpenMetrics exposition must be
#     byte-identical at 1 and 8 worker threads — the determinism
#     contract extends to what an operator scrapes;
#  2. the full exposition must round-trip through the in-repo
#     OpenMetrics parser byte-for-byte and lint clean against the
#     metric-name registry;
#  3. the SLO mode must exit zero on a healthy run (it exits 1 when any
#     default rule fires — the release pipeline's alerting hook).
PV_THREADS=1 cargo run -q --release --offline -p bench --bin metrics_export \
    > "$report_dir/metrics-1thread.om"
PV_THREADS=8 cargo run -q --release --offline -p bench --bin metrics_export \
    > "$report_dir/metrics-8thread.om"
cmp "$report_dir/metrics-1thread.om" "$report_dir/metrics-8thread.om" || {
    echo "FAIL: deterministic metrics differ between PV_THREADS=1 and 8" >&2
    exit 1
}
cargo run -q --release --offline -p bench --bin metrics_export -- --check
cargo run -q --release --offline -p bench --bin metrics_export -- --slo

# Perf lab smoke (see EXPERIMENTS.md "Perf lab"):
#  1. the profiler must render a span tree for a full (small) audit;
#  2. the perf gate's comparator must catch a synthetic 2x regression
#     (machine-independent self-test);
#  3. the smoke suite must pass against the committed baseline. The
#     baseline was recorded on the reference machine; on other hardware
#     a miss here means "refresh with perf_gate --update", not "CI is
#     broken", so this step warns instead of failing.
cargo run -q --release --offline -p bench --bin figures -- profile --scale small \
    > /dev/null
PV_BENCH_SAMPLES=5 cargo run -q --release --offline -p bench --bin perf_gate -- --self-test
PV_BENCH_SAMPLES=10 cargo run -q --release --offline -p bench --bin perf_gate || {
    echo "WARN: perf gate exceeded tolerance vs the committed baseline" >&2
    echo "      (real regression, or a different machine: see perf_gate --update)" >&2
}
