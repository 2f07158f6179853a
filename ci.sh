#!/usr/bin/env sh
# Tier-1 gate, run exactly as CI runs it: fully offline against an empty
# registry. The workspace has zero external dependencies, so this must
# succeed on a clean checkout with no network.
set -eu

export CARGO_NET_OFFLINE=true

cargo build --release --offline

# One run of every test in the workspace: the member crates' unit tests
# (audit, disambiguation, reliability, campaign scoring, ...) and the
# root package's integration tests, which include the exact paper-scale
# ratchets (tests/ratchets.rs) and three smokes:
#  - tests/fault_campaign.rs: the audit under probe loss + landmark
#    outages must stay deterministic and account for every proxy;
#  - tests/adversary_campaign.rs: active timing attacks must be caught
#    (or provably harmless), and an armed, defended study must stay
#    byte-deterministic across thread counts;
#  - tests/verdict_store.rs: write a study epoch to disk, reopen the
#    file cold, and answer the lookup/trend/false-rate queries without
#    re-measurement.
cargo test -q --offline --workspace

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
# must be exactly what the current code prints, and so must the
# committed paper-scale headline. A diff means either a behaviour change
# (refresh the file on purpose, and say why) or an accidental one (fix
# the code).
cargo run -q --release --offline -p bench --bin figures -- headline --scale small \
    > "$report_dir/headline_small.txt"
cmp bench_output/headline_small.txt "$report_dir/headline_small.txt" || {
    echo "FAIL: figures headline --scale small differs from bench_output/headline_small.txt" >&2
    exit 1
}
cargo run -q --release --offline -p bench --bin figures -- headline --scale paper \
    --out "$report_dir/paper" > /dev/null
cmp bench_output_paper/headline.txt "$report_dir/paper/headline.txt" || {
    echo "FAIL: figures headline --scale paper differs from bench_output_paper/headline.txt" >&2
    exit 1
}

# Telemetry export gate (tests/ops_telemetry.rs is the in-process
# version; this is the shipped binary):
#  1. the deterministic subset of the OpenMetrics exposition must be
#     byte-identical at 1 and 8 worker threads — the determinism
#     contract extends to what an operator scrapes;
#  2. the full exposition must round-trip through the in-repo
#     OpenMetrics parser byte-for-byte and lint clean against the
#     metric-name registry;
#  3. the SLO mode must exit zero on a healthy run (it exits 1 when any
#     of the SLO rules fires — the release pipeline's alerting hook).
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

# Perf lab smoke (see EXPERIMENTS.md "Perf lab"): the profiler must
# render a span tree for a full (small) audit. The perf checks that fail
# CI are the exact paper-scale ratchets in tests/ratchets.rs, run by the
# workspace `cargo test` above.
cargo run -q --release --offline -p bench --bin figures -- profile --scale small \
    > /dev/null
