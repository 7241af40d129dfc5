#!/usr/bin/env bash
# Pre-PR gate: formatting, lints with warnings denied, release build,
# and the tier-1 test suite. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> one hash module: splitmix64/FNV-1a constants only in tsc-obs/src/det.rs"
if grep -rniE --include='*.rs' '9e37_?79b9_?7f4a_?7c15|cbf2_?9ce4_?8422_?2325' crates/*/src |
    grep -v '^crates/tsc-obs/src/det\.rs:'; then
    echo "ci.sh: hash constants above belong in tsc_obs::det" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q (tier 1)"
cargo test --workspace -q

echo "==> tsc-nn tests on optimised code (kernel exactness as vectorised in release)"
cargo test --release -q -p tsc-nn

echo "==> perfbench self-tests (traced runs: layer-sum and digest-replay checks)"
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "==> parity smoke (event core vs legacy oracle, all flow patterns)"
cargo test --release -q -p tsc-sim --test parity
cargo test --release -q -p tsc-sim --test golden

echo "==> serve_grid --smoke (serving runtime end-to-end)"
cargo run --release -q -p tsc-bench --bin serve_grid -- --smoke

echo "==> chaos --smoke (mixed faults + resilient serving end-to-end)"
cargo run --release -q -p tsc-bench --bin chaos -- --smoke

echo "==> fleet --smoke (supervised fleet: no abort, replay digest, recovery cycle)"
cargo run --release -q -p tsc-bench --bin fleet -- --smoke

echo "==> loadgen --smoke (admission: no abort, overload replay digest, zero reload-degraded steps, pinned p99)"
cargo run --release -q -p tsc-bench --bin loadgen -- --smoke

echo "==> obs_report --smoke (instrumented training + JSONL stream end-to-end)"
cargo run --release -q -p tsc-bench --bin obs_report -- --smoke

echo "==> forensics --smoke (flight recorder: dump incidents under chaos, replay bit-for-bit)"
cargo run --release -q -p tsc-bench --bin forensics -- --smoke

echo "==> obs_overhead --smoke (observability overhead bars incl. flight-recorder gate)"
cargo run --release -q -p tsc-bench --bin obs_overhead -- --smoke

echo "==> cityscale --smoke (~200-intersection compiled city: conservation + replay identity)"
cargo run --release -q -p tsc-bench --bin cityscale -- --smoke

echo "ci.sh: all gates passed"
