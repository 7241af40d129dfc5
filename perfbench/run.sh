#!/usr/bin/env bash
# Builds the benchmark once per source tree, then runs it:
#
#     bash perfbench/run.sh --workload city-3025 --seed 1 --seconds 25 --trace 0
#
# Cargo alone would rebuild `tsc-obs` and everything above it on every
# run outside a git checkout (its build script watches `.git/HEAD`), so
# the build is keyed on a checksum of the compiler version and the
# sources instead. Honours CARGO_TARGET_DIR.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-perfbench/target}"
bin="$target/release/perfbench"
stamp="$target/perfbench.sources"

sum="$(
    {
        rustc --version
        find Cargo.toml crates vendor perfbench -path perfbench/target -prune -o -type f -print0 |
            LC_ALL=C sort -z | xargs -0 cat
    } | cksum
)"
if [[ ! -x "$bin" || ! -f "$stamp" || "$(cat "$stamp")" != "$sum" ]]; then
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
    printf '%s\n' "$sum" >"$stamp"
fi
exec "$bin" "$@"
