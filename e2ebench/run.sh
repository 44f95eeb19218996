#!/usr/bin/env bash
# Builds the shipped server binaries and the benchmark from source, then
# runs one benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload sim-oblivious --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

bench_dir="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# The shipped `rdbp-serve` and `rdbp-router` executables, built by the
# repository workspace. The benchmark finds them beside its own
# executable, so both builds share one target directory.
cargo build --release --offline --quiet --bin rdbp-serve --bin rdbp-router 1>&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" 1>&2

exec "$CARGO_TARGET_DIR/release/rdbp-e2ebench" "$@"
