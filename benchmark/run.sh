#!/usr/bin/env bash
# Build the benchmark (own package, offline, optimized) and run it.
#
#   benchmark/run.sh                      every workload, untraced then traced: every metric by name
#   benchmark/run.sh --smoke              the same on a 20k-user universe, 1 s windows (checks the harness)
#   benchmark/run.sh --aa N               N untraced sets on N seeds; fails if a pair differs by more than its bound
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1      one measurement (what BENCHMARK.json runs)
#
# Runs from the repository root whatever the caller's directory; build
# output goes to $CARGO_TARGET_DIR (default benchmark/target), run output
# to benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/od-benchmark" "$@"
