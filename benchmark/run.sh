#!/usr/bin/env bash
# The PeerTrack-RS benchmark: one command for every workload.
#
#   benchmark/run.sh                                   all five workloads, seed 42
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --quick                           1/20 size smoke run (< 15 s)
#   benchmark/run.sh --aa [--runs N]                   A/A check, writes benchmark/AA.md
#   benchmark/run.sh --emit-benchmark-json             regenerate BENCHMARK.json
#
# Builds the benchmark's own workspace (offline; the repository's
# workspace, lock file and target directory are never touched), then
# runs it. Everything it writes goes under benchmark/out and the cargo
# target directory. See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
export PTBENCH_HOME="$here"
export PTBENCH_OUT="$here/out"
exec "$CARGO_TARGET_DIR/release/ptbench" "$@"
