#!/usr/bin/env bash
# Performance gate: the working tree against a base revision, both built
# and measured on this host in the same run. Extracts BASE with
# `git archive`, builds its pipebench next to the working tree's, runs
# attribution_matrix for the within-run SIMD and sparse-layout ratios,
# then bench_gate (crates/bench/src/bin/bench_gate.rs): it interleaves
# the two pipebench builds on every workload BENCHMARK.json gates,
# prints one table, and fails on BENCHMARK.json's end-to-end bounds, an
# incorrect run, a higher failed share, the telemetry budget, the
# queue-stall limit, the change-point cost or either attribution ratio.
#
# Usage: scripts/bench_guard.sh [BASE]
#   BASE  a git revision. Default: HEAD when tracked files differ from
#         HEAD, otherwise HEAD~1 (the last commit against its parent).

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 1 ]]; then
  echo "usage: scripts/bench_guard.sh [BASE]" >&2
  exit 2
elif [[ $# -eq 1 ]]; then
  base="$1"
elif git diff --quiet HEAD --; then
  base="HEAD~1"
else
  base="HEAD"
fi

tmp="$(mktemp -d /tmp/bench_guard.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
git archive "$base" | tar -x -C "$tmp"
[[ -f "$tmp/pipebench/Cargo.toml" ]] || {
  echo "FAIL: base $base has no pipebench/; there is nothing to compare against" >&2
  exit 1
}

echo "bench guard: base $base ($(git rev-parse --short "$base")) vs the working tree"
for tree in "$tmp" "$PWD"; do
  cargo build -q --release --offline --manifest-path "$tree/pipebench/Cargo.toml" \
    --target-dir "$tree/pipebench/target"
done
cargo run -q --release --offline -p regmon-bench --bin attribution_matrix -- "$tmp/attribution.json"
cargo run -q --release --offline -p regmon-bench --bin bench_gate -- "$tmp" "$PWD" "$tmp/attribution.json"
