#!/usr/bin/env bash
# Repository verification gate: formatting, lints, release build, tests.
#
# Everything here must work fully offline — the workspace has zero
# external crate dependencies by design (see DESIGN.md §8).
#
# Usage: scripts/verify.sh [--quick]
#   --quick   skip the release build (lints + tests only)

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

if cargo clippy --version >/dev/null 2>&1; then
  step "cargo clippy -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "clippy unavailable; skipping lint step" >&2
fi

if [[ "$QUICK" -eq 0 ]]; then
  step "cargo build --release"
  cargo build --release

  step "calibration guards (full-length paper-figure checks, release build)"
  cargo test --release -p regmon --test calibration_guard -- --ignored

  step "paper results (every deterministic results/*.csv regenerates byte for byte)"
  for csv in results/*.csv; do
    bin="$(basename "$csv" .csv)"
    # The two cost figures are wall-clock measurements, not reproducible bytes.
    case "$bin" in fig15_overhead | fig16_interval_tree) continue ;; esac
    if ! env -u REGMON_FAST cargo run -q --release -p regmon-bench --bin "$bin" | cmp - "$csv"; then
      echo "FAIL: $bin no longer reproduces $csv" >&2
      exit 1
    fi
  done
fi

step "cargo test"
cargo test -q

step "pipebench tests (the wire-to-verdict benchmark builds against the serve API)"
cargo test --release --offline --manifest-path pipebench/Cargo.toml

step "cargo test (REGMON_SIMD=scalar — vector kernels must be bitwise-inert)"
# The CRC-32 dispatch does not follow REGMON_SIMD; its table path is covered by crc.rs's oracle tests.
REGMON_SIMD=scalar cargo test -q

step "fleet JSON determinism"
a="$(cargo run -q --release -p regmon-cli -- fleet all --tenants 16 --shards 4 --intervals 10 --json)"
b="$(cargo run -q --release -p regmon-cli -- fleet all --tenants 16 --shards 4 --intervals 10 --json)"
if [[ "$a" != "$b" ]]; then
  echo "FAIL: fleet --json differed between identical runs" >&2
  exit 1
fi

step "telemetry smoke (byte-identical JSON, exposition parses, journal non-empty)"
trace="$(mktemp /tmp/regmon_trace.XXXXXX.json)"
expo="$(mktemp /tmp/regmon_expo.XXXXXX.txt)"
c="$(cargo run -q --release -p regmon-cli -- fleet all --tenants 16 --shards 4 --intervals 10 --metrics-every 1 --trace-out "$trace" --json 2>"$expo")"
if [[ "$a" != "$c" ]]; then
  echo "FAIL: fleet --json changed when telemetry was enabled" >&2
  exit 1
fi
grep -E '^(#|regmon_)' "$expo" > "$expo.prom"
cargo run -q --release -p regmon-cli -- metrics --check "$expo.prom"
cargo run -q --release -p regmon-cli -- metrics --check "$trace"
rm -f "$trace" "$expo" "$expo.prom"

step "fleet JSON invariance (REGMON_SIMD=scalar, --index tree and --index linear must not change a byte)"
for variant in "REGMON_SIMD=scalar" "--index tree" "--index linear"; do
  envs=() args=()
  if [[ "$variant" == *=* ]]; then envs=("$variant"); else read -ra args <<<"$variant"; fi
  v="$(env "${envs[@]}" cargo run -q --release -p regmon-cli -- fleet all --tenants 16 --shards 4 --intervals 10 "${args[@]}" --json)"
  if [[ "$a" != "$v" ]]; then
    echo "FAIL: fleet --json differed under $variant" >&2
    exit 1
  fi
done

step "fleet JSON determinism (batched)"
a="$(cargo run -q --release -p regmon-cli -- fleet all --tenants 16 --shards 4 --intervals 10 --batch 8 --json)"
b="$(cargo run -q --release -p regmon-cli -- fleet all --tenants 16 --shards 4 --intervals 10 --batch 8 --json)"
if [[ "$a" != "$b" ]]; then
  echo "FAIL: fleet --batch 8 --json differed between identical runs" >&2
  exit 1
fi

step "change-point smoke (--cpd appends only; planted regression found online and offline; trace validates)"
cpd_dir="$(mktemp -d /tmp/regmon_cpd.XXXXXX)"
plain="$(cargo run -q --release -p regmon-cli -- fleet all --tenants 6 --shards 2 --intervals 96 --degrade 3:40 --json)"
with_cpd="$(cargo run -q --release -p regmon-cli -- fleet all --tenants 6 --shards 2 --intervals 96 --degrade 3:40 --cpd --json --trace-out "$cpd_dir/trace.json")"
if [[ "$with_cpd" != "${plain%\}}"* ]]; then
  echo "FAIL: --cpd perturbed the fleet --json document instead of appending to it" >&2
  exit 1
fi
if [[ "$with_cpd" != *'"tenant":3,"region":null,"metric":"ucr","round":40'* ]]; then
  echo "FAIL: online --cpd missed the planted tenant-3 regression at interval 40" >&2
  exit 1
fi
offline="$(cargo run -q --release -p regmon-cli -- cpd --trace "$cpd_dir/trace.json" --json)"
if [[ "$offline" != *'"series":"tenant 3 ucr","round":40'* ]]; then
  echo "FAIL: offline regmon cpd --trace missed the planted change point" >&2
  exit 1
fi
cargo run -q --release -p regmon-cli -- metrics --check "$cpd_dir/trace.json"
rm -rf "$cpd_dir"

step "serve smoke (record -> replay/serve/resume all byte-identical to run; durable and replay checkpoints cmp equal)"
serve_dir="$(mktemp -d /tmp/regmon_serve.XXXXXX)"
run_json="$(cargo run -q --release -p regmon-cli -- run 181.mcf --intervals 30 --json --record "$serve_dir/session.rgj" 2>/dev/null)"
replay_json="$(cargo run -q --release -p regmon-cli -- replay "$serve_dir/session.rgj" --json)"
if [[ "$run_json" != "$replay_json" ]]; then
  echo "FAIL: replay --json differed from the recorded run --json" >&2
  exit 1
fi
snap_json="$(cargo run -q --release -p regmon-cli -- replay "$serve_dir/session.rgj" --json --snapshot-at 12 --snapshot-out "$serve_dir/ck.rgsn" 2>/dev/null)"
resume_json="$(cargo run -q --release -p regmon-cli -- replay "$serve_dir/session.rgj" --json --resume "$serve_dir/ck.rgsn")"
if [[ "$run_json" != "$snap_json" || "$run_json" != "$resume_json" ]]; then
  echo "FAIL: checkpoint/resume replay differed from the recorded run" >&2
  exit 1
fi
cargo run -q --release -p regmon-cli -- serve --unix "$serve_dir/regmon.sock" --expect-sessions 1 --json >"$serve_dir/served.json" 2>/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do [[ -S "$serve_dir/regmon.sock" ]] && break; sleep 0.1; done
cargo run -q --release -p regmon-cli -- send "$serve_dir/session.rgj" --unix "$serve_dir/regmon.sock" 2>/dev/null
wait "$serve_pid"
if [[ "$run_json" != "$(cat "$serve_dir/served.json")" ]]; then
  echo "FAIL: served --json differed from the recorded run --json" >&2
  exit 1
fi

# One peek makes both checkpoints: a durable server's last one (interval
# 24 of 30 at --checkpoint-every 12) and replay --snapshot-at 24.
cargo run -q --release -p regmon-cli -- serve --unix "$serve_dir/durable.sock" --expect-sessions 1 --durable "$serve_dir/ck_wal" --checkpoint-every 12 --json >"$serve_dir/durable.json" 2>/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do [[ -S "$serve_dir/durable.sock" ]] && break; sleep 0.1; done
cargo run -q --release -p regmon-cli -- send "$serve_dir/session.rgj" --unix "$serve_dir/durable.sock" 2>/dev/null
wait "$serve_pid"
cargo run -q --release -p regmon-cli -- replay "$serve_dir/session.rgj" --snapshot-at 24 --snapshot-out "$serve_dir/ck24.rgsn" >/dev/null 2>&1
if [[ "$run_json" != "$(cat "$serve_dir/durable.json")" ]]; then
  echo "FAIL: durable served --json differed from the recorded run --json" >&2
  exit 1
fi
if ! cmp "$serve_dir/ck_wal/session-0000.rgsn" "$serve_dir/ck24.rgsn"; then
  echo "FAIL: the durable checkpoint at interval 24 differs from replay --snapshot-at 24" >&2
  exit 1
fi

step "migrate round-trip (mid-session handoff between two live servers)"
cargo run -q --release -p regmon-cli -- serve --unix "$serve_dir/a.sock" --expect-sessions 1 --json >"$serve_dir/migrate_a.json" 2>/dev/null &
a_pid=$!
cargo run -q --release -p regmon-cli -- serve --unix "$serve_dir/b.sock" --expect-sessions 1 --json >"$serve_dir/migrate_b.json" 2>/dev/null &
b_pid=$!
for _ in $(seq 1 100); do [[ -S "$serve_dir/a.sock" && -S "$serve_dir/b.sock" ]] && break; sleep 0.1; done
cargo run -q --release -p regmon-cli -- migrate "$serve_dir/session.rgj" --at 12 --from "$serve_dir/a.sock" --to "$serve_dir/b.sock" 2>/dev/null
wait "$a_pid" "$b_pid"
if [[ -s "$serve_dir/migrate_a.json" ]]; then
  echo "FAIL: the migrated-away server still reported the session on stdout" >&2
  exit 1
fi
if [[ "$run_json" != "$(cat "$serve_dir/migrate_b.json")" ]]; then
  echo "FAIL: migrated session --json differed from the recorded run --json" >&2
  exit 1
fi

step "kill -9 recovery smoke (--durable, SIGKILL mid-ingest, --recover, byte-compare)"
cargo run -q --release -p regmon-cli -- run 181.mcf --intervals 12 --record "$serve_dir/prefix.rgj" >/dev/null 2>&1
cargo run -q --release -p regmon-cli -- serve --unix "$serve_dir/regmon.sock" --expect-sessions 1 --durable "$serve_dir/wal" --checkpoint-every 5 --json >"$serve_dir/unused.json" 2>/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do [[ -S "$serve_dir/regmon.sock" ]] && break; sleep 0.1; done
cargo run -q --release -p regmon-cli -- send "$serve_dir/prefix.rgj" --unix "$serve_dir/regmon.sock" --no-finish 2>/dev/null
for _ in $(seq 1 100); do [[ -s "$serve_dir/wal/session-0000.wal" ]] && break; sleep 0.1; done
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
rm -f "$serve_dir/regmon.sock"
cargo run -q --release -p regmon-cli -- serve --unix "$serve_dir/regmon.sock" --expect-sessions 1 --recover "$serve_dir/wal" --json >"$serve_dir/recovered.json" 2>/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do [[ -S "$serve_dir/regmon.sock" ]] && break; sleep 0.1; done
cargo run -q --release -p regmon-cli -- send "$serve_dir/session.rgj" --unix "$serve_dir/regmon.sock" --resume --retries 3 2>/dev/null
wait "$serve_pid"
if [[ "$run_json" != "$(cat "$serve_dir/recovered.json")" ]]; then
  echo "FAIL: kill -9 recovery --json differed from the uninterrupted run --json" >&2
  exit 1
fi
# A fresh --durable server (no --recover) must refuse the used WAL dir
# before accepting anything, and leave every file in it as it was.
wal_sums="$(cksum "$serve_dir"/wal/*)"
if refused="$(timeout 20 cargo run -q --release -p regmon-cli -- serve --unix "$serve_dir/fresh.sock" --expect-sessions 1 --durable "$serve_dir/wal" 2>&1 >/dev/null)"; then
  echo "FAIL: serve --durable adopted a used WAL dir instead of refusing it" >&2
  exit 1
fi
if [[ "$refused" != *"--recover $serve_dir/wal"* || "$refused" == "error: --unix"* ]]; then
  echo "FAIL: serve --durable on a used WAL dir did not refuse it by name: $refused" >&2
  exit 1
fi
if [[ "$wal_sums" != "$(cksum "$serve_dir"/wal/*)" ]]; then
  echo "FAIL: the refused serve --durable changed the used WAL dir" >&2
  exit 1
fi
rm -rf "$serve_dir"

step "durable recovery probe (traced pipebench serve_durable: every tenant recovers byte-identically)"
durable_out="$(cargo run -q --release --offline --manifest-path pipebench/Cargo.toml -- --workload serve_durable --seed 1 --seconds 2 --trace 1 | tail -n 1)"
if [[ "$durable_out" != *'"failed": 0,'* ]]; then
  echo "FAIL: traced serve_durable reported failed operations: $durable_out" >&2
  exit 1
fi

step "serve demo example"
cargo run -q --release -p regmon-serve --example serve_demo >/dev/null

if [[ "$QUICK" -eq 0 ]]; then
  step "performance gate (pipebench end to end vs the parent commit on this host, BENCHMARK.json bounds)"
  scripts/bench_guard.sh
fi

echo
echo "verify: OK"
