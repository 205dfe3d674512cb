#!/usr/bin/env bash
# Tier-1 verification, run twice, each with warnings as errors
# (-DBANDSLIM_WERROR=ON):
#   1. Release           — the configuration the benches and figures use.
#   2. Debug + ASan/UBSan — assertions on (the clock-overflow and
#      one-command-in-flight checks live behind assert) and memory/UB errors
#      fatal.
# plus a ThreadSanitizer build of the two tests that start threads.
# Usage: ci/verify.sh [build-dir-prefix]   (default: build-ci)
set -euo pipefail
cd "$(dirname "$0")/.."

prefix="${1:-build-ci}"

run_pass() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== verify pass: ${name} ==="
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

# Fault campaign, on both passes as in CI: nonzero failure rates drive the
# bad-block remap, retry, and ECC paths that a clean run never enters.
fault_campaign() {
  local build_dir="$1"
  echo "=== verify pass: fault campaign (${build_dir}) ==="
  "${build_dir}/bench/fault_campaign" --ops=5000
}

# Trace export: the bench itself enforces the exactness invariant (per-stage
# sums == submit->completion window on every command, all three transfer
# techniques, 1q and 2q) and exits nonzero on violation; jq then checks the
# exported file is valid Chrome trace_event JSON with well-formed events.
trace_export() {
  local build_dir="$1"
  echo "=== verify pass: trace export (${build_dir}) ==="
  local out="${build_dir}/trace_breakdown.json"
  "${build_dir}/bench/trace_breakdown" --ops=100 --export=chrome --out="${out}"
  if command -v jq > /dev/null; then
    jq -e '.traceEvents | type == "array" and length > 0' "${out}" > /dev/null
    jq -e '[.traceEvents[] | select(.ph == "X")]
           | length > 0 and all(has("name") and has("ts") and has("dur")
                                and has("pid") and has("tid"))' \
      "${out}" > /dev/null
    echo "trace export: jq schema checks passed"
  else
    echo "trace export: jq not found, schema checks skipped"
  fi
}

# Timeline scrapes: bench/timeline_report runs each observability
# scenario with its HTTP exporter up; scrape_check (ci/scrape_check.sh)
# scrapes every route with curl, byte-compares it against the file
# exports, and validates the exposition and JSONL formats. The telemetry
# invariants (reconciliation, double-run byte identity, observer
# neutrality, storm alerts) are asserted by tests/scenario_test in ctest.
source ci/scrape_check.sh
timeline_scrapes() {
  local build_dir="$1" fleet_ops="$2" tenant_ops="$3"
  local bench="${build_dir}/bench/timeline_report"
  scrape_check "${bench}" device "${build_dir}/timeline" 2000 \
    /metrics /timeline.jsonl
  scrape_check "${bench}" fleet "${build_dir}/fleet" "${fleet_ops}" \
    /metrics /timeline.jsonl /shards.jsonl
  scrape_check "${bench}" tenant "${build_dir}/tenant_slo" "${tenant_ops}" \
    /metrics /timeline.jsonl /slo.jsonl
}

# Closed-loop control storm: timeline_report's control scenario writes the
# side-by-side per-interval CSV (uncontrolled vs controlled) and the
# actuation log; here we check their shape. The control bounds (stall
# streak <= 2 intervals, better worst-interval p99, free-blocks-low silent,
# null policy byte-identical, deterministic actuation log) are asserted by
# tests/scenario_test. The fault_campaign GC-headroom demo gates the GC
# knob under 1 % program failures and exits nonzero on violation.
control_storm() {
  local build_dir="$1"
  echo "=== verify pass: control storm (${build_dir}) ==="
  local out="${build_dir}/control"
  "${build_dir}/bench/timeline_report" --scenario=control --ops=2000 \
    --export="${out}"
  awk -F, '
    NR == 1 { cols = NF; if (cols != 12) { print "bad header: " NF " cols"; exit 1 } next }
    NF != cols { print "ragged row " NR; exit 1 }
    END { if (NR < 2) { print "no data rows"; exit 1 } }
  ' "${out}.control.csv"
  awk -F, 'NR == 1 && $0 != "t_ns,seq,rule,observed,old_setting,new_setting" \
             { print "bad actuation header"; exit 1 }
           END { if (NR < 2) { print "empty actuation log"; exit 1 } }' \
    "${out}.actuations.csv"
  echo "control storm: side-by-side and actuation CSVs well-formed"
  "${build_dir}/bench/fault_campaign" --ops=2000 --control
}

# ThreadSanitizer: the library starts threads in two places, the JSONL
# renderer's workers (telemetry_test renders a multi-MiB timeline on 1-7
# threads) and the HTTP exporter's server (http_exporter_test scrapes it
# while snapshots are published), so only those two tests are built with
# -fsanitize=thread and run.
tsan_pass() {
  local build_dir="$1"
  echo "=== verify pass: tsan (${build_dir}) ==="
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBANDSLIM_WERROR=ON -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "${build_dir}" -j --target telemetry_test http_exporter_test
  "${build_dir}/tests/telemetry_test"
  "${build_dir}/tests/http_exporter_test"
}

# Simulator-throughput regression gate. Release only: wall-clock numbers
# from a sanitized build measure the sanitizer, not the simulator, so the
# ASan pass skips it. The gate fails when any profile drops more than the
# tolerance below bench/baseline_sim_speed.json; regenerate the baseline
# with --write-baseline on the machine class that runs CI after intentional
# perf changes.
sim_speed_gate() {
  local build_dir="$1"
  echo "=== verify pass: sim_speed regression gate (${build_dir}) ==="
  "${build_dir}/bench/sim_speed" --ops=60000 --reps=5 \
    --check=bench/baseline_sim_speed.json --tolerance=0.15
}

# Cluster shard-scaling gates. The bench itself exits nonzero unless
# (1) a 1-shard cluster run is bit-identical in virtual time and device
# counters to the same ops on a bare KvSsd (the router adds zero simulated
# overhead), and (2) uniform-key 4-shard mixed throughput is >= 3x the
# 1-shard run. Here we additionally check the CSV shape: 2 distributions
# x 4 cluster sizes = 8 data rows.
shard_scaling() {
  local build_dir="$1" ops="${2:-6000}"
  echo "=== verify pass: cluster shard scaling (${build_dir}) ==="
  local out="${build_dir}/shard_scaling.csv"
  "${build_dir}/bench/abl_shard_scaling" --ops="${ops}" --csv="${out}"
  awk -F, '
    NR == 1 { if ($0 != "distribution,shards,ops,elapsed_ns,kops_per_sec,speedup")
                { print "bad header: " $0; exit 1 } next }
    NF != 6 { print "ragged row " NR; exit 1 }
    END { if (NR - 1 != 8) { print "expected 8 data rows, got " NR - 1; exit 1 } }
  ' "${out}"
  echo "shard scaling: N=1 identity + 4-shard speedup gates passed, CSV well-formed"
}

# -Werror=deprecated-declarations: the legacy KvSsd accessors are gone, and
# a [[deprecated]] declaration can never be called from new code.
run_pass release "${prefix}-release" \
  -DCMAKE_BUILD_TYPE=Release -DBANDSLIM_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-Werror=deprecated-declarations"

fault_campaign "${prefix}-release"
trace_export "${prefix}-release"
timeline_scrapes "${prefix}-release" 2000 3000
control_storm "${prefix}-release"
shard_scaling "${prefix}-release"
# Figure oracle: the seven fig* stdouts and the shard-scaling CSV must
# byte-match bench/golden/, and the scenario exports their digests. Release
# only — the goldens are the Release figures, and the sanitized build
# would spend minutes re-deriving them.
ci/golden_check.sh "${prefix}-release"

run_pass asan-ubsan "${prefix}-asan" \
  -DCMAKE_BUILD_TYPE=Debug -DBANDSLIM_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-Werror=deprecated-declarations -fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

fault_campaign "${prefix}-asan"
trace_export "${prefix}-asan"
timeline_scrapes "${prefix}-asan" 1200 1500
control_storm "${prefix}-asan"
shard_scaling "${prefix}-asan" 1500

tsan_pass "${prefix}-tsan"

# Last, so a slow or noisy host cannot stop the gates above from running;
# a failing gate still fails the script.
sim_speed_gate "${prefix}-release"

echo "=== verify: all passes green ==="
