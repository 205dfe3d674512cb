#!/usr/bin/env bash
# Live-scrape gate for bench/timeline_report: runs one scenario with its
# HTTP exporter up, scrapes every route from a real external client
# (curl), byte-compares each against the scenario's file export, and
# validates each document's format. The telemetry invariants themselves
# are asserted by tests/scenario_test in ctest.
#
# Usage: ci/scrape_check.sh <bench> <scenario> <prefix> <ops> <route>...
#   e.g. ci/scrape_check.sh build/bench/timeline_report fleet build/fleet \
#          2000 /metrics /timeline.jsonl /shards.jsonl
# The bench runs with --scenario=<scenario> --export=<prefix> --serve=0: it
# writes the exports, then <prefix>.port, and holds the server up until
# that file is deleted. Route /metrics maps to <prefix>.prom,
# /timeline.jsonl to <prefix>.jsonl, and any other /X.jsonl to
# <prefix>.X.jsonl. ci/verify.sh sources this file; the CI workflow runs
# it directly.

# Export file of `route` under `prefix`.
scrape_file() {
  case "$2" in
    /metrics) echo "$1.prom" ;;
    /timeline.jsonl) echo "$1.jsonl" ;;
    *) echo "$1.${2#/}" ;;
  esac
}

# Format checks per route, kept beside the scrape: promtool (or the 0.0.4
# line grammar) for the exposition, and a jq schema per JSONL document.
check_route() {
  local route="$1" file="$2" port="$3" prefix="$4"
  case "${route}" in
    /metrics)
      if command -v promtool > /dev/null; then
        promtool check metrics < "${file}"
      else
        # Comment lines, or: metric_name[{labels}] value [timestamp_ms]
        awk '
          /^#/ { next }
          /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+( [0-9]+)?$/ { next }
          { print "bad exposition line " NR ": " $0; bad = 1 }
          END { exit bad }
        ' "${file}"
      fi
      ;;
    /timeline.jsonl)
      jq_check "${file}" '
        length > 0
        and all(has("kind") and has("t_ns") and has("seq"))
        and all(select(.kind == "sample")
                | has("interval_ns") and (.values | type == "object"))
        and all(select(.kind == "event")
                | (.type | type == "string") and has("a") and has("b")
                  and has("tenant"))
        and ([.[].t_ns] as $t | $t == ($t | sort))'
      ;;
    /shards.jsonl)
      if command -v curl > /dev/null; then
        curl -sf "http://127.0.0.1:${port}/healthz" | grep -q '"shards":4'
      fi
      grep -q 'bandslim_shard_ops_total{shard="3"}' "${prefix}.prom"
      jq_check "${file}" '
        length == 4
        and all(has("shard") and has("t_ns") and has("ops") and has("delta_ops")
                and has("routed_keys") and has("expected_share_permille")
                and has("actual_share_permille"))
        and ([.[].shard] == [0, 1, 2, 3])'
      ;;
    /slo.jsonl)
      grep -q 'bandslim_tenant_ops_total{tenant="frontend"}' "${prefix}.prom"
      grep -q 'bandslim_keyspace_heat_max_share_permille' "${prefix}.prom"
      jq_check "${file}" '
        length == 2
        and all(has("tenant") and has("name") and has("ops") and has("good")
                and has("bad") and has("shed") and has("errors")
                and has("latency_target_ns")
                and has("availability_target_permille")
                and has("allowed_bad_permille") and has("budget_spent_permille")
                and has("burn_fast_milli") and has("burn_slow_milli")
                and has("p99_ns") and has("dev_ops") and has("value_bytes")
                and has("pcie_h2d_bytes") and has("nand_pages_programmed")
                and has("taf_milli"))
        and ([.[].tenant] == [0, 1])'
      ;;
    *)
      echo "scrape_check: no format check for ${route}" >&2
      return 1
      ;;
  esac
}

jq_check() {
  if command -v jq > /dev/null; then
    jq -e -s "$2" "$1" > /dev/null
  else
    echo "scrape_check: jq not found, $1 schema check skipped"
  fi
}

scrape_check() {
  local bench="$1" scenario="$2" prefix="$3" ops="$4"
  shift 4
  local name="${scenario} scenario"
  echo "=== scrape check: ${name} --ops=${ops} ($*) ==="
  rm -f "${prefix}.port"
  "${bench}" --scenario="${scenario}" --ops="${ops}" --export="${prefix}" \
    --serve=0 --serve-hold=30000 &
  local bench_pid=$! waited=0
  while [ ! -f "${prefix}.port" ]; do
    if ! kill -0 "${bench_pid}" 2> /dev/null; then
      wait "${bench_pid}"
      echo "${name}: bench exited before serving" >&2
      return 1
    fi
    sleep 0.2
    waited=$((waited + 1))
    if [ "${waited}" -gt 1500 ]; then
      echo "${name}: timed out waiting for ${prefix}.port" >&2
      kill "${bench_pid}" 2> /dev/null || true
      return 1
    fi
  done
  local port route file curl=0
  port="$(cat "${prefix}.port")"
  if command -v curl > /dev/null; then
    curl=1
    curl -sf "http://127.0.0.1:${port}/healthz" | grep -q '"status":"ok"'
  else
    echo "${name}: curl not found, external scrape skipped"
  fi
  for route in "$@"; do
    file="$(scrape_file "${prefix}" "${route}")"
    if [ "${curl}" = 1 ]; then
      curl -sf "http://127.0.0.1:${port}${route}" -o "${file}.scraped"
      cmp "${file}.scraped" "${file}"
    fi
    check_route "${route}" "${file}" "${port}" "${prefix}"
  done
  rm -f "${prefix}.port"  # Releases the hold.
  wait "${bench_pid}"
  echo "${name}: live scrape byte-matches the file exports; formats valid"
}

if [ "${BASH_SOURCE[0]}" = "$0" ]; then
  set -euo pipefail
  scrape_check "$@"
fi
