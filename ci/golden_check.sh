#!/usr/bin/env bash
# Figure oracle gate: reruns the seven fig* benches at their default op
# counts, plus abl_shard_scaling --ops=6000 --csv, and byte-compares each
# output with the committed copy in bench/golden/. Everything these print
# is modeled (virtual time and device counters), so the outputs repeat
# byte-for-byte run to run and any diff means the model changed. A change
# that alters the model on purpose regenerates the files by running the
# same commands into bench/golden/ and says so in its description.
# abl_queue_scaling is not gated: it prints a host wall-clock column.
#
# LSM oracle: the figures barely reach deep compaction, so three more
# stdouts pin the LSM paths. examples/db_bench --workload=M --ops=500000
# (paper workload M) writes 4,131 LSM pages through flushes and every
# level's compaction; bench/abl_range_scan drives NewIterator through
# SEEK/NEXT; bench/abl_vlog_gc drives the vLog GC's ForEachLive scan.
# Like the figures, they print only modeled numbers.
#
# Export oracle: the 14 --export files of timeline_report's scenarios
# (device and control at --ops=2000, fleet at --ops=2000, tenant at
# --ops=3000) are regenerated and checked against the SHA-256 digests in
# bench/golden/exports.sha256 (the files total ~66 MB, so only their
# digests are committed). scrape_check validates their schema; this gate
# catches a renderer or scenario workload that changes a single byte.
#
# Usage: ci/golden_check.sh <build-dir>   (Release build; ~25 s)
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="$1"
golden=bench/golden
out="${build_dir}/golden"
mkdir -p "${out}"

echo "=== verify pass: figure golden outputs (${build_dir}) ==="
failed=0
for bench in fig03_pcie_amplification fig04_nand_amplification \
             fig08_finegrained_transfer fig09_hybrid_transfer \
             fig10_adaptive_transfer fig11_value_packing \
             fig12_packing_policies; do
  "${build_dir}/bench/${bench}" > "${out}/${bench}.stdout"
  cmp "${golden}/${bench}.stdout" "${out}/${bench}.stdout" || failed=1
done
for bench in abl_range_scan abl_vlog_gc; do
  "${build_dir}/bench/${bench}" > "${out}/${bench}.stdout"
  cmp "${golden}/${bench}.stdout" "${out}/${bench}.stdout" || failed=1
done
"${build_dir}/examples/db_bench" --workload=M --ops=500000 \
  > "${out}/db_bench_M.stdout"
cmp "${golden}/db_bench_M.stdout" "${out}/db_bench_M.stdout" || failed=1
"${build_dir}/bench/abl_shard_scaling" --ops=6000 \
  --csv="${out}/abl_shard_scaling.csv" > /dev/null
cmp "${golden}/abl_shard_scaling.csv" "${out}/abl_shard_scaling.csv" ||
  failed=1

exports="${out}/exports"
mkdir -p "${exports}"
bench="${build_dir}/bench/timeline_report"
"${bench}" --scenario=device --ops=2000 --export="${exports}/timeline" > /dev/null
"${bench}" --scenario=control --ops=2000 --export="${exports}/control" > /dev/null
"${bench}" --scenario=fleet --ops=2000 --export="${exports}/fleet" > /dev/null
"${bench}" --scenario=tenant --ops=3000 \
  --export="${exports}/tenant_slo" > /dev/null
digests="$(pwd)/${golden}/exports.sha256"
(cd "${exports}" && sha256sum --quiet -c "${digests}") || failed=1

if [ "${failed}" -ne 0 ]; then
  echo "golden outputs differ from ${golden}/ (see cmp/sha256sum above)" >&2
  exit 1
fi
echo "golden outputs: figures and LSM stdouts byte-identical to ${golden}/," \
  "export digests match ${golden}/exports.sha256"
