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
# Usage: ci/golden_check.sh <build-dir>   (Release build; ~15 s)
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
"${build_dir}/bench/abl_shard_scaling" --ops=6000 \
  --csv="${out}/abl_shard_scaling.csv" > /dev/null
cmp "${golden}/abl_shard_scaling.csv" "${out}/abl_shard_scaling.csv" ||
  failed=1

if [ "${failed}" -ne 0 ]; then
  echo "figure golden outputs differ from ${golden}/ (see cmp above)" >&2
  exit 1
fi
echo "figure golden outputs: all byte-identical to ${golden}/"
