#!/usr/bin/env bash
# Takes complete sets of runs for the acceptance check and compares them:
#
#   bash bench/sets.sh OUTDIR [SETS=2] [SEEDS=10] [SECONDS=8]
#
# Each set is SEEDS untraced runs (seeds 1..SEEDS) and one traced run of
# every workload, appended to OUTDIR/set<k>.jsonl; consecutive sets are
# then compared with `bench -compare`, which prints every metric's
# median, quartile spread and verdict and fails on any finding.
set -euo pipefail

out=${1:?usage: sets.sh OUTDIR [SETS] [SEEDS] [SECONDS]}
sets=${2:-2}
seeds=${3:-10}
seconds=${4:-8}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$out"
out=$(cd "$out" && pwd)

workloads="fig5_d1 fig5_deep fig5_burst soc_case soc_shard2 sweep_cold sweep_warm"
for k in $(seq 1 "$sets"); do
	file="$out/set$k.jsonl"
	rm -f "$file"
	for w in $workloads; do
		for seed in $(seq 1 "$seeds"); do
			bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 -out "$file" >/dev/null
		done
		bash "$here/run.sh" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 -out "$file" >/dev/null
		echo "set $k: $w done" >&2
	done
done
status=0
for k in $(seq 2 "$sets"); do
	bash "$here/run.sh" -compare "$out/set$((k - 1)).jsonl" "$out/set$k.jsonl" || status=$?
done
exit $status
