#!/usr/bin/env bash
# Runs every clio_bench workload, each in a fresh process, and prints one
# "workload metric value unit" line per metric.  Reports land in
# OUT/<k>/BENCH_clio_<workload>.json (and TRACE_clio_<workload>.json with
# --trace) for k = 1..REPEAT, run k using seed SEED+k-1.
#
# usage: clio_bench/run.sh [--trace] [--seed N] [--seconds S] [--repeat K]
#                          [--out DIR]
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
trace=0 seed=2005 seconds=20 repeat=1 out="$root/.bench_build/sets/latest"
while [ $# -gt 0 ]; do
  case "$1" in
    --trace) trace=1 ;;
    --seed) seed=$2; shift ;;
    --seconds) seconds=$2; shift ;;
    --repeat) repeat=$2; shift ;;
    --out) out=$2; shift ;;
    *) echo "usage: $0 [--trace] [--seed N] [--seconds S] [--repeat K]" \
            "[--out DIR]" >&2
       exit 2 ;;
  esac
  shift
done

workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json")

status=0
for k in $(seq 1 "$repeat"); do
  for w in $workloads; do
    result=$(python3 "$here/run.py" --workload "$w" --seed $((seed + k - 1)) \
               --seconds "$seconds" --trace "$trace" --out "$out/$k" \
             | tail -n 1) || status=1
    python3 -c 'import json, sys
r = json.loads(sys.argv[2])
for name, m in r["metrics"].items():
    print(sys.argv[1], name, repr(m["value"]), m["unit"])
if not r["correct"]:
    print(sys.argv[1], "FAILED", r["failed"], "of", r["attempted"])' \
      "$w" "$result" || status=1
  done
done
exit $status
