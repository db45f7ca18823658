#!/usr/bin/env bash
# A/A check: K + K alternating runs (A1 B1 A2 B2 ...) of the same checkout,
# then, for every workload x end-to-end metric, both medians, both
# interquartile ranges as a share of the median (the spread the acceptance
# check computes, statistics.quantiles(n=4)), the relative difference of
# the medians, and the headroom left under the metric's bound in
# BENCHMARK.json. Two sets of runs of the same code must agree: the target is
# a difference of at most half the bound.
#
#   bench/aa.sh [K]      (default 5; 10 runs of ~2 minutes)
set -euo pipefail
cd "$(dirname "$0")/.."
K="${1:-5}"
out=bench/out/aa
rm -rf "$out"
mkdir -p "$out"
for i in $(seq 1 "$K"); do
  for side in A B; do
    echo "== $side$i (seed $i) ==" >&2
    go run ./bench --workload all --seed "$i" --out "$out/$side-$i.json" > "$out/$side-$i.log"
  done
done
python3 - "$out" <<'PY'
import glob, json, statistics, sys
out = sys.argv[1]
decl = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: (m["bound"], m["better"]) for m in decl["end_to_end"]}
def load(side):
    runs = [json.load(open(f)) for f in sorted(glob.glob(f"{out}/{side}-*.json"))]
    table = {}
    for run in runs:
        for w in run["workloads"]:
            if w["ops_failed"]:
                sys.exit(f"{w['workload']}: {w['ops_failed']} operations failed")
            for name, value in w["metrics"].items():
                table.setdefault((w["workload"], name), []).append(value)
    return table
def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)
a, b = load("A"), load("B")
print(f"{'workload/metric':40s} {'median A':>12s} {'median B':>12s} {'iqr A':>7s} {'iqr B':>7s} {'B vs A':>8s} {'bound':>6s} {'headroom':>9s}")
worst = 0.0
for key in a:
    bound, better = bounds[key[1]]
    ma, mb = statistics.median(a[key]), statistics.median(b[key])
    diff = (mb - ma) / ma
    worse = diff if better == "lower" else -diff
    worst = max(worst, abs(diff) / bound)
    print(f"{key[0] + '/' + key[1]:40s} {ma:12.4f} {mb:12.4f} {spread(a[key]):7.1%} {spread(b[key]):7.1%} {diff:+8.1%} {bound:6.0%} {bound - worse:9.1%}")
print(f"largest |difference| / bound: {worst:.2f} (target <= 0.50)")
PY
