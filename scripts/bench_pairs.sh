#!/usr/bin/env bash
# Parent/change pairs of the repository's benchmark, the comparison a
# performance PR has to show (choosing-metrics, section 8).
#
#   scripts/bench_pairs.sh <parent-ref> <K> [workload...]
#
# Extracts <parent-ref>'s committed files into a temporary directory
# (git archive: nothing is left behind in .git), then for each workload
# (default: all four in BENCHMARK.json) makes K pairs of
#
#   go run ./bench --workload W --seed S --seconds <run_seconds> --trace 0
#
# one run in the parent directory and one in this working tree — so
# uncommitted changes are what is measured — alternating which side goes
# first, both sides of a pair on the same seed. It prints, per workload and
# end-to-end metric, each side's median and quartiles, the pairs the change
# won, and the difference of the medians against the metric's bound; and
# records every run made, with the Go version, GOMAXPROCS, core count and
# run length, in $OUT. A second invocation with the same parent appends to
# $OUT, so one file can hold ten fleet_scenario pairs and three of each
# other workload.
#
# Environment:
#   OUT    the evidence file (default BENCH_pairs.json; a PR commits it as
#          BENCH_<pr>.json)
#   SEED   seed of the first pair; pair i runs on SEED+i-1 (default 1). Use
#          one that was not used while developing.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: scripts/bench_pairs.sh <parent-ref> <K> [workload...]   (env: OUT, SEED)" >&2
	exit 2
fi
PARENT_REF="$1"
K="$2"
shift 2
OUT="${OUT:-BENCH_pairs.json}"
SEED="${SEED:-1}"
SECONDS_PER_RUN=$(jq -r .run_seconds BENCHMARK.json)
if [ $# -gt 0 ]; then
	WORKLOADS=("$@")
else
	mapfile -t WORKLOADS < <(jq -r '.workloads[].name' BENCHMARK.json)
fi

parent_sha=$(git rev-parse --verify "$PARENT_REF^{commit}")
change_sha=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	change_sha="$change_sha+uncommitted"
fi
parent_dir=$(mktemp -d)
runs=$(mktemp)
trap 'rm -rf "$parent_dir" "$runs"' EXIT
git archive "$parent_sha" | tar -x -C "$parent_dir"
change_dir=$PWD

# one_run <side> <dir> <workload> <pair> <seed> <first|second>: one JSON
# line per run; a run that fails to produce a result is recorded as such,
# never retried or dropped.
one_run() {
	local side=$1 dir=$2 w=$3 pair=$4 seed=$5 order=$6 line status=0
	echo "== $w pair $pair: $side ($order, seed $seed) ==" >&2
	line=$(cd "$dir" && go run ./bench --workload "$w" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1) || status=$?
	case "$line" in
	'{'*) ;;
	*) line=null ;;
	esac
	jq -c -n --arg side "$side" --arg w "$w" --argjson pair "$pair" --argjson seed "$seed" \
		--arg order "$order" --argjson status "$status" --argjson result "$line" \
		'{workload: $w, pair: $pair, side: $side, order: $order, seed: $seed, exit_status: $status, result: $result}' >>"$runs"
}

for w in "${WORKLOADS[@]}"; do
	for i in $(seq 1 "$K"); do
		seed=$((SEED + i - 1))
		if [ $((i % 2)) -eq 1 ]; then
			one_run parent "$parent_dir" "$w" "$i" "$seed" first
			one_run change "$change_dir" "$w" "$i" "$seed" second
		else
			one_run change "$change_dir" "$w" "$i" "$seed" first
			one_run parent "$parent_dir" "$w" "$i" "$seed" second
		fi
	done
done

python3 - "$OUT" "$runs" "$parent_sha" "$change_sha" "$SECONDS_PER_RUN" \
	"$(go version)" "${GOMAXPROCS:-$(nproc)}" "$(nproc)" <<'PY'
import json, os, statistics, sys
out, runs_path, parent, change, seconds, goversion, gomaxprocs, cores = sys.argv[1:]
new = [json.loads(line) for line in open(runs_path)]
doc = {"runs": []}
if os.path.exists(out):
    doc = json.load(open(out))  # keys this script does not write are kept
    if doc.get("parent") != parent:
        sys.exit(f"{out} holds runs against parent {doc.get('parent')}, not {parent}: move it away first")
doc.update({"parent": parent, "change": change, "go_version": goversion,
            "gomaxprocs": int(gomaxprocs), "cores": int(cores),
            "run_seconds": float(seconds)})
# Pair numbers continue per workload, so appended runs stay distinct.
for r in new:
    r["pair"] += max((o["pair"] for o in doc["runs"] if o["workload"] == r["workload"]), default=0)
doc["runs"] += new
json.dump(doc, open(out, "w"), indent=1)
open(out, "a").write("\n")

decl = json.load(open("BENCHMARK.json"))
def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]
bad = False
for w in dict.fromkeys(r["workload"] for r in doc["runs"]):
    sides = {"parent": {}, "change": {}}
    failed = {"parent": 0, "change": 0}
    for r in doc["runs"]:
        if r["workload"] != w:
            continue
        if r["result"] is None:
            print(f"{w} pair {r['pair']} {r['side']}: no result (exit status {r['exit_status']})")
            bad = True
            continue
        failed[r["side"]] += r["result"]["failed"]
        sides[r["side"]][r["pair"]] = {k: m["value"] for k, m in r["result"]["metrics"].items()}
    pairs = sorted(set(sides["parent"]) & set(sides["change"]))
    if not pairs:
        continue
    print(f"\n{w}: {len(pairs)} pairs, ops_failed parent {failed['parent']} change {failed['change']}")
    print(f"  {'metric':22s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'change':>8s} {'bound':>6s} {'won':>6s}  verdict")
    bad = bad or failed["change"] > failed["parent"]
    for m in decl["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [sides["parent"][i][name] for i in pairs]
        c = [sides["change"][i][name] for i in pairs]
        won = sum((ci < pi) if lower else (ci > pi) for pi, ci in zip(p, c))
        lost = sum((ci > pi) if lower else (ci < pi) for pi, ci in zip(p, c))
        mp, mc = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        diff = (mc - mp) / mp if mp else 0.0
        worse = diff if lower else -diff
        if worse > m["bound"]:
            verdict, bad = "WORSE than bound", True
        elif len(pairs) >= 10 and won >= 0.9 * len(pairs) and abs(mc - mp) > (p3 - p1):
            verdict = "better (>= 9/10 of >= 10 pairs, beyond parent IQR)"
        elif max((p3 - p1) / mp, (c3 - c1) / mc) > m["bound"] and not (max(c) < min(p) if lower else min(c) > max(p)):
            verdict = "unresolved (spread wider than bound)"
        else:
            verdict = "inside bound"
        print(f"  {name:22s} {mp:12.4g} [{p1:8.4g}, {p3:8.4g}] {mc:12.4g} [{c1:8.4g}, {c3:8.4g}] {diff:+8.1%} {m['bound']:6.0%} {won:3d}/{won + lost:<2d}  {verdict}")
print(f"\n{len(new)} runs added, {len(doc['runs'])} in {out}")
sys.exit(1 if bad else 0)
PY
