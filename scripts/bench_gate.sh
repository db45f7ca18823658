#!/usr/bin/env bash
# Benchmark regression gate: runs the pinned benchmark set at fixed
# iteration counts and fails if any benchmark's ns/op, allocs/op or B/op
# regresses past the tolerance against BENCH_baseline.json's "post"
# numbers.
#
# Fixed -benchtime=Nx pins (not wall-clock targets) keep output
# comparable run to run: Go's auto-scaling picks a different N per
# machine, and at high N file-backed benchmarks go bimodal under
# page-cache writeback.
#
# Environment:
#   BENCH_GATE_TOLERANCE      allocs/op and B/op regression tolerance,
#                             fraction (default 0.20). Both are
#                             deterministic and machine-independent: gate
#                             them hard. B/op is what separates a series
#                             that grows on demand from one allocated to
#                             its full retention up front — the same
#                             number of allocations, 500x the bytes.
#   BENCH_GATE_NS_TOLERANCE   ns/op regression tolerance (default 1.0,
#                             i.e. flag only >2x slowdowns). Wall clock
#                             on virtualized runners swings by integer
#                             factors run to run even at fixed N; each
#                             benchmark runs -count=2 and the gate takes
#                             the faster run, but allocs/op remains the
#                             metric precise enough for a tight gate.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_baseline.json
TOL="${BENCH_GATE_TOLERANCE:-0.20}"
NS_TOL="${BENCH_GATE_NS_TOLERANCE:-1.0}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

run() { # package bench-regex benchtime
	go test -run '^$' -bench "$2" -benchtime "$3" -count=2 -benchmem "$1" | tee -a "$OUT"
}

run .                    'BenchmarkDepsolveGromacsClosure$' 20000x
run .                    'BenchmarkUpdateCheck$'            5000x
run .                    'BenchmarkSimEngine$'              2000x
run .                    'BenchmarkWhoProvidesIndexed$'     200000x
run .                    'BenchmarkAPIDepsolve$'            3000x
run .                    'BenchmarkBuildXCBC'               200x
run .                    'BenchmarkFleetProvision100$'      50x
run .                    'BenchmarkFleetNew100$'            500x
run .                    'BenchmarkScenarioChaosKickstart$' 20x
run .                    'BenchmarkAPIUnderLoad'            2000x
run .                    'BenchmarkAPIReadRows'             5000x
run .                    'BenchmarkAPIFleetScenarioOp$'     20x
run .                    'BenchmarkRecoverStanding64$/(listed|touched|history)$' 100x
run ./internal/monitor/  'BenchmarkMonitorFirstPoll$|BenchmarkMonitorPoll$' 2000x
run ./internal/wal/      'BenchmarkWALAppend'               2000000x
run ./internal/campaign/ 'BenchmarkCampaignSweep32$'        3x
run ./internal/sched/    'BenchmarkSubmitQueued$'           200x

fail=0
checked=0
while read -r name ns allocs bytes; do
	base_ns=$(jq -r --arg n "$name" '.benchmarks[$n].post.ns_op // empty' "$BASELINE")
	base_allocs=$(jq -r --arg n "$name" '.benchmarks[$n].post.allocs_op // empty' "$BASELINE")
	base_bytes=$(jq -r --arg n "$name" '.benchmarks[$n].post.b_op // 0' "$BASELINE")
	if [ -z "$base_ns" ] || [ -z "$base_allocs" ]; then
		echo "gate: $name has no baseline entry; add one to $BASELINE" >&2
		fail=1
		continue
	fi
	checked=$((checked + 1))
	awk -v name="$name" -v ns="$ns" -v allocs="$allocs" -v bytes="$bytes" \
		-v bns="$base_ns" -v ballocs="$base_allocs" -v bbytes="$base_bytes" \
		-v nstol="$NS_TOL" -v tol="$TOL" '
		BEGIN {
			bad = 0
			if (ns > bns * (1 + nstol)) {
				printf "gate: %s ns/op %.1f exceeds baseline %.1f by more than %.0f%%\n", name, ns, bns, nstol * 100
				bad = 1
			}
			if (ballocs == 0 && allocs > 0) {
				printf "gate: %s allocates (%.0f allocs/op); baseline is allocation-free\n", name, allocs
				bad = 1
			} else if (allocs > ballocs * (1 + tol)) {
				printf "gate: %s allocs/op %.0f exceeds baseline %.0f by more than %.0f%%\n", name, allocs, ballocs, tol * 100
				bad = 1
			}
			if (bbytes > 0 && bytes > bbytes * (1 + tol)) {
				printf "gate: %s B/op %.0f exceeds baseline %.0f by more than %.0f%%\n", name, bytes, bbytes, tol * 100
				bad = 1
			}
			exit bad
		}' || fail=1
done < <(awk '/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	ns = ""; allocs = ""; bytes = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i - 1)
		if ($i == "allocs/op") allocs = $(i - 1)
		if ($i == "B/op") bytes = $(i - 1)
	}
	if (ns == "" || allocs == "" || bytes == "") next
	# Best of -count runs: min filters scheduler noise and the cold
	# first run that pays for process-global caches.
	if (!(name in best_ns) || ns + 0 < best_ns[name]) best_ns[name] = ns + 0
	if (!(name in best_al) || allocs + 0 < best_al[name]) best_al[name] = allocs + 0
	if (!(name in best_by) || bytes + 0 < best_by[name]) best_by[name] = bytes + 0
}
END {
	for (name in best_ns) print name, best_ns[name], best_al[name], best_by[name]
}' "$OUT")

if [ "$checked" -eq 0 ]; then
	echo "bench gate: no benchmark output parsed -- harness broken?" >&2
	exit 1
fi
if [ "$fail" -ne 0 ]; then
	echo "bench gate: FAIL ($checked checked; tolerance ns=$NS_TOL allocs=$TOL)" >&2
	exit 1
fi
echo "bench gate: OK ($checked benchmarks within tolerance; ns=$NS_TOL allocs=$TOL)"
