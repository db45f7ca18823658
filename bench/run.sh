#!/usr/bin/env bash
# One command for the whole benchmark: builds repo-server, runs the four
# workloads on fresh servers, prints "workload/metric value unit" lines and
# writes bench/out/run.json (seed, operation counts, nproc, GOMAXPROCS and Go
# version included). Exits non-zero when any operation failed its check.
#
#   bench/run.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./bench --workload all --seed "${1:-1}" --seconds "${2:-12}" --out bench/out/run.json
