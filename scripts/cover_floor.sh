#!/usr/bin/env bash
# Per-package coverage floor: runs the packages' tests with -cover, prints
# a package/coverage table (also into the CI job summary when there is
# one), and fails if any package is below the floor.
#
#   scripts/cover_floor.sh <floor-percent> <pkg>...
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: $0 <floor-percent> <pkg>..." >&2
	exit 2
fi
floor=$1
shift

out=$(go test -cover "$@")
echo "$out"
{
	echo "### Coverage (floor ${floor}%)"
	echo ""
	echo "| package | coverage |"
	echo "|---|---|"
	awk '/coverage:/ { gsub("%", "", $5); printf "| %s | %s%% |\n", $2, $5 }' <<<"$out"
} >>"${GITHUB_STEP_SUMMARY:-/dev/null}"
awk -v floor="$floor" '/coverage:/ {
	gsub("%", "", $5)
	if ($5 + 0 < floor) { printf "coverage for %s is %s%%, below the %s%% floor\n", $2, $5, floor; fail = 1 }
} END { exit fail }' <<<"$out"
