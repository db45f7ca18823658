#!/usr/bin/env bash
# Coverage floor: runs the packages' tests with -cover, prints a
# package/coverage table (also into the CI job summary when there is
# one), and fails if any package is below the floor.
#
#   scripts/cover_floor.sh <floor-percent> <pkg>...
#
# With -files, the floor applies instead to the statements of the named
# files taken together (base names without ".go", joined by "|"):
#
#   scripts/cover_floor.sh -files 'tenancy|index|page' 80 ./pkg/xcbc/api/
#
# A block that several packages' runs list (under -coverpkg each run lists
# every covered package's blocks) counts once, as covered if any run
# covered it.
set -euo pipefail
cd "$(dirname "$0")/.."

files=
if [ "${1:-}" = "-files" ] && [ $# -ge 2 ]; then
	files=$2
	shift 2
fi
if [ $# -lt 2 ]; then
	echo "usage: $0 [-files <name>|<name>...] <floor-percent> <pkg>..." >&2
	exit 2
fi
floor=$1
shift

if [ -n "$files" ]; then
	profile=$(mktemp)
	trap 'rm -f "$profile"' EXIT
	go test -coverprofile="$profile" "$@" >/dev/null
	awk -F'[ :]' -v re="/($files)[.]go:" -v files="$files" -v floor="$floor" '
		$0 ~ re { block = $1 ":" $2; stmts[block] = $(NF-1); if ($NF > 0) hit[block] = 1 }
		END {
			for (block in stmts) {
				total += stmts[block]
				if (block in hit) cov += stmts[block]
			}
			if (total == 0) { printf "no statements in files matching %s\n", files; exit 1 }
			pct = 100 * cov / total
			printf "coverage of %s: %.1f%% of %d statements (floor %s%%)\n", files, pct, total, floor
			exit (pct < floor)
		}' "$profile" | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
	exit
fi

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
