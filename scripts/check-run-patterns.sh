#!/usr/bin/env bash
# check-run-patterns.sh — fail when a test-selection pattern in the
# Makefile names nothing.
#
# `go test -run P` exits 0 when P matches no test, so a gate whose test
# was renamed or deleted keeps passing while it checks nothing. For every
# `go test` line in the Makefile this takes the selecting pattern (-fuzz,
# else -bench, else -run), splits it on `|`, and requires each
# alternative to match at least one test, benchmark or fuzz target that
# `go test -list` reports for the packages on that line.
#
# Usage: bash scripts/check-run-patterns.sh [Makefile]
set -euo pipefail

makefile=${1:-Makefile}
go=${GO:-go}
declare -A listed # package → its test, benchmark and fuzz names
status=0

names_in() {
	local pkg=$1
	if [[ -z ${listed[$pkg]+set} ]]; then
		listed[$pkg]=$("$go" test -list '.*' "$pkg" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	fi
	printf '%s\n' "${listed[$pkg]}"
}

# flag_value LINE FLAG prints the quoted argument of FLAG on LINE, with
# make's $$ escape undone.
flag_value() {
	sed -nE "s/.* $2 '([^']*)'.*/\1/p" <<<"$1" | sed 's/\$\$/$/g'
}

while IFS= read -r line; do
	pattern=$(flag_value "$line" -fuzz)
	[[ -n $pattern ]] || pattern=$(flag_value "$line" -bench)
	[[ -n $pattern ]] || pattern=$(flag_value "$line" -run)
	[[ -n $pattern ]] || continue
	pkgs=$(grep -oE '(^| )\./[^ ]*|(^| )\.$' <<<"$line" | tr -d ' ')
	[[ -n $pkgs ]] || pkgs=./...
	all=$(for p in $pkgs; do names_in "$p"; done)
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$all"; then
			echo "Makefile: pattern '$alt' matches nothing in $(echo $pkgs)" >&2
			status=1
		fi
	done
done < <(grep -E '^\s+\$\(GO\) test ' "$makefile")

exit $status
