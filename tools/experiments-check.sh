#!/bin/sh
# Regenerate every experiment table and figure and diff the output against
# the committed experiments_output.txt. The wall-clock [perf] table is the
# one block that differs from run to run, so it is dropped from both sides;
# every other number is bitwise reproducible at the default seed.
#
# Usage (from the repository root): sh tools/experiments-check.sh
set -eu

GO=${GO:-go}
out=$(mktemp)
trap 'rm -f "$out" "$out.want"' EXIT

"$GO" run ./cmd/experiments > "$out"

# strip drops the [perf] table: its title line through the blank line after it.
strip() {
	awk '/\[perf\]$/ { skip = 1 } !skip { print } skip && /^$/ { skip = 0 }' "$1"
}

strip experiments_output.txt > "$out.want"
if ! strip "$out" | diff -u "$out.want" -; then
	echo "experiments-check: output differs from experiments_output.txt;" \
		"regenerate it with 'go run ./cmd/experiments > experiments_output.txt'" >&2
	exit 1
fi
echo "experiments-check: output matches experiments_output.txt ([perf] skipped)"
