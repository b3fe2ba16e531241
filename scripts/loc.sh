#!/usr/bin/env bash
# loc.sh — the line figure every CHANGES.md entry states: non-test Go lines
# under internal/ + cmd/ per package, and what the working tree adds and
# removes there against a base revision (default HEAD; `make loc BASE=<rev>`),
# then the same for _test.go files, so code moved into tests shows up as
# test lines added. New files count once staged (`git add -A`).
set -euo pipefail
cd "$(dirname "$0")/.."
base="${1:-HEAD}"

find internal cmd -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 wc -l |
    awk '$2 != "total" { sub(/\/[^\/]*$/, "", $2); n[$2] += $1; all += $1 }
         END { for (p in n) printf "%7d  %s\n", n[p], p; printf "%7d  total\n", all }' |
    sort -k2

# --no-renames: a file moved into a _test.go file counts as non-test lines
# removed and test lines added, not as an edit of the old file.
git diff --numstat --no-renames "$base" -- internal cmd |
    awk -v base="$base" '
        $3 ~ /_test\.go$/ { tadd += $1; tdel += $2; next }
        $3 ~ /\.go$/ { add += $1; del += $2 }
        END {
            printf "vs %s: +%d -%d (net %+d) non-test Go lines under internal/ + cmd/\n", base, add, del, add - del
            printf "vs %s: +%d -%d (net %+d) _test.go lines under internal/ + cmd/\n", base, tadd, tdel, tadd - tdel
        }'
