#!/usr/bin/env bash
# loc.sh — the line figure every CHANGES.md entry states: non-test Go lines
# under internal/ + cmd/ per package, and what the working tree adds and
# removes there against a base revision (default HEAD; `make loc BASE=<rev>`),
# _test.go excluded. New files count once staged (`git add -A`).
set -euo pipefail
cd "$(dirname "$0")/.."
base="${1:-HEAD}"

find internal cmd -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 wc -l |
    awk '$2 != "total" { sub(/\/[^\/]*$/, "", $2); n[$2] += $1; all += $1 }
         END { for (p in n) printf "%7d  %s\n", n[p], p; printf "%7d  total\n", all }' |
    sort -k2

git diff --numstat "$base" -- internal cmd |
    awk -v base="$base" '$3 !~ /_test\.go$/ && $3 ~ /\.go$/ { add += $1; del += $2 }
         END { printf "vs %s: +%d -%d (net %+d) non-test Go lines under internal/ + cmd/\n", base, add, del, add - del }'
