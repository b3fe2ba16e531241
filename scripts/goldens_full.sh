#!/usr/bin/env bash
# goldens_full.sh — regenerate the full-scale record (Table 1, then paper
# Experiments 1–6 at paper scale, each `mcsim exp <id> -parallel 2`) and
# diff it against the committed experiments_full.txt, ignoring only the
# "(… in Ns …)" timing line each experiment ends with. Experiments 2 and 3
# rank every replacement policy, so a moved tie-break shows here.
#
#   scripts/goldens_full.sh [-update]
#
# -update rewrites experiments_full.txt instead of diffing. About 8 minutes
# on 2 CPUs; not part of CI.
set -euo pipefail
cd "$(dirname "$0")/.."
update=0
case "${1:-}" in
"") ;;
-update) update=1 ;;
*)
	echo "usage: scripts/goldens_full.sh [-update]" >&2
	exit 2
	;;
esac
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"${GO:-go}" build -o "$tmp/mcsim" ./cmd/mcsim
for id in table1 1 2 3 4 5 6; do
	"$tmp/mcsim" exp "$id" -parallel 2 >>"$tmp/record.txt"
done
if [ "$update" = 1 ]; then
	cp "$tmp/record.txt" experiments_full.txt
	echo "goldens-full: rewrote experiments_full.txt"
	exit 0
fi
timing='^\(.* in [0-9.]+s[,)]'
diff -u <(grep -Ev "$timing" experiments_full.txt) <(grep -Ev "$timing" "$tmp/record.txt")
echo "goldens-full: OK (every table matches experiments_full.txt)"
