#!/usr/bin/env bash
# pairs.sh — run the repository benchmark in alternating pairs, commit BASE
# against the working tree, and summarise each end-to-end metric.
#
#   scripts/pairs.sh [-n N] [-seconds S] [-seed K] WORKLOAD BASE
#
# BASE is extracted (git archive) into .bench_build/pairs-<sha>/ and reused
# by later calls. Each of the N pairs (default 10) runs
#   bash bench/run.sh --workload WORKLOAD --seed K --seconds S --trace 0
# (defaults: seed 1, 15 s) once in BASE's tree and once in the working tree,
# BASE first in odd pairs and second in even ones. For each end-to-end metric
# it prints every pair's two values and their ratio (working tree ÷ BASE),
# each side's median and quartiles, the median ratio, the min–max ratio and
# how many pairs the working tree won; every end-to-end metric in
# BENCHMARK.json is lower-is-better. It exits 1 as soon as a run fails or
# reports correct: false or failed > 0. It only calls bench/run.sh.
set -euo pipefail
usage() {
	echo "usage: scripts/pairs.sh [-n N] [-seconds S] [-seed K] WORKLOAD BASE" >&2
	exit 2
}
n=10 seconds=15 seed=1
while [ $# -gt 0 ]; do
	case "$1" in
	-n | -seconds | -seed)
		[ $# -ge 2 ] || usage
		case "$1" in -n) n="$2" ;; -seconds) seconds="$2" ;; -seed) seed="$2" ;; esac
		shift 2
		;;
	-*) usage ;;
	*) break ;;
	esac
done
[ $# -eq 2 ] || usage
[[ "$n" =~ ^[1-9][0-9]*$ ]] || usage
workload="$1"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --verify --quiet "$2^{commit}")" || {
	echo "pairs: $2 is not a commit" >&2
	exit 2
}
base="$root/.bench_build/pairs-$sha"
if [ ! -d "$base" ]; then
	rm -rf "$base.tmp"
	mkdir -p "$base.tmp"
	git -C "$root" archive "$sha" | tar -x -C "$base.tmp"
	mv "$base.tmp" "$base"
fi
log="$root/.bench_build/pairs.log"
rows="$(mktemp "$root/.bench_build/pairs.XXXXXX")"
trap 'rm -f "$rows"' EXIT

# run SIDE DIR PAIR appends "metric pair side value unit" rows for one run.
run() {
	local line
	if ! line="$(bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 2>"$log" | tail -n 1)"; then
		echo "pairs: pair $3, $1: bench/run.sh failed; its stderr is in $log" >&2
		exit 1
	fi
	case "$line" in *'"correct":true'*'"failed":0,'*) ;; *)
		echo "pairs: pair $3, $1: $line" >&2
		exit 1
		;;
	esac
	echo "$line" | grep -oE '"[A-Za-z0-9_.]+":\{"value":[^,]+,"unit":"[^"]*"' |
		sed -E 's/^"([^"]+)":\{"value":([^,]+),"unit":"([^"]*)"$/\1 '"$3 $1"' \2 \3/' >>"$rows"
}

for ((p = 1; p <= n; p++)); do
	if ((p % 2)); then
		run base "$base" "$p"
		run change "$root" "$p"
	else
		run change "$root" "$p"
		run base "$base" "$p"
	fi
	echo "pairs: $workload pair $p/$n done" >&2
done

awk -v workload="$workload" -v base="$2" '
function sort(a, k,   i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# q returns the q-th quantile of the sorted a[1..k], interpolating linearly.
function q(a, k, f,   x, i) {
	x = 1 + (k - 1) * f; i = int(x)
	return i >= k ? a[k] : a[i] + (x - i) * (a[i+1] - a[i])
}
function side(s, m,   a, k, p) {
	k = 0
	for (p = 1; p <= np; p++) a[++k] = v[m, p, s]
	sort(a, k)
	return sprintf("%s median %.4g (quartiles %.4g-%.4g)", s, q(a, k, 0.5), q(a, k, 0.25), q(a, k, 0.75))
}
{
	if (!($1 in unit)) { order[++nm] = $1; unit[$1] = $5 }
	v[$1, $2, $3] = $4
	if ($2 > np) np = $2
}
END {
	for (i = 1; i <= nm; i++) {
		m = order[i]; k = 0; won = 0
		printf "%s %s (%s), working tree / %s, lower is better:\n", workload, m, unit[m], base
		for (p = 1; p <= np; p++) {
			r[++k] = v[m, p, "change"] / v[m, p, "base"]
			if (v[m, p, "change"] < v[m, p, "base"]) won++
			printf "  pair %2d  base %.4g  change %.4g  ratio %.3f\n", p, v[m, p, "base"], v[m, p, "change"], r[k]
		}
		sort(r, k)
		printf "  %s; %s\n", side("base", m), side("change", m)
		printf "  median ratio %.3f  min-max %.3f-%.3f  change won %d/%d\n", q(r, k, 0.5), r[1], r[k], won, k
	}
}' "$rows"
