#!/bin/sh
# Paired wall-clock comparison of two built `benchmark` binaries.
#
# usage: scripts/pairs.sh PARENT CHANGE WORKLOAD PAIRS SEED [SECONDS] [METRICS]
#
# PARENT and CHANGE are `benchmark` executables (build each checkout with
# `cargo build --release --offline --manifest-path benchmark/Cargo.toml`
# and copy `benchmark/target/release/benchmark` somewhere stable).
# Each pair runs both binaries once, one at a time, on
#   --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
# (SECONDS defaults to 20, the benchmark's own run length). The order
# alternates: parent first in odd pairs, change first in even ones, so a
# slow drift of the machine's speed lands on both sides alike, which
# running every parent repetition before every change one does not.
#
# METRICS is a comma-separated list of end-to-end metrics read off the
# JSON line each run prints (default run_s; e.g.
# run_s,setup_s,peak_rss_mb). The first is printed pair by pair as the
# runs finish: both values and change/parent. Then, for each metric:
# each side's median and interquartile range (quartiles by Python's
# `statistics.quantiles(n=4)`, as the benchmark computes them), the
# median per-pair ratio, how many pairs the change was lower in, and the
# median drop next to the parent's IQR. Exits 1 if any run fails or
# reports "correct": false.
set -eu

if [ $# -lt 5 ] || [ $# -gt 7 ]; then
    echo "usage: scripts/pairs.sh PARENT CHANGE WORKLOAD PAIRS SEED [SECONDS] [METRICS]" >&2
    exit 2
fi
PARENT=$1
CHANGE=$2
WORKLOAD=$3
PAIRS=$4
SEED=$5
SECONDS_=${6:-20}
METRICS=${7:-run_s}
FIRST=${METRICS%%,*}

for b in "$PARENT" "$CHANGE"; do
    [ -x "$b" ] || { echo "pairs.sh: not an executable: $b" >&2; exit 2; }
done

LINES=$(mktemp)
trap 'rm -f "$LINES"' EXIT

# One run; prints its JSON line.
measure() {
    out=$("$1" --workload "$WORKLOAD" --seed "$SEED" --seconds "$SECONDS_" --trace 0 2>/dev/null | tail -n 1) || {
        echo "pairs.sh: $1 failed" >&2
        exit 1
    }
    case $out in
    *'"correct":true'*) echo "$out" ;;
    *)
        echo "pairs.sh: $1 reported an incorrect run: $out" >&2
        exit 1
        ;;
    esac
}

# The value of metric $2 in JSON line $1.
value() {
    v=$(printf '%s\n' "$1" | sed -n "s/.*\"$2\":{[^}]*\"value\":\([-0-9.eE+]*\).*/\1/p")
    [ -n "$v" ] || { echo "pairs.sh: no $2 in: $1" >&2; exit 1; }
    echo "$v"
}

echo "workload $WORKLOAD, seed $SEED, --seconds $SECONDS_, $PAIRS pairs"
printf '%-5s %12s %12s %8s   (%s)\n' pair parent change ratio "$FIRST"
i=1
while [ "$i" -le "$PAIRS" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        p=$(measure "$PARENT")
        c=$(measure "$CHANGE")
    else
        c=$(measure "$CHANGE")
        p=$(measure "$PARENT")
    fi
    printf '%s\n%s\n' "$p" "$c" >>"$LINES"
    awk -v i="$i" -v p="$(value "$p" "$FIRST")" -v c="$(value "$c" "$FIRST")" \
        'BEGIN { printf "%-5s %12.4f %12.4f %8.4f\n", i, p, c, c / p }'
    i=$((i + 1))
done

for metric in $(echo "$METRICS" | tr ',' ' '); do
    rows=""
    while read -r p && read -r c; do
        rows="$rows$(value "$p" "$metric") $(value "$c" "$metric")
"
    done <"$LINES"
    printf '%s' "$rows" | awk -v metric="$metric" '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
function median(a, n) {
    return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
# Python statistics.quantiles(n=4), exclusive method; a is sorted.
function quartile(a, n, k,    m, j, delta) {
    if (n == 1) return a[1]
    m = n + 1
    j = int(k * m / 4)
    if (j < 1) j = 1
    if (j > n - 1) j = n - 1
    delta = k * m - j * 4
    return (a[j] * (4 - delta) + a[j + 1] * delta) / 4
}
{ n++; p[n] = $1; c[n] = $2; r[n] = $2 / $1; if ($2 < $1) lower++ }
END {
    sort(p, n); sort(c, n); sort(r, n)
    pm = median(p, n); cm = median(c, n)
    pq1 = quartile(p, n, 1); pq3 = quartile(p, n, 3)
    printf "\n%s\n", metric
    printf "  parent: median %.6g  IQR [%.6g, %.6g]\n", pm, pq1, pq3
    printf "  change: median %.6g  IQR [%.6g, %.6g]\n", cm, quartile(c, n, 1), quartile(c, n, 3)
    printf "  median change/parent ratio %.4f; change lower in %d/%d pairs\n", median(r, n), lower, n
    printf "  median drop %.6g vs parent IQR %.6g\n", pm - cm, pq3 - pq1
}'
done
