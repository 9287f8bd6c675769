#!/usr/bin/env bash
# pairs.sh — the paired-run ruler: one workload of the benchmark on two
# commits, in alternating pairs.
#
# Each commit is checked out in its own git worktree and built there by
# its own bench/run.sh. Pair i runs the workload on seed first-seed+i
# once on each side, and the side that runs first alternates from pair to
# pair, so a drift of the host does not favour one side. For every
# end-to-end metric the change's BENCHMARK.json declares, it prints one
# line per pair, each side's median, the parent's interquartile range,
# and how many pairs the change won in the metric's "better" direction.
#
# Usage: scripts/pairs.sh <parent> <change> <workload> <first-seed> <count> [seconds]
#
# seconds defaults to BENCHMARK.json's run_seconds. Needs git, jq and
# awk. The worktrees and the raw outputs live in a temporary directory,
# which is removed on exit; nothing is written under bench/.
set -euo pipefail

if [ $# -lt 5 ]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 first=$4 count=$5
repo="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
work="$(mktemp -d)"
cleanup() {
    for side in parent change; do
        git -C "$repo" worktree remove --force "$work/$side" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT

for side in parent change; do
    git -C "$repo" worktree add --quiet --detach "$work/$side" "${!side}"
done
seconds=${6:-$(jq -r .run_seconds "$work/change/BENCHMARK.json")}

for ((i = 0; i < count; i++)); do
    seed=$((first + i))
    order="parent change"
    if ((i % 2 == 1)); then order="change parent"; fi
    for side in $order; do
        echo "# pair $((i + 1))/$count, seed $seed: $side" >&2
        bash "$work/$side/bench/run.sh" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$work/$side.out"
        # The last line of a run is its result object.
        tail -n 1 "$work/$side.out" >"$work/$side.$seed.json"
        jq -r '"#   \(.attempted) operations, \(.failed) failed, correct: \(.correct)"' \
            "$work/$side.$seed.json" >&2
    done
done

echo "# $workload: parent $(git -C "$repo" rev-parse --short "$parent")," \
    "change $(git -C "$repo" rev-parse --short "$change"), seeds $first..$((first + count - 1)), ${seconds}s"
jq -r '.end_to_end[] | "\(.name) \(.better)"' "$work/change/BENCHMARK.json" |
    while read -r name better; do
        for ((i = 0; i < count; i++)); do
            seed=$((first + i))
            echo "$seed" \
                "$(jq ".metrics.$name.value" "$work/parent.$seed.json")" \
                "$(jq ".metrics.$name.value" "$work/change.$seed.json")"
        done | awk -v name="$name" -v better="$better" '
            function q(v, n, p,   h, lo) {
                h = (n - 1) * p; lo = int(h)
                return lo + 1 < n ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[lo]
            }
            function sorted(src, dst, n,   i, j, x) {
                for (i = 0; i < n; i++) dst[i] = src[i]
                for (i = 1; i < n; i++) {
                    x = dst[i]
                    for (j = i - 1; j >= 0 && dst[j] > x; j--) dst[j + 1] = dst[j]
                    dst[j + 1] = x
                }
            }
            function pct(a, b) { return b == 0 ? "n/a" : sprintf("%+.2f%%", 100 * (a - b) / b) }
            BEGIN {
                n = 0
                printf "%s (%s is better)\n", name, better
                printf "  %4s %6s %14s %14s %9s\n", "pair", "seed", "parent", "change", "diff"
            }
            {
                p[n] = $2; c[n] = $3
                won = better == "higher" ? $3 > $2 : $3 < $2
                wins += won
                printf "  %4d %6d %14.6g %14.6g %9s %s\n", n + 1, $1, $2, $3, pct($3, $2), won ? "won" : ""
                n++
            }
            END {
                sorted(p, ps, n); sorted(c, cs, n)
                printf "  median parent %.6g, change %.6g (%s); parent IQR %.6g; change won %d/%d\n",
                    q(ps, n, 0.5), q(cs, n, 0.5), pct(q(cs, n, 0.5), q(ps, n, 0.5)),
                    q(ps, n, 0.75) - q(ps, n, 0.25), wins, n
            }'
    done
