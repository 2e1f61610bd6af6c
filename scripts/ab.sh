#!/usr/bin/env bash
# A/B of the end-to-end serving benchmark: a base revision against HEAD.
#
# Usage: scripts/ab.sh <base-rev> <workload> <pairs>
#
# Checks <base-rev> and HEAD out into two fresh git worktrees under
# target/ab/ and builds the benchmark in each with its own
# CARGO_TARGET_DIR. (Never reuse a copied target/: copied artifacts get
# fresh mtimes, so cargo takes them as up to date and links them against
# the other side's sources.) It then runs <pairs> pairs of the
# BENCHMARK.json command on <workload>, untraced, for the declared
# run_seconds. Each pair draws a fresh seed that both sides run, and
# which side runs first alternates from pair to pair, so a drift in host
# speed lands on both sides alike.
#
# For every end-to-end metric BENCHMARK.json declares, it prints each
# pair's two values and their difference, each side's median and
# quartiles, and in how many pairs the change was better (in the
# metric's declared direction); then each side's failed and attempted
# operations and its runs that were not `correct`. It gates nothing: the
# exit status says only whether every run completed. The worktrees and
# their builds are removed on exit.
#
# Needs git, cargo, jq and awk; runs offline like every build here.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh <base-rev> <workload> <pairs>" >&2
    exit 2
}
[ $# -eq 3 ] || usage
base_rev=$1 workload=$2 pairs=$3
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
bench=BENCHMARK.json
jq -e --arg w "$workload" '.workloads | any(.name == $w)' "$bench" > /dev/null || {
    echo "ab: workload '$workload' is not in $bench" >&2
    exit 2
}
base=$(git rev-parse --verify "$base_rev^{commit}")
change=$(git rev-parse --verify HEAD)
seconds=$(jq -r '.run_seconds' "$bench")
mapfile -t command < <(jq -r '.command[]' "$bench")

work="$root/target/ab/$$"
mkdir -p "$work/runs"
cleanup() {
    for side in base change; do
        if [ -d "$work/$side" ]; then
            git worktree remove --force "$work/$side"
        fi
    done
    rm -rf "$work"
}
trap cleanup EXIT

for side in base change; do
    rev=$base
    [ "$side" = change ] && rev=$change
    echo "== $side: building ${rev:0:12} =="
    git worktree add --quiet --detach "$work/$side" "$rev"
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side.target" \
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

# One run of one side: the result object (the run's last stdout line),
# or nothing if the run failed.
run_side() {
    local side=$1 seed=$2 out
    if out=$(cd "$work/$side" && CARGO_TARGET_DIR="$work/$side.target" "${command[@]}" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0); then
        tail -n 1 <<< "$out"
    else
        echo "ab: $side failed on seed $seed" >&2
    fi
}

first_seed=$(( $(od -An -N2 -tu2 /dev/urandom) * 100 + 1000 ))
echo "== $pairs pairs of '$workload', ${seconds} s each, seeds $first_seed.. =="
status=0
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    order="base change"
    ((i % 2)) && order="change base"
    for side in $order; do
        run_side "$side" "$seed" > "$work/runs/$side-$i.json"
        [ -s "$work/runs/$side-$i.json" ] || status=1
    done
    echo "pair $((i + 1))/$pairs seed $seed ($order) done"
done

# One TSV line per run and metric, "pair side name value" (value "-" for
# a failed run), then the report.
for ((i = 0; i < pairs; i++)); do
    for side in base change; do
        jq -r --argjson i "$i" --arg side "$side" --slurpfile spec "$bench" '
            . as $r
            | ($spec[0].end_to_end[] | [$i, $side, .name, ($r.metrics[.name].value // "-")]),
              [$i, $side, "@failed", $r.failed], [$i, $side, "@attempted", $r.attempted],
              [$i, $side, "@correct", (if $r.correct then 1 else 0 end)]
            | @tsv' "$work/runs/$side-$i.json" 2> /dev/null || true
    done
done > "$work/runs.tsv"
jq -r '.end_to_end[] | [.name, .unit, .better] | @tsv' "$bench" > "$work/metrics.tsv"

awk -F'\t' -v pairs="$pairs" -v seed="$first_seed" -v base="${base:0:12}" \
    -v change="${change:0:12}" '
    # Linear-interpolated quantile of the n >= 1 sorted values in s[1..n].
    function quantile(s, n, p,    h, lo) {
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
    }
    function isort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    function summary(side, name,    i, n, s) {
        n = 0
        for (i = 0; i < pairs; i++)
            if ((i, side, name) in v && v[i, side, name] != "-") s[++n] = v[i, side, name] + 0
        if (n == 0) return "- (no runs)"
        isort(s, n)
        return sprintf("%.6g [%.6g, %.6g] n=%d", quantile(s, n, 0.5), quantile(s, n, 0.25),
            quantile(s, n, 0.75), n)
    }
    FNR == NR { unit[$1] = $2; better[$1] = $3; names[++m] = $1; next }
    { v[$1, $2, $3] = $4 }
    END {
        printf "base %s vs change %s, %d pairs, seeds %d..%d\n", base, change, pairs, seed,
            seed + pairs - 1
        for (k = 1; k <= m; k++) {
            name = names[k]
            printf "\n%s (%s, %s is better)\n", name, unit[name], better[name]
            wins = 0; counted = 0
            for (i = 0; i < pairs; i++) {
                b = v[i, "base", name]; c = v[i, "change", name]
                if (b == "" || b == "-" || c == "" || c == "-") {
                    printf "  pair %2d  seed %d  base %s  change %s\n", i + 1, seed + i,
                        b == "" ? "-" : b, c == "" ? "-" : c
                    continue
                }
                b += 0; c += 0; counted++
                won = better[name] == "lower" ? c < b : c > b
                wins += won
                printf "  pair %2d  seed %d  base %.6g  change %.6g  %+.1f%%%s\n", i + 1,
                    seed + i, b, c, b == 0 ? 0 : 100 * (c - b) / b, won ? "  (change better)" : ""
            }
            printf "  base   median %s\n", summary("base", name)
            printf "  change median %s\n", summary("change", name)
            printf "  change better in %d of %d pairs\n", wins, counted
        }
        printf "\noperations\n"
        for (s = 1; s <= 2; s++) {
            side = s == 1 ? "base" : "change"
            failed = 0; attempted = 0; wrong = 0; missing = 0
            for (i = 0; i < pairs; i++) {
                if (!((i, side, "@failed") in v)) { missing++; continue }
                failed += v[i, side, "@failed"]; attempted += v[i, side, "@attempted"]
                wrong += 1 - v[i, side, "@correct"]
            }
            printf "  %-6s failed %d of %d attempted; runs not correct: %d; runs with no result: %d\n",
                side, failed, attempted, wrong, missing
        }
    }' "$work/metrics.tsv" "$work/runs.tsv"
exit $status
