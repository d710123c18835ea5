#!/bin/sh
# Alternating parent/change pairs of one benchmark workload: the procedure
# behind results/prNN_pairs.txt.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [seed]
#
# Exports <parent-rev> (git archive) and the working tree (tracked and
# untracked, not ignored, edits included) into a temporary directory,
# builds the benchmark in each copy into its own target directory, then
# runs `bench --workload W --seed S --seconds 12 --trace 0` from each copy,
# one run at a time, parent first in every pair. Prints one line per run:
#
#   pair side setup_s replays_per_s cpu_ms_per_replay allocs_per_replay alloc_kb_per_replay peak_rss_mb
#
# then each side's medians and the pairs the change won. A run whose
# failed_share is above 0, or whose outcome_fnv differs from the parent's
# first run, is flagged at the end of its line and makes the exit code 1.
# The seed defaults to 42.
set -eu
[ $# -ge 3 ] || { sed -n '5p' "$0" | cut -c3- >&2; exit 2; }
parent=$1 workload=$2 pairs=$3 seed=${4:-42}
repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"
git -C "$repo" archive "$parent" | tar -x -C "$work/parent"
git -C "$repo" ls-files -z -co --exclude-standard | (cd "$repo" && xargs -0 tar -cf - --) | tar -x -C "$work/change"
for side in parent change; do
    echo "building $side" >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side-target" cargo build -q --release \
        --offline --manifest-path benchmark/Cargo.toml --bin bench)
done

# Value of `"name":{"value":V` or `"name":V` in a JSON line, or "-".
field() { printf '%s\n' "$2" | sed -n "s/.*\"$1\":\({\"value\":\)\{0,1\}\([^,}]*\).*/\2/p" | grep . || echo -; }

echo "pair side setup_s replays_per_s cpu_ms_per_replay allocs_per_replay alloc_kb_per_replay peak_rss_mb"
fnv0=
i=1
while [ "$i" -le "$pairs" ]; do
    for side in parent change; do
        out=$(cd "$work/$side" && "$work/$side-target/release/bench" --workload "$workload" \
            --seed "$seed" --seconds 12 --trace 0 2>/dev/null) || true
        line=$(printf '%s\n' "$out" | tail -n 1)
        detail=$(printf '%s\n' "$out" | grep '^DETAIL' || true)
        fnv=$(field outcome_fnv "$detail")
        failed=$(field failed_share "$detail")
        [ -n "$fnv0" ] || fnv0=$fnv
        flag=
        case $failed in 0 | 0.0) ;; *) flag="$flag failed_share=$failed" ;; esac
        [ "$fnv" = "$fnv0" ] || flag="$flag outcome_fnv=$fnv (parent $fnv0)"
        printf '%4d %-7s' "$i" "$side"
        for m in setup_s replays_per_s cpu_ms_per_replay allocs_per_replay alloc_kb_per_replay peak_rss_mb; do
            v=$(field "$m" "$line")
            case $v in -) printf ' -' ;; *) printf ' %g' "$v" ;; esac
        done
        printf '%s\n' "${flag:+ FLAG:$flag}"
    done
    i=$((i + 1))
done | tee "$work/runs.txt"

awk '$2 == "parent" { rp[$1] = $4; cp[$1] = $5 }
     $2 == "change" { rc[$1] = $4; cc[$1] = $5; if ($4 > rp[$1]) wr++; if ($5 < cp[$1]) wc++; n++ }
     function median(a,  k, v, m, t) {
         m = 0; for (k in a) v[++m] = a[k]
         for (k = 2; k <= m; k++) for (t = k; t > 1 && v[t - 1] > v[t]; t--) { x = v[t]; v[t] = v[t - 1]; v[t - 1] = x }
         return m % 2 ? v[(m + 1) / 2] : (v[m / 2] + v[m / 2 + 1]) / 2
     }
     END { printf "median replays_per_s %g -> %g (change higher in %d of %d pairs)\n", median(rp), median(rc), wr, n
           printf "median cpu_ms_per_replay %g -> %g (change lower in %d of %d pairs)\n", median(cp), median(cc), wc, n }' \
    "$work/runs.txt"
! grep -q FLAG "$work/runs.txt"
