#!/usr/bin/env bash
# A/B the repo benchmark: a commit against the working tree, in
# alternating pairs on fresh seeds.
#
#   scripts/ab.sh REV [WORKLOAD...] [BENCHMARK_FLAG...]
#
# Exports REV ("base") and the working tree ("head": tracked and
# untracked files, not ignored ones) into two sibling directories whose
# paths have equal length, and builds the benchmark in each, so the
# repo's own benchmark/Cargo.lock and build directory are never touched.
# Then runs AB_PAIRS pairs per workload, pair p on seed AB_SEED + p,
# base first in odd pairs and head first in even ones. For every
# end-to-end metric of BENCHMARK.json, and on kinds-local every
# kind_mops.<kind>, it prints each side's median [min..max], the median
# over pairs of head / base - 1, and in how many pairs head was better.
#
# kinds-local's pm_b_per_user_b is a pure function of the seed: a
# per-seed difference between the sides is flagged and the script
# exits 3. A failed benchmark run exits 1.
#
# WORKLOADs default to the four of BENCHMARK.json. Arguments from the
# first one starting with "-" on pass through to the benchmark
# (default: --seconds 10). Environment: AB_PAIRS (default 5), AB_SEED
# (default 9000), AB_DIR (default: a fresh temporary directory; it holds
# both trees, every run's output as <workload>.<side>.<seed>.out, and
# stays when the script ends).
set -euo pipefail

if [ $# -lt 1 ] || [ "${1#-}" != "$1" ]; then
    sed -n '2,/^set -e/p' "$0" | sed '$d; s/^# \{0,1\}//'
    exit 2
fi
rev=$1
shift
workloads=()
while [ $# -gt 0 ] && [ "${1#-}" = "$1" ]; do
    workloads+=("$1")
    shift
done
flags=("$@")
[ ${#flags[@]} -gt 0 ] || flags=(--seconds 10)

root=$(git rev-parse --show-toplevel)
[ ${#workloads[@]} -gt 0 ] ||
    read -ra workloads <<<"$(sed -n 's/.*{"name": "\([a-z0-9-]*\)", "why".*/\1/p' "$root/BENCHMARK.json" | tr '\n' ' ')"
pairs=${AB_PAIRS:-5}
seed0=${AB_SEED:-9000}
dir=${AB_DIR:-$(mktemp -d)}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)

# The end-to-end metrics and which way is better, as "name lower|higher".
e2e=$(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([a-z0-9_]*\)".*"better": "\([a-z]*\)".*/\1 \2/p' \
    "$root/BENCHMARK.json" | tr '\n' ' ')

echo "base: $rev ($(git -C "$root" rev-parse --short "$rev")); head: the working tree of $root"
echo "trees and run outputs: $dir"
rm -rf "$dir/base" "$dir/head"
mkdir -p "$dir/base" "$dir/head"
git -C "$root" archive --format=tar "$rev" | tar -xf - -C "$dir/base"
(
    cd "$root"
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
        tar --null -T - -cf -
) | tar -xf - -C "$dir/head"
for side in base head; do
    echo "building the benchmark in $dir/$side"
    env -u CARGO_TARGET_DIR cargo build --quiet --release --offline \
        --manifest-path "$dir/$side/benchmark/Cargo.toml"
done

# One run: prints "metric value" lines for the metrics compared.
run() { # side workload seed
    local out="$dir/$2.$1.$3.out"
    if ! (cd "$dir/$1" && ./benchmark/target/release/pm-stack-benchmark \
        --workload "$2" --seed "$3" "${flags[@]}") >"$out" 2>&1; then
        echo "$1 failed on $2, seed $3; its output:" >&2
        tail -n 20 "$out" >&2
        exit 1
    fi
    awk '$1 ~ /^[a-z][a-z0-9_.]*$/ && $2 ~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/ { print $1, $2 }' "$out"
}

status=0
for w in "${workloads[@]}"; do
    results="$dir/$w.tsv" # side pair seed metric value
    : >"$results"
    for p in $(seq "$pairs"); do
        seed=$((seed0 + p))
        order="base head"
        [ $((p % 2)) -eq 1 ] || order="head base"
        for side in $order; do
            run "$side" "$w" "$seed" | sed "s/^/$side $p $seed /" >>"$results"
        done
    done
    echo
    echo "== $w: $pairs pairs, seeds $((seed0 + 1))..$((seed0 + pairs)), flags: ${flags[*]}"
    awk -v e2e="$e2e" -v n="$pairs" -v w="$w" '
        function sort(a, k,   i, j, t) {
            for (i = 2; i <= k; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        function median(a, k) { sort(a, k); return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2 }
        function side(s,   i, a) {
            for (i = 1; i <= n; i++) a[i] = v[s, m, i] + 0
            return sprintf("%.4g [%.4g..%.4g]", median(a, n), a[1], a[n])
        }
        BEGIN {
            k = split(e2e, f, " ")
            for (i = 1; i < k; i += 2) { better[f[i]] = f[i + 1]; order[++nm] = f[i] }
        }
        { v[$1, $4, $2] = $5; seed[$2] = $3
          if ($4 ~ /^kind_mops\./ && !($4 in better)) { better[$4] = "higher"; order[++nm] = $4 } }
        END {
            printf "%-24s %-28s %-28s %10s %s\n", "metric", "base median [min..max]",
                "head median [min..max]", "pair delta", "head better"
            for (j = 1; j <= nm; j++) {
                m = order[j]
                if (!(("base", m, 1) in v)) continue
                wins = 0
                for (i = 1; i <= n; i++) {
                    b = v["base", m, i] + 0; h = v["head", m, i] + 0
                    d[i] = b != 0 ? h / b - 1 : 0
                    if (better[m] == "higher" ? h > b : h < b) wins++
                }
                printf "%-24s %-28s %-28s %+9.1f%% %d of %d pairs\n", m, side("base"), side("head"),
                    100 * median(d, n), wins, n
            }
            if (w == "kinds-local")
                for (i = 1; i <= n; i++)
                    if (v["base", "pm_b_per_user_b", i] "" != v["head", "pm_b_per_user_b", i] "") {
                        printf "FLAG: pm_b_per_user_b differs at seed %d: base %s, head %s\n", seed[i],
                            v["base", "pm_b_per_user_b", i], v["head", "pm_b_per_user_b", i]
                        flagged = 1
                    }
            exit flagged ? 3 : 0
        }' "$results" || status=$?
done
exit "$status"
