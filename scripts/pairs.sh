#!/bin/sh
# Alternating parent/change runs of benchmark workloads (ROADMAP item 2,
# the choosing-metrics guide § 8): side a is <parent-rev>, side b is the
# working tree. Each side's frozen benchmark/ is built once into its own
# target dir and run from its own checkout; per workload the side going
# first alternates per seed, and one `compare` per workload prints
# medians, quartiles and verdicts per metric — so the claimed row and
# every no-regression row come out of one command. After each compare it
# prints the pairing: per end-to-end metric, each seed's b/a ratio and
# how many pairs read b ahead.
# usage: sh scripts/pairs.sh <parent-rev> <w1,w2,...|all> [pairs]   (repo root)
# Exits 1 if any workload's compare reports a worse metric.
set -eu
rev=$1 workloads=$2 pairs=${3:-10}
root=$(pwd)
dir=$root/target/pairs
if [ "$workloads" = all ]; then
    # The workload names of BENCHMARK.json, in its order.
    workloads=$(awk '/"workloads"/ { on = 1 } on && /"name"/ { split($0, f, "\""); print f[4] }
        on && /^  \]/ { exit }' BENCHMARK.json | paste -sd, -)
fi
echo "a: $rev = $(git rev-parse "$rev")   b: the working tree"
# The parent as a plain export of <rev> (no worktree left to clean up).
rm -rf "$dir/a" "$dir/b" "$dir/parent"
mkdir -p "$dir/parent"
git archive "$rev" | tar -x -C "$dir/parent"
build() { # <checkout> <side>
    (cd "$1" && CARGO_TARGET_DIR="$dir/target-$2" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}
run() { # <checkout> <side> <workload> <seed>
    # The parent export sits inside this repo: git's discovery stops at
    # $dir, so side a's results read revision `unknown`, not this HEAD.
    (cd "$1" && if [ "$2" = a ]; then export GIT_CEILING_DIRECTORIES="$dir"; fi &&
        "$dir/target-$2/release/hummingbird-benchmark" run \
        --workload "$3" --seed "$4" --out "$dir/$2/$3/seed$4.json" >/dev/null)
}
# The end-to-end metrics of BENCHMARK.json, as <name>:<higher|lower>.
metrics=$(awk '/"end_to_end"/ { on = 1 } on && /"name"/ { split($0, f, "\""); name = f[4] }
    on && /"better"/ { split($0, f, "\""); print name ":" f[4] } on && /^  \]/ { exit }' BENCHMARK.json)
value() { # <result file> <metric>
    # A result file is one line, and its first entry for a metric is
    # the untraced result; `-` stands for a missing one.
    grep -o "\"$2\": {\"value\": [^,}]*" "$1" 2>/dev/null | head -n 1 | sed 's/.*: //' |
        grep . || echo -
}
paired() { # <workload>
    for m in $metrics; do
        name=${m%:*} better=${m#*:} i=1 line=
        while [ "$i" -le "$pairs" ]; do
            line="$line $(value "$dir/a/$1/seed$i.json" "$name") $(value "$dir/b/$1/seed$i.json" "$name")"
            i=$((i + 1))
        done
        echo "$line" | awk -v w="$1" -v m="$name" -v better="$better" '{
            for (i = 1; i < NF; i += 2) {
                a = $i; b = $(i + 1)
                if (a == "-" || b == "-" || a + 0 == 0) { ratios = ratios " -"; continue }
                ratios = ratios sprintf(" %.3f", b / a)
                ahead += better == "higher" ? b + 0 > a + 0 : b + 0 < a + 0
            }
            printf "%-20s %-16s b/a per seed:%s   b ahead in %d of %d\n", w, m, ratios, ahead, NF / 2
        }'
    done
}
build "$dir/parent" a
build "$root" b
status=0
for w in $(echo "$workloads" | tr ',' ' '); do
    mkdir -p "$dir/a/$w" "$dir/b/$w"
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run "$dir/parent" a "$w" "$i" && run "$root" b "$w" "$i"
        else
            run "$root" b "$w" "$i" && run "$dir/parent" a "$w" "$i"
        fi
        i=$((i + 1))
    done
    "$dir/target-b/release/hummingbird-benchmark" compare "$dir/a/$w" "$dir/b/$w" || status=1
    paired "$w"
done
exit $status
