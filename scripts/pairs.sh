#!/bin/sh
# Alternating parent/change runs of one benchmark workload (ROADMAP item 2,
# the choosing-metrics guide § 8): side a is <parent-rev>, side b is the
# working tree; each builds the frozen benchmark/ into its own target dir
# and runs it from its own checkout, the side going first alternating per
# seed; `compare` then prints medians, quartiles and verdicts per metric.
# usage: sh scripts/pairs.sh <parent-rev> <workload> [pairs]   (repo root)
set -eu
rev=$1 workload=$2 pairs=${3:-10}
root=$(pwd)
dir=$root/target/pairs
rm -rf "$dir/a" "$dir/b"
mkdir -p "$dir/a" "$dir/b"
git worktree remove --force "$dir/parent" 2>/dev/null || true
git worktree add --detach "$dir/parent" "$rev" >/dev/null
trap 'git -C "$root" worktree remove --force "$dir/parent"' EXIT
build() { # <checkout> <side>
    (cd "$1" && CARGO_TARGET_DIR="$dir/target-$2" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}
run() { # <checkout> <side> <seed>
    (cd "$1" && "$dir/target-$2/release/hummingbird-benchmark" run \
        --workload "$workload" --seed "$3" --out "$dir/$2/seed$3.json" >/dev/null)
}
build "$dir/parent" a
build "$root" b
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run "$dir/parent" a "$i" && run "$root" b "$i"
    else
        run "$root" b "$i" && run "$dir/parent" a "$i"
    fi
    i=$((i + 1))
done
"$dir/target-b/release/hummingbird-benchmark" compare "$dir/a" "$dir/b"
