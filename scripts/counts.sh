#!/bin/sh
# The counts ROADMAP "Recent" tracks, as one rerunnable command (run from
# the repo root). A `pub` item is a line that starts with `pub` plus an
# item keyword under src/ or crates/<crate>/src; fields and `pub(crate)` do
# not count.
set -eu
rs_lines() { find "$@" -name '*.rs' -exec cat {} + | wc -l; }
printf '.rs lines, crates src tests examples: %s\n' "$(rs_lines crates src tests examples)"
printf '.rs lines, tests (of the above):     %s\n' "$(rs_lines tests crates/*/tests)"
printf '.rs lines, benchmark (frozen):        %s\n' "$(rs_lines benchmark/src benchmark/tests)"
# A test function is a `#[test]` line; each case of a `proptest!` block
# carries its own. `cargo test` adds the doc-tests to this number.
printf 'test functions, crates src tests examples: %s\n' \
    "$(grep -rhE --include='*.rs' '^\s*#\[test\]' crates src tests examples | wc -l)"
# The crate a src/ directory belongs to; the root package's src/ is the
# `hummingbird` crate.
crate_of() {
    case $1 in
        src) echo hummingbird ;;
        *) crate=${1#crates/} && echo "${crate%/src}" ;;
    esac
}
pub_items() { grep -rhE '^\s*pub (fn|struct|enum|const|trait|type|mod|use|static)' "$@" | wc -l; }
printf 'pub items, workspace:                 %s\n' "$(pub_items src crates/*/src)"
echo 'pub items per crate:'
for dir in src crates/*/src; do
    printf '  %-11s %s\n' "$(crate_of "$dir")" "$(pub_items "$dir")"
done
# The public-surface grep: a `pub fn/struct/enum/const/type/trait` name
# in a crate's src/ that no other `.rs` file names as a whole word —
# other crates, every tests/ and examples/ (the crate's own included),
# the package's own src/bin/ (each binary is a crate of its own) and the
# frozen benchmark/. Approximate: names collide, and a type in a public
# signature must stay `pub` even when no one names it.
echo 'pub names used nowhere outside their src/ (informational):'
words=$(mktemp)
trap 'rm -f "$words"' EXIT
for dir in src crates/*/src; do
    find crates src tests examples benchmark -name '*.rs' -not -path '*/target/*' \
        \( -path "$dir/bin/*" -o -not -path "$dir/*" \) -exec grep -ohwE '\w+' {} + \
        | LC_ALL=C sort -u > "$words"
    names=$(find "$dir" -name '*.rs' -not -path "$dir/bin/*" \
        -exec grep -hoE '^\s*pub (fn|struct|enum|const|type|trait) \w+' {} + \
        | awk '{ print $NF }' | LC_ALL=C sort -u)
    unused=$(printf '%s\n' "$names" | LC_ALL=C comm -23 - "$words" | tr '\n' ' ')
    printf '  %-11s %s of %s: %s\n' "$(crate_of "$dir")" "$(printf '%s' "$unused" | wc -w)" \
        "$(printf '%s\n' "$names" | grep -c .)" "$unused"
done
printf 'workspace packages:                   %s\n' \
    "$(cargo metadata --offline --no-deps --format-version 1 | tr ',' '\n' | grep -c '"manifest_path"')"
printf 'netsim scenario.rs lines:             %s\n' "$(wc -l < crates/netsim/src/scenario.rs)"
printf 'netsim `pub fn run_*`:                %s\n' \
    "$(grep -rhE '^\s*pub fn run_' crates/netsim/src | wc -l)"
# A network type is a `pub struct` named `*Topology`, plus `TopologyBuilder`.
printf 'netsim network types:                 %s\n' \
    "$(grep -rhE '^\s*pub struct (\w+Topology|TopologyBuilder)\b' crates/netsim/src | wc -l)"
printf '*Stats/*Report structs:               %s\n' \
    "$(grep -rhE '^\s*pub struct \w+(Stats|Report)\b' crates/*/src | wc -l)"
# A percentile function takes arguments; test functions named after one do not.
printf 'percentile functions (+1 benchmark):  %s\n' \
    "$(grep -rhE 'fn \w*percentile\w*(<[^>]*>)?\(\s*[^) ]' crates src tests examples | wc -l)"
# In wire, dataplane and testbed src/: everything from a file's first
# #[cfg(test)] on is test code, and comments (doc examples) do not count.
printf 'unwrap/expect outside tests:          %s\n' "$(
    find crates/wire/src crates/dataplane/src crates/testbed/src -name '*.rs' -exec awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        { n += gsub(/\.unwrap\(\)|\.expect\(/, "&") }
        END { print n + 0 }' {} \; | awk '{ s += $1 } END { print s }')"
# `unsafe` blocks outside tests, per crate: everything from a file's first
# top-level #[cfg(test)] on is test code, and comments do not count. Only
# hummingbird-crypto (the crate with every `std::arch` intrinsic) and
# hummingbird-testbed (its `sys` module: setsockopt/sendmsg/recvmsg for
# UDP GSO/GRO) may have any; the others forbid `unsafe` outright.
echo 'unsafe blocks outside tests:'
for dir in src crates/*/src; do
    n=$(find "$dir" -name '*.rs' -exec awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        { n += gsub(/unsafe[[:space:]]*\{/, "&") }
        END { print n + 0 }' {} \; | awk '{ s += $1 } END { print s }')
    printf '  %-11s %s\n' "$(crate_of "$dir")" "$n"
done
# ROADMAP item 17's probe: clippy's truncating-cast warnings in non-test library
# code, per crate, by the file each warning points at (informational; the
# offline shims stand in for crates.io and are not counted).
echo 'truncating casts in library code (clippy::cast_possible_truncation):'
cargo clippy --offline --workspace --lib --quiet -- \
    -A clippy::all -W clippy::cast_possible_truncation 2>&1 | awk '
    /^warning: casting / { cast = 1; next }
    cast && /-->/ {
        cast = 0
        split($2, at, "/")
        crate = at[1] == "src" ? "hummingbird" : at[2]
        if (at[1] == "crates" && crate == "shims") next
        n[crate]++
        total++
    }
    END { for (c in n) printf "  %-11s %s\n", c, n[c] | "sort"; close("sort")
          printf "  %-11s %s\n", "total", total + 0 }'
printf 'RuntimeConfig fields:                 %s\n' "$(
    awk '/^pub struct RuntimeConfig \{/ { on = 1; next } on && /^}/ { exit }
        on && /^[[:space:]]*pub [a-z_]+:/ { n++ } END { print n + 0 }' \
        crates/dataplane/src/runtime/mod.rs)"
# A key-cache reference is a line naming the cache type, its config
# field or its counters, outside the cache's own module (crypto's
# flyover.rs, which defines and tests it) and the frozen benchmark/.
printf 'key-cache references outside benchmark/: %s\n' \
    "$(grep -rnE 'AuthKeyCache|auth_key_cache|key_cache_(hits|misses)' crates src tests examples \
        | grep -vc '^crates/crypto/src/flyover.rs:')"
printf '`fn process_batch` bodies in crates/*/src: %s\n' \
    "$(grep -rhE 'fn process_batch\(.*\{' crates/*/src | wc -l)"
printf 'clippy::too_many_arguments allows:    %s\n' \
    "$(grep -rn 'allow(clippy::too_many_arguments)' crates src tests examples | wc -l)"
printf 'CI smoke legs:                        %s\n' \
    "$(grep -c 'name: Smoke-bench' .github/workflows/ci.yml)"
printf 'bench binaries:                       %s\n' "$(find crates/bench/src/bin -name '*.rs' | wc -l)"
printf 'checked-in BENCH_*.json:              %s\n' "$(find . -maxdepth 1 -name 'BENCH_*.json' | wc -l)"
