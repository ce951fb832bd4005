#!/bin/sh
# The counts ROADMAP "Recent" tracks, as one rerunnable command (run from
# the repo root). A `pub` item is a line that starts with `pub` plus an
# item keyword under crates/<crate>/src; fields and `pub(crate)` do not count.
set -eu
rs_lines() { find "$@" -name '*.rs' -exec cat {} + | wc -l; }
printf '.rs lines, crates src tests examples: %s\n' "$(rs_lines crates src tests examples)"
printf '.rs lines, benchmark (frozen):        %s\n' "$(rs_lines benchmark/src benchmark/tests)"
echo 'pub items per crate:'
for dir in crates/*/src; do
    crate=${dir#crates/}
    n=$(grep -rhE '^\s*pub (fn|struct|enum|const|trait|type|mod|use|static)' "$dir" | wc -l)
    printf '  %-10s %s\n' "${crate%/src}" "$n"
done
printf 'clippy::too_many_arguments allows:    %s\n' \
    "$(grep -rn 'allow(clippy::too_many_arguments)' crates src tests examples | wc -l)"
printf 'CI smoke legs:                        %s\n' \
    "$(grep -c 'name: Smoke-bench' .github/workflows/ci.yml)"
printf 'bench binaries:                       %s\n' "$(find crates/bench/src/bin -name '*.rs' | wc -l)"
printf 'checked-in BENCH_*.json:              %s\n' "$(find . -maxdepth 1 -name 'BENCH_*.json' | wc -l)"
