#!/bin/sh
# Code lines per crate and example: non-blank, non-comment lines before
# the first item-level `#[cfg(test)]` (in column 0) of each .rs file
# (ROADMAP: "line count is a tracked number"); an indented one sits on a
# statement or an inner item and is counted as code. A `#[cfg(test)]` on
# a `mod name;` line skips that declaration only — the tests are in
# `name.rs`, the code goes on — and a file named `tests.rs` is such a
# module: not counted.
# With arguments, counts just those files/directories.
#
#   scripts/loc.sh                      # every crate, example and tests/common,
#                                       # then benchmark/src on a line of its own
#   scripts/loc.sh crates/crashpoint/src crates/net/src/crash.rs
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' ! -name tests.rs -print0 | xargs -0 awk '
        FNR == 1 { live = 1; attr = 0 }
        attr { attr = 0; if (/^[[:space:]]*mod [a-z_0-9]+;/) next; live = 0 }
        /^#\[cfg\(test\)\]/ { attr = live; next }
        live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }'
}

if [ "$#" -gt 0 ]; then
    count "$@"
    exit 0
fi

total=0
for unit in crates/*/src examples/*.rs tests/common src; do
    n=$(count "$unit")
    total=$((total + n))
    printf '%7d  %s\n' "$n" "$unit"
done
printf '%7d  total\n' "$total"
# The repo benchmark is a package of its own that PRs may not edit
# (BENCHMARK.json `paths`): tracked beside the total, not inside it.
printf '%7d  benchmark/src (read-only, not in the total)\n' "$(count benchmark/src)"
