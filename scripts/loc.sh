#!/usr/bin/env bash
# Non-test source lines of this checkout: every `.rs` file under
# `crates/*/src` and `examples/`, counted up to its first `#[cfg(test)]`
# line (blank and comment lines included). Prints one line per crate, one
# for the examples, and the total. To count another checkout, run its copy
# of this script (or copy this one into its `scripts/`).
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of the `.rs` files under the given directories.
count() {
    find "$@" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }'
}

total=0
for dir in crates/*/src examples; do
    name=${dir#crates/}
    name=${name%/src}
    n=$(count "$dir")
    printf '%-10s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
