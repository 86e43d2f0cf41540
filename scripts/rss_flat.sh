#!/usr/bin/env bash
# Memory must be a function of live data, not of operations completed:
# `order_entry` posts and deletes orders around a fixed live set, so its
# peak RSS after 24 measured seconds may exceed the peak after 8 by no
# more than 15 % (the harness itself keeps ~63 B per op it timed).
set -euo pipefail
cd "$(dirname "$0")/.."

peak_rss_mb() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload order_entry --seconds "$1" |
        awk '$1 == "order_entry" && $2 == "peak_rss_mb" { print $3 }'
}

short=$(peak_rss_mb 8)
long=$(peak_rss_mb 24)
echo "order_entry peak_rss_mb: ${short} MB after 8 s, ${long} MB after 24 s"
awk -v s="$short" -v l="$long" 'BEGIN {
    if (s <= 0 || l <= 0) { print "no peak_rss_mb in the benchmark output"; exit 1 }
    if (l > s * 1.15) { printf "memory grew %.0f %% with run length (limit 15 %%)\n", (l / s - 1) * 100; exit 1 }
}'
