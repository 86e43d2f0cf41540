#!/usr/bin/env bash
# Memory must be a function of live data, not of operations completed:
# `order_entry` posts and deletes orders around a fixed live set, so its
# peak RSS after 24 measured seconds may exceed the peak after 8 by no
# more than 15 %. The harness itself keeps ~60 B per op it timed, so a
# faster engine reads higher here too: each run's attempted ops and the
# growth per 1 000 ops tell that apart from engine growth (~0.06 MB per
# 1 000 ops is the harness alone).
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<peak_rss_mb> <attempted ops>" of one run.
run() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload order_entry --seconds "$1" |
        awk '$1 == "order_entry" && $2 == "peak_rss_mb" { mb = $3 }
             $1 == "#" && $2 == "order_entry:" {
                 for (i = 3; i < NF; i++) if ($i == "attempted") ops = $(i + 1)
             }
             END { print mb + 0, ops + 0 }'
}

read -r short short_ops < <(run 8)
read -r long long_ops < <(run 24)
echo "order_entry peak_rss_mb: ${short} MB after 8 s (${short_ops} ops attempted)," \
    "${long} MB after 24 s (${long_ops} ops attempted)"
awk -v s="$short" -v l="$long" -v so="$short_ops" -v lo="$long_ops" 'BEGIN {
    if (s <= 0 || l <= 0) { print "no peak_rss_mb in the benchmark output"; exit 1 }
    if (lo > so) printf "growth: %.4f MB per 1000 ops\n", (l - s) / ((lo - so) / 1000)
    if (l > s * 1.15) { printf "memory grew %.0f %% with run length (limit 15 %%)\n", (l / s - 1) * 100; exit 1 }
}'
