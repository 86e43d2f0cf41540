#!/usr/bin/env bash
# Regenerate the paper-table golden: Tables 1-9 at SF 0.002 on the
# deterministic cost clock, with the metered work behind every
# simulated-seconds cell. The output is the same on every run, so a diff
# against the committed file is a behaviour change (~30 s in release).
#
#   scripts/paper_tables.sh && git diff --exit-code crates/bench/golden/paper_tables.txt
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet -p bench --bin experiments
./target/release/experiments --sf 0.002 \
    table1 table2 table3 table4 table5 table6 table7 table8 table9 |
    grep -v '(written to ' >crates/bench/golden/paper_tables.txt
