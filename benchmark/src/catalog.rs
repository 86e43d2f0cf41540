//! The benchmark's vocabulary: workloads and metrics by name, unit and
//! direction. `BENCHMARK.json` at the repository root repeats these lists
//! (a unit test keeps the two in step); bounds live only there.

/// (name, why) — the four workloads, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("tpcd_power", "isolated RDBMS, Q1-Q17+UF1+UF2, data 5x the buffer pool: executor-bound, bypasses lock/WAL/wire"),
    ("sap_reports", "the 17 reports through Native/Open SQL x 2.2G/3.0E: per-call overhead, Open SQL, report runtime"),
    ("order_entry", "2 clerks post/delete orders through the dispatcher, every change logged: B-tree/heap insert+delete, consistency checks, WAL append, dispatcher hop; bypasses the executor"),
    ("wire_mixed", "2 TCP connections, small probes/ranges/updates, data fits the pool: framing, plan cache, parse, short lock holds beside index probes; bypasses pager misses"),
];

/// (name, unit, better) — every workload reports all eight.
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("geomean_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("stored_bytes_per_user_byte", "ratio", "lower"),
];

/// The rate (median over slices) and the tail (pooled) over every measured
/// slice, kept or not. Written to `--out` beside the eight and held by
/// `--compare` to the bound of the metric each shadows, so a stall that
/// slice selection drops from the eight still shows; not in
/// `BENCHMARK.json` (the driver reads the eight).
pub const ALL_SLICES_RATE: &str = "ops_per_s_all_slices";
pub const ALL_SLICES_P95: &str = "op_p95_ms_all_slices";
/// (name, the end-to-end metric it shadows).
pub const ALL_SLICES: [(&str, &str); 2] =
    [(ALL_SLICES_RATE, "ops_per_s"), (ALL_SLICES_P95, "op_p95_ms")];

/// (name, unit, better) — the per-layer ladder, grouped by layer prefix.
pub const PER_LAYER: [(&str, &str, &str); 117] = [
    ("load.dbgen_ms", "ms", "lower"),
    ("load.rows_per_s", "1/s", "higher"),
    ("codec.encode_row_ns", "ns", "lower"),
    ("codec.decode_row_ns", "ns", "lower"),
    ("codec.encode_key_ns", "ns", "lower"),
    ("pager.read_hit_ns", "ns", "lower"),
    ("pager.read_miss_ns", "ns", "lower"),
    ("pager.misses_per_op", "count/op", "lower"),
    ("pager.page_writes_per_op", "count/op", "lower"),
    ("heap.insert_ns", "ns", "lower"),
    ("heap.get_ns", "ns", "lower"),
    ("heap.scan_row_ns", "ns", "lower"),
    ("btree.insert_ns", "ns", "lower"),
    ("btree.search_ns", "ns", "lower"),
    ("btree.range100_ns", "ns", "lower"),
    ("btree.node_reads_per_op", "count/op", "lower"),
    ("sql.parse_us", "us", "lower"),
    ("sql.parse_probe_ns", "ns", "lower"),
    ("planner.plan_us", "us", "lower"),
    ("planner.plan_probe_ns", "ns", "lower"),
    ("plancache.lookup_hit_ns", "ns", "lower"),
    ("plancache.hit_ratio", "ratio", "higher"),
    ("plancache.evictions_per_kop", "count/kop", "lower"),
    ("expr.arith_ns", "ns", "lower"),
    ("expr.like_ns", "ns", "lower"),
    ("expr.compare_ns", "ns", "lower"),
    ("exec.execute_ms", "ms", "lower"),
    ("exec.fraction", "fraction", "lower"),
    ("exec.tuples_per_op", "count/op", "lower"),
    ("exec.ns_per_tuple", "ns", "lower"),
    ("exec.tuples_per_result_row", "ratio", "lower"),
    ("exec.scan_ns_per_row", "ns", "lower"),
    ("exec.filter_ns_per_row", "ns", "lower"),
    ("exec.index_probe_ns", "ns", "lower"),
    ("exec.nljoin_ns_per_outer_row", "ns", "lower"),
    ("exec.hashjoin_ns_per_row", "ns", "lower"),
    ("exec.sort_ns_per_row", "ns", "lower"),
    ("exec.groupby_ns_per_row", "ns", "lower"),
    ("exec.budget_unexplained_fraction", "fraction", "lower"),
    ("query.q01_ms", "ms", "lower"),
    ("query.q02_ms", "ms", "lower"),
    ("query.q03_ms", "ms", "lower"),
    ("query.q04_ms", "ms", "lower"),
    ("query.q05_ms", "ms", "lower"),
    ("query.q06_ms", "ms", "lower"),
    ("query.q07_ms", "ms", "lower"),
    ("query.q08_ms", "ms", "lower"),
    ("query.q09_ms", "ms", "lower"),
    ("query.q10_ms", "ms", "lower"),
    ("query.q11_ms", "ms", "lower"),
    ("query.q12_ms", "ms", "lower"),
    ("query.q13_ms", "ms", "lower"),
    ("query.q14_ms", "ms", "lower"),
    ("query.q15_ms", "ms", "lower"),
    ("query.q16_ms", "ms", "lower"),
    ("query.q17_ms", "ms", "lower"),
    ("query.uf1_ms", "ms", "lower"),
    ("query.uf2_ms", "ms", "lower"),
    ("lock.table_acquire_ns", "ns", "lower"),
    ("lock.row_acquire_ns", "ns", "lower"),
    ("lock.waits_per_op", "count/op", "lower"),
    ("lock.wait_fraction", "fraction", "lower"),
    ("lock.row_locks_per_op", "count/op", "lower"),
    ("lock.escalations_per_kop", "count/kop", "lower"),
    ("lock.retries_per_op", "count/op", "lower"),
    ("txn.insert_commit_us", "us", "lower"),
    ("wal.append_ns", "ns", "lower"),
    ("wal.commit_fsync_us", "us", "lower"),
    ("wal.bytes_per_op", "bytes/op", "lower"),
    ("wal.records_per_op", "count/op", "lower"),
    ("wal.flushes_per_commit", "ratio", "lower"),
    ("wal.flush_wait_fraction", "fraction", "lower"),
    ("wal.checkpoint_ms", "ms", "lower"),
    ("recovery.recover_s", "s", "lower"),
    ("recovery.mb_per_s", "MB/s", "higher"),
    ("recovery.records", "count", "lower"),
    ("dispatcher.hop_us", "us", "lower"),
    ("dispatcher.queue_wait_p50_us", "us", "lower"),
    ("dispatcher.service_p50_us", "us", "lower"),
    ("batch_input.check_units_per_op", "count/op", "lower"),
    ("batch_input.crossings_per_op", "count/op", "lower"),
    ("batch_input.post_p50_ms", "ms", "lower"),
    ("batch_input.delete_p50_ms", "ms", "lower"),
    ("opensql.translate_ns", "ns", "lower"),
    ("opensql.select_single_us", "us", "lower"),
    ("opensql.crossings_per_op", "count/op", "lower"),
    ("opensql.tuples_per_crossing", "ratio", "higher"),
    ("report.sort_ns_per_row", "ns", "lower"),
    ("report.aggregate_ns_per_row", "ns", "lower"),
    ("report.app_tuples_per_op", "count/op", "lower"),
    ("report.spill_pages_per_op", "count/op", "lower"),
    ("buffer.get_ns", "ns", "lower"),
    ("buffer.put_ns", "ns", "lower"),
    ("buffer.hit_ratio", "ratio", "higher"),
    ("sap.native22_round_s", "s", "lower"),
    ("sap.open22_round_s", "s", "lower"),
    ("sap.native30_round_s", "s", "lower"),
    ("sap.open30_round_s", "s", "lower"),
    ("sap.open_over_native_22", "ratio", "lower"),
    ("sap.open_over_native_30", "ratio", "lower"),
    ("protocol.frame_roundtrip_ns", "ns", "lower"),
    ("server.sync_roundtrip_us", "us", "lower"),
    ("server.parse_p50_us", "us", "lower"),
    ("server.bind_p50_us", "us", "lower"),
    ("server.execute_p50_us", "us", "lower"),
    ("server.query_p50_us", "us", "lower"),
    ("server.wire_overhead_fraction", "fraction", "lower"),
    ("server.net_bytes_per_op", "bytes/op", "lower"),
    ("wire.probe_ext_p50_us", "us", "lower"),
    ("wire.probe_simple_p50_us", "us", "lower"),
    ("wire.range_ext_p50_us", "us", "lower"),
    ("wire.agg_simple_p50_ms", "ms", "lower"),
    ("wire.update_commit_p50_ms", "ms", "lower"),
    ("wire.update_commit_p95_ms", "ms", "lower"),
    ("harness.trace_overhead_fraction", "fraction", "lower"),
    ("harness.span_coverage_fraction", "fraction", "higher"),
    ("harness.ref_kernel_ms", "ms", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    let name = ALL_SLICES.iter().find(|(n, _)| *n == name).map_or(name, |(_, shadowed)| shadowed);
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Json;

    fn listed(doc: &Json, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        let Some(Json::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        items
            .iter()
            .map(|item| {
                fields
                    .iter()
                    .map(|f| item.get(f).and_then(Json::as_str).unwrap_or("").to_string())
                    .collect()
            })
            .collect()
    }

    /// `BENCHMARK.json` repeats this file's lists; neither may drift.
    #[test]
    fn benchmark_json_is_in_step_with_the_catalog() {
        let path = crate::sys::package_dir().join("..").join("BENCHMARK.json");
        let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let triples = |list: &[(&str, &str, &str)]| -> Vec<Vec<String>> {
            list.iter().map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.to_string()]).collect()
        };
        assert_eq!(listed(&doc, "end_to_end", &["name", "unit", "better"]), triples(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer", &["name", "unit", "better"]), triples(&PER_LAYER));
        let workloads: Vec<Vec<String>> =
            WORKLOADS.iter().map(|(n, w)| vec![n.to_string(), w.to_string()]).collect();
        assert_eq!(listed(&doc, "workloads", &["name", "why"]), workloads);
        let bounds = crate::report::read_bounds().unwrap();
        for (name, _, _) in END_TO_END {
            let bound = bounds[name];
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
        }
    }

    #[test]
    fn names_and_units_fit_the_driver_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                ok(name, "_.-", 64) && name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(ok(unit, "_/%.-", 16), "{name}: unit {unit}");
            assert!(["lower", "higher"].contains(better), "{name}: {better}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for (name, why) in WORKLOADS {
            assert!(
                ok(name, "_.-", 64) && seen.insert(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
    }
}
