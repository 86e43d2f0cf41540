//! Cost-clock identity: the metered work of every power-test step is
//! pinned in a checked-in table, so an executor or storage change that
//! moves a counter fails `cargo test --workspace` — not only the
//! benchmark's `expected/seed*.json`.
//!
//! The paper tables are functions of these counters (ROADMAP aim 1: an
//! optimisation that changes a metered counter is a behaviour change and
//! must be argued as one). When a change moves them on purpose, replace
//! `golden/power_counters.txt` with the table the failing assertion prints.

use rdbms::storage::PagerConfig;
use rdbms::{Database, DbConfig};
use tpcd::dbgen::DbGen;
use tpcd::power::run_power_test;
use tpcd::queries::QueryParams;
use tpcd::schema::load;

const GOLDEN: &str = include_str!("golden/power_counters.txt");

/// SF 0.002 against a 1 MB pool (data ~5x the cache, as in the
/// benchmark's `tpcd_power`), so the page-read and write-back columns
/// measure eviction behaviour and not just cold misses.
#[test]
fn power_test_counters_match_golden_table() {
    let db = Database::new(DbConfig {
        pager: PagerConfig::with_pool_bytes(1 << 20),
        ..DbConfig::default()
    });
    let gen = DbGen::new(0.002);
    load(&db, &gen).unwrap();
    let params = QueryParams::for_scale(gen.sf);

    // Two rounds: the pages UF1/UF2 dirty in round 1 are written back
    // during round 2, which is what gives `page_writes` a non-zero row.
    let mut actual = String::from(
        "# round.step rows db_tuples seq_page_reads rand_page_reads index_node_reads page_writes\n",
    );
    for round in 1..=2 {
        let result = run_power_test(&db, &gen, &params).unwrap();
        assert_eq!(result.steps.len(), 19);
        for s in &result.steps {
            let w = &s.work;
            actual.push_str(&format!(
                "{round}.{} {} {} {} {} {} {}\n",
                s.step,
                s.rows,
                w.db_tuples(),
                w.seq_page_reads(),
                w.rand_page_reads(),
                w.index_node_reads(),
                w.page_writes()
            ));
        }
    }
    assert!(
        actual == GOLDEN,
        "metered counters drifted from crates/tpcd/tests/golden/power_counters.txt.\n\
         expected:\n{GOLDEN}\nactual:\n{actual}"
    );
}
