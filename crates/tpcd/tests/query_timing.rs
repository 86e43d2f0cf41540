//! Wall-clock time of each TPC-D query in process: the best of 25 runs
//! of Q1-Q17, and their sum, at SF 0.002 against a 1 MB pool (the
//! benchmark's `tpcd_power` set-up). A tool for before/after tables, not a
//! gate: it asserts nothing about time and is ignored by default. Run it
//! with
//!
//! ```sh
//! cargo test --release -p tpcd --test query_timing -- --ignored --nocapture
//! ```
//!
//! The best of 25 leaves out most of what a busy machine adds; alternate
//! two builds a few times before reading a difference of a few percent.

use rdbms::storage::PagerConfig;
use rdbms::{Database, DbConfig};
use std::time::{Duration, Instant};
use tpcd::dbgen::DbGen;
use tpcd::power::run_query;
use tpcd::queries::QueryParams;
use tpcd::schema::load;

const RUNS: usize = 25;

#[test]
#[ignore]
fn best_of_25_per_query() {
    let db = Database::new(DbConfig {
        pager: PagerConfig::with_pool_bytes(1 << 20),
        ..DbConfig::default()
    });
    let gen = DbGen::new(0.002);
    load(&db, &gen).unwrap();
    let params = QueryParams::for_scale(gen.sf);

    let mut best = [Duration::MAX; 17];
    for _ in 0..RUNS {
        for (n, best) in (1..=17).zip(&mut best) {
            let start = Instant::now();
            run_query(&db, n, &params).unwrap();
            *best = (*best).min(start.elapsed());
        }
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!("query  best of {RUNS} (ms)");
    for (n, best) in (1..=17).zip(&best) {
        println!("Q{n:<5} {:9.3}", ms(*best));
    }
    println!("sum    {:9.3}", ms(best.iter().sum()));
}
