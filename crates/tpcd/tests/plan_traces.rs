//! EXPLAIN ANALYZE identity: the span tree of every Q1–Q17 SELECT — one
//! line per plan node with its rows out, self and cumulative simulated
//! time, pages and tuples, and for Q4 and Q17 one subtree per evaluation of
//! the correlated subquery — is pinned in a checked-in file.
//!
//! `power_counters.txt` pins what each query costs in total; this pins
//! which plan node the cost is charged to. When a change moves it on
//! purpose, replace `golden/plan_traces.txt` with the trees the failing
//! assertion prints.

use rdbms::storage::PagerConfig;
use rdbms::{Database, DbConfig};
use tpcd::dbgen::DbGen;
use tpcd::queries::{self, QueryParams};
use tpcd::schema::load;
use trace::{Calibration, TraceSession};

const GOLDEN: &str = include_str!("golden/plan_traces.txt");

/// SF 0.002 against a 1 MB pool, as `counter_identity.rs`: page reads
/// depend on the order the plan touches pages, not only on how many.
#[test]
fn plan_traces_match_golden_trees() {
    let db = Database::new(DbConfig {
        pager: PagerConfig::with_pool_bytes(1 << 20),
        ..DbConfig::default()
    });
    let gen = DbGen::new(0.002);
    load(&db, &gen).unwrap();
    let params = QueryParams::for_scale(gen.sf);

    let mut actual = String::new();
    for n in 1..=17 {
        for stmt in queries::sql(n, &params) {
            if !stmt.trim_start().starts_with("SELECT") {
                db.execute(&stmt).unwrap();
                continue;
            }
            let session = TraceSession::start(Calibration::default());
            db.query(&stmt).unwrap();
            actual.push_str(&format!("## Q{n}\n{}", session.finish().render()));
        }
    }
    assert!(
        actual == GOLDEN,
        "plan traces drifted from crates/tpcd/tests/golden/plan_traces.txt.\n\
         expected:\n{GOLDEN}\nactual:\n{actual}"
    );
}
