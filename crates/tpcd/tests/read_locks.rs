//! Read-lock identity: what a SELECT locks is pinned in a checked-in
//! table. For every SELECT of Q1–Q17 — literal, and through the plan cache
//! as the extended protocol runs them, with Q15's view in place — and for
//! hand-written statements that reach tables through views, derived
//! tables, subqueries in every clause and an `M$` view, the table records
//! the lock plan the prepared statement carries, its plan-cache
//! dependencies, and the locks a transaction holds after running it.
//!
//! `lock_claims.rs` checks the throughput driver's claims against a real
//! transaction, but both sides come from the same lock-planning code; this
//! table pins that code's output itself. When a change moves it on
//! purpose, argue it and replace `golden/read_locks.txt` with the table
//! the failing assertion prints.

use rdbms::sql::ast::{SelectStmt, Statement};
use rdbms::sql::parse_statement;
use rdbms::{Database, PlanCache};
use std::fmt::Write;
use std::sync::Arc;
use tpcd::dbgen::DbGen;
use tpcd::queries::{self, QueryParams};
use tpcd::schema::load;

const GOLDEN: &str = include_str!("golden/read_locks.txt");

/// Views the hand-written statements read.
const VIEWS: &[&str] = &[
    "CREATE VIEW v_cust AS SELECT c_custkey, c_name, c_nationkey FROM customer \
     WHERE c_acctbal > 0",
    "CREATE VIEW v_big AS SELECT o_orderkey, o_custkey FROM orders \
     WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 9000)",
];

const STATEMENTS: &[&str] = &[
    // A view.
    "SELECT c_name FROM v_cust WHERE c_custkey = 7",
    // A view whose body reads a table through an IN subquery.
    "SELECT o_orderkey FROM v_big WHERE o_orderkey = 3",
    // A derived table.
    "SELECT t.n FROM (SELECT n_name AS n FROM nation WHERE n_nationkey = 3) t",
    // A derived table with a scalar subquery inside it.
    "SELECT d.x FROM (SELECT l_orderkey AS x FROM lineitem WHERE l_orderkey = 5 \
     AND l_quantity > (SELECT MIN(ps_availqty) FROM partsupp WHERE ps_partkey = 1)) d",
    // IN in WHERE.
    "SELECT o_orderkey FROM orders WHERE o_orderkey = 1 \
     AND o_custkey IN (SELECT c_custkey FROM customer WHERE c_nationkey = 3)",
    // EXISTS in an inner join's ON.
    "SELECT c_name FROM customer JOIN nation ON c_nationkey = n_nationkey \
     AND EXISTS (SELECT 1 FROM region WHERE r_regionkey = n_regionkey) WHERE c_custkey = 5",
    // A scalar subquery in an outer join's ON.
    "SELECT n_name, s_name FROM nation LEFT OUTER JOIN supplier ON n_nationkey = s_nationkey \
     AND s_acctbal > (SELECT AVG(c_acctbal) FROM customer WHERE c_custkey = 2)",
    // A scalar subquery in HAVING.
    "SELECT o_custkey, COUNT(*) FROM orders WHERE o_custkey < 10 GROUP BY o_custkey \
     HAVING COUNT(*) > (SELECT COUNT(*) FROM nation WHERE n_regionkey = 1)",
    // A correlated scalar subquery in the projection.
    "SELECT p_partkey, (SELECT MAX(ps_supplycost) FROM partsupp WHERE ps_partkey = p_partkey) \
     FROM part WHERE p_partkey = 10",
    // A scalar subquery in the projection of an aggregate.
    "SELECT COUNT(*), (SELECT MAX(r_regionkey) FROM region) FROM nation",
    // A table read both in FROM and in a subquery.
    "SELECT o_orderkey FROM orders WHERE o_orderkey = 7 \
     AND o_totalprice > (SELECT AVG(o_totalprice) FROM orders)",
    // A view read from an EXISTS.
    "SELECT s_name FROM supplier WHERE s_suppkey = 1 \
     AND EXISTS (SELECT 1 FROM v_cust WHERE c_nationkey = s_nationkey)",
    // A join with a monitor view.
    "SELECT n_name, EVENT FROM nation, M$WAIT_EVENTS WHERE n_nationkey = 1",
];

/// Prepare `q` (literally, or through `cache`), run it in a fresh
/// transaction, and write what was planned and what that transaction holds.
fn record(
    db: &Database,
    cache: Option<&PlanCache>,
    label: &str,
    sql: &str,
    q: &SelectStmt,
    out: &mut String,
) {
    let mut txn = db.begin();
    let prepared = match cache {
        None => {
            let prepared = Arc::new(db.prepare_select(q).unwrap());
            txn.query(sql).unwrap();
            prepared
        }
        Some(cache) => {
            let cached = cache.prepare_select(db, q).unwrap();
            txn.execute_prepared(&cached.prepared, &cached.extracted_params).unwrap();
            cached.prepared
        }
    };
    writeln!(out, "{label}").unwrap();
    writeln!(out, "  lock_plan {:?}", prepared.lock_plan).unwrap();
    writeln!(out, "  dependencies {:?}", prepared.dependencies).unwrap();
    let lm = db.lock_manager();
    for table in lm.held(txn.id()) {
        writeln!(
            out,
            "  held {table} table_lock={} row_locks={}",
            lm.holds_table_lock(txn.id(), &table),
            lm.row_lock_count(txn.id(), &table)
        )
        .unwrap();
    }
    txn.commit().unwrap();
}

/// Both ways a SELECT reaches the engine: literal SQL, and the plan cache.
fn record_both(db: &Database, cache: &PlanCache, label: &str, sql: &str, out: &mut String) {
    let Statement::Select(q) = parse_statement(sql).unwrap() else {
        panic!("{label} is not a SELECT: {sql}");
    };
    record(db, None, &format!("{label} literal"), sql, &q, out);
    record(db, Some(cache), &format!("{label} cached"), sql, &q, out);
}

#[test]
fn read_locks_match_golden_table() {
    let db = Database::with_defaults();
    let gen = DbGen::new(0.002);
    load(&db, &gen).unwrap();
    let params = QueryParams::for_scale(gen.sf);
    let cache = PlanCache::new(256);
    let mut actual = String::new();
    for n in 1..=17 {
        // Q15 creates its view first and drops it last.
        let mut after = Vec::new();
        for (i, sql) in queries::sql(n, &params).into_iter().enumerate() {
            match parse_statement(&sql).unwrap() {
                Statement::Select(_) => {
                    record_both(&db, &cache, &format!("Q{n}.{i}"), &sql, &mut actual)
                }
                Statement::CreateView { .. } => {
                    db.execute(&sql).unwrap();
                }
                _ => after.push(sql),
            }
        }
        for sql in after {
            db.execute(&sql).unwrap();
        }
    }
    for sql in VIEWS {
        db.execute(sql).unwrap();
    }
    for (i, sql) in STATEMENTS.iter().enumerate() {
        record_both(&db, &cache, &format!("S{i}"), sql, &mut actual);
    }
    assert!(
        actual == GOLDEN,
        "read locks drifted from crates/tpcd/tests/golden/read_locks.txt.\n\
         expected:\n{GOLDEN}\nactual:\n{actual}"
    );
}
