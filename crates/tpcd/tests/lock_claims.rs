//! The throughput driver's lock claims are the locks the engine takes:
//! for each of Q1–Q17, literal and through the extended protocol, the
//! SELECTs run inside one transaction, and the tables that transaction
//! holds — and which of them it holds whole — must equal what
//! `query_lock_claims` / `query_lock_claims_extended` charge the unit with.
//!
//! Q15's `CREATE VIEW` / `DROP VIEW` are DDL and cannot run inside a
//! transaction; they run outside it, before and after. Claims are taken
//! before the view exists, as the driver takes them.

use rdbms::lock::{LockMode, LockRequest};
use rdbms::sql::ast::Statement;
use rdbms::sql::parse_statement;
use rdbms::{Database, PlanCache};
use std::collections::BTreeSet;
use tpcd::dbgen::DbGen;
use tpcd::queries::{self, QueryParams};
use tpcd::schema::load;
use tpcd::throughput::{query_lock_claims, query_lock_claims_extended, LockClaim};

/// Returns how many of the claims are row locks.
fn check(db: &Database, n: usize, params: &QueryParams, cache: Option<&PlanCache>) -> usize {
    let claims: Vec<LockClaim> = match cache {
        None => query_lock_claims(db, n, params),
        Some(_) => query_lock_claims_extended(db, n, params),
    };
    let mut txn = db.begin();
    let mut after = Vec::new();
    for sql in queries::sql(n, params) {
        match parse_statement(&sql).unwrap() {
            Statement::Select(q) => match cache {
                None => {
                    txn.query(&sql).unwrap();
                }
                Some(cache) => {
                    let cached = cache.prepare_select(db, &q).unwrap();
                    txn.execute_prepared(&cached.prepared, &cached.extracted_params).unwrap();
                }
            },
            Statement::CreateView { .. } => {
                db.execute(&sql).unwrap();
            }
            _ => after.push(sql),
        }
    }
    let mode = if cache.is_some() { "extended" } else { "literal" };
    let lm = db.lock_manager();
    let claimed: BTreeSet<String> = claims.iter().map(|c| c.table.clone()).collect();
    let held: BTreeSet<String> = lm.held(txn.id()).into_iter().collect();
    assert_eq!(held, claimed, "Q{n} {mode}: tables locked vs claimed {claims:?}");
    for table in &claimed {
        let table_s = claims
            .iter()
            .any(|c| &c.table == table && c.req == LockRequest::Table(LockMode::Shared));
        assert_eq!(
            lm.holds_table_lock(txn.id(), table),
            table_s,
            "Q{n} {mode}: whole-table lock on {table} vs claims {claims:?}"
        );
    }
    txn.commit().unwrap();
    for sql in after {
        db.execute(&sql).unwrap();
    }
    claims.iter().filter(|c| matches!(c.req, LockRequest::Row(_))).count()
}

#[test]
fn query_claims_equal_the_locks_a_transaction_takes() {
    let db = Database::with_defaults();
    let gen = DbGen::new(0.002);
    load(&db, &gen).unwrap();
    let params = QueryParams::for_scale(gen.sf);
    let cache = PlanCache::new(256);
    let (mut literal_rows, mut extended_rows) = (0, 0);
    for n in 1..=17 {
        literal_rows += check(&db, n, &params, None);
        extended_rows += check(&db, n, &params, Some(&cache));
    }
    // Both claim shapes are exercised: parameter markers turn some literal
    // scans into index probes, which claim row locks.
    assert!(extended_rows > literal_rows, "{literal_rows} vs {extended_rows} row claims");
}
