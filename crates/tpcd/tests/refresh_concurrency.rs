//! Regression tests for the PR's headline behaviour: an RF1 refresh must
//! get through the engine while a query transaction holds row-granular
//! read locks, and must still be blocked by a serializable full scan.
//!
//! These run against the real lock manager (threads of control are
//! interleaved in one test thread via open transactions), not the
//! virtual-time throughput model.

use rdbms::{Database, DbConfig, DbError};
use std::time::Duration;
use tpcd::{schema, updates, DbGen};

fn short_timeout_db() -> Database {
    Database::new(DbConfig { lock_timeout: Duration::from_millis(100), ..Default::default() })
}

/// A probe reader (literal primary-key lookup → row shared lock) must not
/// block RF1: the refresh inserts fresh keys outside every existing range,
/// so under hierarchical locking both proceed concurrently.
#[test]
fn rf1_inserts_proceed_while_probe_reader_holds_row_locks() {
    let db = short_timeout_db();
    let gen = DbGen::new(0.002);
    schema::load(&db, &gen).unwrap();

    // The reader keeps its transaction open across the refresh, holding
    // IS on LINEITEM/ORDERS plus shared key-range locks on the probed key.
    let mut reader = db.begin();
    reader.query("SELECT l_quantity FROM lineitem WHERE l_orderkey = 1").unwrap();
    reader.query("SELECT o_totalprice FROM orders WHERE o_orderkey = 1").unwrap();

    // RF1 in its own transaction: fresh-key inserts take IX + insert row
    // locks and must be granted without waiting for the reader.
    let inserted = updates::uf1(&db, &gen, 1).expect("RF1 must slip past a probe reader");
    assert!(inserted > 0, "refresh inserted nothing");

    // The reader is still live and can finish its unit of work.
    reader.query("SELECT o_orderstatus FROM orders WHERE o_orderkey = 1").unwrap();
    reader.commit().unwrap();

    // RF2 removes what RF1 added, restoring the base state.
    let deleted = updates::uf2(&db, &gen, 1).unwrap();
    assert_eq!(deleted, inserted, "RF2 must undo exactly what RF1 added");

    let snap = db.snapshot();
    assert!(snap.row_locks() > 0, "row locks were exercised");
}

/// A serializable scan (table S on LINEITEM) still blocks RF1 — the
/// hierarchy tightens granularity, it does not weaken isolation. The
/// blocked refresh times out as a presumed deadlock victim and succeeds
/// once the scanner commits.
#[test]
fn full_scan_still_blocks_rf1_until_commit() {
    let db = short_timeout_db();
    let gen = DbGen::new(0.002);
    schema::load(&db, &gen).unwrap();

    let mut scanner = db.begin();
    scanner.query("SELECT COUNT(*) FROM lineitem").unwrap();

    let err =
        updates::uf1(&db, &gen, 1).expect_err("RF1 must block behind a serializable full scan");
    assert!(matches!(err, DbError::Deadlock(_)), "blocked refresh surfaces as deadlock: {err}");

    scanner.commit().unwrap();
    let inserted = updates::uf1(&db, &gen, 1).expect("RF1 proceeds once the scan commits");
    let deleted = updates::uf2(&db, &gen, 1).unwrap();
    assert_eq!(deleted, inserted);
}
