//! A statement outside a transaction is a one-statement transaction: when
//! it fails, nothing it did stays behind — not in the store, not in the
//! indexes, not after a crash and restart from the log.

use rdbms::wal::WalConfig;
use rdbms::{Database, DbConfig, DbError, Value};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rdbms-autocommit-{name}-{}", std::process::id()));
    p
}

fn count(db: &Database, table: &str) -> i64 {
    let r = db.query(&format!("SELECT COUNT(*) FROM {table}")).unwrap();
    r.scalar().unwrap().as_int().unwrap()
}

/// Every index of `table` holds exactly one entry per heap row, under the
/// key that row has: what a probe finds is what a scan reads.
fn assert_indexes_agree(db: &Database, table: &str) {
    let t = db.catalog().table(table).unwrap();
    let rows: Vec<_> = t.heap.scan().map(Result::unwrap).collect();
    for index in t.indexes.read().iter() {
        let indexed: BTreeSet<_> = index.tree.lock().scan_all().unwrap().into_iter().collect();
        let scanned: BTreeSet<_> =
            rows.iter().map(|(rid, row)| (index.key_for(row), *rid)).collect();
        assert_eq!(indexed, scanned, "index {} disagrees with the heap", index.name);
        assert_eq!(index.tree.lock().entry_count(), rows.len() as u64, "index {}", index.name);
    }
}

#[test]
fn a_failed_insert_leaves_no_row_behind() {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE t (k INTEGER NOT NULL, PRIMARY KEY (k))").unwrap();
    let dup = db.execute("INSERT INTO t VALUES (1), (2), (1)");
    assert!(matches!(dup, Err(DbError::Constraint(_))), "{dup:?}");
    assert_eq!(count(&db, "t"), 0, "the statement's first two rows went with it");
    assert_indexes_agree(&db, "t");
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    assert_eq!(count(&db, "t"), 2);
}

#[test]
fn a_failed_insert_leaves_no_row_behind_after_restart() {
    let log = tmp("insert");
    let config = DbConfig { wal: Some(WalConfig::new(&log)), ..DbConfig::default() };
    let db = Database::open(config.clone()).unwrap();
    db.execute("CREATE TABLE t (k INTEGER NOT NULL, PRIMARY KEY (k))").unwrap();
    db.execute("INSERT INTO t VALUES (10)").unwrap();
    assert!(db.execute("INSERT INTO t VALUES (1), (2), (1)").is_err());
    assert_eq!(count(&db, "t"), 1);
    db.wal_flush().unwrap();
    drop(db);
    let (db, report) = Database::recover(config).unwrap();
    assert!(report.losers.is_empty(), "the failed statement rolled back before the crash");
    let r = db.query("SELECT k FROM t").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(10)]]);
    assert_indexes_agree(&db, "t");
    std::fs::remove_file(&log).ok();
}

/// `u(k PK, v)` with a unique index on `v`: rows v = 10, 20, 30.
fn unique_table() -> Database {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE u (k INTEGER NOT NULL, v INTEGER, PRIMARY KEY (k))").unwrap();
    db.execute("CREATE UNIQUE INDEX u_v ON u (v)").unwrap();
    db.execute("INSERT INTO u VALUES (1, 10), (2, 20), (3, 30)").unwrap();
    db
}

fn values(db: &Database) -> Vec<Vec<Value>> {
    db.query("SELECT k, v FROM u ORDER BY k").unwrap().rows
}

#[test]
fn an_update_refused_by_a_unique_index_changes_nothing() {
    let db = unique_table();
    let before = values(&db);
    let refused = db.execute("UPDATE u SET v = 99");
    assert!(matches!(refused, Err(DbError::Constraint(_))), "{refused:?}");
    assert_eq!(values(&db), before);
    assert_indexes_agree(&db, "u");

    let mut txn = db.begin();
    let refused = txn.execute("UPDATE u SET v = 77");
    assert!(matches!(refused, Err(DbError::Constraint(_))), "{refused:?}");
    txn.rollback().unwrap();
    assert_eq!(values(&db), before);
    assert_indexes_agree(&db, "u");
    // Index reads and scan reads agree on every row.
    for row in &before {
        let v = row[1].as_int().unwrap();
        let probed = db.query(&format!("SELECT k FROM u WHERE v = {v}")).unwrap();
        assert_eq!(probed.rows, vec![vec![row[0].clone()]], "v = {v}");
    }

    // An update that keeps its unique key, or moves it somewhere free,
    // still goes through.
    db.execute("UPDATE u SET v = v WHERE k = 2").unwrap();
    db.execute("UPDATE u SET v = 25 WHERE k = 2").unwrap();
    assert_eq!(values(&db)[1], vec![Value::Int(2), Value::Int(25)]);
    assert_indexes_agree(&db, "u");
}
