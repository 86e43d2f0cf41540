//! Concurrency-control tests: conflicting writers serialize, deadlocks are
//! detected and broken, committed work is visible to later transactions,
//! rollback undoes everything, and lock waits are metered.

use rdbms::catalog::Table;
use rdbms::db::DbConfig;
use rdbms::exec::ExecCtx;
use rdbms::storage::codec::encode_key;
use rdbms::storage::AccessPattern;
use rdbms::types::Value;
use rdbms::{Database, DbError};
use std::ops::Bound::Included;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn db_with_counter() -> Database {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE counters (id INTEGER NOT NULL, v INTEGER, PRIMARY KEY (id))").unwrap();
    db.execute("INSERT INTO counters VALUES (1, 0)").unwrap();
    db
}

fn counter_value(db: &Database) -> i64 {
    db.query("SELECT v FROM counters WHERE id = 1").unwrap().scalar().unwrap().as_int().unwrap()
}

/// One transaction: `increments` read-modify-writes across two statements
/// each. Only a lock held from the read to the commit keeps another writer
/// from sneaking in between them.
fn increment_counter(db: &Database, increments: usize) -> Result<(), DbError> {
    let mut txn = db.begin();
    for _ in 0..increments {
        let v = txn.query("SELECT v FROM counters WHERE id = 1")?.scalar()?.as_int()?;
        txn.execute(&format!("UPDATE counters SET v = {} WHERE id = 1", v + 1))?;
    }
    txn.commit().map(|_| ())
}

#[test]
fn conflicting_writers_serialize_without_lost_updates() {
    let db = Arc::new(db_with_counter());
    let threads = 4;
    let increments = 25;
    let barrier = Arc::new(Barrier::new(threads));
    // All four read the counter under a shared lock and then want it
    // exclusively: all but one must lose that upgrade as deadlock victims.
    // A victim's transaction is rolled back (by the drop inside
    // `increment_counter`) and run again from the start.
    let retries: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (db, barrier) = (Arc::clone(&db), Arc::clone(&barrier));
                scope.spawn(move || {
                    barrier.wait();
                    let mut retries = 0;
                    while let Err(e) = increment_counter(&db, increments) {
                        assert!(matches!(e, DbError::Deadlock(_)), "not a deadlock victim: {e}");
                        retries += 1;
                    }
                    retries
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(counter_value(&db), (threads * increments) as i64);
    assert!(retries.contains(&0), "every transaction was a victim at least once: {retries:?}");
}

#[test]
fn deadlock_is_detected_and_one_victim_aborts() {
    let config = DbConfig { lock_timeout: Duration::from_secs(2), ..DbConfig::default() };
    let db = Arc::new(Database::new(config));
    db.execute("CREATE TABLE t1 (a INTEGER)").unwrap();
    db.execute("CREATE TABLE t2 (a INTEGER)").unwrap();
    db.execute("INSERT INTO t1 VALUES (0)").unwrap();
    db.execute("INSERT INTO t2 VALUES (0)").unwrap();
    let barrier = Arc::new(Barrier::new(2));
    let outcomes: Vec<Result<(), DbError>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (first, second) in [("t1", "t2"), ("t2", "t1")] {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || {
                let mut txn = db.begin();
                txn.execute(&format!("UPDATE {first} SET a = a + 1")).unwrap();
                barrier.wait(); // both hold their first lock before crossing
                match txn.execute(&format!("UPDATE {second} SET a = a + 1")) {
                    Ok(_) => {
                        txn.commit().unwrap();
                        Ok(())
                    }
                    Err(e) => {
                        txn.rollback().unwrap();
                        Err(e)
                    }
                }
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let victims = outcomes.iter().filter(|o| o.is_err()).count();
    assert_eq!(victims, 1, "exactly one deadlock victim, got {outcomes:?}");
    for o in &outcomes {
        if let Err(e) = o {
            assert!(matches!(e, DbError::Deadlock(_)), "victim error: {e}");
        }
    }
    // The survivor committed both updates; the victim rolled back both.
    let a1 = db.query("SELECT a FROM t1").unwrap().scalar().unwrap().as_int().unwrap();
    let a2 = db.query("SELECT a FROM t2").unwrap().scalar().unwrap().as_int().unwrap();
    assert_eq!((a1, a2), (1, 1));
}

#[test]
fn committed_updates_visible_to_later_transactions() {
    let db = db_with_counter();
    let mut writer = db.begin();
    writer.execute("UPDATE counters SET v = 42 WHERE id = 1").unwrap();
    writer.execute("INSERT INTO counters VALUES (2, 7)").unwrap();
    writer.commit().unwrap();
    let mut reader = db.begin();
    let rows = reader.query("SELECT id, v FROM counters ORDER BY id").unwrap();
    assert_eq!(
        rows.rows,
        vec![vec![Value::Int(1), Value::Int(42)], vec![Value::Int(2), Value::Int(7)]]
    );
    reader.commit().unwrap();
}

#[test]
fn rollback_undoes_inserts_updates_and_deletes() {
    let db = db_with_counter();
    db.execute("INSERT INTO counters VALUES (2, 20), (3, 30)").unwrap();
    let before = db.query("SELECT id, v FROM counters ORDER BY id").unwrap();
    let mut txn = db.begin();
    txn.execute("INSERT INTO counters VALUES (4, 40)").unwrap();
    txn.execute("UPDATE counters SET v = v + 100 WHERE id <= 2").unwrap();
    // Chained update of the same rows: rollback must walk RID remaps.
    txn.execute("UPDATE counters SET v = v * 2 WHERE id <= 2").unwrap();
    txn.execute("DELETE FROM counters WHERE id = 3").unwrap();
    txn.rollback().unwrap();
    let after = db.query("SELECT id, v FROM counters ORDER BY id").unwrap();
    assert_eq!(before.rows, after.rows);
}

#[test]
fn dropping_uncommitted_transaction_rolls_back() {
    let db = db_with_counter();
    {
        let mut txn = db.begin();
        txn.execute("UPDATE counters SET v = 999 WHERE id = 1").unwrap();
    } // dropped without commit
    assert_eq!(counter_value(&db), 0);
    // Locks were released: a fresh writer proceeds immediately.
    let mut txn = db.begin();
    txn.execute("UPDATE counters SET v = 5 WHERE id = 1").unwrap();
    txn.commit().unwrap();
    assert_eq!(counter_value(&db), 5);
}

#[test]
fn lock_waits_are_metered_per_transaction() {
    let db = Arc::new(db_with_counter());
    let barrier = Arc::new(Barrier::new(2));
    let waited = std::thread::scope(|scope| {
        let holder = {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut txn = db.begin();
                txn.execute("UPDATE counters SET v = 1 WHERE id = 1").unwrap();
                barrier.wait(); // lock held; let the waiter line up
                std::thread::sleep(Duration::from_millis(120));
                txn.commit().unwrap()
            })
        };
        let waiter = {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                let mut txn = db.begin();
                txn.execute("UPDATE counters SET v = 2 WHERE id = 1").unwrap();
                txn.commit().unwrap()
            })
        };
        let holder_stats = holder.join().unwrap();
        let waiter_stats = waiter.join().unwrap();
        assert_eq!(holder_stats.work.lock_waits(), 0);
        assert_eq!(waiter_stats.work.lock_waits(), 1);
        assert!(!waiter_stats.lock_wait.is_zero());
        waiter_stats.lock_wait
    });
    assert!(waited >= Duration::from_millis(50), "waiter blocked for {waited:?}");
    assert_eq!(counter_value(&db), 2);
}

/// Run `txn` until it is not a deadlock (or lock-timeout) victim.
fn until_granted<T>(mut txn: impl FnMut() -> Result<T, DbError>) -> T {
    loop {
        match txn() {
            Ok(out) => return out,
            Err(DbError::Deadlock(_)) => {}
            Err(e) => panic!("not a lock conflict: {e}"),
        }
    }
}

/// The heap hands a deleted row's slot to the next insert, so a rid can
/// name a different row a moment later. An index scan collects rids and
/// fetches them afterwards; what keeps it from fetching a slot's *next*
/// tenant is its locks, taken before it runs and held to commit: shared on
/// every existing row it may read, which the delete's exclusive key lock
/// must wait for. No delete, no dead slot, no new tenant.
#[test]
fn an_index_reader_never_fetches_a_reused_slots_next_tenant() {
    const ROWS: i64 = 40;
    let config = DbConfig { lock_timeout: Duration::from_millis(100), ..DbConfig::default() };
    let db = Arc::new(Database::new(config));
    db.execute("CREATE TABLE t (id INTEGER NOT NULL, grp INTEGER, PRIMARY KEY (id))").unwrap();
    db.execute("CREATE INDEX t_grp ON t (grp)").unwrap();
    for id in 0..ROWS {
        db.execute(&format!("INSERT INTO t VALUES ({id}, 7)")).unwrap();
    }
    let probe = Arc::new(db.prepare("SELECT id, grp FROM t WHERE grp = ?").unwrap());
    assert!(probe.plan_description.contains("IndexScan"), "{}", probe.plan_description);
    let rid_of = |id: i64| {
        let pkey = db.catalog().table("t").unwrap().find_index("T_PKEY").unwrap();
        let rids = pkey.tree.lock().search_exact(&encode_key(&[Value::Int(id)])).unwrap();
        rids[0]
    };

    // Forced: with a reader open that went through the index, a row it
    // read cannot be deleted; once it commits, it can, and the slot goes
    // to the next insert.
    let mut reader = db.begin();
    assert_eq!(reader.execute_prepared(&probe, &[Value::Int(7)]).unwrap().rows.len(), 40);
    let mut deleter = db.begin();
    let refused = deleter.execute("DELETE FROM t WHERE id = 0");
    assert!(matches!(refused, Err(DbError::Deadlock(_))), "{refused:?}");
    deleter.rollback().unwrap();
    reader.commit().unwrap();
    let slot = rid_of(0);
    db.execute("DELETE FROM t WHERE id = 0").unwrap();
    db.execute("INSERT INTO t VALUES (1000, 8)").unwrap();
    assert_eq!(rid_of(1000), slot, "the dead slot has a new tenant");

    // Raced: one thread turns group-7 rows into group-8 rows slot by slot
    // while the other keeps reading group 7 through the index.
    let (done, reading) = (AtomicBool::new(false), AtomicBool::new(false));
    let reads = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reads = 0;
            while !done.load(Ordering::Acquire) {
                reading.store(true, Ordering::Release);
                let rows = until_granted(|| {
                    let mut txn = db.begin();
                    let rows = txn.execute_prepared(&probe, &[Value::Int(7)])?.rows;
                    txn.commit()?;
                    Ok(rows)
                });
                let mut ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
                assert!(rows.iter().all(|r| r[1] == Value::Int(7)), "a group-8 row: {rows:?}");
                assert!(ids.iter().all(|id| (1..ROWS).contains(id)), "{ids:?}");
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), rows.len(), "a row twice: {rows:?}");
                reads += 1;
            }
            reads
        });
        while !reading.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        for id in 1..ROWS {
            until_granted(|| {
                let mut txn = db.begin();
                txn.execute(&format!("DELETE FROM t WHERE id = {id}"))?;
                txn.commit()
            });
            until_granted(|| {
                let mut txn = db.begin();
                txn.execute(&format!("INSERT INTO t VALUES ({}, 8)", 1000 + id))?;
                txn.commit()
            });
        }
        done.store(true, Ordering::Release);
        reader.join().unwrap()
    });
    assert!(reads > 0);
    let mut last = db.begin();
    assert!(last.execute_prepared(&probe, &[Value::Int(7)]).unwrap().rows.is_empty());
    assert_eq!(last.execute_prepared(&probe, &[Value::Int(8)]).unwrap().rows.len(), ROWS as usize);
}

/// A reader that takes no locks — the plan run straight off its prepared
/// form — and writers that take none either, deleting and inserting
/// through the catalog. What the reader gets when the row it holds a rid
/// for is deleted under it, and the slot given to another row, is then up
/// to the scan itself: it notices that the heap changed since it read the
/// index and holds every row against the key of the entry that led to it.
/// The rows of group 7 are exactly those with an id below 1000.
#[test]
fn a_lockless_index_reader_sees_a_dangling_entry_not_the_next_tenant() {
    const ROWS: i64 = 40;
    let db = Database::with_defaults();
    db.execute("CREATE TABLE t (id INTEGER NOT NULL, grp INTEGER, PRIMARY KEY (id))").unwrap();
    db.execute("CREATE INDEX t_grp ON t (grp)").unwrap();
    for id in 0..ROWS {
        db.execute(&format!("INSERT INTO t VALUES ({id}, 7)")).unwrap();
    }
    // The key column is not among those the scan decodes for its caller.
    let probe = db.prepare("SELECT id FROM t WHERE grp = ?").unwrap();
    assert!(probe.plan_description.contains("IndexScan"), "{}", probe.plan_description);
    let read = || probe.plan.execute(&ExecCtx::new(&[Value::Int(7)], db.meter()));
    let table = db.catalog().table("t").unwrap();
    let done = AtomicBool::new(false);
    let (reads, dangling) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let (mut reads, mut dangling) = (0, 0);
            while !done.load(Ordering::Acquire) {
                match read() {
                    Ok(rows) => {
                        let ids = rows.iter().map(|r| r[0].as_int().unwrap());
                        let strangers: Vec<i64> = ids.filter(|id| *id >= 1000).collect();
                        assert!(
                            strangers.is_empty(),
                            "group-8 rows read as group 7: {strangers:?}"
                        );
                        reads += 1;
                    }
                    Err(DbError::Storage(e)) if e.contains("dangling index entry") => dangling += 1,
                    Err(e) => panic!("{e}"),
                }
            }
            (reads, dangling)
        });
        // Every slot changes hands, group 7 to group 8 and back, many times.
        for round in 0..60 {
            let (gone, come) = if round % 2 == 0 { (0, 1000) } else { (1000, 0) };
            for id in 0..ROWS {
                assert_eq!(delete_by_key(&db, &table, gone + id), 1);
                let grp = if come == 0 { 7 } else { 8 };
                db.catalog().insert_row(&table, &[Value::Int(come + id), Value::Int(grp)]).unwrap();
            }
        }
        done.store(true, Ordering::Release);
        reader.join().unwrap()
    });
    assert!(reads > 0, "{reads} reads, {dangling} dangling entries");
    assert_eq!(read().unwrap().len(), ROWS as usize);
}

/// Delete the row with primary key `id` through the catalog, the way a
/// DELETE statement does: the rids read and acted on under the table's
/// `changes` latch. Returns the rows deleted.
fn delete_by_key(db: &Database, table: &Table, id: i64) -> u64 {
    let _rows_stay = table.changes.lock();
    let pkey = table.find_index(&format!("{}_PKEY", table.name)).unwrap();
    let rids = pkey.tree.lock().search_exact(&encode_key(&[Value::Int(id)])).unwrap();
    for &rid in &rids {
        db.catalog().delete_row(table, rid).unwrap();
    }
    rids.len() as u64
}

/// Lockless writers on the same rows, through the catalog: two deleters
/// and an updater work through the same keys while an inserter fills the
/// slots they free with rows of its own. Each holds the table's `changes`
/// latch from before it reads rids until it has acted on them, as every
/// DELETE and UPDATE statement does, so each row is deleted once, by one
/// of them, and no writer ever acts on the slot's next tenant: the
/// inserter's rows all survive, untouched.
#[test]
fn lockless_writers_never_act_on_a_reused_slots_next_tenant() {
    const ROWS: i64 = 300;
    let db = Database::with_defaults();
    db.execute("CREATE TABLE t (id INTEGER NOT NULL, v INTEGER, PRIMARY KEY (id))").unwrap();
    for id in 0..ROWS {
        db.execute(&format!("INSERT INTO t VALUES ({id}, 0)")).unwrap();
    }
    let table = db.catalog().table("t").unwrap();
    let pkey = table.find_index("T_PKEY").unwrap();
    // UPDATE t SET v = v + 1 WHERE id BETWEEN lo AND lo + 3.
    let bump = |lo: i64| {
        let _rows_stay = table.changes.lock();
        let (from, to) = (encode_key(&[Value::Int(lo)]), encode_key(&[Value::Int(lo + 3)]));
        let rids = pkey.tree.lock().range_rids(Included(&from), Included(&to)).unwrap();
        for rid in rids {
            let mut row = table.heap.get(rid, AccessPattern::Random).unwrap().unwrap();
            row[1] = Value::Int(row[1].as_int().unwrap() + 1);
            db.catalog().update_row(&table, rid, &row).unwrap();
        }
    };
    let deleted: u64 = std::thread::scope(|scope| {
        let deleter = || (0..ROWS).map(|id| delete_by_key(&db, &table, id)).sum();
        let deleters = [scope.spawn(deleter), scope.spawn(deleter)];
        scope.spawn(|| (0..ROWS).for_each(bump));
        scope.spawn(|| {
            for id in 0..ROWS {
                db.catalog().insert_row(&table, &[Value::Int(1000 + id), Value::Int(0)]).unwrap();
            }
        });
        deleters.map(|d| d.join().unwrap()).iter().sum::<u64>()
    });
    assert_eq!(deleted, ROWS as u64, "each row deleted once");
    let left = db.query("SELECT id, v FROM t").unwrap().rows;
    let mut ids: Vec<i64> = left.iter().map(|r| r[0].as_int().unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1000..1000 + ROWS).collect::<Vec<_>>());
    assert!(left.iter().all(|r| r[1] == Value::Int(0)), "an inserted row was updated: {left:?}");
    let by_key = db.query("SELECT COUNT(*) FROM t WHERE id >= 0").unwrap().scalar().unwrap();
    assert_eq!(by_key, Value::Int(ROWS), "the index agrees with the heap");
}
