//! Kill-and-recover tests for the write-ahead log (DESIGN.md §10).
//!
//! A session runs a mixed workload — DDL, autocommit statements, bulk-load
//! rows, committed / rolled-back / still-open transactions, a fuzzy
//! checkpoint — against a WAL-enabled database, then the log file content
//! is captured and "crashed" by truncating it at many byte offsets (every
//! record boundary plus offsets inside records, modelling torn writes).
//! Each truncated copy is recovered and the resulting database is compared
//! against an *independent* interpretation of the surviving log prefix:
//!
//! * every transaction whose Commit record survives is fully visible;
//! * every transaction without one (including autocommit statements cut
//!   before their implicit Commit) is fully rolled back;
//! * system records (bulk load, DDL) are committed-if-present.

use rdbms::storage::codec::encode_key;
use rdbms::storage::{AccessPattern, Rid};
use rdbms::wal::{scan_records, LogPayload, WalConfig, SYSTEM_TXN};
use rdbms::{Database, DbConfig, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rdbms-recovery-{name}-{}", std::process::id()));
    p
}

fn wal_db(path: &PathBuf) -> Database {
    let config = DbConfig { wal: Some(WalConfig::new(path)), ..DbConfig::default() };
    Database::open(config).unwrap()
}

fn recover_from(path: &PathBuf) -> (Database, rdbms::RecoveryReport) {
    let config = DbConfig { wal: Some(WalConfig::new(path)), ..DbConfig::default() };
    Database::recover(config).unwrap()
}

/// Rows of ACCOUNTS keyed by primary key, as (id, balance, note).
type State = BTreeMap<i64, Vec<Value>>;

fn observed_state(db: &Database) -> Option<State> {
    let r = db.query("SELECT id, balance, note FROM accounts ORDER BY id").ok()?;
    Some(r.rows.into_iter().map(|row| (row[0].as_int().unwrap(), row)).collect())
}

/// Independently interpret a log prefix: apply, in log order, only the
/// operations of the system transaction and of transactions whose Commit
/// record is inside the prefix. Rows are tracked by primary key, so the
/// interpretation shares no RID machinery with the recovery code it checks.
fn expected_state(bytes: &[u8]) -> (Option<State>, Vec<u64>) {
    let (records, _) = scan_records(bytes);
    let committed: Vec<u64> = {
        let mut c: Vec<u64> = records
            .iter()
            .filter(|r| r.txn != SYSTEM_TXN && matches!(r.payload, LogPayload::Commit))
            .map(|r| r.txn)
            .collect();
        c.sort_unstable();
        c
    };
    let mut table_exists = false;
    let mut state = State::new();
    let pk = |row: &[Value]| row[0].as_int().unwrap();
    for r in &records {
        let visible = r.txn == SYSTEM_TXN || committed.binary_search(&r.txn).is_ok();
        match &r.payload {
            LogPayload::Ddl { sql } if sql.contains("CREATE TABLE") => {
                table_exists = true;
            }
            _ if !visible => {}
            LogPayload::Insert { row, .. } => {
                state.insert(pk(row), row.clone());
            }
            LogPayload::Delete { row, .. } => {
                state.remove(&pk(row));
            }
            LogPayload::Update { old, new, .. } => {
                state.remove(&pk(old));
                state.insert(pk(new), new.clone());
            }
            _ => {}
        }
    }
    (table_exists.then_some(state), committed)
}

/// One representative session; returns the full log bytes. The still-open
/// transaction's records are in the file (an explicit `wal_flush` while it
/// is open) but its rollback is not — the capture happens "at the crash".
fn run_session(log: &PathBuf) -> Vec<u8> {
    let db = wal_db(log);
    db.execute(
        "CREATE TABLE accounts (id INTEGER NOT NULL, balance INTEGER, \
         note VARCHAR(20), PRIMARY KEY (id))",
    )
    .unwrap();
    db.execute("CREATE INDEX acc_bal ON accounts (balance)").unwrap();
    // Autocommit inserts: each an implicit transaction in the log.
    for i in 0..12 {
        db.execute(&format!("INSERT INTO accounts VALUES ({i}, {}, 'init')", i * 100)).unwrap();
    }
    // Bulk-load rows: system records, committed-if-present.
    let bulk = (100..103).map(|i| vec![Value::Int(i), Value::Int(7), Value::str("bulk")]);
    db.load_rows("accounts", bulk).unwrap();
    db.execute("ANALYZE accounts").unwrap();
    // A committed transaction touching all three DML kinds.
    let mut t = db.begin();
    t.execute("UPDATE accounts SET balance = 0 WHERE id = 3").unwrap();
    t.execute("INSERT INTO accounts VALUES (200, 555, 'txn')").unwrap();
    t.execute("DELETE FROM accounts WHERE id = 7").unwrap();
    t.commit().unwrap();
    // A fuzzy checkpoint mid-history.
    db.checkpoint().unwrap();
    // A transaction rolled back before the crash: CLRs + Abort in the log.
    let mut t = db.begin();
    t.execute("UPDATE accounts SET balance = 999 WHERE id = 5").unwrap();
    t.execute("INSERT INTO accounts VALUES (201, 1, 'gone')").unwrap();
    t.rollback().unwrap();
    // More autocommit work after the checkpoint.
    db.execute("UPDATE accounts SET note = 'post' WHERE id < 2").unwrap();
    db.execute("DELETE FROM accounts WHERE id = 11").unwrap();
    // A transaction still open at the crash — a loser.
    let mut t = db.begin();
    t.execute("INSERT INTO accounts VALUES (300, -5, 'open')").unwrap();
    t.execute("UPDATE accounts SET balance = -1 WHERE id = 10").unwrap();
    db.wal_flush().unwrap();
    // Capture the log *before* the open transaction is dropped (its drop
    // would append CLRs and an Abort — that is the post-crash world).
    let bytes = std::fs::read(log).unwrap();
    drop(t);
    bytes
}

/// Every index entry of ACCOUNTS leads to the row that owns its key, and
/// every row has its entries: what a scan sees, a probe finds.
fn assert_indexes_consistent(db: &Database, context: &str) {
    let Ok(table) = db.catalog().table("accounts") else { return };
    for index in table.indexes.read().iter() {
        let entries = index.tree.lock().scan_all().unwrap();
        assert_eq!(entries.len() as u64, table.heap.live_rows(), "{context}: {}", index.name);
        for (stored, rid) in entries {
            let row =
                table.heap.get(rid, AccessPattern::Random).unwrap().unwrap_or_else(|| {
                    panic!("{context}: {} entry at {rid:?} dangles", index.name)
                });
            assert!(
                stored.starts_with(&index.key_for(&row)),
                "{context}: {} at {rid:?}",
                index.name
            );
        }
    }
}

/// Crash the log `bytes` at every record boundary, inside every record
/// (a torn write) and inside the file header, and recover each prefix.
fn recover_at_every_cut(bytes: &[u8], name: &str) {
    let (records, end) = scan_records(bytes);
    let mut cuts: Vec<usize> = vec![0, 3, 8];
    for r in &records {
        cuts.push(r.lsn as usize);
        cuts.push(r.lsn as usize + 5);
    }
    cuts.push(end as usize);
    cuts.retain(|&c| c <= bytes.len());
    cuts.sort_unstable();
    cuts.dedup();

    let cut_log = tmp(name);
    for &cut in &cuts {
        std::fs::write(&cut_log, &bytes[..cut]).unwrap();
        let (db, report) = recover_from(&cut_log);
        let (expected, committed) = expected_state(&bytes[..cut]);
        assert_eq!(report.committed, committed, "cut={cut}");
        let observed = observed_state(&db);
        assert_eq!(
            observed, expected,
            "state mismatch at cut={cut} ({} records survive)",
            report.records_scanned
        );
        assert_indexes_consistent(&db, &format!("cut={cut}"));
        // Losers and winners are disjoint.
        for l in &report.losers {
            assert!(!report.committed.contains(l), "cut={cut}: loser {l} also committed");
        }
    }
    std::fs::remove_file(&cut_log).ok();
}

#[test]
fn crash_at_any_offset_recovers_committed_and_rolls_back_losers() {
    let log = tmp("session");
    let bytes = run_session(&log);
    std::fs::remove_file(&log).ok();
    let (records, _) = scan_records(&bytes);
    assert!(records.len() > 40, "workload should produce a rich log: {}", records.len());
    recover_at_every_cut(&bytes, "cut");
}

/// Where the primary-key index says account `id` lives.
fn rid_of(db: &Database, id: i64) -> Option<Rid> {
    let table = db.catalog().table("accounts").unwrap();
    let pkey = table.find_index("ACCOUNTS_PKEY").unwrap();
    let rids = pkey.tree.lock().search_exact(&encode_key(&[Value::Int(id)])).unwrap();
    rids.first().copied()
}

/// A session that gives space back and takes it again: rows wide enough
/// that 150 of them span heap pages and index leaves, a delete that frees
/// a heap page and a leaf, a checkpoint after it, slots and pages reused
/// by later inserts, a rolled-back delete whose slot another transaction
/// took in the meantime, a rolled-back insert whose slot the next insert
/// takes, relocating updates, and an open transaction at the crash whose
/// deleted row's slot an autocommit insert reused. Returns the full log
/// bytes.
fn run_reclaim_session(log: &PathBuf) -> Vec<u8> {
    let db = wal_db(log);
    db.execute(
        "CREATE TABLE accounts (id INTEGER NOT NULL, balance INTEGER, \
         note VARCHAR(200), PRIMARY KEY (id))",
    )
    .unwrap();
    db.execute("CREATE INDEX acc_note ON accounts (note)").unwrap();
    let note = |id: i64| format!("{id:0180}");
    let insert = |id: i64| {
        db.execute(&format!("INSERT INTO accounts VALUES ({id}, {}, '{}')", id * 10, note(id)))
            .unwrap();
    };
    (0..150).for_each(insert);
    let table = db.catalog().table("accounts").unwrap();
    let note_index = table.find_index("ACC_NOTE").unwrap();
    let (heap_pages, leaves) = (table.heap.page_count(), note_index.node_pages());
    assert!(heap_pages >= 4 && leaves >= 6, "{heap_pages} heap pages, {leaves} index nodes");

    // The first heap page and the leftmost leaves empty and go back.
    let first_page = rid_of(&db, 0).unwrap().page;
    db.execute("DELETE FROM accounts WHERE id < 60").unwrap();
    assert!(table.heap.page_count() < heap_pages, "a heap page was freed");
    assert!(note_index.node_pages() < leaves, "an index leaf was freed");
    assert!(db.pager().read(first_page, AccessPattern::Random, |_| ()).is_err());

    // A checkpoint right after: its dirty-page table names no freed page.
    db.checkpoint().unwrap();
    db.wal_flush().unwrap();
    let (records, _) = scan_records(&std::fs::read(log).unwrap());
    let Some(LogPayload::CheckpointEnd { dpt, .. }) = records.last().map(|r| &r.payload) else {
        panic!("the checkpoint ends the log so far");
    };
    assert!(!dpt.is_empty());
    for (pid, _) in dpt {
        assert!(db.pager().read(*pid, AccessPattern::Random, |_| ()).is_ok(), "page {pid}");
    }

    // A rolled-back delete whose slot another transaction reused.
    insert(200);
    let slot_of_200 = rid_of(&db, 200).unwrap();
    let mut deleter = db.begin();
    deleter.execute("DELETE FROM accounts WHERE id = 200").unwrap();
    let mut inserter = db.begin();
    inserter.execute(&format!("INSERT INTO accounts VALUES (201, 1, '{}')", note(201))).unwrap();
    assert_eq!(rid_of(&db, 201), Some(slot_of_200), "the dead slot has a new tenant");
    deleter.rollback().unwrap();
    inserter.commit().unwrap();
    assert_ne!(rid_of(&db, 200), Some(slot_of_200), "the restored row lives elsewhere");
    // Both rows are then named by later records.
    db.execute("UPDATE accounts SET balance = -200 WHERE id = 200").unwrap();
    db.execute("DELETE FROM accounts WHERE id = 201").unwrap();
    // A rolled-back insert's slot is on offer again once the compensation
    // record is written (until then its page takes no insert).
    let mut t = db.begin();
    t.execute(&format!("INSERT INTO accounts VALUES (600, 6, '{}')", note(600))).unwrap();
    let slot_of_600 = rid_of(&db, 600).unwrap();
    t.rollback().unwrap();
    insert(601);
    assert_eq!(rid_of(&db, 601), Some(slot_of_600));
    db.execute("DELETE FROM accounts WHERE id = 601").unwrap();
    // Pages come back into use, holes are filled.
    (300..360).for_each(insert);
    // Relocating updates: a short note grows past its slot.
    db.execute("INSERT INTO accounts VALUES (400, 4, 'short'), (401, 4, 'brief')").unwrap();
    db.execute(&format!("UPDATE accounts SET note = '{}' WHERE id >= 400", note(999))).unwrap();
    let mut t = db.begin();
    t.execute("UPDATE accounts SET note = 'shrunk' WHERE id = 310").unwrap();
    t.execute("DELETE FROM accounts WHERE id >= 100 AND id < 130").unwrap();
    t.commit().unwrap();
    // A second checkpoint, then a transaction still open at the crash: it
    // deleted a row whose slot an autocommit insert has since taken.
    db.checkpoint().unwrap();
    insert(500);
    let slot_of_500 = rid_of(&db, 500).unwrap();
    let mut t = db.begin();
    t.execute("DELETE FROM accounts WHERE id = 500").unwrap();
    t.execute("DELETE FROM accounts WHERE id >= 130 AND id < 150").unwrap();
    t.execute(&format!("INSERT INTO accounts VALUES (501, 5, '{}')", note(501))).unwrap();
    insert(502);
    assert!([rid_of(&db, 501), rid_of(&db, 502)].contains(&Some(slot_of_500)));
    db.execute("UPDATE accounts SET balance = 1 WHERE id = 502").unwrap();
    db.wal_flush().unwrap();
    let bytes = std::fs::read(log).unwrap();
    drop(t);
    bytes
}

#[test]
fn crash_at_any_offset_recovers_a_history_that_reclaimed_space() {
    let log = tmp("reclaim-session");
    let bytes = run_reclaim_session(&log);
    std::fs::remove_file(&log).ok();
    let (records, _) = scan_records(&bytes);
    assert!(records.len() > 400, "{} records", records.len());
    recover_at_every_cut(&bytes, "reclaim-cut");

    // And the whole log, recovered twice over: restart's own compensation
    // records name rows by where restart put them.
    std::fs::write(&log, &bytes).unwrap();
    let (db, report) = recover_from(&log);
    assert_eq!(report.losers.len(), 1, "the open transaction");
    let state = observed_state(&db).unwrap();
    assert!(state.contains_key(&500) && !state.contains_key(&501), "the loser is undone");
    db.execute("DELETE FROM accounts WHERE id = 500").unwrap();
    db.execute("UPDATE accounts SET balance = 2 WHERE id = 502").unwrap();
    let state = observed_state(&db).unwrap();
    drop(db);
    let (db, report) = recover_from(&log);
    assert!(report.losers.is_empty());
    assert_eq!(observed_state(&db).unwrap(), state);
    assert_indexes_consistent(&db, "second restart");
    std::fs::remove_file(&log).ok();
}

/// Two autocommit writers, each on rows of its own, in one table: the slot
/// one frees the other fills. A statement is logged after it has acted, so
/// the filler could get its record in first, were the page a row just left
/// not closed to inserts until the record of that is written. The log names
/// a rid's tenants in the order they had it, which is what replay by rid
/// relies on.
#[test]
fn concurrent_writers_log_a_rids_tenants_in_the_order_they_had_it() {
    const KEYS: i64 = 25;
    const ROUNDS: i64 = 60;
    let log = tmp("two-writers");
    let db = wal_db(&log);
    db.execute(
        "CREATE TABLE accounts (id INTEGER NOT NULL, balance INTEGER, \
         note VARCHAR(200), PRIMARY KEY (id))",
    )
    .unwrap();
    std::thread::scope(|scope| {
        for writer in 0..2 {
            let db = &db;
            scope.spawn(move || {
                let id = |round: i64, key: i64| writer * 1_000_000 + round * 1000 + key;
                for key in 0..KEYS {
                    db.execute(&format!("INSERT INTO accounts VALUES ({}, 0, 'w')", id(0, key)))
                        .unwrap();
                }
                for round in 1..=ROUNDS {
                    for key in 0..KEYS {
                        let gone = id(round - 1, key);
                        db.execute(&format!("DELETE FROM accounts WHERE id = {gone}")).unwrap();
                        let come = id(round, key);
                        db.execute(&format!("INSERT INTO accounts VALUES ({come}, {round}, 'w')"))
                            .unwrap();
                    }
                }
            });
        }
    });
    db.wal_flush().unwrap();
    let state = observed_state(&db).unwrap();
    assert_eq!(state.len() as i64, 2 * KEYS);
    let heap_pages = db.catalog().table("accounts").unwrap().heap.page_count();
    assert!(heap_pages <= 2, "{heap_pages} pages for {} rows: slots were not reused", state.len());
    drop(db);

    let (records, _) = scan_records(&std::fs::read(&log).unwrap());
    let mut tenant: BTreeMap<Rid, i64> = BTreeMap::new();
    for r in &records {
        match &r.payload {
            LogPayload::Insert { rid, row, .. } => {
                let id = row[0].as_int().unwrap();
                let before = tenant.insert(*rid, id);
                assert_eq!(before, None, "{rid:?} goes to {id} at lsn {} before it is free", r.lsn);
            }
            LogPayload::Delete { rid, row, .. } => {
                assert_eq!(tenant.remove(rid), Some(row[0].as_int().unwrap()), "lsn {}", r.lsn);
            }
            _ => {}
        }
    }
    let (db, _) = recover_from(&log);
    assert_eq!(observed_state(&db).unwrap(), state);
    assert_indexes_consistent(&db, "two writers");
    std::fs::remove_file(&log).ok();
}

/// An index's name, and the user key of each entry with the row it leads to.
type IndexContents = (String, Vec<(Vec<u8>, Vec<Value>)>);

/// Per index of ACCOUNTS, in index order: the user key of every entry and
/// the row it leads to (rids differ between a database and its recovery:
/// restart replays the rows one by one, placing index pages among them).
fn index_contents(db: &Database) -> Vec<IndexContents> {
    let table = db.catalog().table("accounts").unwrap();
    let indexes = table.indexes.read();
    indexes
        .iter()
        .map(|index| {
            let tree = index.tree.lock();
            let suffix = if tree.is_unique() { 0 } else { 6 };
            let entries = tree.scan_all().unwrap().into_iter().map(|(mut key, rid)| {
                key.truncate(key.len() - suffix);
                (key, table.heap.get(rid, AccessPattern::Random).unwrap().unwrap())
            });
            (index.name.clone(), entries.collect())
        })
        .collect()
}

/// Rows bulk-loaded through `load_rows` — one system record per row, the
/// indexes built once at the end of each load — recover to the same rows
/// and index contents.
#[test]
fn bulk_loaded_rows_recover_with_their_index_contents() {
    let log = tmp("bulk-load");
    let db = wal_db(&log);
    db.execute(
        "CREATE TABLE accounts (id INTEGER NOT NULL, balance INTEGER, \
         note VARCHAR(200), PRIMARY KEY (id))",
    )
    .unwrap();
    db.execute("CREATE INDEX acc_bal ON accounts (balance)").unwrap();
    db.execute("CREATE INDEX acc_note ON accounts (note)").unwrap();
    let row = |i: i64| {
        let id = (i * 7919) % 3000;
        vec![Value::Int(id), Value::Int(id % 13), Value::str(format!("{:0150}", id % 700))]
    };
    assert_eq!(db.load_rows("accounts", (0..2000).map(row)).unwrap(), 2000);
    db.execute("UPDATE accounts SET balance = -1 WHERE id < 100").unwrap();
    // A second load, into the loaded table.
    assert_eq!(db.load_rows("accounts", (2000..3000).map(row)).unwrap(), 1000);
    db.wal_flush().unwrap();
    let (state, contents) = (observed_state(&db).unwrap(), index_contents(&db));
    let note = table_index_pages(&db, "ACC_NOTE");
    assert!(note >= 20, "{note} pages: the wide-key index splits");
    drop(db);

    let (db, report) = recover_from(&log);
    assert!(report.losers.is_empty());
    assert_eq!(observed_state(&db).unwrap(), state);
    assert!(index_contents(&db) == contents, "index contents differ after recovery");
    assert_eq!(table_index_pages(&db, "ACC_NOTE"), note);
    assert_indexes_consistent(&db, "bulk load");
    std::fs::remove_file(&log).ok();
}

fn table_index_pages(db: &Database, index: &str) -> u64 {
    db.catalog().table("accounts").unwrap().find_index(index).unwrap().node_pages()
}

#[test]
fn recovery_is_idempotent_and_resumable() {
    let log = tmp("idempotent");
    let bytes = run_session(&log);
    std::fs::write(&log, &bytes).unwrap();

    let (db1, report1) = recover_from(&log);
    let state1 = observed_state(&db1).unwrap();
    assert!(!report1.losers.is_empty(), "the open transaction must be a loser");
    drop(db1);

    // Recovering the recovered log (now containing restart's own CLRs and
    // Abort) reproduces the same state: recovery of recovery is a no-op.
    let (db2, report2) = recover_from(&log);
    assert_eq!(observed_state(&db2).unwrap(), state1);
    assert!(report2.losers.is_empty(), "restart already aborted every loser");

    // The recovered database keeps logging: new work survives another crash.
    db2.execute("INSERT INTO accounts VALUES (400, 42, 'resumed')").unwrap();
    drop(db2);
    let (db3, _) = recover_from(&log);
    let r = db3.query("SELECT balance FROM accounts WHERE id = 400").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(42));
    std::fs::remove_file(&log).ok();
}

#[test]
fn checkpoint_bounds_analysis_and_reports_tables() {
    let log = tmp("ckpt");
    let db = wal_db(&log);
    db.execute(
        "CREATE TABLE accounts (id INTEGER NOT NULL, balance INTEGER, \
                note VARCHAR(20), PRIMARY KEY (id))",
    )
    .unwrap();
    db.execute("INSERT INTO accounts VALUES (1, 10, 'a')").unwrap();
    // Checkpoint with a transaction in flight: its id must be in the logged
    // active-transaction table and it must still roll back at restart.
    let mut t = db.begin();
    t.execute("UPDATE accounts SET balance = 77 WHERE id = 1").unwrap();
    let ckpt_lsn = db.checkpoint().unwrap();
    db.execute("INSERT INTO accounts VALUES (2, 20, 'b')").unwrap();
    db.wal_flush().unwrap();
    let bytes = std::fs::read(&log).unwrap();
    drop(t);
    drop(db);
    std::fs::write(&log, &bytes).unwrap();

    let (db, report) = recover_from(&log);
    assert_eq!(report.checkpoint_lsn, Some(ckpt_lsn));
    assert!(!report.dirty_pages.is_empty(), "update before checkpoint dirtied pages");
    assert_eq!(report.losers.len(), 1, "in-flight transaction at checkpoint is the loser");
    let r = db.query("SELECT id, balance FROM accounts ORDER BY id").unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Int(1), Value::Int(10)], vec![Value::Int(2), Value::Int(20)]],
        "loser's update rolled back, both committed inserts present"
    );
    std::fs::remove_file(&log).ok();
}

#[test]
fn dropped_txn_with_failing_rollback_still_logs_abort() {
    let log = tmp("drop-abort");
    let db = wal_db(&log);
    db.execute(
        "CREATE TABLE accounts (id INTEGER NOT NULL, balance INTEGER, \
                note VARCHAR(20), PRIMARY KEY (id))",
    )
    .unwrap();
    let before = db.meter().snapshot().rollback_errors();
    {
        let mut t = db.begin();
        t.execute("INSERT INTO accounts VALUES (1, 5, 'mine')").unwrap();
        // Sabotage the undo: delete the row underneath the open transaction
        // through the catalog, which takes no locks, and log that delete as
        // a committed transaction of its own. The drop-time rollback's
        // delete of the already-dead slot fails.
        let table = db.catalog().table("accounts").unwrap();
        let rid = rid_of(&db, 1).unwrap();
        let row = db.catalog().delete_row(&table, rid).unwrap();
        let wal = db.wal().unwrap();
        let saboteur = db.begin();
        let delete = LogPayload::Delete { table: table.name.clone(), rid, row };
        let lsns = wal.append_batch(saboteur.id(), &[delete, LogPayload::Commit]);
        wal.commit(lsns[1]).unwrap();
        saboteur.commit().unwrap();
        drop(t);
    }
    assert!(db.meter().snapshot().rollback_errors() > before, "the failed undo must be observable");
    // Regression: even though the rollback errored, the transaction's Abort
    // record must reach the log *file* without any explicit flush — restart
    // must not treat the transaction as a loser with live effects.
    let records = rdbms::wal::read_log(&log).unwrap();
    let txn_id = records
        .iter()
        .find(|r| matches!(r.payload, LogPayload::Insert { .. }) && r.txn != SYSTEM_TXN)
        .map(|r| r.txn)
        .expect("the insert was logged");
    assert!(
        records.iter().any(|r| r.txn == txn_id && matches!(r.payload, LogPayload::Abort)),
        "abort record missing from the on-disk log"
    );
    drop(db);
    let (db, report) = recover_from(&log);
    assert!(report.losers.is_empty(), "aborted transaction is not a loser");
    // The committed DELETE stands; the aborted insert is gone.
    let r = db.query("SELECT COUNT(*) FROM accounts").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(0));
    std::fs::remove_file(&log).ok();
}
