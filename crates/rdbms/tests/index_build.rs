//! Building indexes over rows already stored: `CREATE INDEX` beside
//! concurrent writers, a `CREATE UNIQUE INDEX` that fails, and bulk loads
//! (`Database::load_rows`) that meet a duplicate key.

use rdbms::storage::codec::encode_key;
use rdbms::storage::AccessPattern;
use rdbms::{Database, DbError, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Every entry of every index of `table` leads to a live row that owns
/// its key, and there are as many entries as rows.
fn assert_indexes_match_heap(db: &Database, table: &str, context: &str) {
    let table = db.catalog().table(table).unwrap();
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

/// One thread inserts rows and deletes the oldest while another builds an
/// index over the table: afterwards the index holds exactly the heap. (A
/// backfill that read the heap before publishing the index without
/// holding writers off missed some inserts and kept entries of deleted
/// rows.)
#[test]
fn create_index_beside_inserts_and_deletes_indexes_exactly_the_heap() {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE t (id INTEGER NOT NULL, grp INTEGER, PRIMARY KEY (id))").unwrap();
    const ROWS: i64 = 20_000;
    for id in 0..ROWS {
        db.insert_row("t", &[Value::Int(id), Value::Int(id % 97)]).unwrap();
    }
    let (oldest, next) = (AtomicU64::new(0), AtomicU64::new(ROWS as u64));
    for round in 0..3 {
        let stop = AtomicBool::new(false);
        let ops = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let id = next.fetch_add(1, Ordering::Relaxed);
                    db.execute(&format!("INSERT INTO t VALUES ({id}, {})", id % 97)).unwrap();
                    let gone = oldest.fetch_add(1, Ordering::Relaxed);
                    db.execute(&format!("DELETE FROM t WHERE id = {gone}")).unwrap();
                    ops.fetch_add(1, Ordering::Release);
                }
            });
            while ops.load(Ordering::Acquire) < 20 {
                std::thread::yield_now();
            }
            db.execute("CREATE INDEX t_grp ON t (grp)").unwrap();
            let during = ops.load(Ordering::Acquire);
            while ops.load(Ordering::Acquire) < during + 20 {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
        });
        assert_indexes_match_heap(&db, "t", &format!("round {round}"));
        db.execute("DROP INDEX t_grp").unwrap();
    }
}

/// A unique index over a column with a duplicate: refused, with no page
/// of it left allocated, and the table answers as before.
#[test]
fn a_failed_create_unique_index_leaves_no_pages_behind() {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE t (id INTEGER NOT NULL, tag VARCHAR(100))").unwrap();
    // Wide keys: the parent built several leaves before it met the last row.
    let tag = |i: i64| format!("{i:090}");
    for id in 0..2_000 {
        db.insert_row("t", &[Value::Int(id), Value::str(tag(id))]).unwrap();
    }
    db.insert_row("t", &[Value::Int(2_000), Value::str(tag(7))]).unwrap();
    let pages = db.pager().allocated_pages();
    let sizes = db.catalog().table_sizes(&db.catalog().table("t").unwrap());
    let refused = db.execute("CREATE UNIQUE INDEX t_tag ON t (tag)");
    assert!(matches!(refused, Err(DbError::Constraint(_))), "{refused:?}");
    assert_eq!(db.pager().allocated_pages(), pages, "the refused tree's pages stayed allocated");
    assert_eq!(db.catalog().table_sizes(&db.catalog().table("t").unwrap()), sizes);
    let seven = format!("SELECT COUNT(*) FROM t WHERE tag = '{}'", tag(7));
    assert_eq!(db.query(&seven).unwrap().scalar().unwrap(), Value::Int(2));
    db.execute("CREATE INDEX t_tag ON t (tag)").unwrap();
    assert_eq!(db.query(&seven).unwrap().scalar().unwrap(), Value::Int(2));
    assert_indexes_match_heap(&db, "t", "after the non-unique index");
}

/// A bulk load stops at a row whose unique key the table or the load
/// already holds, before storing it: the rows before it are stored and
/// indexed, as a row-at-a-time load would have left them.
#[test]
fn a_bulk_load_stops_at_a_duplicate_with_the_rows_before_it_indexed() {
    let db = Database::with_defaults();
    db.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, grp INTEGER, note VARCHAR(40), PRIMARY KEY (id))",
    )
    .unwrap();
    db.execute("CREATE INDEX t_grp ON t (grp)").unwrap();
    let row = |id: i64| vec![Value::Int(id), Value::Int(id % 5), Value::str(format!("n{id}"))];
    assert_eq!(db.load_rows("t", (0..1_000).map(row)).unwrap(), 1_000);
    // Into the non-empty table: a key the table holds ...
    let held = db.load_rows("t", (1_000..1_500).chain([10]).chain(1_500..1_600).map(row));
    assert!(matches!(held, Err(DbError::Constraint(_))), "{held:?}");
    // ... and a key the load itself stored before.
    let twice = db.load_rows("t", (2_000..2_300).chain([2_100]).map(row));
    assert!(matches!(twice, Err(DbError::Constraint(_))), "{twice:?}");
    let count = db.query("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap();
    assert_eq!(count, Value::Int(1_000 + 500 + 300));
    assert_indexes_match_heap(&db, "t", "after two refused loads");
    let t = db.catalog().table("t").unwrap();
    let pkey = t.find_index("T_PKEY").unwrap();
    let found = pkey.tree.lock().search_exact(&encode_key(&[Value::Int(1_499)])).unwrap();
    assert_eq!(found.len(), 1);
    // A row the wrong shape is refused the same way.
    let bad = db.load_rows("t", [vec![Value::Int(5_000)]]);
    assert!(bad.is_err());
    assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap(), count);
}

/// Two long keys in one leaf of short ones: the split that makes room for
/// the second must not leave a half larger than a page (the count
/// midpoint did, and the engine panicked). A key too long to share a node
/// with another is refused before anything is stored, by an insert, a
/// bulk load and `CREATE INDEX` alike.
#[test]
fn long_index_keys_split_by_bytes_and_longer_ones_are_refused() {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE t (id INT NOT NULL, s VARCHAR(9000), PRIMARY KEY (id))").unwrap();
    db.execute("CREATE INDEX t_s ON t (s)").unwrap();
    for id in 0..100 {
        db.execute(&format!("INSERT INTO t VALUES ({id}, 's{id}')")).unwrap();
    }
    for (id, c) in [(100, 'a'), (101, 'b')] {
        let s = c.to_string().repeat(3_900);
        db.execute(&format!("INSERT INTO t VALUES ({id}, '{s}')")).unwrap();
    }
    assert_indexes_match_heap(&db, "t", "after two long keys");
    let long = "SELECT COUNT(*) FROM t WHERE s > 'a' AND s < 'c'";
    assert_eq!(db.query(long).unwrap().scalar().unwrap(), Value::Int(2));

    let too_long = "z".repeat(5_000);
    let refused = db.execute(&format!("INSERT INTO t VALUES (102, '{too_long}')"));
    assert!(matches!(refused, Err(DbError::Constraint(_))), "{refused:?}");
    let loaded = db.load_rows("t", [vec![Value::Int(103), Value::str(too_long.clone())]]);
    assert!(matches!(loaded, Err(DbError::Constraint(_))), "{loaded:?}");
    assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap(), Value::Int(102));
    assert_indexes_match_heap(&db, "t", "after refused long keys");

    db.execute("CREATE TABLE u (id INT NOT NULL, s VARCHAR(9000))").unwrap();
    db.execute(&format!("INSERT INTO u VALUES (1, '{too_long}')")).unwrap();
    let pages = db.pager().allocated_pages();
    let index = db.execute("CREATE INDEX u_s ON u (s)");
    assert!(matches!(index, Err(DbError::Constraint(_))), "{index:?}");
    assert_eq!(db.pager().allocated_pages(), pages, "the refused index kept pages");
}
