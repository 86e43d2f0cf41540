//! DML locates its rows through an index when its filter allows
//! (`dml_index_probe`): it must find exactly the rows a heap scan finds.
//! One key's entries fill more than one leaf of a non-unique index, so
//! the probe walks the leaf chain across leaves and an excluded lower
//! bound skips a prefix that spans them.

use rdbms::storage::codec::encode_key;
use rdbms::storage::PAGE_SIZE;
use rdbms::{Database, Row, Value};

/// The key most rows share.
const SHARED: i64 = 7;

/// `t`, with a non-unique index on `k`, and `u`, the same rows with no
/// index: a third of the rows have `k` = [`SHARED`].
fn two_tables() -> Database {
    let db = Database::with_defaults();
    let values: Vec<String> = (0..2_400)
        .map(|i| format!("({i}, {}, {i})", if i % 3 == 0 { SHARED } else { i % 50 }))
        .collect();
    for table in ["t", "u"] {
        db.execute(&format!("CREATE TABLE {table} (id INTEGER NOT NULL, k INTEGER, v INTEGER)"))
            .unwrap();
        db.execute(&format!("INSERT INTO {table} VALUES {}", values.join(", "))).unwrap();
    }
    db.execute("CREATE INDEX t_k ON t (k)").unwrap();
    db
}

fn contents(db: &Database, table: &str) -> Vec<Row> {
    db.execute(&format!("SELECT id, k, v FROM {table} ORDER BY id")).unwrap().rows().unwrap().rows
}

/// Run `sql` (with `{t}` for the table) on both tables: the same rows
/// change and the same rows remain. Returns the heap tuples each touched.
fn same_effect(db: &Database, sql: &str) -> (u64, u64) {
    let mut counts = Vec::new();
    let mut tuples = Vec::new();
    for table in ["t", "u"] {
        db.meter().reset();
        counts.push(db.execute(&sql.replace("{t}", table)).unwrap().count().unwrap());
        tuples.push(db.snapshot().db_tuples());
    }
    assert_eq!(counts[0], counts[1], "{sql}: rows affected");
    assert!(counts[0] > 0, "{sql}: affects no row");
    assert!(contents(db, "t") == contents(db, "u"), "{sql}: rows left");
    (tuples[0], tuples[1])
}

#[test]
fn dml_through_an_index_finds_the_rows_a_scan_finds() {
    let db = two_tables();
    let shared = db.execute("SELECT id FROM u WHERE k = 7").unwrap().rows().unwrap().len();
    // Each entry is a length, the key, a rid suffix and a rid.
    let key = encode_key(&[Value::Int(SHARED)]);
    assert!(shared * (2 + key.len() + 6 + 6) > PAGE_SIZE, "{shared} entries fit one leaf");

    let (probed, scanned) = same_effect(&db, "DELETE FROM {t} WHERE k = 7 AND v < 600");
    assert!(probed < scanned, "the index is not used: {probed} tuples, a scan {scanned}");
    for sql in [
        "UPDATE {t} SET v = v + 1 WHERE k = 7",
        "UPDATE {t} SET v = v - 1 WHERE k > 7",
        "DELETE FROM {t} WHERE k <= 7 AND v > 2000",
        "UPDATE {t} SET k = k + 1 WHERE k <= 7",
        "DELETE FROM {t} WHERE k > 8 AND v < 1200",
        "DELETE FROM {t} WHERE k = 8",
        "UPDATE {t} SET v = 0 WHERE k <= 7",
        "DELETE FROM {t} WHERE k > 7",
    ] {
        same_effect(&db, sql);
    }
}
