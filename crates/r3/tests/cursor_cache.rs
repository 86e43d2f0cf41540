//! The cursor cache follows the data dictionary (§4): a cached Open SQL
//! plan whose table or index changed is re-prepared before it runs, and
//! ST05 shows that call as an OPEN, not a REOPEN. A stale plan would read
//! a dropped index (missing rows inserted since) or a dropped table's
//! heap (rows that no longer exist).

use r3::sqltrace::SqlOp;
use r3::{R3System, Release};
use rdbms::Value;

const SQL: &str = "SELECT A FROM ZT WHERE B = ?";

fn create_zt(sys: &R3System) {
    sys.db.execute("CREATE TABLE ZT (A INTEGER NOT NULL, B INTEGER, PRIMARY KEY (A))").unwrap();
}

/// Run the cached SELECT for `B = 7` with the trace on: rows and the
/// traced interface operation.
fn select(sys: &R3System) -> (usize, SqlOp) {
    sys.sql_trace.clear();
    sys.sql_trace.enable();
    let rows = sys.db_select_prepared(SQL, &[Value::Int(7)]).unwrap().rows.len();
    sys.sql_trace.disable();
    let entries = sys.sql_trace.take();
    assert_eq!(entries.len(), 1, "one crossing per call");
    (rows, entries[0].op)
}

/// A system with `ZT(A, B)` indexed on `B`, four rows with `B = 7` and
/// one without, and the SELECT cached as a probe of that index.
fn system_with_cached_probe() -> R3System {
    let sys = R3System::install_default(Release::R30).unwrap();
    create_zt(&sys);
    sys.db.execute("CREATE INDEX ZT_B ON ZT (B)").unwrap();
    for a in 0..4 {
        sys.db.execute(&format!("INSERT INTO ZT VALUES ({a}, 7)")).unwrap();
    }
    sys.db.execute("INSERT INTO ZT VALUES (10, 8)").unwrap();
    assert_eq!(select(&sys), (4, SqlOp::Open));
    let plan = sys.cached_plan_description(SQL).unwrap();
    assert!(plan.contains("IndexScan ZT via ZT_B"), "probe plan expected: {plan}");
    assert_eq!(select(&sys), (4, SqlOp::Reopen), "unchanged dictionary: cache hit");
    sys
}

#[test]
fn drop_index_re_prepares_the_cursor() {
    let sys = system_with_cached_probe();
    // The cached plan probes ZT_B; once it is dropped, a new row reaches
    // only the heap.
    sys.db.execute("DROP INDEX ZT_B").unwrap();
    sys.db.execute("INSERT INTO ZT VALUES (4, 7)").unwrap();
    assert_eq!(select(&sys), (5, SqlOp::Open), "re-prepared after DROP INDEX");
    assert_eq!(select(&sys), (5, SqlOp::Reopen));
}

#[test]
fn recreated_table_re_prepares_the_cursor() {
    let sys = system_with_cached_probe();
    // A re-created table is a new object: the old plan would read the
    // dropped table's rows.
    sys.db.execute("DROP TABLE ZT").unwrap();
    create_zt(&sys);
    sys.db.execute("INSERT INTO ZT VALUES (1, 7)").unwrap();
    assert_eq!(select(&sys), (1, SqlOp::Open), "re-prepared after DROP/CREATE TABLE");
    assert_eq!(select(&sys), (1, SqlOp::Reopen));
}
