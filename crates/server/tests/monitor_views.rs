//! Live monitoring over the wire: the `M$` system views queried from a
//! second connection while a workload runs, and reconciliation of the
//! per-statement wait breakdown against the engine's own accumulators.

use rdbms::wal::WalConfig;
use rdbms::{Database, DbConfig, Value, WaitEvent};
use server::{Client, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn serve() -> (Server, String, Arc<Database>) {
    let db = Arc::new(Database::with_defaults());
    db.execute("CREATE TABLE t (a INTEGER NOT NULL, b INTEGER, PRIMARY KEY (a))").unwrap();
    for i in 0..50 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 10)).unwrap();
    }
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr, db)
}

fn col(rows: &server::Rows, name: &str) -> usize {
    rows.columns.iter().position(|c| c == name).unwrap_or_else(|| panic!("no column {name}"))
}

fn int_at(row: &[Value], i: usize) -> i64 {
    match &row[i] {
        Value::Int(v) => *v,
        other => panic!("expected Int, got {other:?}"),
    }
}

fn str_at(row: &[Value], i: usize) -> String {
    match &row[i] {
        Value::Str(s) => s.clone(),
        other => panic!("expected Str, got {other:?}"),
    }
}

#[test]
fn m_views_are_queryable_live_over_the_wire() {
    let (server, addr, _db) = serve();

    // A worker connection does real work and then sits inside an open
    // transaction holding locks — the state a monitor wants to see.
    let mut worker = Client::connect(&addr).unwrap();
    let p = worker.parse("s", "SELECT b FROM t WHERE a = 5").unwrap();
    assert!(!p.cache_hit);
    worker.bind("p", "s", &[]).unwrap();
    worker.execute("p").unwrap();
    worker.sync().unwrap();
    worker.simple_query("SELECT b FROM t WHERE a = 41").unwrap();
    worker.simple_query("BEGIN").unwrap();
    worker.simple_query("UPDATE t SET b = 1 WHERE a = 3").unwrap();

    // Second connection: observe the first mid-transaction.
    let mut mon = Client::connect(&addr).unwrap();

    let waits = mon.simple_query("SELECT EVENT, WAITS, WAITED_US FROM M$WAIT_EVENTS").unwrap();
    assert_eq!(waits.rows.len(), 5, "one row per wait event");
    let ev = col(&waits, "EVENT");
    let names: Vec<String> = waits.rows.iter().map(|r| str_at(r, ev)).collect();
    assert!(names.contains(&"exec".to_string()));
    assert!(names.contains(&"wal_flush".to_string()));

    let sessions = mon
        .simple_query("SELECT SESSION_ID, STATE, QUERIES, LAST_STATEMENT FROM M$SESSIONS")
        .unwrap();
    assert!(sessions.rows.len() >= 2, "worker and monitor are both connected");
    let state = col(&sessions, "STATE");
    assert!(
        sessions.rows.iter().any(|r| str_at(r, state) == "IN_TXN"),
        "worker session is inside BEGIN...COMMIT: {sessions:?}"
    );

    let locks = mon.simple_query("SELECT TABLE_NAME, STATE, MODE FROM M$LOCKS").unwrap();
    let tname = col(&locks, "TABLE_NAME");
    let lstate = col(&locks, "STATE");
    assert!(
        locks.rows.iter().any(|r| str_at(r, tname) == "T" && str_at(r, lstate) == "HELD"),
        "open transaction holds locks on T: {locks:?}"
    );

    let stmts = mon.simple_query("SELECT STATEMENT, CALLS, TOTAL_US FROM M$STATEMENTS").unwrap();
    let stext = col(&stmts, "STATEMENT");
    let calls = col(&stmts, "CALLS");
    assert!(
        stmts
            .rows
            .iter()
            .any(|r| str_at(r, stext).starts_with("UPDATE t SET") && int_at(r, calls) >= 1),
        "the worker's UPDATE is aggregated: {stmts:?}"
    );

    let plans = mon.simple_query("SELECT STATEMENT, HITS, DEPENDS_ON FROM M$PLAN_CACHE").unwrap();
    let ptext = col(&plans, "STATEMENT");
    assert!(
        plans.rows.iter().any(|r| str_at(r, ptext).contains("SELECT b FROM t")),
        "the parsed statement is cached: {plans:?}"
    );

    // Monitor queries themselves never enter the plan cache.
    let deps = col(&plans, "DEPENDS_ON");
    assert!(plans.rows.iter().all(|r| !str_at(r, deps).contains("M$")));

    worker.simple_query("COMMIT").unwrap();

    // Filtering and projection work like any table (planner integration).
    let filtered =
        mon.simple_query("SELECT WAITS FROM M$WAIT_EVENTS WHERE EVENT = 'exec'").unwrap();
    assert_eq!(filtered.rows.len(), 1);
    assert!(int_at(&filtered.rows[0], 0) > 0, "exec events recorded by now");

    mon.terminate().unwrap();
    worker.terminate().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);
}

/// The trace views during a live workload: worker connections hammer the
/// server over both protocols while a monitor connection reads `M$TRACES`
/// and `M$SPANS` mid-run. Every fetched trace row's critical-path columns
/// must sum to its end-to-end latency, and spans must join back to their
/// traces.
#[test]
fn m_traces_and_spans_are_live_and_partition_end_to_end() {
    let (server, addr, db) = serve();

    let workers: Vec<_> = (0..3)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                for i in 0..40 {
                    let a = (w * 40 + i) % 50;
                    c.simple_query(&format!("SELECT b FROM t WHERE a = {a}")).unwrap();
                    c.extended_query("SELECT COUNT(*) FROM t WHERE b > 100", &[]).unwrap();
                    if i % 8 == 0 {
                        c.simple_query(&format!("UPDATE t SET b = b + 1 WHERE a = {a}")).unwrap();
                    }
                }
                c.terminate().unwrap();
            })
        })
        .collect();

    // Monitor mid-run: both views must answer while traces complete.
    let mut mon = Client::connect(&addr).unwrap();
    let mut live_trace_rows = 0usize;
    for _ in 0..20 {
        let traces = mon
            .simple_query(
                "SELECT TRACE_ID, ORIGIN, END_TO_END_US, DISPATCH_QUEUE_US, LOCK_US, \
                 WAL_FLUSH_US, GROUP_COMMIT_US, EXEC_US, APP_SERVER_US \
                 FROM M$TRACES",
            )
            .unwrap();
        let e2e = col(&traces, "END_TO_END_US");
        for row in &traces.rows {
            let sum: i64 = (e2e + 1..row.len()).map(|i| int_at(row, i)).sum();
            assert_eq!(sum, int_at(row, e2e), "segments must partition END_TO_END_US: {row:?}");
        }
        live_trace_rows = live_trace_rows.max(traces.rows.len());
        mon.simple_query("SELECT TRACE_ID, SPAN_ID, PARENT_ID, NAME FROM M$SPANS").unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    for w in workers {
        w.join().unwrap();
    }
    assert!(live_trace_rows > 0, "monitor saw completed traces mid-run");

    // After the workload: both protocols minted traces, and every span
    // row joins back to a trace the ring still holds.
    let traces = mon.simple_query("SELECT TRACE_ID, ORIGIN FROM M$TRACES").unwrap();
    let origin = col(&traces, "ORIGIN");
    let origins: Vec<String> = traces.rows.iter().map(|r| str_at(r, origin)).collect();
    assert!(origins.iter().any(|o| o == "server/simple"), "{origins:?}");
    assert!(origins.iter().any(|o| o == "server/extended"), "{origins:?}");
    let ids: std::collections::HashSet<i64> = traces.rows.iter().map(|r| int_at(r, 0)).collect();
    assert_eq!(ids.len(), traces.rows.len(), "trace ids are unique in a snapshot");
    let spans = mon.simple_query("SELECT TRACE_ID, PARENT_ID, SPAN_ID FROM M$SPANS").unwrap();
    assert!(!spans.rows.is_empty(), "engine spans attached to requests");
    // The snapshot taken one statement later can only have gained traces;
    // the monitor's own M$TRACES read just above is itself traced.
    let spans_tid = col(&spans, "TRACE_ID");
    let known: i64 = *ids.iter().max().unwrap();
    for row in &spans.rows {
        assert!(
            int_at(row, spans_tid) <= known + 2,
            "span row for a trace id far beyond the ring: {row:?}"
        );
    }

    assert!(db.trace_ring().completed() > 0);
    // What the ring pays for a point probe: the record, a plan node or
    // three, one exec wait, the statement text.
    let probes: Vec<_> = db
        .trace_ring()
        .snapshot()
        .into_iter()
        .filter(|t| t.label.starts_with("SELECT b FROM t WHERE a ="))
        .collect();
    assert!(probes.len() >= 100, "{} probes retained", probes.len());
    assert!(probes.iter().all(|t| t.span_count() >= 2 && !t.waits.is_empty()));
    // (One that waited for the updater's lock, or missed the pool, also
    // holds the wait, its table's name and its span's tally.)
    let mut bytes: Vec<usize> = probes.iter().map(|t| t.retained_bytes()).collect();
    bytes.sort_unstable();
    assert!(bytes[bytes.len() / 2] <= 400 && bytes[bytes.len() - 1] <= 800, "{bytes:?}");
    mon.terminate().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);
}

#[test]
fn lock_wait_is_visible_live_and_attributed_to_the_blocked_statement() {
    let (server, addr, db) = serve();

    let mut holder = Client::connect(&addr).unwrap();
    holder.simple_query("BEGIN").unwrap();
    holder.simple_query("UPDATE t SET b = 100 WHERE a = 10").unwrap();

    // A second session blocks on the same row in a background thread. Its
    // statement has another shape than the holder's (a literal SET value
    // would fold both into one M$STATEMENTS row).
    let addr2 = addr.clone();
    let blocked = std::thread::spawn(move || {
        let mut c = Client::connect(&addr2).unwrap();
        c.simple_query("UPDATE t SET b = b + 200 WHERE a = 10").unwrap();
        c.terminate().unwrap();
    });

    // Wait until the monitor can see the waiter in M$LOCKS.
    let mut mon = Client::connect(&addr).unwrap();
    let mut saw_waiting = false;
    for _ in 0..200 {
        let locks = mon.simple_query("SELECT TABLE_NAME, STATE FROM M$LOCKS").unwrap();
        let tname = col(&locks, "TABLE_NAME");
        let state = col(&locks, "STATE");
        if locks.rows.iter().any(|r| str_at(r, tname) == "T" && str_at(r, state) == "WAITING") {
            saw_waiting = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saw_waiting, "monitor connection observes the lock queue while it exists");

    holder.simple_query("COMMIT").unwrap();
    blocked.join().unwrap();

    // The wait was recorded: engine accumulator, M$WAIT_EVENTS, and the
    // blocked statement's own breakdown all agree a lock wait happened.
    let snap = db.wait_stats().snapshot();
    assert!(snap.count(WaitEvent::Lock) >= 1);
    let stmts = db.statement_collector().snapshot();
    let find = |prefix: &str| {
        stmts.iter().find(|s| s.statement.starts_with(prefix)).expect("statement was collected")
    };
    let stmt = find("UPDATE t SET b = b + 200");
    assert!(
        stmt.waits.count(WaitEvent::Lock) >= 1,
        "lock wait attributed to the statement that waited: {:?}",
        stmt.waits
    );
    assert!(stmt.waits.micros(WaitEvent::Lock) > 0);
    assert_eq!(
        find("UPDATE t SET b = 100").waits.count(WaitEvent::Lock),
        0,
        "the holder never waited"
    );

    mon.terminate().unwrap();
    holder.terminate().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);
}

#[test]
fn statement_wait_breakdown_reconciles_with_engine_accumulators() {
    // WAL-backed so the breakdown includes real flush waits.
    let mut path = std::env::temp_dir();
    path.push(format!("server-monitor-reconcile-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = DbConfig { wal: Some(WalConfig::new(&path)), ..DbConfig::default() };
    let db = Arc::new(Database::open(config).unwrap());
    db.execute("CREATE TABLE t (a INTEGER NOT NULL, b INTEGER, PRIMARY KEY (a))").unwrap();
    for i in 0..50 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 10)).unwrap();
    }
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let base = db.wait_stats().snapshot();

    let mut c = Client::connect(&addr).unwrap();
    for i in 0..8 {
        c.simple_query(&format!("UPDATE t SET b = {i} WHERE a = {i}")).unwrap();
        c.simple_query(&format!("SELECT b FROM t WHERE a = {i}")).unwrap();
    }
    c.simple_query("BEGIN").unwrap();
    c.simple_query("UPDATE t SET b = 7 WHERE a = 20").unwrap();
    c.simple_query("COMMIT").unwrap();
    c.parse("s", "SELECT b FROM t WHERE a = ?").unwrap();
    for i in 0..8 {
        c.bind("p", "s", &[Value::Int(i)]).unwrap();
        c.execute("p").unwrap();
    }
    c.sync().unwrap();
    c.terminate().unwrap();

    // Every engine-side wait in this window happened inside a statement's
    // request, so the per-statement breakdowns must sum to exactly the
    // delta on the engine's accumulators — the property that makes
    // M$STATEMENTS trustworthy for diagnosis.
    let total = db.statement_collector().total_waits();
    let delta = db.wait_stats().snapshot().since(&base);
    for ev in WaitEvent::ALL {
        assert_eq!(
            total.count(ev),
            delta.count(ev),
            "{} counts reconcile (statements vs engine)",
            ev.name()
        );
        assert_eq!(total.micros(ev), delta.micros(ev), "{} micros reconcile", ev.name());
    }
    assert!(delta.count(WaitEvent::WalFlush) >= 9, "autocommit DML + COMMIT flushed the WAL");

    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);
    let _ = std::fs::remove_file(&path);
}

/// Literal DML folds into one `M$STATEMENTS` row per shape, as literal
/// SELECTs do: the constants of an UPDATE's SET list and WHERE clause are
/// not part of its identity, so more of them than the collector holds
/// shapes neither fill it nor evict anything.
#[test]
fn literal_updates_fold_into_one_statement_row() {
    let (server, addr, db) = serve();
    db.statement_collector().reset();
    const N: i64 = 600;
    let mut c = Client::connect(&addr).unwrap();
    c.simple_query("BEGIN").unwrap();
    for k in 0..N {
        c.simple_query(&format!("UPDATE t SET b = {} WHERE a = {}", k * 3, k % 50)).unwrap();
    }
    c.simple_query("COMMIT").unwrap();
    c.terminate().unwrap();

    let rows = db.statement_collector().view().rows();
    let updates: Vec<_> = rows.iter().filter(|r| str_at(r, 0).starts_with("UPDATE")).collect();
    assert_eq!(updates.len(), 1, "one UPDATE shape: {updates:?}");
    assert_eq!(int_at(updates[0], 1), N, "CALLS counts every literal variant");
    assert_eq!(updates[0][0], Value::str("UPDATE t SET b = 0 WHERE a = 0"), "first text shown");
    assert_eq!(rows.len(), 3, "UPDATE, BEGIN and COMMIT: {rows:?}");
    let evicted = rows[0].len() - 1;
    assert!(rows.iter().all(|r| int_at(r, evicted) == 0), "EVICTED_SHAPES stays 0");

    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);
}
