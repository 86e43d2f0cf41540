//! `M$` system views are read without locks from provider closures, so
//! they must stay correct while the catalog churns underneath them: DDL
//! invalidating plan-cache entries, tables appearing and disappearing,
//! and statements being re-planned concurrently.

use rdbms::sql::StatementId;
use rdbms::{Database, PlanCache, Value, WaitEvent, WaitSnapshot};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn db_with_table() -> Arc<Database> {
    let db = Arc::new(Database::with_defaults());
    db.execute("CREATE TABLE t (a INTEGER NOT NULL, b INTEGER, PRIMARY KEY (a))").unwrap();
    for i in 0..50 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 10)).unwrap();
    }
    db
}

/// Monitor-view reads race DDL churn and the plan-cache invalidation it
/// causes. Readers must never see an error while tables come and go; the
/// cache must actually be invalidated by every index touch on `t`.
#[test]
fn m_view_reads_race_ddl_and_plan_cache_invalidation() {
    const DDL_ROUNDS: usize = 40;

    let db = db_with_table();
    let cache = PlanCache::new(16);
    let done = Arc::new(AtomicBool::new(false));
    let view_reads = Arc::new(AtomicU64::new(0));

    // Two monitor readers sweeping the engine-level views the whole time
    // the churn below runs.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (db, done, view_reads) =
                (Arc::clone(&db), Arc::clone(&done), Arc::clone(&view_reads));
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    for view in ["M$WAIT_EVENTS", "M$STATEMENTS", "M$LOCKS"] {
                        let rows = db
                            .query(&format!("SELECT * FROM {view}"))
                            .unwrap_or_else(|e| panic!("{view} read failed mid-DDL: {e}"));
                        if view == "M$WAIT_EVENTS" {
                            assert_eq!(rows.rows.len(), 5);
                        }
                        view_reads.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    // The churn: tables appear and disappear, every index touch on `t`
    // invalidates its cached plan, and the statement is re-prepared and
    // re-run against the new catalog version each round.
    let mut misses = 0u64;
    let mut hits = 0u64;
    let reads_before = view_reads.load(Ordering::Relaxed);
    for i in 0..DDL_ROUNDS {
        // The churn takes a few milliseconds; hold it half-way until a
        // reader lands a view read inside it, however the threads run.
        while i == DDL_ROUNDS / 2 && view_reads.load(Ordering::Relaxed) == reads_before {
            std::thread::yield_now();
        }
        db.execute(&format!("CREATE TABLE u{i} (x INTEGER NOT NULL, PRIMARY KEY (x))")).unwrap();
        db.execute(&format!("CREATE INDEX t_b{i} ON t (b)")).unwrap();
        db.execute(&format!("DROP TABLE u{i}")).unwrap();
        let plan = cache.prepare(&db, "SELECT b FROM t WHERE a = 7").unwrap();
        misses += (!plan.cache_hit) as u64;
        let rows = db.execute_prepared(&plan.prepared, &plan.extracted_params).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(70)]]);
        let again = cache.prepare(&db, "SELECT b FROM t WHERE a = 7").unwrap();
        hits += again.cache_hit as u64;
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    assert_eq!(misses, DDL_ROUNDS as u64, "every index DDL on t must force a replan");
    assert_eq!(hits, DDL_ROUNDS as u64, "re-prepares between DDL must hit");
    assert!(view_reads.load(Ordering::Relaxed) > 0, "monitor readers never got a sweep in");
}

/// `M$TRACES` and `M$SPANS` read the trace ring without stopping it: 16
/// sessions complete traces as fast as they can — enough to rotate the
/// ring past its capacity — while readers sweep both views through SQL.
/// Every fetched row must satisfy the partition invariant, no sweep may
/// observe a duplicate trace id, and nothing may panic.
#[test]
fn m_traces_reads_race_concurrent_trace_completion() {
    const WRITERS: usize = 16;
    const PER_WRITER: usize = 300; // 4800 traces > the 4096-slot ring

    let db = Arc::new(Database::with_defaults());
    let done = Arc::new(AtomicBool::new(false));
    let sweeps = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (db, done, sweeps) = (Arc::clone(&db), Arc::clone(&done), Arc::clone(&sweeps));
            std::thread::spawn(move || {
                let capacity = db.trace_ring().capacity();
                while !done.load(Ordering::Relaxed) {
                    let rows = db
                        .query(
                            "SELECT TRACE_ID, END_TO_END_US, DISPATCH_QUEUE_US, LOCK_US, \
                             WAL_FLUSH_US, GROUP_COMMIT_US, EXEC_US, APP_SERVER_US \
                             FROM M$TRACES",
                        )
                        .unwrap_or_else(|e| panic!("M$TRACES read failed mid-churn: {e}"))
                        .rows;
                    assert!(rows.len() <= capacity, "ring overflowed its capacity");
                    let mut seen = HashSet::new();
                    for row in &rows {
                        let ints: Vec<i64> = row
                            .iter()
                            .map(|v| match v {
                                Value::Int(i) => *i,
                                other => panic!("non-integer in M$TRACES: {other:?}"),
                            })
                            .collect();
                        assert!(
                            seen.insert(ints[0]),
                            "duplicate trace id {} in one sweep",
                            ints[0]
                        );
                        let sum: i64 = ints[2..].iter().sum();
                        assert_eq!(sum, ints[1], "segments must sum to END_TO_END_US mid-churn");
                    }
                    db.query("SELECT TRACE_ID, SPAN_ID, ELAPSED_US FROM M$SPANS")
                        .unwrap_or_else(|e| panic!("M$SPANS read failed mid-churn: {e}"));
                    sweeps.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    let ctx = db
                        .begin_request("race", format!("w{w}-{i}"))
                        .expect("monitor is on by default");
                    let _guard = ctx.install();
                    // A real wait on the serving thread, so completed
                    // traces carry a nonzero Exec segment.
                    db.wait_stats().record(WaitEvent::Exec, Duration::from_micros(20));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    let ring = db.trace_ring();
    assert_eq!(ring.completed(), (WRITERS * PER_WRITER) as u64);
    assert!(ring.evicted() > 0, "the churn must have rotated the ring");
    assert!(sweeps.load(Ordering::Relaxed) > 0, "readers never got a sweep in");
}

/// Monitor plans produce rows at execute time, not plan time: re-running
/// the same prepared `M$` plan must see state recorded after it was
/// prepared, and the shared plan cache must refuse to cache it at all.
#[test]
fn monitor_rows_stay_fresh_through_prepared_plans() {
    let db = db_with_table();
    let cache = PlanCache::new(8);
    let first = cache.prepare(&db, "SELECT * FROM M$STATEMENTS").unwrap();
    let n_before =
        db.execute_prepared(&first.prepared, &first.extracted_params).unwrap().rows.len();

    // New statements land in the collector after the plan was built (the
    // server session layer is the production caller of `record`).
    let waits = WaitSnapshot::default();
    db.statement_collector().record(
        StatementId(1),
        "SELECT b FROM t WHERE a = ?",
        Duration::from_micros(120),
        1,
        &waits,
    );
    db.statement_collector().record(
        StatementId(2),
        "UPDATE t SET b = ? WHERE a = ?",
        Duration::from_micros(250),
        1,
        &waits,
    );

    let again = cache.prepare(&db, "SELECT * FROM M$STATEMENTS").unwrap();
    assert!(!again.cache_hit, "M$ statements must bypass the shared plan cache");
    let n_after = db.execute_prepared(&again.prepared, &again.extracted_params).unwrap().rows.len();
    assert_eq!(n_after, n_before + 2, "prepared M$ plan must see post-prepare state");

    // And the very first prepared plan, re-executed, sees them too.
    let n_stale_plan =
        db.execute_prepared(&first.prepared, &first.extracted_params).unwrap().rows.len();
    assert_eq!(n_stale_plan, n_after, "rows are produced at execute time, not plan time");
}

/// The ring sheds traces by weight as well as by count; the views must
/// say of a trace that stayed exactly what they said before: a real query
/// served under a request, a lock wait inside one of its plan nodes, then
/// enough heavy requests to rotate the ring by bytes alone.
#[test]
fn m_traces_and_m_spans_rows_of_a_retained_trace_are_unchanged() {
    let db = db_with_table();
    let ring = Arc::clone(db.trace_ring());
    let serve = || {
        let ctx = db.begin_request("server/simple", "SELECT  b FROM t\nWHERE a = 7").unwrap();
        let id = ctx.trace_id();
        let _guard = ctx.install();
        let _outer = trace::span("outer");
        assert_eq!(db.query("SELECT b FROM t WHERE a = 7").unwrap().rows, [[Value::Int(70)]]);
        let _inner = trace::span("inner");
        db.wait_stats().record(WaitEvent::Lock, Duration::from_micros(40));
        id
    };
    let first = serve();
    // 60 requests of 512 spans and 1,024 waits: past the byte budget, far
    // short of the 4,096-trace capacity.
    for i in 0..60 {
        let _guard = db.begin_request("test", format!("heavy {i}")).unwrap().install();
        for _ in 0..512 {
            let _span = trace::span("node");
            db.wait_stats().record(WaitEvent::Exec, Duration::from_micros(2));
            db.wait_stats().record(WaitEvent::Exec, Duration::from_micros(2));
        }
    }
    assert!(ring.evicted() > 0 && ring.completed() == 61, "rotated by weight alone");
    assert!(ring.get(first).is_none(), "the oldest went first");
    let id = serve();
    let t = ring.get(id).expect("the newest trace is retained");
    let int = |v: u64| Value::Int(v as i64);

    let row = db
        .query(&format!("SELECT * FROM M$TRACES WHERE TRACE_ID = {id}"))
        .unwrap()
        .rows
        .pop()
        .expect("one row for the trace");
    let p = t.critical_path();
    assert_eq!(
        row,
        vec![
            int(id),
            Value::str("server/simple"),
            Value::str("SELECT b FROM t WHERE a = 7"),
            int(t.enqueued_us),
            int(t.started_us),
            int(t.ended_us),
            int(t.end_to_end_us()),
            int(p.segment(WaitEvent::DispatchQueue)),
            int(p.segment(WaitEvent::Lock)),
            int(p.segment(WaitEvent::WalFlush)),
            int(p.segment(WaitEvent::GroupCommitWait)),
            int(p.segment(WaitEvent::Exec)),
            int(p.app_server_us),
            int(t.span_count() as u64),
            int(2), // the query's exec time and the lock wait
            int(0),
            int(0),
        ]
    );
    assert!(p.segment(WaitEvent::Lock) > 0 && p.sum_us() == t.end_to_end_us());

    let spans = db
        .query(&format!(
            "SELECT SPAN_ID, PARENT_ID, DEPTH, NAME, START_US, END_US, ELAPSED_US, LOCK_US, \
             WAL_FLUSH_US, GROUP_COMMIT_US, EXEC_US FROM M$SPANS \
             WHERE TRACE_ID = {id} ORDER BY SPAN_ID"
        ))
        .unwrap()
        .rows;
    // outer > (the query's plan nodes, each under the one before) and inner.
    assert_eq!(spans.len(), t.span_count());
    let inner = spans.len() as i64 - 1;
    for (i, row) in spans.iter().enumerate() {
        let node = &t.spans[i];
        // The statement's exec time lands on the frame open around it.
        let exec = t.span_wait_micros(node, WaitEvent::Exec) as i64;
        let (parent, depth, name, lock, exec) = match i as i64 {
            0 => (-1, 0, "outer".to_string(), 0, exec),
            i if i == inner => (0, 1, "inner".to_string(), 40, 0),
            i => (i - 1, i, t.span_name(node).to_string(), 0, 0),
        };
        assert_eq!(
            row,
            &vec![
                Value::Int(i as i64),
                Value::Int(parent),
                Value::Int(depth),
                Value::Str(name),
                int(node.start_us),
                int(node.end_us),
                int(node.elapsed_us()),
                Value::Int(lock),
                Value::Int(0),
                Value::Int(0),
                Value::Int(exec),
            ],
            "span {i}"
        );
    }
    assert!(spans.len() >= 4, "two plan nodes between outer and inner: {spans:?}");
    assert!(t.span_name(&t.spans[1]).starts_with("Project"), "{spans:?}");
}
