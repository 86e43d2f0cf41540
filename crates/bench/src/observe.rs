//! The live-monitoring experiment (`BENCH_observe.json`).
//!
//! The monitoring subsystem is only worth shipping always-on if watching
//! costs (almost) nothing and the views actually answer the questions the
//! paper's DBAs asked. This experiment measures both:
//!
//! 1. **overhead** — the TPC-D query streams plus update stream from the
//!    server experiment run twice per repetition over the wire, once with
//!    the collectors disabled (`Database::set_monitor_enabled(false)`) and
//!    once enabled. Repetitions alternate off/on so cache warm-up and
//!    machine drift hit both modes equally (the [`crate::wire`] driver's
//!    repetition loop, shared with the tracereq experiment). The headline
//!    number is the collectors-on / collectors-off QthD ratio; the
//!    acceptance bar is a delta under 3%.
//! 2. **liveness** — a dedicated collectors-on phase runs the same
//!    workload while a separate monitor connection polls all six `M$`
//!    views over the same wire protocol. Every poll must succeed mid-run;
//!    the per-view poll counts and final row counts are recorded. This
//!    phase is reported separately from the overhead comparison because
//!    an active monitor connection is real extra load, not collector cost.
//! 3. **diagnosis** — the §4.1 blind-plan scenario replayed as a DBA would
//!    see it: an update transaction parks on one supplier row, a reader
//!    with a non-selective predicate (the "blind" plan: no usable index, so
//!    a full scan behind a table S lock) blocks behind it, and the monitor
//!    connection watches the queue form in `M$LOCKS`, the lock-wait time
//!    accumulate in `M$WAIT_EVENTS`, and — after the holder commits — the
//!    wait land on the guilty statement in `M$STATEMENTS`.
//!
//! `M$WORKLOAD` is fed the way an R/3 application server would feed it:
//! the driver threads play the work processes, and the driver's per-step
//! callback folds one [`RequestStats`] per dialog step (query) and batch
//! step (refresh pair) into a [`WorkloadMonitor`] registered on the served
//! database.

use crate::wire::{self, Knobs, ModeTotals, Phase, PolledView, Protocol, Step};
use r3::dispatcher::{RequestStats, WpKind};
use r3::workload::WorkloadMonitor;
use rdbms::{Database, Value, WaitEvent, WaitSnapshot};
use serde_json::Json;
use server::{Client, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::meter::{Calibration, MeterSnapshot};

/// All six system views, polled in this order by the live monitor.
pub const VIEWS: [&str; 6] =
    ["M$WAIT_EVENTS", "M$STATEMENTS", "M$SESSIONS", "M$LOCKS", "M$WORKLOAD", "M$PLAN_CACHE"];

/// QthD over the summed elapsed time of one mode's repetitions.
fn qthd(t: &ModeTotals, knobs: &Knobs, sf: f64) -> f64 {
    if t.elapsed_seconds == 0.0 {
        return 0.0;
    }
    (knobs.streams * 17 * knobs.rounds * knobs.reps) as f64 * 3600.0 / t.elapsed_seconds * sf
}

fn mode_json(t: &ModeTotals, phase: &str, knobs: &Knobs, sf: f64) -> Json {
    Json::object()
        .field("phase", phase)
        .field("query_streams", knobs.streams)
        .field("rounds", knobs.rounds)
        .field("repetitions", knobs.reps)
        .field("elapsed_seconds", t.elapsed_seconds)
        .field("queries_run", t.queries_run)
        .field("qthd", qthd(t, knobs, sf))
        .field("update_pairs", t.update_pairs)
        .field("retries", t.retries)
        .field("wait_events", waits_json(&t.waits))
}

fn waits_json(w: &WaitSnapshot) -> Json {
    let mut obj = Json::object();
    for ev in WaitEvent::ALL {
        obj = obj.field(
            ev.name(),
            Json::object().field("waits", w.count(ev)).field("waited_us", w.micros(ev)),
        );
    }
    obj
}

/// The §4.1 diagnosis demo: watch a blind-plan reader queue behind an
/// update transaction, live, then attribute the wait to the statement.
fn run_lock_diagnosis(db: &Arc<Database>) -> Result<Json, String> {
    db.set_monitor_enabled(true);
    db.statement_collector().reset();
    let server = Server::start(Arc::clone(db), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().to_string();

    // The blocker: an order-entry style transaction sitting on one
    // supplier row (IX on the table, X on the row), not yet committed.
    let mut holder = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    holder.simple_query("BEGIN").map_err(|e| format!("begin: {e}"))?;
    holder
        .simple_query("UPDATE supplier SET s_acctbal = s_acctbal + 0 WHERE s_suppkey = 1")
        .map_err(|e| format!("update: {e}"))?;

    // The victim: a predicate no index helps, so the plan is a full scan
    // behind a table S lock — the paper's blind optimizer picking a scan
    // where the DBA expected an index probe.
    const BLIND_SQL: &str = "SELECT COUNT(*) FROM supplier WHERE s_acctbal > -999999";
    let blocked = {
        let addr = addr.clone();
        std::thread::spawn(move || -> Result<u64, String> {
            let mut c = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            let rows = c.simple_query(BLIND_SQL).map_err(|e| format!("blocked reader: {e}"))?;
            c.terminate().map_err(|e| format!("terminate: {e}"))?;
            Ok(rows.rows.len() as u64)
        })
    };

    // The DBA: watch M$LOCKS until the queue is visible.
    let mut mon = Client::connect(&addr).map_err(|e| format!("monitor connect: {e}"))?;
    let lock_waits_before = db.wait_stats().snapshot();
    let mut waiting_row: Option<(String, String, i64)> = None;
    let deadline = Instant::now() + Duration::from_secs(20);
    while waiting_row.is_none() {
        let locks = mon
            .simple_query("SELECT TABLE_NAME, STATE, MODE, TXN FROM M$LOCKS")
            .map_err(|e| format!("M$LOCKS poll: {e}"))?;
        for row in &locks.rows {
            if let [Value::Str(table), Value::Str(state), Value::Str(mode), Value::Int(txn)] =
                &row[..]
            {
                if state == "WAITING" {
                    waiting_row = Some((table.clone(), mode.clone(), *txn));
                }
            }
        }
        if Instant::now() > deadline {
            return Err("never saw the blocked reader in M$LOCKS".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Give the wait a visible magnitude before releasing it.
    std::thread::sleep(Duration::from_millis(100));

    holder.simple_query("COMMIT").map_err(|e| format!("commit: {e}"))?;
    holder.terminate().map_err(|e| format!("terminate: {e}"))?;
    blocked.join().map_err(|_| "blocked reader panicked".to_string())??;

    // Attribution, still over the wire: the blind statement's own row in
    // M$STATEMENTS carries the lock wait.
    let stmts = mon
        .simple_query("SELECT STATEMENT, CALLS, LOCK_WAITS, LOCK_US FROM M$STATEMENTS")
        .map_err(|e| format!("M$STATEMENTS: {e}"))?;
    let mut attributed: Option<(u64, u64)> = None;
    for row in &stmts.rows {
        if let [Value::Str(stmt), Value::Int(_), Value::Int(waits), Value::Int(us)] = &row[..] {
            if stmt.contains("COUNT(*)") && stmt.contains("supplier") {
                attributed = Some((*waits as u64, *us as u64));
            }
        }
    }
    mon.terminate().map_err(|e| format!("terminate: {e}"))?;
    let stats = server.shutdown();
    if stats.panics != 0 || stats.sessions_active != 0 {
        return Err("diagnosis phase left the server dirty".into());
    }

    let (table, mode, txn) = waiting_row.expect("loop exits only with a row");
    let lock_delta = db.wait_stats().snapshot().since(&lock_waits_before);
    let (stmt_lock_waits, stmt_lock_us) =
        attributed.ok_or("blind statement missing from M$STATEMENTS")?;
    if stmt_lock_waits == 0 || stmt_lock_us == 0 {
        return Err(format!(
            "M$STATEMENTS did not attribute the lock wait: waits={stmt_lock_waits} us={stmt_lock_us}"
        ));
    }
    Ok(Json::object()
        .field("blind_statement", BLIND_SQL)
        .field("waiting_seen_in_m_locks", true)
        .field("waiting_table", table)
        .field("waiting_mode", mode)
        .field("waiting_txn", txn)
        .field("lock_waits_delta", lock_delta.count(WaitEvent::Lock))
        .field("lock_waited_us_delta", lock_delta.micros(WaitEvent::Lock))
        .field("statement_lock_waits", stmt_lock_waits)
        .field("statement_lock_waited_us", stmt_lock_us))
}

fn statements_top_json(db: &Database, limit: usize) -> Json {
    let mut arr = Vec::new();
    for s in db.statement_collector().snapshot().into_iter().take(limit) {
        arr.push(
            Json::object()
                .field("statement", s.statement)
                .field("calls", s.calls)
                .field("rows", s.rows)
                .field("total_us", s.total_micros)
                .field("lock_waits", s.waits.count(WaitEvent::Lock))
                .field("lock_us", s.waits.micros(WaitEvent::Lock)),
        );
    }
    Json::Array(arr)
}

/// Load the database, measure collectors-off vs collectors-on, run the
/// live-view and diagnosis phases, and return the `BENCH_observe.json`
/// document.
pub fn run_observe_experiment(sf: f64, smoke: bool) -> Result<Json, String> {
    // Full runs alternate off/on twice. So does smoke, not once: single
    // smoke phases run only a few seconds and a lone pair is too noisy to
    // gate on.
    let knobs = Knobs { streams: if smoke { 2 } else { 4 }, rounds: 2, reps: 2 };
    let (db, gen) = wire::load_database(sf)?;
    let workload = WorkloadMonitor::new();
    db.catalog().register_monitor_view(workload.view());
    let cal = Calibration::default();
    // The driver threads play the work processes: every query is an ST03
    // dialog step and every refresh pair a batch step. The driver is the
    // application tier here, so queue time is zero and the metered
    // database work lives server-side (already in M$STATEMENTS).
    let fold = |step: Step, service: Duration| {
        let (name, kind) = match step {
            Step::Query { stream, query } => (format!("q{query}-{stream}"), WpKind::Dialog),
            Step::Refresh { seq } => (format!("refresh-{seq}"), WpKind::Batch),
        };
        let stats = RequestStats {
            name,
            kind,
            worker: "WIRE-0".into(),
            trace_id: 0,
            queue_wait: Duration::ZERO,
            service,
            work: MeterSnapshot::default(),
            result: Ok(()),
        };
        workload.record(&stats, &cal);
    };

    let [off, on] = wire::off_on_repetitions(&db, &gen, sf, &knobs, Some(&fold))?;

    // The live-view phase is reported separately from the overhead
    // measurement: an active monitor connection is real extra load (its
    // polls are statements too), distinct from the cost of the always-on
    // collectors.
    println!("live phase: collectors on + monitor connection polling all {} views", VIEWS.len());
    let views: Vec<PolledView> = VIEWS
        .into_iter()
        .map(|view| PolledView { view, sql: format!("SELECT * FROM {view}"), check_row: None })
        .collect();
    let live_knobs = Knobs { reps: 1, ..knobs };
    let live_phase = Phase {
        streams: knobs.streams,
        rounds: knobs.rounds,
        protocol: Protocol::Extended,
        monitor: true,
        seq_base: 90_000,
        poller: Some(&views),
        on_step: Some(&fold),
    };
    let live_run = wire::run_phase(&db, &gen, sf, &live_phase)?;
    println!(
        "  elapsed={:.1}s queries={} update_pairs={}",
        live_run.elapsed_seconds, live_run.queries_run, live_run.update_pairs
    );
    let live_views = live_run.polled.as_ref().ok_or("live monitor never ran")?.to_json();
    let mut live_totals = ModeTotals::default();
    live_totals.add(&live_run);

    println!("diagnosis: blind-plan lock wait watched live (§4.1)");
    let diagnosis = run_lock_diagnosis(&db)?;

    let qthd_off = qthd(&off, &knobs, sf);
    let qthd_on = qthd(&on, &knobs, sf);
    let on_over_off = if qthd_off > 0.0 { qthd_on / qthd_off } else { 0.0 };
    let overhead = 1.0 - on_over_off;
    println!(
        "qthd collectors-off={qthd_off:.1} collectors-on={qthd_on:.1} overhead={:.2}%",
        overhead * 100.0
    );

    let notes = [
        "Collectors-off disables wait-event timers, the statement collector, and \
         Exec timing via Database::set_monitor_enabled(false); the M$ views stay \
         queryable but stop accumulating.",
        "Off/on repetitions alternate after a warmup round so cache state and \
         machine drift hit both modes equally; QthD per mode is computed over the \
         summed elapsed time. A phase's elapsed time ends when its query streams \
         finish; the update stream's wind-down is not counted.",
        "The live-view phase runs separately from the overhead measurement: an \
         active monitor connection polling all six M$ views is real extra load, \
         distinct from collector cost. A single failed poll fails the experiment.",
        "The diagnosis phase replays §4.1: a blind full-scan reader queues behind \
         an update transaction, visible as a WAITING row in M$LOCKS and then as \
         LOCK_US on the statement's M$STATEMENTS row.",
        "Regenerate: cargo run --release -p bench --bin experiments -- observe \
         (add --smoke for the CI-sized run).",
    ];
    Ok(Json::object()
        .field("benchmark", "observe")
        .field("sf", sf)
        .field("smoke", smoke)
        .field("notes", Json::Array(notes.iter().map(|&n| Json::from(n)).collect()))
        .field(
            "phases",
            Json::Array(vec![
                mode_json(&off, "collectors_off", &knobs, sf),
                mode_json(&on, "collectors_on", &knobs, sf),
                mode_json(&live_totals, "collectors_on_with_live_monitor", &live_knobs, sf),
            ]),
        )
        .field(
            "comparison",
            Json::object()
                .field("qthd_collectors_off", qthd_off)
                .field("qthd_collectors_on", qthd_on)
                .field("on_over_off", on_over_off)
                .field("overhead_fraction", overhead)
                .field("overhead_under_3pct", overhead < 0.03),
        )
        .field("live_views", live_views)
        .field("lock_diagnosis", diagnosis)
        .field("statements_top", statements_top_json(&db, 10))
        .field("workload", workload.to_json()))
}
