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
//!    machine drift hit both modes equally. The headline number is the
//!    collectors-on / collectors-off QthD ratio; the acceptance bar is a
//!    delta under 3%.
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
//! the driver threads play the work processes and fold one
//! [`RequestStats`] per dialog step (query) and batch step (refresh pair)
//! into a [`WorkloadMonitor`] registered on the served database.

use r3::dispatcher::{RequestStats, WpKind};
use r3::workload::WorkloadMonitor;
use rdbms::clock::{Calibration, MeterSnapshot};
use rdbms::{Database, DbConfig, Value, WaitEvent, WaitSnapshot};
use serde_json::Json;
use server::{Client, ClientError, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcd::dbgen::DbGen;
use tpcd::queries::{self, QueryParams};
use tpcd::schema;

/// All six system views, polled in this order by the live monitor.
pub const VIEWS: [&str; 6] =
    ["M$WAIT_EVENTS", "M$STATEMENTS", "M$SESSIONS", "M$LOCKS", "M$WORKLOAD", "M$PLAN_CACHE"];

const MAX_RETRIES: usize = 10;
const BACKOFF_MS: u64 = 10;
const UPDATE_THINK_MS: u64 = 50;
/// Delay between live-monitor polling sweeps.
const MONITOR_POLL_MS: u64 = 25;

/// Workload sizing: full runs alternate off/on twice; smoke does one
/// quick pair.
#[derive(Clone, Copy)]
pub struct Knobs {
    pub streams: usize,
    pub rounds: usize,
    pub reps: usize,
}

impl Knobs {
    pub fn full() -> Knobs {
        Knobs { streams: 4, rounds: 2, reps: 2 }
    }

    /// CI-sized run. Two alternating repetitions, not one, so the on/off
    /// ratio averages out machine drift — single smoke phases run only a
    /// few seconds and a lone pair is too noisy to gate on.
    pub fn smoke() -> Knobs {
        Knobs { streams: 2, rounds: 2, reps: 2 }
    }
}

/// Accumulated measurement for one collector mode across all repetitions.
#[derive(Default)]
struct ModeTotals {
    elapsed_seconds: f64,
    queries_run: u64,
    update_pairs: u64,
    retries: u64,
    waits: WaitSnapshot,
}

impl ModeTotals {
    fn qthd(&self, knobs: &Knobs, sf: f64) -> f64 {
        if self.elapsed_seconds == 0.0 {
            return 0.0;
        }
        (knobs.streams * 17 * knobs.rounds * knobs.reps) as f64 * 3600.0 / self.elapsed_seconds * sf
    }

    fn to_json(&self, phase: &str, knobs: &Knobs, sf: f64) -> Json {
        Json::object()
            .field("phase", phase)
            .field("query_streams", knobs.streams)
            .field("rounds", knobs.rounds)
            .field("repetitions", knobs.reps)
            .field("elapsed_seconds", self.elapsed_seconds)
            .field("queries_run", self.queries_run)
            .field("qthd", self.qthd(knobs, sf))
            .field("update_pairs", self.update_pairs)
            .field("retries", self.retries)
            .field("wait_events", waits_json(&self.waits))
    }
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

fn simple_with_retry(c: &mut Client, sql: &str, retries: &AtomicU64) -> Result<u64, String> {
    let mut last = String::new();
    for attempt in 0..MAX_RETRIES {
        match c.simple_query(sql) {
            Ok(rows) => return Ok(rows.rows.len() as u64),
            Err(ClientError::Server(e)) => {
                retries.fetch_add(1, Ordering::Relaxed);
                last = e.0;
                std::thread::sleep(Duration::from_millis(BACKOFF_MS << attempt.min(7)));
            }
            Err(e) => return Err(format!("transport error on '{sql}': {e}")),
        }
    }
    Err(format!("statement kept failing after {MAX_RETRIES} attempts: {last} ({sql})"))
}

fn extended_with_retry(c: &mut Client, sql: &str, retries: &AtomicU64) -> Result<u64, String> {
    if !sql.trim_start().get(..6).is_some_and(|p| p.eq_ignore_ascii_case("SELECT")) {
        return simple_with_retry(c, sql, retries);
    }
    let mut last = String::new();
    for attempt in 0..MAX_RETRIES {
        match c.extended_query(sql, &[]) {
            Ok(rows) => return Ok(rows.rows.len() as u64),
            Err(ClientError::Server(e)) => {
                retries.fetch_add(1, Ordering::Relaxed);
                last = e.0;
                std::thread::sleep(Duration::from_millis(BACKOFF_MS << attempt.min(7)));
            }
            Err(e) => return Err(format!("transport error on '{sql}': {e}")),
        }
    }
    Err(format!("statement kept failing after {MAX_RETRIES} attempts: {last} ({sql})"))
}

/// One query stream over the extended protocol, acting as a dialog work
/// process: each completed query folds one ST03 dialog step into the
/// workload monitor.
#[allow(clippy::too_many_arguments)]
fn query_stream(
    addr: &str,
    stream_id: usize,
    params: &QueryParams,
    rounds: usize,
    retries: &AtomicU64,
    workload: &WorkloadMonitor,
    cal: &Calibration,
) -> Result<u64, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut ran = 0u64;
    for _round in 0..rounds {
        for n in 1..=17 {
            let started = Instant::now();
            for stmt in queries::sql(n, params) {
                let stmt = stmt.replace("revenue0", &format!("revenue0_s{stream_id}"));
                extended_with_retry(&mut c, &stmt, retries)?;
            }
            workload.record(&step_stats(format!("q{n}-{stream_id}"), WpKind::Dialog, started), cal);
            ran += 1;
        }
    }
    c.terminate().map_err(|e| format!("terminate: {e}"))?;
    Ok(ran)
}

/// A completed driver-side step as the dispatcher would report it. The
/// driver is the application tier here, so queue time is zero and the
/// metered database work lives server-side (already in `M$STATEMENTS`).
fn step_stats(name: String, kind: WpKind, started: Instant) -> RequestStats {
    RequestStats {
        name,
        kind,
        worker: "WIRE-0".into(),
        trace_id: 0,
        queue_wait: Duration::ZERO,
        service: started.elapsed(),
        work: MeterSnapshot::default(),
        result: Ok(()),
    }
}

/// UF1/UF2 refresh pairs as wire transactions until the query streams
/// finish; each pair is one ST03 batch step.
fn update_stream(
    addr: &str,
    gen: &DbGen,
    done: &AtomicBool,
    retries: &AtomicU64,
    seq_base: u64,
    workload: &WorkloadMonitor,
    cal: &Calibration,
) -> Result<u64, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut pairs = 0u64;
    while !done.load(Ordering::Relaxed) {
        let seq = seq_base + pairs;
        let (orders, lineitems) = gen.update_stream(seq);
        let lo = orders.iter().map(|o| o.orderkey).min().unwrap_or(0);
        let hi = orders.iter().map(|o| o.orderkey).max().unwrap_or(-1);
        let mut uf1 = vec!["BEGIN".to_string()];
        for o in &orders {
            uf1.push(insert_sql("orders", &schema::order_row(o)));
        }
        for l in &lineitems {
            uf1.push(insert_sql("lineitem", &schema::lineitem_row(l)));
        }
        uf1.push("COMMIT".into());
        let uf2 = vec![
            "BEGIN".to_string(),
            format!("DELETE FROM lineitem WHERE l_orderkey BETWEEN {lo} AND {hi}"),
            format!("DELETE FROM orders WHERE o_orderkey BETWEEN {lo} AND {hi}"),
            "COMMIT".into(),
        ];
        let started = Instant::now();
        for txn in [&uf1, &uf2] {
            let mut attempt = 0;
            'txn: loop {
                for sql in txn.iter() {
                    if let Err(e) = c.simple_query(sql) {
                        match e {
                            ClientError::Server(_) => {
                                attempt += 1;
                                retries.fetch_add(1, Ordering::Relaxed);
                                if attempt >= MAX_RETRIES {
                                    return Err(format!("refresh kept failing: {e}"));
                                }
                                let _ = c.simple_query("ROLLBACK");
                                std::thread::sleep(Duration::from_millis(
                                    BACKOFF_MS << attempt.min(7),
                                ));
                                continue 'txn;
                            }
                            other => return Err(format!("transport error in refresh: {other}")),
                        }
                    }
                }
                break;
            }
        }
        workload.record(&step_stats(format!("refresh-{seq}"), WpKind::Batch, started), cal);
        pairs += 1;
        std::thread::sleep(Duration::from_millis(UPDATE_THINK_MS));
    }
    c.terminate().map_err(|e| format!("terminate: {e}"))?;
    Ok(pairs)
}

fn insert_sql(table: &str, row: &[Value]) -> String {
    let vals: Vec<String> = row.iter().map(r3::opensql::literal).collect();
    format!("INSERT INTO {table} VALUES ({})", vals.join(", "))
}

/// Live monitor: a second-class citizen connection that must nonetheless
/// get answers while the workload saturates the server. Polls every view
/// each sweep until the workload finishes.
fn live_monitor(addr: &str, done: &AtomicBool) -> Result<Json, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("monitor connect: {e}"))?;
    let mut polls = [0u64; VIEWS.len()];
    let mut last_rows = [0u64; VIEWS.len()];
    while !done.load(Ordering::Relaxed) {
        for (i, view) in VIEWS.iter().enumerate() {
            let rows = c
                .simple_query(&format!("SELECT * FROM {view}"))
                .map_err(|e| format!("poll of {view} failed mid-run: {e}"))?;
            polls[i] += 1;
            last_rows[i] = rows.rows.len() as u64;
        }
        std::thread::sleep(Duration::from_millis(MONITOR_POLL_MS));
    }
    c.terminate().map_err(|e| format!("monitor terminate: {e}"))?;
    let mut obj = Json::object();
    for (i, view) in VIEWS.iter().enumerate() {
        if polls[i] == 0 {
            return Err(format!("{view} was never successfully polled mid-run"));
        }
        obj = obj
            .field(view, Json::object().field("polls", polls[i]).field("last_rows", last_rows[i]));
    }
    Ok(obj)
}

struct PhaseRun {
    elapsed_seconds: f64,
    queries_run: u64,
    update_pairs: u64,
    retries: u64,
    waits: WaitSnapshot,
    live_views: Option<Json>,
}

/// One measured run of the workload with the collectors in the given
/// state. `with_live_monitor` additionally runs the polling connection.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    db: &Arc<Database>,
    gen: &DbGen,
    workload: &Arc<WorkloadMonitor>,
    cal: &Calibration,
    sf: f64,
    knobs: &Knobs,
    monitor_on: bool,
    with_live_monitor: bool,
    seq_base: u64,
) -> Result<PhaseRun, String> {
    db.set_monitor_enabled(monitor_on);
    let server = Server::start(Arc::clone(db), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().to_string();
    let params = QueryParams::for_scale(sf);
    let retries = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let waits_before = db.wait_stats().snapshot();
    let started = Instant::now();

    let updater = {
        let (addr, gen, done, retries) = (addr.clone(), *gen, done.clone(), retries.clone());
        let (workload, cal) = (Arc::clone(workload), *cal);
        std::thread::spawn(move || {
            update_stream(&addr, &gen, &done, &retries, seq_base, &workload, &cal)
        })
    };
    let monitor = with_live_monitor.then(|| {
        let (addr, done) = (addr.clone(), done.clone());
        std::thread::spawn(move || live_monitor(&addr, &done))
    });
    let streams: Vec<_> = (0..knobs.streams)
        .map(|sid| {
            let (addr, params, retries) = (addr.clone(), params.clone(), retries.clone());
            let (workload, cal, rounds) = (Arc::clone(workload), *cal, knobs.rounds);
            std::thread::spawn(move || {
                query_stream(&addr, sid, &params, rounds, &retries, &workload, &cal)
            })
        })
        .collect();

    let mut queries_run = 0u64;
    let mut first_err = None;
    for t in streams {
        match t.join().map_err(|_| "query stream panicked".to_string()) {
            Ok(Ok(n)) => queries_run += n,
            Ok(Err(e)) | Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    done.store(true, Ordering::Relaxed);
    let update_pairs = match updater.join().map_err(|_| "update stream panicked".to_string()) {
        Ok(Ok(n)) => n,
        Ok(Err(e)) | Err(e) => {
            first_err = first_err.or(Some(e));
            0
        }
    };
    let live_views = match monitor
        .map(|t| t.join().map_err(|_| "live monitor panicked".to_string()))
        .transpose()
    {
        Ok(r) => match r.transpose() {
            Ok(v) => v,
            Err(e) => {
                first_err = first_err.or(Some(e));
                None
            }
        },
        Err(e) => {
            first_err = first_err.or(Some(e));
            None
        }
    };
    let waits = db.wait_stats().snapshot().since(&waits_before);
    let stats = server.shutdown();
    if let Some(e) = first_err {
        return Err(e);
    }
    if stats.panics != 0 || stats.sessions_active != 0 {
        return Err(format!(
            "phase left the server dirty: {} panics, {} leaked sessions",
            stats.panics, stats.sessions_active
        ));
    }
    Ok(PhaseRun {
        elapsed_seconds: elapsed,
        queries_run,
        update_pairs,
        retries: retries.load(Ordering::Relaxed),
        waits,
        live_views,
    })
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
    let knobs = if smoke { Knobs::smoke() } else { Knobs::full() };
    let gen = DbGen::new(sf);
    // Same benchmark headroom as the server experiment: queued table
    // locks are workload, not deadlocks.
    let config = DbConfig { lock_timeout: Duration::from_secs(120), ..DbConfig::default() };
    let db = Arc::new(Database::new(config));
    let workload = WorkloadMonitor::new();
    db.catalog().register_monitor_view(workload.view());
    let cal = Calibration::default();
    println!("loading TPC-D database at SF {sf} ...");
    schema::load(&db, &gen).map_err(|e| format!("load: {e}"))?;

    println!("warmup: {} streams x 1 round (collectors on, unmeasured)", knobs.streams);
    let warm = Knobs { rounds: 1, reps: 1, ..knobs };
    run_phase(&db, &gen, &workload, &cal, sf, &warm, true, false, 5_000)?;
    workload.reset();
    db.statement_collector().reset();

    let mut off = ModeTotals::default();
    let mut on = ModeTotals::default();
    for rep in 0..knobs.reps {
        for &monitor_on in &[false, true] {
            let mode = if monitor_on { "on" } else { "off" };
            println!(
                "rep {}/{}: collectors {mode} ({} streams x {} rounds)",
                rep + 1,
                knobs.reps,
                knobs.streams,
                knobs.rounds,
            );
            let seq_base = 10_000 + (rep as u64 * 2 + monitor_on as u64) * 10_000;
            let run =
                run_phase(&db, &gen, &workload, &cal, sf, &knobs, monitor_on, false, seq_base)?;
            println!(
                "  elapsed={:.1}s queries={} update_pairs={} retries={}",
                run.elapsed_seconds, run.queries_run, run.update_pairs, run.retries
            );
            let totals = if monitor_on { &mut on } else { &mut off };
            totals.elapsed_seconds += run.elapsed_seconds;
            totals.queries_run += run.queries_run;
            totals.update_pairs += run.update_pairs;
            totals.retries += run.retries;
            totals.waits = totals.waits.plus(&run.waits);
        }
    }

    // The live-view phase is reported separately from the overhead
    // measurement: an active monitor connection is real extra load (its
    // polls are statements too), distinct from the cost of the always-on
    // collectors.
    println!("live phase: collectors on + monitor connection polling all {} views", VIEWS.len());
    let live_knobs = Knobs { reps: 1, ..knobs };
    let live_run = run_phase(&db, &gen, &workload, &cal, sf, &live_knobs, true, true, 90_000)?;
    println!(
        "  elapsed={:.1}s queries={} update_pairs={}",
        live_run.elapsed_seconds, live_run.queries_run, live_run.update_pairs
    );
    let live_views = live_run.live_views.clone().ok_or("live monitor never ran")?;
    let live_totals = ModeTotals {
        elapsed_seconds: live_run.elapsed_seconds,
        queries_run: live_run.queries_run,
        update_pairs: live_run.update_pairs,
        retries: live_run.retries,
        waits: live_run.waits,
    };

    println!("diagnosis: blind-plan lock wait watched live (§4.1)");
    let diagnosis = run_lock_diagnosis(&db)?;

    let qthd_off = off.qthd(&knobs, sf);
    let qthd_on = on.qthd(&knobs, sf);
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
         summed elapsed time.",
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
                off.to_json("collectors_off", &knobs, sf),
                on.to_json("collectors_on", &knobs, sf),
                live_totals.to_json("collectors_on_with_live_monitor", &live_knobs, sf),
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
