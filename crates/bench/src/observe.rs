//! The wire, live-monitoring and request-tracing experiment
//! (`BENCH_observe.json`).
//!
//! The monitoring and tracing subsystems are only worth shipping always-on
//! if watching costs (almost) nothing and what they show answers the
//! questions the paper's DBAs asked; §4's release contrast is only worth
//! reporting if it holds over real sockets. One run, on one loaded
//! database, measures all of it:
//!
//! 1. **overhead** — TPC-D query streams plus a UF1/UF2 update stream run
//!    twice per repetition over the wire, once with
//!    the collectors disabled (`Database::set_monitor_enabled(false)`:
//!    wait timers, the statement collector, Exec timing and request
//!    traces) and once enabled. Repetitions alternate off/on so cache
//!    warm-up and machine drift hit both modes equally (the
//!    [`crate::wire`] driver's repetition loop). The headline number is
//!    the median over repetitions of the collectors-on / collectors-off
//!    QthD ratio; the acceptance bar is a delta under 3%.
//! 2. **liveness** — a dedicated collectors-on phase runs the same
//!    workload while a separate monitor connection polls all eight `M$`
//!    views over the same wire protocol. Every poll must succeed mid-run,
//!    and every fetched `M$TRACES` row's critical-path segments must sum
//!    to its `END_TO_END_US`. This phase is reported separately from the
//!    overhead comparison because an active monitor connection is real
//!    extra load, not collector cost.
//! 3. **export** — the live phase's trace ring is exported as Chrome
//!    trace-event JSON (loadable in chrome://tracing / Perfetto), written
//!    under `target/experiments/` and re-parsed with the vendored JSON
//!    parser plus [`trace::request::validate_chrome_trace`] before the
//!    experiment is allowed to pass.
//! 4. **protocols** — §4's OPEN (Release 2.2G) vs REOPEN (3.0E) over real
//!    sockets: the simple protocol, then the extended one through the
//!    shared plan cache, whose hit ratio must clear 90 %.
//! 5. **stress** — 120 connections open at once, 15 dropping
//!    mid-transaction; the server must roll those back and leak nothing.
//! 6. **diagnosis** — the §4.1 blind-plan scenario replayed as a DBA would
//!    see it: an update transaction parks on one supplier row, a reader
//!    with a non-selective predicate (the "blind" plan: no usable index, so
//!    a full scan behind a table S lock) blocks behind it, and the monitor
//!    connection watches the queue form in `M$LOCKS`, the lock-wait time
//!    accumulate in `M$WAIT_EVENTS`, and — after the holder commits — the
//!    wait land on the guilty statement in `M$STATEMENTS`.
//! 7. **attribution** — three R/3 configurations driven through the
//!    dispatcher, each decomposed whole-run and at the p99 tail:
//!    * `blind_plan` replays §4.1 per request: readers with a non-selective
//!      predicate full-scan behind an update transaction's row lock, so
//!      the tail is lock+exec dominated.
//!    * `open_sql_2_2` / `open_sql_3_0` run KONV-touching reports through
//!      Open SQL on Release 2.2G vs 3.0E. The 2.2 cluster decode and its
//!      extra interface crossings happen on the application server, so
//!      the crossing gap surfaces as app-server-segment dominance.
//!
//! `M$WORKLOAD` is fed the way an R/3 application server would feed it:
//! the driver threads play the work processes, and the driver's per-step
//! callback folds one [`RequestStats`] per dialog step (query) and batch
//! step (refresh pair) into a [`WorkloadMonitor`] registered on the served
//! database.
//!
//! Baseline gating (see `diff.rs`) reads the `comparison` object: the QthD
//! ratio one-sided, the attribution *fractions* two-sided — they are
//! dimensionless and survive hardware changes, unlike absolute
//! microseconds.

use crate::wire::{self, Knobs, ModeTotals, Phase, PolledView, Protocol, Step};
use r3::dispatcher::{Dispatcher, DispatcherConfig, RequestStats, WpKind};
use r3::reports::{self, SapInterface};
use r3::workload::WorkloadMonitor;
use r3::{R3System, Release};
use rdbms::{CriticalPath, Database, DbResult, RequestTrace, Value, WaitEvent, WaitSnapshot};
use serde_json::Json;
use server::{Client, Server, ServerConfig, StatsSnapshot};
use std::collections::HashMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tpcd::dbgen::DbGen;
use tpcd::queries::QueryParams;
use trace::meter::{Calibration, MeterSnapshot};

/// The six system views polled with `SELECT *` by the live monitor, in
/// this order, before `M$TRACES` and `M$SPANS`.
const VIEWS: [&str; 6] =
    ["M$WAIT_EVENTS", "M$STATEMENTS", "M$SESSIONS", "M$LOCKS", "M$WORKLOAD", "M$PLAN_CACHE"];

/// The columns of M$TRACES whose values must partition END_TO_END_US.
const SEGMENT_COLS: [&str; 6] =
    ["DISPATCH_QUEUE_US", "LOCK_US", "WAL_FLUSH_US", "GROUP_COMMIT_US", "EXEC_US", "APP_SERVER_US"];

/// How long each blind-plan update transaction holds its row lock.
const BLIND_HOLD_MS: u64 = 8;

/// Dialog steps of the blind-plan configuration, smoke runs included: at
/// 32 steps a smoke run's `blind_lock_fraction` strayed 0.13 from the
/// baseline, and a step costs ~10-30 ms.
const BLIND_STEPS: usize = 192;

/// How many dialog steps are in flight at once during the attribution
/// configurations. Matched to the work-process count: submission is
/// closed-loop, so the dispatch-queue segment reflects scheduling, not a
/// flood of offered load drowning every other segment.
const DIALOG_WIDTH: usize = 2;

/// The protocol phases' workload. At 8 streams x 4 rounds the plan-cache
/// hit ratio clears 90 %: the only repeat misses are Q15's per-stream view
/// plans (invalidated by its own CREATE/DROP VIEW churn), so the expected
/// ratio is `1 - (16 + S*R) / (17*S*R)`.
const PROTOCOL_KNOBS: Knobs = Knobs { streams: 8, rounds: 4, reps: 1 };

/// Connections held open at once in the stress phase.
const STRESS_CONNS: usize = 120;

/// Every `STRESS_DROP_EVERY`-th stress connection drops mid-transaction
/// instead of terminating cleanly.
const STRESS_DROP_EVERY: usize = 8;

/// QthD over the summed elapsed time of one mode's repetitions.
fn qthd(t: &ModeTotals, knobs: &Knobs, sf: f64) -> f64 {
    let elapsed = t.elapsed_seconds();
    if elapsed == 0.0 {
        return 0.0;
    }
    (knobs.streams * 17 * knobs.rounds * knobs.reps) as f64 * 3600.0 / elapsed * sf
}

/// Each repetition's collectors-on QthD over its collectors-off QthD. Both
/// phases of a repetition run the same queries, so that is off-seconds
/// over on-seconds.
fn on_over_off_per_rep(off: &ModeTotals, on: &ModeTotals) -> Vec<f64> {
    off.phase_seconds
        .iter()
        .zip(&on.phase_seconds)
        .filter(|&(_, &on)| on > 0.0)
        .map(|(off, on)| off / on)
        .collect()
}

/// The median of `xs` (the mean of the middle two for an even count; 0
/// when empty).
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

fn mode_json(t: &ModeTotals, phase: &str, knobs: &Knobs, sf: f64) -> Json {
    Json::object()
        .field("phase", phase)
        .field("query_streams", knobs.streams)
        .field("rounds", knobs.rounds)
        .field("repetitions", knobs.reps)
        .field("elapsed_seconds", t.elapsed_seconds())
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

/// The partition invariant on one `END_TO_END_US, <SEGMENT_COLS>` row of
/// M$TRACES fetched over the wire.
fn segments_sum_to_end_to_end(row: &[Value]) -> Result<(), String> {
    let ints: Vec<i64> = row
        .iter()
        .map(|v| match v {
            Value::Int(i) => Ok(*i),
            other => Err(format!("non-integer in M$TRACES row: {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    let (e2e, segs) = (ints[0], &ints[1..]);
    let sum: i64 = segs.iter().sum();
    if sum != e2e {
        return Err(format!(
            "M$TRACES partition violated over the wire: segments {segs:?} \
             sum to {sum}, END_TO_END_US is {e2e}"
        ));
    }
    Ok(())
}

/// What the live monitor polls: the six views whole, `M$TRACES` with the
/// partition check on every row, and `M$SPANS`.
fn live_views() -> Vec<PolledView> {
    let all = |view| PolledView { view, sql: format!("SELECT * FROM {view}"), check_row: None };
    VIEWS
        .into_iter()
        .map(all)
        .chain([
            PolledView {
                view: "M$TRACES",
                sql: format!("SELECT END_TO_END_US, {} FROM M$TRACES", SEGMENT_COLS.join(", ")),
                check_row: Some(segments_sum_to_end_to_end),
            },
            PolledView {
                view: "M$SPANS",
                sql: "SELECT TRACE_ID, SPAN_ID, ELAPSED_US FROM M$SPANS".into(),
                check_row: None,
            },
        ])
        .collect()
}

/// Export the ring as Chrome trace-event JSON, write it, and prove the
/// written bytes re-parse and validate.
fn export_chrome(db: &Database, path: &str) -> Result<Json, String> {
    let traces = db.trace_ring().snapshot();
    if traces.is_empty() {
        return Err("nothing to export: trace ring is empty".into());
    }
    let doc = trace::request::chrome_trace_json(&traces);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| format!("serialize: {e}"))?;
    fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
    // Round-trip through the parser: what a browser will load is what we
    // validate, not the in-memory value we happened to serialize.
    let reparsed = serde_json::from_str(&text).map_err(|e| format!("re-parse {path}: {e}"))?;
    let events = trace::request::validate_chrome_trace(&reparsed)?;
    Ok(Json::object()
        .field("path", path)
        .field("events", events as u64)
        .field("traces", traces.len() as u64)
        .field("validated", true))
}

fn stats_json(s: &StatsSnapshot) -> Json {
    Json::object()
        .field("sessions_opened", s.sessions_opened)
        .field("sessions_leaked", s.sessions_active)
        .field("simple_queries", s.simple_queries)
        .field("extended_executes", s.extended_executes)
        .field("protocol_errors", s.protocol_errors)
        .field("disconnect_rollbacks", s.disconnect_rollbacks)
        .field("panics", s.panics)
}

/// Client message names by tag byte, in tag order.
const MESSAGES: [(u8, &str); 7] = [
    (b'B', "Bind"),
    (b'C', "Close"),
    (b'E', "Execute"),
    (b'P', "Parse"),
    (b'Q', "Query"),
    (b'S', "Sync"),
    (b'X', "Terminate"),
];

/// Per-message-type service time, keyed by message name.
fn latency_json(hists: &HashMap<u8, Arc<trace::Histogram>>) -> Json {
    MESSAGES
        .iter()
        .filter_map(|(tag, name)| Some((name, hists.get(tag)?)))
        .fold(Json::object(), |obj, (name, hist)| obj.field(name, hist.to_json("us")))
}

/// One protocol phase at [`PROTOCOL_KNOBS`], collectors on, against a fresh
/// server. Returns its JSON (the overhead phases' fields plus plan-cache
/// counters, server statistics and per-message latency), its QthD and its
/// plan-cache hit ratio.
fn run_protocol_phase(
    db: &Arc<Database>,
    gen: &DbGen,
    sf: f64,
    protocol: Protocol,
    seq_base: u64,
) -> Result<(Json, f64, f64), String> {
    let knobs = PROTOCOL_KNOBS;
    let phase = Phase {
        streams: knobs.streams,
        rounds: knobs.rounds,
        protocol,
        monitor: true,
        seq_base,
        poller: None,
        on_step: None,
    };
    let run = wire::run_phase(db, gen, sf, &phase)?;
    let mut totals = ModeTotals::default();
    totals.add(&run);
    let (qthd, hit_ratio) = (qthd(&totals, &knobs, sf), run.work.plan_cache_hit_ratio());
    println!("  qthd={qthd:.1} hit_ratio={hit_ratio:.3}");
    let name = format!("{protocol:?}").to_lowercase();
    let json = mode_json(&totals, &name, &knobs, sf)
        .field(
            "plan_cache",
            Json::object()
                .field("hits", run.work.plan_cache_hits())
                .field("misses", run.work.plan_cache_misses())
                .field("evictions", run.work.plan_cache_evictions())
                .field("hit_ratio", hit_ratio),
        )
        .field("server", stats_json(&run.stats))
        .field("latency_us", latency_json(&run.latency));
    Ok((json, qthd, hit_ratio))
}

/// The stress phase: [`STRESS_CONNS`] connections all held open at once
/// (seen server-side before any workload runs), each running a small mixed
/// workload over both protocols. Every [`STRESS_DROP_EVERY`]-th connection
/// drops mid-transaction; the server must roll each of those back.
fn run_stress(db: &Arc<Database>, n_suppliers: i64) -> Result<Json, String> {
    let server = Server::start(Arc::clone(db), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().to_string();
    // All workers plus the coordinator: workers connect, then wait at the
    // barrier until the coordinator has seen every session open.
    let barrier = Arc::new(Barrier::new(STRESS_CONNS + 1));

    // Each worker returns how many of its lookups did not find one row.
    let workers: Vec<_> = (0..STRESS_CONNS)
        .map(|i| {
            let (addr, barrier) = (addr.clone(), barrier.clone());
            std::thread::spawn(move || -> Result<u64, String> {
                let mut c = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
                barrier.wait();
                let nation = (i % 25) as i64;
                let supp = (i as i64 % n_suppliers) + 1;
                let mut errors = 0;
                for _ in 0..3 {
                    let rows = c
                        .extended_query(
                            "SELECT n_name FROM nation WHERE n_nationkey = ?",
                            &[Value::Int(nation)],
                        )
                        .map_err(|e| format!("extended: {e}"))?;
                    errors += u64::from(rows.rows.len() != 1);
                    c.simple_query("SELECT r_name FROM region WHERE r_regionkey = 3")
                        .map_err(|e| format!("simple: {e}"))?;
                    c.simple_query("BEGIN").map_err(|e| format!("begin: {e}"))?;
                    c.simple_query(&format!(
                        "UPDATE supplier SET s_acctbal = s_acctbal + 0 WHERE s_suppkey = {supp}"
                    ))
                    .map_err(|e| format!("update: {e}"))?;
                    if i % STRESS_DROP_EVERY == 0 {
                        // Abandon the connection mid-transaction: the
                        // server must roll back and release the row lock.
                        return Ok(errors);
                    }
                    c.simple_query("COMMIT").map_err(|e| format!("commit: {e}"))?;
                }
                c.terminate().map_err(|e| format!("terminate: {e}"))?;
                Ok(errors)
            })
        })
        .collect();

    // Every connection must be open at the same time before the workload
    // starts: that is what "N concurrent connections" certifies.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut peak = 0;
    while peak < STRESS_CONNS as u64 {
        peak = peak.max(server.stats().sessions_active);
        if Instant::now() > deadline {
            return Err(format!("only {peak}/{STRESS_CONNS} sessions came up"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    barrier.wait();

    let (mut first_err, mut errors) = (None, 0);
    for t in workers {
        match t.join().map_err(|_| "stress worker panicked".to_string()) {
            Ok(Ok(n)) => errors += n,
            Ok(Err(e)) | Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    let stats = server.shutdown();
    if let Some(e) = first_err {
        return Err(e);
    }
    let expected_drops = STRESS_CONNS.div_ceil(STRESS_DROP_EVERY) as u64;
    if stats.panics != 0 || stats.sessions_active != 0 {
        return Err(format!(
            "stress left the server dirty: {} panics, {} leaked sessions",
            stats.panics, stats.sessions_active
        ));
    }
    if stats.disconnect_rollbacks != expected_drops {
        return Err(format!(
            "expected {expected_drops} disconnect rollbacks, saw {}",
            stats.disconnect_rollbacks
        ));
    }
    Ok(Json::object()
        .field("connections", STRESS_CONNS)
        .field("peak_concurrent_sessions", peak)
        .field("deliberate_mid_txn_drops", expected_drops)
        .field("result_errors", errors)
        .field("server", stats_json(&stats)))
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

/// Attribution rollup for one batch of traces: summed critical paths,
/// whole run and p99 tail (every trace at or above the p99 latency).
struct Attribution {
    requests: usize,
    p99_us: u64,
    mean_us: f64,
    total: CriticalPath,
    tail: CriticalPath,
}

impl Attribution {
    /// Fold traces into totals, re-asserting the partition invariant on
    /// every one of them — an exported trace whose segments do not sum to
    /// its end-to-end latency fails the whole experiment.
    fn compute(traces: &[Arc<RequestTrace>]) -> Result<Attribution, String> {
        if traces.is_empty() {
            return Err("attribution over zero traces".into());
        }
        let mut e2e: Vec<u64> = traces.iter().map(|t| t.end_to_end_us()).collect();
        e2e.sort_unstable();
        let p99_idx = ((e2e.len() as f64 * 0.99).ceil() as usize).clamp(1, e2e.len()) - 1;
        let p99_us = e2e[p99_idx];
        let mut a = Attribution {
            requests: traces.len(),
            p99_us,
            mean_us: e2e.iter().sum::<u64>() as f64 / e2e.len() as f64,
            total: CriticalPath::default(),
            tail: CriticalPath::default(),
        };
        let add = |sum: &mut CriticalPath, p: &CriticalPath| {
            sum.end_to_end_us += p.end_to_end_us;
            sum.app_server_us += p.app_server_us;
            sum.segments.iter_mut().zip(p.segments).for_each(|(s, x)| *s += x);
        };
        for t in traces {
            let p = t.critical_path();
            if p.sum_us() != t.end_to_end_us() {
                return Err(format!(
                    "trace {} violates the partition: segments sum to {}, \
                     end-to-end is {}",
                    t.trace_id,
                    p.sum_us(),
                    t.end_to_end_us()
                ));
            }
            add(&mut a.total, &p);
            if t.end_to_end_us() >= p99_us {
                add(&mut a.tail, &p);
            }
        }
        Ok(a)
    }

    fn fractions_json(p: &CriticalPath) -> Json {
        WaitEvent::ALL
            .into_iter()
            .fold(Json::object(), |obj, ev| {
                obj.field(&format!("{}_fraction", ev.name()), p.fraction(ev))
            })
            .field("app_server_fraction", p.app_server_fraction())
    }

    fn to_json(&self, name: &str, detail: &str) -> Json {
        Json::object()
            .field("configuration", name)
            .field("detail", detail)
            .field("requests", self.requests as u64)
            .field("p99_end_to_end_us", self.p99_us)
            .field("mean_end_to_end_us", self.mean_us)
            .field("attribution", Self::fractions_json(&self.total))
            .field("p99_tail", Self::fractions_json(&self.tail))
    }
}

/// Run `steps` dialog steps through a dispatcher on `sys`, closed-loop at
/// [`DIALOG_WIDTH`] in flight, and attribute their traces.
fn dialog_steps<J>(
    sys: &Arc<R3System>,
    steps: usize,
    step: impl Fn(usize) -> (String, J),
) -> Result<Attribution, String>
where
    J: FnOnce(&R3System) -> DbResult<()> + Send + 'static,
{
    let dispatcher = Dispatcher::start(
        Arc::clone(sys),
        DispatcherConfig { dialog_processes: DIALOG_WIDTH, batch_processes: 0 },
    );
    let mut stats: Vec<RequestStats> = Vec::with_capacity(steps);
    let mut pending = Vec::with_capacity(DIALOG_WIDTH);
    for i in 0..steps {
        let (name, job) = step(i);
        pending.push(dispatcher.submit(WpKind::Dialog, name, job));
        if pending.len() == DIALOG_WIDTH {
            stats.extend(pending.drain(..).map(|h| h.wait()));
        }
    }
    stats.extend(pending.drain(..).map(|h| h.wait()));
    dispatcher.shutdown();
    let ring = sys.db.trace_ring();
    let traces = stats
        .iter()
        .map(|s| {
            if let Err(e) = &s.result {
                return Err(format!("{} request '{}' failed: {e}", sys.release, s.name));
            }
            if s.trace_id == 0 {
                return Err(format!("request '{}' was not traced", s.name));
            }
            ring.get(s.trace_id).ok_or_else(|| {
                format!("trace {} for '{}' fell out of the ring", s.trace_id, s.name)
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Attribution::compute(&traces)
}

/// §4.1 as the trace view sees it: dialog readers whose blind plan full
/// scans behind an update transaction's row lock.
fn run_blind_config(steps: usize) -> Result<Attribution, String> {
    let sys = Arc::new(R3System::install_default(Release::R30).map_err(|e| e.to_string())?);
    sys.db
        .execute("CREATE TABLE blind_acct (k INTEGER, bal INTEGER)")
        .map_err(|e| e.to_string())?;
    let vals: Vec<String> = (0..256).map(|k| format!("({k}, {})", k * 10)).collect();
    sys.db
        .execute(&format!("INSERT INTO blind_acct VALUES {}", vals.join(", ")))
        .map_err(|e| e.to_string())?;

    let done = Arc::new(AtomicBool::new(false));
    let holder = {
        let (sys, done) = (Arc::clone(&sys), done.clone());
        std::thread::spawn(move || -> Result<(), String> {
            while !done.load(Ordering::Relaxed) {
                let mut txn = sys.db.begin();
                txn.execute("UPDATE blind_acct SET bal = bal + 1 WHERE k = 1")
                    .map_err(|e| e.to_string())?;
                std::thread::sleep(Duration::from_millis(BLIND_HOLD_MS));
                txn.commit().map_err(|e| e.to_string())?;
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        })
    };
    let attribution = dialog_steps(&sys, steps, |i| {
        let job = |sys: &R3System| {
            // No index helps `bal > -1`, so the read transaction's full
            // scan takes a table S lock that queues behind the updater's
            // exclusive lock. (A bare `Database::query` takes no locks at
            // all — only the transaction path replays §4.1.)
            let mut txn = sys.db.begin();
            txn.execute("SELECT COUNT(*) FROM blind_acct WHERE bal > -1")?;
            txn.commit()?;
            Ok(())
        };
        (format!("blind-{i}"), job)
    });
    done.store(true, Ordering::Relaxed);
    holder.join().map_err(|_| "lock holder panicked".to_string())??;
    attribution
}

/// KONV-touching reports through Open SQL on the given release, driven as
/// dispatcher dialog steps.
fn run_release_config(
    release: Release,
    gen: &DbGen,
    sf: f64,
    steps: usize,
) -> Result<Attribution, String> {
    let sys = Arc::new(R3System::install_default(release).map_err(|e| e.to_string())?);
    sys.load_tpcd(gen).map_err(|e| e.to_string())?;
    let params = QueryParams::for_scale(sf);
    // Q6 and Q14 both price through KONV — the tables the 2.2 cluster
    // encapsulates — and are cheap enough to run as dialog steps.
    let queries = [6usize, 14];
    dialog_steps(&sys, steps, |i| {
        let n = queries[i % queries.len()];
        let params = params.clone();
        let job = move |sys: &R3System| {
            reports::run_query_rows(sys, SapInterface::Open, n, &params)?;
            Ok(())
        };
        (format!("q{n}-{i}"), job)
    })
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
/// live-view, export, protocol, stress, diagnosis and attribution phases,
/// and return the `BENCH_observe.json` document.
pub fn run_observe_experiment(sf: f64, smoke: bool) -> Result<Json, String> {
    // Off/on alternate in many short repetitions of one round each, and
    // the gate reads the median of their ratios: one phase slowed by a
    // retry's backoff or a busy neighbour then moves no gated number.
    // `steps` is the dialog-step count per Open SQL configuration; the
    // smoke run still takes enough requests that the p99 tail is a real
    // trace and the attribution fractions are not single-sample noise.
    let (knobs, steps) = if smoke {
        (Knobs { streams: 2, rounds: 1, reps: 8 }, 32)
    } else {
        (Knobs { streams: 4, rounds: 1, reps: 6 }, 96)
    };
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

    let [off, on] = wire::off_on_repetitions(&db, &gen, sf, &knobs, &fold)?;

    // The live-view phase is reported separately from the overhead
    // measurement: an active monitor connection is real extra load (its
    // polls are statements too), distinct from the cost of the always-on
    // collectors. Its trace ring is what the export below holds.
    let views = live_views();
    println!("live phase: collectors on + monitor connection polling all {} views", views.len());
    db.trace_ring().clear();
    let traced_before = db.trace_ring().completed();
    let live_knobs = Knobs { rounds: 2, reps: 1, ..knobs };
    let live_phase = Phase {
        streams: live_knobs.streams,
        rounds: live_knobs.rounds,
        protocol: Protocol::Extended,
        monitor: true,
        seq_base: 90_000,
        poller: Some(&views),
        on_step: Some(&fold),
    };
    let live_run = wire::run_phase(&db, &gen, sf, &live_phase)?;
    let polled = live_run.polled.as_ref().ok_or("live monitor never ran")?;
    let traced_requests = db.trace_ring().completed() - traced_before;
    if traced_requests == 0 || polled.rows_checked == 0 {
        return Err(format!(
            "live phase traced {traced_requests} requests and partition-checked {} \
             M$TRACES rows; both must be non-zero",
            polled.rows_checked
        ));
    }
    let live_views = polled
        .to_json()
        .field("rows_sum_checked", polled.rows_checked)
        .field("traced_requests", traced_requests);
    let mut live_totals = ModeTotals::default();
    live_totals.add(&live_run);

    let chrome_path = if smoke {
        "target/experiments/OBSERVE_chrome_smoke.json"
    } else {
        "target/experiments/OBSERVE_chrome.json"
    };
    let chrome = export_chrome(&db, chrome_path)?;
    println!("chrome trace written to {chrome_path}");

    let Knobs { streams, rounds, .. } = PROTOCOL_KNOBS;
    println!("protocols: simple ({streams} query streams x {rounds} rounds + update stream)");
    let (simple, qthd_simple, _) = run_protocol_phase(&db, &gen, sf, Protocol::Simple, 100_000)?;
    println!("protocols: extended (same workload via Parse/Bind/Execute)");
    let (extended, qthd_extended, hit_ratio) =
        run_protocol_phase(&db, &gen, sf, Protocol::Extended, 110_000)?;
    if hit_ratio <= 0.9 {
        return Err(format!(
            "extended-protocol plan-cache hit ratio {hit_ratio:.3} is not above 0.9"
        ));
    }
    let extended_over_simple = if qthd_simple > 0.0 { qthd_extended / qthd_simple } else { 0.0 };
    println!("stress: {STRESS_CONNS} concurrent connections, mixed workload");
    let stress = run_stress(&db, gen.n_suppliers())?;
    let wire_protocols = Json::object()
        .field("phases", Json::Array(vec![simple, extended]))
        .field("extended_beats_simple", qthd_extended > qthd_simple)
        .field("stress", stress);

    println!("diagnosis: blind-plan lock wait watched live (§4.1)");
    let diagnosis = run_lock_diagnosis(&db)?;

    println!("blind-plan configuration ({BLIND_STEPS} dialog steps)");
    let blind = run_blind_config(BLIND_STEPS)?;
    println!("Open SQL 2.2G configuration ({steps} dialog steps)");
    let r22 = run_release_config(Release::R22, &gen, sf, steps)?;
    println!("Open SQL 3.0E configuration ({steps} dialog steps)");
    let r30 = run_release_config(Release::R30, &gen, sf, steps)?;
    for (name, a) in [("blind", &blind), ("2.2G", &r22), ("3.0E", &r30)] {
        println!(
            "  {name}: p99={}us queue={:.2} lock={:.2} exec={:.2} app={:.2}",
            a.p99_us,
            a.total.fraction(WaitEvent::DispatchQueue),
            a.total.fraction(WaitEvent::Lock),
            a.total.fraction(WaitEvent::Exec),
            a.total.app_server_fraction()
        );
    }

    // The two attribution claims must actually hold.
    let blind_lock_exec =
        blind.total.fraction(WaitEvent::Lock) + blind.total.fraction(WaitEvent::Exec);
    if blind_lock_exec <= 0.5 {
        return Err(format!(
            "blind-plan tail is not lock+exec dominated: fraction {blind_lock_exec:.3}"
        ));
    }
    if r22.total.app_server_fraction() <= r30.total.app_server_fraction() {
        return Err(format!(
            "2.2G app-server share {:.3} did not exceed 3.0E's {:.3}: the crossing \
             gap should surface as app-server time",
            r22.total.app_server_fraction(),
            r30.total.app_server_fraction()
        ));
    }

    let qthd_off = qthd(&off, &knobs, sf);
    let qthd_on = qthd(&on, &knobs, sf);
    let rep_ratios = on_over_off_per_rep(&off, &on);
    let on_over_off = median(&rep_ratios);
    let overhead = 1.0 - on_over_off;
    println!(
        "qthd collectors-off={qthd_off:.1} collectors-on={qthd_on:.1} \
         median on/off={on_over_off:.3} overhead={:.2}%",
        overhead * 100.0
    );

    let notes = [
        "Collectors-off disables wait-event timers, the statement collector, \
         Exec timing and request traces via Database::set_monitor_enabled(false); \
         the M$ views stay queryable but stop accumulating.",
        "Off/on repetitions of one round each alternate after a warmup round so \
         cache state and machine drift hit both modes equally. on_over_off is the \
         median over repetitions of that repetition's collectors-on QthD over its \
         collectors-off QthD (per_repetition_on_off lists them); qthd_collectors_* \
         are computed over each mode's summed elapsed time. A phase's elapsed time \
         ends when its query streams finish; the update stream's wind-down is not \
         counted.",
        "The live-view phase runs separately from the overhead measurement: an \
         active monitor connection polling all eight M$ views is real extra load, \
         distinct from collector cost. A single failed poll, or one fetched \
         M$TRACES row whose segments do not sum to END_TO_END_US, fails the \
         experiment.",
        "The Chrome export holds the live phase's trace ring and loads in \
         chrome://tracing or Perfetto: one track per request (tid = trace id), \
         complete events for spans and wait intervals.",
        "The diagnosis phase replays §4.1: a blind full-scan reader queues behind \
         an update transaction, visible as a WAITING row in M$LOCKS and then as \
         LOCK_US on the statement's M$STATEMENTS row.",
        "Critical-path rule: each microsecond of a request belongs to the \
         latest-starting wait interval covering it, remainder to the app server; \
         segments provably sum to end-to-end latency (re-asserted on every trace \
         this experiment touches, in-process and over the wire).",
        "The blind_plan configuration replays §4.1 per request: full-scan readers \
         queue behind an update transaction's row lock, so the tail is lock+exec \
         dominated. The 2.2G-vs-3.0E pair prices through KONV via Open SQL; the \
         2.2 cluster decode runs on the application server, so the crossing gap \
         shows as app-server-segment dominance. Fractions, not absolute \
         microseconds, are what benchdiff gates.",
        "wire_protocols: simple = literal SQL per call (OPEN, release 2.2G); extended \
         = Parse/Bind/Execute through the shared plan cache (REOPEN, release 3.0E). \
         Q15's per-stream view DDL is why the hit ratio stays below 1 - 16/(17*S*R).",
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
                .field(
                    "per_repetition_on_off",
                    Json::Array(rep_ratios.iter().map(|&r| Json::from(r)).collect()),
                )
                .field("overhead_fraction", overhead)
                .field("overhead_under_3pct", overhead < 0.03)
                .field("extended_over_simple", extended_over_simple)
                .field("blind_lock_fraction", blind.total.fraction(WaitEvent::Lock))
                .field("blind_exec_fraction", blind.total.fraction(WaitEvent::Exec))
                .field("blind_app_server_fraction", blind.total.app_server_fraction())
                .field("r22_app_server_fraction", r22.total.app_server_fraction())
                .field("r30_app_server_fraction", r30.total.app_server_fraction())
                .field("r22_app_server_dominant", true)
                .field("blind_lock_exec_dominant", true),
        )
        .field("wire_protocols", wire_protocols)
        .field("live_views", live_views)
        .field("chrome_export", chrome)
        .field("lock_diagnosis", diagnosis)
        .field(
            "configurations",
            Json::Array(vec![
                blind.to_json("blind_plan", "§4.1 full scan behind a row lock (R30)"),
                r22.to_json("open_sql_2_2", "Open SQL reports, Release 2.2G (KONV cluster)"),
                r30.to_json("open_sql_3_0", "Open SQL reports, Release 3.0E (transparent KONV)"),
            ]),
        )
        .field("statements_top", statements_top_json(&db, 10))
        .field("workload", workload.to_json()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_over_off_is_the_median_of_per_repetition_ratios() {
        let mode =
            |secs: &[f64]| ModeTotals { phase_seconds: secs.to_vec(), ..ModeTotals::default() };
        // One slow collectors-on phase: the ratio of totals would read 0.75.
        let ratios = on_over_off_per_rep(&mode(&[1.0, 2.0, 3.0]), &mode(&[1.0, 1.0, 6.0]));
        assert_eq!(ratios, [1.0, 2.0, 0.5]);
        assert_eq!(median(&ratios), 1.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
