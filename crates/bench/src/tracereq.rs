//! The end-to-end request-tracing experiment (`BENCH_tracereq.json`).
//!
//! PR 9's tracing subsystem claims that every request's latency can be
//! decomposed into provably-complete critical-path segments (dispatch
//! queue, lock, WAL flush, group-commit wait, exec, and the app-server
//! remainder) and that the decomposition answers the paper's two headline
//! diagnosis questions. This experiment measures both:
//!
//! 1. **liveness + overhead** — the TPC-D query streams plus a refresh
//!    stream run over the wire server while a monitor connection polls
//!    `M$TRACES` and `M$SPANS` mid-run; every poll must succeed and every
//!    fetched trace row's segment columns must sum to `END_TO_END_US`.
//!    The same workload first runs alternating monitor-off/monitor-on
//!    repetitions (the [`crate::wire`] driver's loop, shared with the
//!    observe experiment); the headline number is the on/off throughput
//!    ratio with the 3% overhead acceptance bar.
//! 2. **attribution** — three R/3 configurations driven through the
//!    dispatcher, each decomposed at the p99 tail:
//!    * `blind_plan` replays §4.1: readers with a non-selective predicate
//!      full-scan behind an update transaction's row lock — the tail is
//!      lock+exec dominated, the smoking gun a DBA would see.
//!    * `open_sql_2_2` / `open_sql_3_0` run KONV-touching reports through
//!      Open SQL on Release 2.2G vs 3.0E. The 2.2 cluster decode and its
//!      extra interface crossings happen on the application server, so
//!      the crossing gap surfaces as app-server-segment dominance.
//! 3. **export** — the live phase's trace ring is exported as Chrome
//!    trace-event JSON (loadable in chrome://tracing / Perfetto), written
//!    under `target/experiments/` and re-parsed with the vendored JSON
//!    parser plus [`trace::request::validate_chrome_trace`] before the
//!    experiment is allowed to pass.
//!
//! Baseline gating is ratio/fraction-based (see `diff.rs`): attribution
//! *fractions* are dimensionless and hardware-independent, so CI compares
//! them two-sided against the committed baseline instead of gating on
//! absolute microseconds.

use crate::wire::{self, Knobs, Phase, PolledView, Protocol};
use r3::dispatcher::{Dispatcher, DispatcherConfig, RequestStats, WpKind};
use r3::reports::{self, SapInterface};
use r3::{R3System, Release};
use rdbms::{Database, RequestTrace, Value, WaitEvent};
use serde_json::Json;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tpcd::dbgen::DbGen;
use tpcd::queries::QueryParams;

/// How long each blind-plan update transaction holds its row lock.
const BLIND_HOLD_MS: u64 = 8;

/// The columns of M$TRACES whose values must partition END_TO_END_US.
const SEGMENT_COLS: [&str; 6] =
    ["DISPATCH_QUEUE_US", "LOCK_US", "WAL_FLUSH_US", "GROUP_COMMIT_US", "EXEC_US", "APP_SERVER_US"];

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

/// Attribution rollup for one batch of traces: summed critical-path
/// segments plus the p99 tail (every trace at or above the p99 latency).
struct Attribution {
    requests: usize,
    p99_us: u64,
    mean_us: f64,
    total_e2e_us: u64,
    total_segments: [u64; WaitEvent::COUNT],
    total_app_us: u64,
    tail_e2e_us: u64,
    tail_segments: [u64; WaitEvent::COUNT],
    tail_app_us: u64,
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
            total_e2e_us: 0,
            total_segments: [0; WaitEvent::COUNT],
            total_app_us: 0,
            tail_e2e_us: 0,
            tail_segments: [0; WaitEvent::COUNT],
            tail_app_us: 0,
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
            let tail = t.end_to_end_us() >= p99_us;
            a.total_e2e_us += p.end_to_end_us;
            a.total_app_us += p.app_server_us;
            if tail {
                a.tail_e2e_us += p.end_to_end_us;
                a.tail_app_us += p.app_server_us;
            }
            for ev in WaitEvent::ALL {
                a.total_segments[ev as usize] += p.segment(ev);
                if tail {
                    a.tail_segments[ev as usize] += p.segment(ev);
                }
            }
        }
        Ok(a)
    }

    fn fraction(&self, ev: WaitEvent) -> f64 {
        if self.total_e2e_us == 0 {
            return 0.0;
        }
        self.total_segments[ev as usize] as f64 / self.total_e2e_us as f64
    }

    fn app_server_fraction(&self) -> f64 {
        if self.total_e2e_us == 0 {
            return 0.0;
        }
        self.total_app_us as f64 / self.total_e2e_us as f64
    }

    fn fractions_json(e2e: u64, segments: &[u64; WaitEvent::COUNT], app: u64) -> Json {
        let mut obj = Json::object();
        for ev in WaitEvent::ALL {
            let f = if e2e == 0 { 0.0 } else { segments[ev as usize] as f64 / e2e as f64 };
            obj = obj.field(&format!("{}_fraction", ev.name()), f);
        }
        let app_f = if e2e == 0 { 0.0 } else { app as f64 / e2e as f64 };
        obj.field("app_server_fraction", app_f)
    }

    fn to_json(&self, name: &str, detail: &str) -> Json {
        Json::object()
            .field("configuration", name)
            .field("detail", detail)
            .field("requests", self.requests as u64)
            .field("p99_end_to_end_us", self.p99_us)
            .field("mean_end_to_end_us", self.mean_us)
            .field(
                "attribution",
                Self::fractions_json(self.total_e2e_us, &self.total_segments, self.total_app_us),
            )
            .field(
                "p99_tail",
                Self::fractions_json(self.tail_e2e_us, &self.tail_segments, self.tail_app_us),
            )
    }
}

/// How many dialog steps are in flight at once during the attribution
/// configurations. Matched to the work-process count: submission is
/// closed-loop, so the dispatch-queue segment reflects scheduling, not a
/// flood of offered load drowning every other segment.
const DIALOG_WIDTH: usize = 2;

/// Fetch the completed traces for a batch of dispatcher requests from the
/// system's ring.
fn traces_for(sys: &R3System, stats: &[RequestStats]) -> Result<Vec<Arc<RequestTrace>>, String> {
    let ring = sys.db.trace_ring();
    stats
        .iter()
        .map(|s| {
            if s.trace_id == 0 {
                return Err(format!("request '{}' was not traced", s.name));
            }
            ring.get(s.trace_id).ok_or_else(|| {
                format!("trace {} for '{}' fell out of the ring", s.trace_id, s.name)
            })
        })
        .collect()
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

    let dispatcher = Dispatcher::start(
        Arc::clone(&sys),
        DispatcherConfig { dialog_processes: DIALOG_WIDTH, batch_processes: 0 },
    );
    let mut stats: Vec<RequestStats> = Vec::with_capacity(steps);
    let mut pending = Vec::with_capacity(DIALOG_WIDTH);
    for i in 0..steps {
        pending.push(dispatcher.submit(WpKind::Dialog, format!("blind-{i}"), |sys| {
            // No index helps `bal > -1`, so the read transaction's full
            // scan takes a table S lock that queues behind the updater's
            // exclusive lock. (A bare `Database::query` takes no locks at
            // all — only the transaction path replays §4.1.)
            let mut txn = sys.db.begin();
            txn.execute("SELECT COUNT(*) FROM blind_acct WHERE bal > -1")?;
            txn.commit()?;
            Ok(())
        }));
        if pending.len() == DIALOG_WIDTH {
            stats.extend(pending.drain(..).map(|h| h.wait()));
        }
    }
    stats.extend(pending.drain(..).map(|h| h.wait()));
    done.store(true, Ordering::Relaxed);
    holder.join().map_err(|_| "lock holder panicked".to_string())??;
    dispatcher.shutdown();
    for s in &stats {
        if let Err(e) = &s.result {
            return Err(format!("blind request '{}' failed: {e}", s.name));
        }
    }
    Attribution::compute(&traces_for(&sys, &stats)?)
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
    let dispatcher = Dispatcher::start(
        Arc::clone(&sys),
        DispatcherConfig { dialog_processes: DIALOG_WIDTH, batch_processes: 0 },
    );
    // Q6 and Q14 both price through KONV — the tables the 2.2 cluster
    // encapsulates — and are cheap enough to run as dialog steps.
    let queries = [6usize, 14];
    let mut stats: Vec<RequestStats> = Vec::with_capacity(steps);
    let mut pending = Vec::with_capacity(DIALOG_WIDTH);
    for i in 0..steps {
        let n = queries[i % queries.len()];
        let params = params.clone();
        pending.push(dispatcher.submit(WpKind::Dialog, format!("q{n}-{i}"), move |sys| {
            reports::run_query_rows(sys, SapInterface::Open, n, &params)?;
            Ok(())
        }));
        if pending.len() == DIALOG_WIDTH {
            stats.extend(pending.drain(..).map(|h| h.wait()));
        }
    }
    stats.extend(pending.drain(..).map(|h| h.wait()));
    dispatcher.shutdown();
    for s in &stats {
        if let Err(e) = &s.result {
            return Err(format!("{release} request '{}' failed: {e}", s.name));
        }
    }
    Attribution::compute(&traces_for(&sys, &stats)?)
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

/// Run the whole experiment and return the `BENCH_tracereq.json` document.
pub fn run_tracereq_experiment(sf: f64, smoke: bool) -> Result<Json, String> {
    // `steps` is the dialog-step count per R/3 configuration. The smoke run
    // still takes enough requests that the p99 tail is a real trace and the
    // attribution fractions are not single-sample noise.
    let (knobs, steps) = if smoke {
        (Knobs { streams: 2, rounds: 1, reps: 2 }, 32)
    } else {
        (Knobs { streams: 2, rounds: 2, reps: 2 }, 96)
    };
    let (db, gen) = wire::load_database(sf)?;

    let [off, on] = wire::off_on_repetitions(&db, &gen, sf, &knobs, None)?;
    let qps_off = off.queries_run as f64 / off.elapsed_seconds;
    let qps_on = on.queries_run as f64 / on.elapsed_seconds;
    let on_over_off = if qps_off > 0.0 { qps_on / qps_off } else { 0.0 };
    let overhead = 1.0 - on_over_off;
    println!(
        "throughput tracing-off={qps_off:.2}/s on={qps_on:.2}/s overhead={:.2}%",
        overhead * 100.0
    );

    // Live phase: tracing on, monitor connection polling the trace views
    // over the wire and re-checking the partition on every fetched row.
    println!("live phase: M$TRACES/M$SPANS polled over the wire mid-run");
    db.trace_ring().clear();
    let views = [
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
    ];
    let live_phase = Phase {
        streams: knobs.streams,
        rounds: knobs.rounds,
        protocol: Protocol::Extended,
        monitor: true,
        seq_base: 90_000,
        poller: Some(&views),
        on_step: None,
    };
    let live = wire::run_phase(&db, &gen, sf, &live_phase)?;
    let polled = live.polled.as_ref().ok_or("live monitor never ran")?;
    let live_views = polled.to_json().field("rows_sum_checked", polled.rows_checked);
    let traced_requests = db.trace_ring().completed();
    if traced_requests == 0 {
        return Err("live phase completed no traced requests".into());
    }

    // Export the live phase's ring for chrome://tracing.
    let _ = fs::create_dir_all("target/experiments");
    let chrome_path = if smoke {
        "target/experiments/TRACEREQ_chrome_smoke.json"
    } else {
        "target/experiments/TRACEREQ_chrome.json"
    };
    let chrome = export_chrome(&db, chrome_path)?;
    println!("chrome trace written to {chrome_path}");

    // Attribution phase: the three R/3 configurations.
    println!("blind-plan configuration ({steps} dialog steps)");
    let blind = run_blind_config(steps)?;
    println!(
        "  p99={}us queue={:.2} lock={:.2} exec={:.2} app={:.2}",
        blind.p99_us,
        blind.fraction(WaitEvent::DispatchQueue),
        blind.fraction(WaitEvent::Lock),
        blind.fraction(WaitEvent::Exec),
        blind.app_server_fraction()
    );
    println!("Open SQL 2.2G configuration ({steps} dialog steps)");
    let r22 = run_release_config(Release::R22, &gen, sf, steps)?;
    println!(
        "  p99={}us queue={:.2} exec={:.2} app={:.2}",
        r22.p99_us,
        r22.fraction(WaitEvent::DispatchQueue),
        r22.fraction(WaitEvent::Exec),
        r22.app_server_fraction()
    );
    println!("Open SQL 3.0E configuration ({steps} dialog steps)");
    let r30 = run_release_config(Release::R30, &gen, sf, steps)?;
    println!(
        "  p99={}us queue={:.2} exec={:.2} app={:.2}",
        r30.p99_us,
        r30.fraction(WaitEvent::DispatchQueue),
        r30.fraction(WaitEvent::Exec),
        r30.app_server_fraction()
    );

    // The two diagnosis claims the tentpole makes must actually hold.
    let blind_lock_exec = blind.fraction(WaitEvent::Lock) + blind.fraction(WaitEvent::Exec);
    if blind_lock_exec <= 0.5 {
        return Err(format!(
            "blind-plan tail is not lock+exec dominated: fraction {blind_lock_exec:.3}"
        ));
    }
    if r22.app_server_fraction() <= r30.app_server_fraction() {
        return Err(format!(
            "2.2G app-server share {:.3} did not exceed 3.0E's {:.3}: the crossing \
             gap should surface as app-server time",
            r22.app_server_fraction(),
            r30.app_server_fraction()
        ));
    }

    let notes = [
        "Critical-path rule: each microsecond of a request belongs to the \
         latest-starting wait interval covering it, remainder to the app server; \
         segments provably sum to end-to-end latency (re-asserted on every trace \
         this experiment touches, in-process and over the wire).",
        "Attribution fractions are computed over summed segments (whole \
         configuration and p99 tail); fractions, not absolute microseconds, are \
         what benchdiff gates — they are dimensionless and survive hardware \
         changes.",
        "The blind_plan configuration replays section 4.1: full-scan readers \
         queue behind an update transaction's row lock, so the tail is lock+exec \
         dominated. The 2.2G-vs-3.0E pair prices through KONV via Open SQL; the \
         2.2 cluster decode runs on the application server, so the crossing gap \
         shows as app-server-segment dominance.",
        "The Chrome export loads in chrome://tracing or Perfetto: one track per \
         request (tid = trace id), complete events for spans and wait intervals.",
        "qps_off/qps_on are queries over the summed elapsed time of the alternating \
         tracing-off/on repetitions; a phase's elapsed time ends when its query \
         streams finish, so the update stream's wind-down is not counted.",
        "Regenerate: cargo run --release -p bench --bin experiments -- tracereq \
         (add --smoke for the CI-sized run).",
    ];
    Ok(Json::object()
        .field("benchmark", "tracereq")
        .field("sf", sf)
        .field("smoke", smoke)
        .field("notes", Json::Array(notes.iter().map(|&n| Json::from(n)).collect()))
        .field(
            "overhead",
            Json::object()
                .field("repetitions", knobs.reps)
                .field("elapsed_seconds_off", off.elapsed_seconds)
                .field("elapsed_seconds_on", on.elapsed_seconds)
                .field("queries_off", off.queries_run)
                .field("queries_on", on.queries_run)
                .field("retries_off", off.retries)
                .field("retries_on", on.retries)
                .field("qps_off", qps_off)
                .field("qps_on", qps_on),
        )
        .field(
            "live",
            Json::object()
                .field("elapsed_seconds", live.elapsed_seconds)
                .field("queries_run", live.queries_run)
                .field("update_pairs", live.update_pairs)
                .field("traced_requests", traced_requests)
                .field("views", live_views),
        )
        .field("chrome_export", chrome)
        .field(
            "configurations",
            Json::Array(vec![
                blind.to_json("blind_plan", "§4.1 full scan behind a row lock (R30)"),
                r22.to_json("open_sql_2_2", "Open SQL reports, Release 2.2G (KONV cluster)"),
                r30.to_json("open_sql_3_0", "Open SQL reports, Release 3.0E (transparent KONV)"),
            ]),
        )
        .field(
            "comparison",
            Json::object()
                .field("on_over_off", on_over_off)
                .field("overhead_fraction", overhead)
                .field("overhead_under_3pct", overhead < 0.03)
                .field("blind_lock_fraction", blind.fraction(WaitEvent::Lock))
                .field("blind_exec_fraction", blind.fraction(WaitEvent::Exec))
                .field("blind_app_server_fraction", blind.app_server_fraction())
                .field("r22_app_server_fraction", r22.app_server_fraction())
                .field("r30_app_server_fraction", r30.app_server_fraction())
                .field("r22_app_server_dominant", true)
                .field("blind_lock_exec_dominant", true),
        ))
}
