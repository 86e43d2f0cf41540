//! The TPC-D-over-the-wire driver behind the `server` and `observe`
//! experiments.
//!
//! A phase serves the loaded database from a fresh [`Server`] and runs S
//! query-stream clients, each R rounds of the 17 TPC-D queries over the
//! simple or the extended protocol, beside one update client running
//! UF1/UF2 refresh pairs. Optionally a live poller reads monitoring views
//! over one more connection, and a per-step callback sees every completed
//! query and refresh pair.
//!
//! A phase's elapsed time runs from the start of its clients until the
//! query streams finish: the update stream's and the poller's wind-down is
//! not counted. A phase fails on any statement that keeps failing, any
//! failed poll, and any server left dirty (a panic or a leaked session).

use rdbms::{Database, DbConfig, MeterSnapshot, Value, WaitSnapshot};
use serde_json::Json;
use server::{Client, ClientError, Server, ServerConfig, StatsSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};
use tpcd::dbgen::DbGen;
use tpcd::queries::{self, QueryParams};
use tpcd::schema;
use trace::Histogram;

/// Attempts before a statement that keeps failing (deadlock victim, lock
/// timeout) fails the phase. Deadlocks are routine under the simple
/// protocol — table-S readers against the update stream's X locks — so
/// victims back off exponentially and try again, like the deterministic
/// throughput driver does.
const MAX_RETRIES: usize = 10;

/// Base backoff after the first failed attempt; doubles per attempt.
const BACKOFF_MS: u64 = 10;

/// Think time between update-stream refresh pairs: the updater would
/// otherwise hold table X locks nearly continuously and re-victimize the
/// same readers on every retry.
const UPDATE_THINK_MS: u64 = 50;

/// Delay between live-poller sweeps.
const POLL_MS: u64 = 25;

/// The protocol the query streams speak.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Literal SQL on every call (OPEN, release 2.2G).
    Simple,
    /// Parse/Bind/Execute through the shared plan cache (REOPEN, release
    /// 3.0E).
    Extended,
}

/// Workload shape: query streams, rounds of the 17 queries per stream, and
/// the off/on repetitions of an overhead measurement.
#[derive(Clone, Copy)]
pub struct Knobs {
    pub streams: usize,
    pub rounds: usize,
    pub reps: usize,
}

/// A completed driver step, as handed to a phase's step callback.
pub enum Step {
    /// Query `query` (all of its statements) of query stream `stream`.
    Query { stream: usize, query: usize },
    /// One UF1/UF2 refresh pair.
    Refresh { seq: u64 },
}

/// Called with every completed step and its wall-clock service time.
pub type OnStep<'a> = &'a (dyn Fn(Step, Duration) + Sync);

/// An invariant checked on every row a poll fetches; one failing row fails
/// the phase.
pub type RowCheck = fn(&[Value]) -> Result<(), String>;

/// One monitoring view the live poller reads on every sweep.
pub struct PolledView {
    pub view: &'static str,
    pub sql: String,
    pub check_row: Option<RowCheck>,
}

/// What the live poller saw.
pub struct PollReport {
    /// Per view: successful polls, and the row count of the last one.
    pub views: Vec<(&'static str, u64, u64)>,
    /// Rows that passed a [`PolledView::check_row`].
    pub rows_checked: u64,
}

impl PollReport {
    pub fn to_json(&self) -> Json {
        self.views.iter().fold(Json::object(), |obj, &(view, polls, last_rows)| {
            obj.field(view, Json::object().field("polls", polls).field("last_rows", last_rows))
        })
    }
}

/// One phase: its workload, the collector state, and what watches it.
pub struct Phase<'a> {
    pub streams: usize,
    pub rounds: usize,
    pub protocol: Protocol,
    /// Collectors on or off ([`Database::set_monitor_enabled`]).
    pub monitor: bool,
    /// First refresh sequence number. Phases take disjoint ranges so every
    /// UF1 inserts order keys no earlier phase left behind.
    pub seq_base: u64,
    pub poller: Option<&'a [PolledView]>,
    pub on_step: Option<OnStep<'a>>,
}

/// What one phase measured.
pub struct PhaseRun {
    pub elapsed_seconds: f64,
    pub queries_run: u64,
    pub update_pairs: u64,
    pub retries: u64,
    pub waits: WaitSnapshot,
    /// Engine meter delta over the phase (plan-cache hits, misses, ...).
    pub work: MeterSnapshot,
    pub stats: StatsSnapshot,
    /// Per-message-type service time (µs), keyed by client tag byte.
    pub latency: HashMap<u8, Arc<Histogram>>,
    pub polled: Option<PollReport>,
}

/// One collector mode's totals across the repetitions of an overhead
/// measurement.
#[derive(Default)]
pub struct ModeTotals {
    /// Each added phase's elapsed seconds, in repetition order.
    pub phase_seconds: Vec<f64>,
    pub queries_run: u64,
    pub update_pairs: u64,
    pub retries: u64,
    pub waits: WaitSnapshot,
}

impl ModeTotals {
    pub fn add(&mut self, run: &PhaseRun) {
        self.phase_seconds.push(run.elapsed_seconds);
        self.queries_run += run.queries_run;
        self.update_pairs += run.update_pairs;
        self.retries += run.retries;
        self.waits = self.waits.plus(&run.waits);
    }

    pub fn elapsed_seconds(&self) -> f64 {
        self.phase_seconds.iter().sum()
    }
}

/// Generate and load a TPC-D database at `sf` for serving. The lock-wait
/// timeout doubles as the deadlock backstop; under the simple protocol the
/// update stream legitimately queues behind whole granted groups of
/// table-S scans, so it gets benchmark headroom instead of the 5 s default.
pub fn load_database(sf: f64) -> Result<(Arc<Database>, DbGen), String> {
    let gen = DbGen::new(sf);
    let config = DbConfig { lock_timeout: Duration::from_secs(120), ..DbConfig::default() };
    let db = Arc::new(Database::new(config));
    println!("loading TPC-D database at SF {sf} ...");
    schema::load(&db, &gen).map_err(|e| format!("load: {e}"))?;
    Ok((db, gen))
}

fn backoff(attempt: usize) {
    std::thread::sleep(Duration::from_millis(BACKOFF_MS << attempt.min(7)));
}

/// Run `sql` over `protocol`, retrying server errors with backoff. Only
/// SELECTs take the extended protocol: the plan cache holds SELECT plans
/// only, so DDL such as Q15's CREATE/DROP VIEW ships as literal SQL.
fn query_with_retry(
    c: &mut Client,
    sql: &str,
    protocol: Protocol,
    retries: &AtomicU64,
) -> Result<u64, String> {
    let extended = protocol == Protocol::Extended
        && sql.trim_start().get(..6).is_some_and(|p| p.eq_ignore_ascii_case("SELECT"));
    let mut last = String::new();
    for attempt in 0..MAX_RETRIES {
        let res = if extended { c.extended_query(sql, &[]) } else { c.simple_query(sql) };
        match res {
            Ok(rows) => return Ok(rows.rows.len() as u64),
            Err(ClientError::Server(e)) => {
                retries.fetch_add(1, Ordering::Relaxed);
                last = e.0;
                backoff(attempt);
            }
            Err(e) => return Err(format!("transport error on '{sql}': {e}")),
        }
    }
    Err(format!("statement kept failing after {MAX_RETRIES} attempts: {last} ({sql})"))
}

/// One query stream: `rounds` rounds of the 17 TPC-D queries. Q15's view
/// gets a per-stream name so concurrent streams do not collide on its DDL
/// (the deterministic simulation serializes units; real threads do not).
fn query_stream(
    addr: &str,
    stream: usize,
    params: &QueryParams,
    phase: &Phase,
    retries: &AtomicU64,
) -> Result<u64, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut ran = 0u64;
    for _round in 0..phase.rounds {
        for query in 1..=17 {
            let started = Instant::now();
            for stmt in queries::sql(query, params) {
                let stmt = stmt.replace("revenue0", &format!("revenue0_s{stream}"));
                query_with_retry(&mut c, &stmt, phase.protocol, retries)?;
            }
            if let Some(on_step) = phase.on_step {
                on_step(Step::Query { stream, query }, started.elapsed());
            }
            ran += 1;
        }
    }
    c.terminate().map_err(|e| format!("terminate: {e}"))?;
    Ok(ran)
}

fn insert_sql(table: &str, row: &[Value]) -> String {
    let vals: Vec<String> = row.iter().map(r3::opensql::literal).collect();
    format!("INSERT INTO {table} VALUES ({})", vals.join(", "))
}

/// The update stream: UF1 (insert an order block with its lineitems) then
/// UF2 (delete it again) as wire transactions, looping until the query
/// streams finish. Every statement ships as literal SQL — the paper's
/// update stream is a batch feed, not a prepared OLTP path. These commits
/// are what put WAL-flush and group-commit segments on the traces.
fn update_stream(
    addr: &str,
    gen: &DbGen,
    phase: &Phase,
    done: &AtomicBool,
    retries: &AtomicU64,
) -> Result<u64, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut pairs = 0u64;
    while !done.load(Ordering::Relaxed) {
        let seq = phase.seq_base + pairs;
        let (orders, lineitems) = gen.update_stream(seq);
        let lo = orders.iter().map(|o| o.orderkey).min().unwrap_or(0);
        let hi = orders.iter().map(|o| o.orderkey).max().unwrap_or(-1);
        let mut uf1 = vec!["BEGIN".to_string()];
        uf1.extend(orders.iter().map(|o| insert_sql("orders", &schema::order_row(o))));
        uf1.extend(lineitems.iter().map(|l| insert_sql("lineitem", &schema::lineitem_row(l))));
        uf1.push("COMMIT".into());
        let uf2 = vec![
            "BEGIN".to_string(),
            format!("DELETE FROM lineitem WHERE l_orderkey BETWEEN {lo} AND {hi}"),
            format!("DELETE FROM orders WHERE o_orderkey BETWEEN {lo} AND {hi}"),
            "COMMIT".into(),
        ];
        let started = Instant::now();
        for txn in [&uf1, &uf2] {
            // A statement error aborts the server-side transaction; roll
            // back defensively and retry the whole refresh from BEGIN.
            let mut attempt = 0;
            'txn: loop {
                for sql in txn.iter() {
                    match c.simple_query(sql) {
                        Ok(_) => {}
                        Err(ClientError::Server(e)) => {
                            attempt += 1;
                            retries.fetch_add(1, Ordering::Relaxed);
                            if attempt >= MAX_RETRIES {
                                return Err(format!("refresh kept failing: {}", e.0));
                            }
                            let _ = c.simple_query("ROLLBACK");
                            backoff(attempt);
                            continue 'txn;
                        }
                        Err(e) => return Err(format!("transport error in refresh: {e}")),
                    }
                }
                break;
            }
        }
        if let Some(on_step) = phase.on_step {
            on_step(Step::Refresh { seq }, started.elapsed());
        }
        pairs += 1;
        std::thread::sleep(Duration::from_millis(UPDATE_THINK_MS));
    }
    c.terminate().map_err(|e| format!("terminate: {e}"))?;
    Ok(pairs)
}

/// The live poller: a monitoring connection that must get answers while
/// the workload saturates the server. Sweeps every view until the query
/// streams finish, at least once; a failed poll or a failing row check
/// fails the phase.
fn live_poller(addr: &str, views: &[PolledView], done: &AtomicBool) -> Result<PollReport, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("poller connect: {e}"))?;
    let mut report =
        PollReport { views: views.iter().map(|v| (v.view, 0, 0)).collect(), rows_checked: 0 };
    loop {
        for (v, (_, polls, last_rows)) in views.iter().zip(&mut report.views) {
            let rows = c
                .simple_query(&v.sql)
                .map_err(|e| format!("poll of {} failed mid-run: {e}", v.view))?;
            if let Some(check) = v.check_row {
                rows.rows.iter().try_for_each(|row| check(row))?;
                report.rows_checked += rows.rows.len() as u64;
            }
            *polls += 1;
            *last_rows = rows.rows.len() as u64;
        }
        if done.load(Ordering::Relaxed) {
            break;
        }
        std::thread::sleep(Duration::from_millis(POLL_MS));
    }
    c.terminate().map_err(|e| format!("poller terminate: {e}"))?;
    Ok(report)
}

/// Join a driver thread, keeping the phase's first error (later ones are
/// usually its fallout).
fn join<T>(
    t: ScopedJoinHandle<'_, Result<T, String>>,
    what: &str,
    first_err: &mut Option<String>,
) -> Option<T> {
    match t.join().map_err(|_| format!("{what} panicked")).and_then(|r| r) {
        Ok(v) => Some(v),
        Err(e) => {
            first_err.get_or_insert(e);
            None
        }
    }
}

/// Run one phase against a fresh server on the shared database, and print
/// its summary line.
pub fn run_phase(
    db: &Arc<Database>,
    gen: &DbGen,
    sf: f64,
    phase: &Phase,
) -> Result<PhaseRun, String> {
    db.set_monitor_enabled(phase.monitor);
    let server = Server::start(Arc::clone(db), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = &server.local_addr().to_string();
    let params = &QueryParams::for_scale(sf);
    let (retries, done) = (&AtomicU64::new(0), &AtomicBool::new(false));
    let (work_before, waits_before) = (db.snapshot(), db.wait_stats().snapshot());
    let mut first_err = None;
    let mut queries_run = 0u64;
    let (elapsed_seconds, update_pairs, polled) = std::thread::scope(|s| {
        let started = Instant::now();
        let updater = s.spawn(|| update_stream(addr, gen, phase, done, retries));
        let poller = phase.poller.map(|views| s.spawn(|| live_poller(addr, views, done)));
        let streams: Vec<_> = (0..phase.streams)
            .map(|sid| s.spawn(move || query_stream(addr, sid, params, phase, retries)))
            .collect();
        for t in streams {
            queries_run += join(t, "query stream", &mut first_err).unwrap_or(0);
        }
        let elapsed = started.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        let update_pairs = join(updater, "update stream", &mut first_err).unwrap_or(0);
        let polled = poller.and_then(|t| join(t, "live poller", &mut first_err));
        (elapsed, update_pairs, polled)
    });
    let work = db.snapshot().since(&work_before);
    let waits = db.wait_stats().snapshot().since(&waits_before);
    let latency = server.latency_histograms();
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
    let retries = retries.load(Ordering::Relaxed);
    println!(
        "  elapsed={elapsed_seconds:.1}s queries={queries_run} update_pairs={update_pairs} \
         retries={retries}"
    );
    Ok(PhaseRun {
        elapsed_seconds,
        queries_run,
        update_pairs,
        retries,
        waits,
        work,
        stats,
        latency,
        polled,
    })
}

/// Measure collector overhead on the extended-protocol workload: one
/// unmeasured warmup round with the collectors on, then `knobs.reps`
/// repetitions of a collectors-off and a collectors-on phase. Repetitions
/// alternate so cache warm-up and machine drift hit both modes equally.
/// `on_step` sees every measured step. Returns the `[off, on]` totals.
pub fn off_on_repetitions(
    db: &Arc<Database>,
    gen: &DbGen,
    sf: f64,
    knobs: &Knobs,
    on_step: OnStep,
) -> Result<[ModeTotals; 2], String> {
    let phase = |rounds, monitor, seq_base, on_step| Phase {
        streams: knobs.streams,
        rounds,
        protocol: Protocol::Extended,
        monitor,
        seq_base,
        poller: None,
        on_step,
    };
    println!("warmup: {} streams x 1 round (collectors on, unmeasured)", knobs.streams);
    run_phase(db, gen, sf, &phase(1, true, 5_000, None))?;
    db.statement_collector().reset();
    let mut totals = [ModeTotals::default(), ModeTotals::default()];
    for rep in 0..knobs.reps {
        for (mode, monitor) in [false, true].into_iter().enumerate() {
            println!(
                "rep {}/{}: collectors {} ({} streams x {} rounds)",
                rep + 1,
                knobs.reps,
                if monitor { "on" } else { "off" },
                knobs.streams,
                knobs.rounds,
            );
            let seq_base = 10_000 + (rep * 2 + mode) as u64 * 10_000;
            let run =
                run_phase(db, gen, sf, &phase(knobs.rounds, monitor, seq_base, Some(on_step)))?;
            totals[mode].add(&run);
        }
    }
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_column(row: &[Value]) -> Result<(), String> {
        match row {
            [Value::Int(_)] => Ok(()),
            other => Err(format!("expected one integer column, got {other:?}")),
        }
    }

    #[test]
    fn one_stream_per_protocol_with_updates_and_a_live_poller() {
        let sf = 0.001;
        let (db, gen) = load_database(sf).expect("load");
        let views: Vec<PolledView> = ["M$WAIT_EVENTS", "M$SESSIONS", "M$PLAN_CACHE"]
            .into_iter()
            .map(|view| PolledView { view, sql: format!("SELECT * FROM {view}"), check_row: None })
            .chain([PolledView {
                view: "M$TRACES",
                sql: "SELECT END_TO_END_US FROM M$TRACES".into(),
                check_row: Some(one_column),
            }])
            .collect();
        let query_steps = AtomicU64::new(0);
        let count = |step: Step, _: Duration| {
            if let Step::Query { .. } = step {
                query_steps.fetch_add(1, Ordering::Relaxed);
            }
        };
        for (i, protocol) in [Protocol::Simple, Protocol::Extended].into_iter().enumerate() {
            query_steps.store(0, Ordering::Relaxed);
            let phase = Phase {
                streams: 1,
                rounds: 1,
                protocol,
                monitor: true,
                seq_base: 1_000 * (i as u64 + 1),
                poller: Some(&views),
                on_step: Some(&count),
            };
            let run = run_phase(&db, &gen, sf, &phase).expect("phase runs clean");
            assert_eq!(run.queries_run, 17, "{protocol:?}");
            assert_eq!(query_steps.load(Ordering::Relaxed), 17, "{protocol:?}");
            assert_eq!((run.stats.panics, run.stats.sessions_active), (0, 0), "{protocol:?}");
            assert_eq!(run.stats.extended_executes > 0, protocol == Protocol::Extended);
            let polled = run.polled.expect("the poller reports");
            for &(view, polls, _) in &polled.views {
                assert!(polls >= 1, "{view} never answered under {protocol:?}");
            }
        }
    }
}
