//! The wire-protocol server experiment (`BENCH_server.json`).
//!
//! Section 4 of the paper contrasts release 2.2G (literal SQL on every
//! call — OPEN) with release 3.0E (parameterized re-execution of prepared
//! statements — REOPEN). The deterministic throughput simulation models
//! that contrast in virtual time; this experiment measures it for real:
//! the same TPC-D query streams and UF1/UF2 update stream are driven over
//! a loopback socket against the `server` crate, once over the simple
//! protocol (every call ships literal SQL) and once over the extended
//! protocol (Parse/Bind/Execute through the shared plan cache).
//!
//! Three phases, each against the same loaded database; the first two run
//! on the shared wire driver ([`crate::wire`]):
//!
//! 1. **simple** — S query-stream clients run R rounds of the 17 TPC-D
//!    queries as literal SQL while an update client runs UF1/UF2 pairs.
//! 2. **extended** — the same workload, but every SELECT goes through
//!    Parse/Bind/Execute, so plans are cached and shared across all
//!    connections and reads take row probes instead of table scans.
//! 3. **stress** — 100+ concurrent connections run a small mixed workload
//!    over both protocols; some drop mid-transaction on purpose. The
//!    acceptance bar is zero panics and zero leaked sessions.
//!
//! Reported per phase: wall-clock QthD (`S * 17 * 3600 / T_round * SF`),
//! plan-cache hit/miss/eviction deltas, server statistics, and
//! per-message-type service-time histograms.

use crate::wire::{self, Phase, PhaseRun, Protocol};
use rdbms::{Database, Value};
use serde_json::Json;
use server::{Client, Server, ServerConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tpcd::dbgen::DbGen;

/// Query-stream clients per measured phase.
pub const STREAMS: usize = 8;
/// Rounds of the 17-query set each stream runs. Chosen so the steady-state
/// plan-cache hit rate clears 90%: the only repeat misses are Q15's
/// per-stream view plans (invalidated by its own CREATE/DROP VIEW churn),
/// so the expected rate is `1 - (16 + S*R) / (17*S*R)`.
pub const ROUNDS: usize = 4;
/// Concurrent connections in the stress phase (the issue asks for >= 100).
pub const STRESS_CONNS: usize = 120;
/// Stress connections that drop mid-transaction instead of terminating
/// cleanly: every `STRESS_DROP_EVERY`-th one.
pub const STRESS_DROP_EVERY: usize = 8;

fn phase_json(name: &str, run: &PhaseRun, qthd: f64) -> Json {
    Json::object()
        .field("phase", name)
        .field("query_streams", STREAMS)
        .field("rounds", ROUNDS)
        .field("queries_run", run.queries_run)
        .field("elapsed_seconds", run.elapsed_seconds)
        .field("qthd", qthd)
        .field("update_pairs", run.update_pairs)
        .field("retries", run.retries)
        .field(
            "plan_cache",
            Json::object()
                .field("hits", run.work.plan_cache_hits())
                .field("misses", run.work.plan_cache_misses())
                .field("evictions", run.work.plan_cache_evictions())
                .field("hit_ratio", run.work.plan_cache_hit_ratio()),
        )
        .field("server", stats_json(&run.stats))
        .field("latency_us", latency_json(&run.latency))
}

fn stats_json(s: &server::StatsSnapshot) -> Json {
    Json::object()
        .field("sessions_opened", s.sessions_opened)
        .field("sessions_leaked", s.sessions_active)
        .field("simple_queries", s.simple_queries)
        .field("extended_executes", s.extended_executes)
        .field("protocol_errors", s.protocol_errors)
        .field("disconnect_rollbacks", s.disconnect_rollbacks)
        .field("panics", s.panics)
}

/// Human-readable names for the latency histogram keys (client tag bytes).
fn tag_name(tag: u8) -> String {
    match tag {
        b'Q' => "Query".into(),
        b'P' => "Parse".into(),
        b'B' => "Bind".into(),
        b'E' => "Execute".into(),
        b'S' => "Sync".into(),
        b'C' => "Close".into(),
        b'X' => "Terminate".into(),
        other => format!("tag_{other:#04x}"),
    }
}

fn latency_json(hists: &HashMap<u8, Arc<trace::Histogram>>) -> Json {
    let mut tags: Vec<&u8> = hists.keys().collect();
    tags.sort();
    let mut obj = Json::object();
    for tag in tags {
        obj = obj.field(&tag_name(*tag), hists[tag].to_json("us"));
    }
    obj
}

/// Run one measured protocol phase against a fresh server on the shared
/// database. Returns the run and its QthD over wall-clock time: each
/// stream ran the 17-query set ROUNDS times, so one "test" took
/// elapsed/ROUNDS.
fn run_protocol_phase(
    db: &Arc<Database>,
    gen: &DbGen,
    sf: f64,
    protocol: Protocol,
    seq_base: u64,
) -> Result<(PhaseRun, f64), String> {
    let phase = Phase {
        streams: STREAMS,
        rounds: ROUNDS,
        protocol,
        monitor: true,
        seq_base,
        poller: None,
        on_step: None,
    };
    let run = wire::run_phase(db, gen, sf, &phase)?;
    let qthd = STREAMS as f64 * 17.0 * ROUNDS as f64 * 3600.0 / run.elapsed_seconds * sf;
    println!(
        "  qthd={qthd:.1} elapsed={:.1}s queries={} update_pairs={} retries={} hit_ratio={:.3}",
        run.elapsed_seconds,
        run.queries_run,
        run.update_pairs,
        run.retries,
        run.work.plan_cache_hit_ratio()
    );
    Ok((run, qthd))
}

/// The stress phase: `STRESS_CONNS` concurrent connections all held open at
/// once (verified server-side before any workload runs), each running a
/// small mixed workload over both protocols. Every `STRESS_DROP_EVERY`-th
/// connection drops mid-transaction instead of terminating.
fn run_stress(db: &Arc<Database>, n_suppliers: i64) -> Result<Json, String> {
    let server = Server::start(Arc::clone(db), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().to_string();
    // All workers plus the coordinator: workers connect, then wait at the
    // barrier until the coordinator has seen every session open.
    let barrier = Arc::new(Barrier::new(STRESS_CONNS + 1));
    let errors = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..STRESS_CONNS)
        .map(|i| {
            let (addr, barrier, errors) = (addr.clone(), barrier.clone(), errors.clone());
            std::thread::spawn(move || -> Result<(), String> {
                let mut c = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
                barrier.wait();
                let nation = (i % 25) as i64;
                let supp = (i as i64 % n_suppliers) + 1;
                for _ in 0..3 {
                    let rows = c
                        .extended_query(
                            "SELECT n_name FROM nation WHERE n_nationkey = ?",
                            &[Value::Int(nation)],
                        )
                        .map_err(|e| format!("extended: {e}"))?;
                    if rows.rows.len() != 1 {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
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
                        return Ok(());
                    }
                    c.simple_query("COMMIT").map_err(|e| format!("commit: {e}"))?;
                }
                c.terminate().map_err(|e| format!("terminate: {e}"))
            })
        })
        .collect();

    // Require every connection to be open simultaneously before releasing
    // the workload — this is what "N concurrent connections" certifies.
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

    let mut first_err = None;
    for t in workers {
        match t.join().map_err(|_| "stress worker panicked".to_string()) {
            Ok(Ok(())) => {}
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
        .field("result_errors", errors.load(Ordering::Relaxed))
        .field("server", stats_json(&stats)))
}

/// Load the database, run all three phases, and return the
/// `BENCH_server.json` document.
pub fn run_server_experiment(sf: f64) -> Result<Json, String> {
    let (db, gen) = wire::load_database(sf)?;

    println!(
        "phase 1/3: simple protocol ({STREAMS} query streams x {ROUNDS} rounds + update stream)"
    );
    let (simple, qthd_simple) = run_protocol_phase(&db, &gen, sf, Protocol::Simple, 10_000)?;

    println!("phase 2/3: extended protocol (same workload via Parse/Bind/Execute)");
    let (extended, qthd_extended) = run_protocol_phase(&db, &gen, sf, Protocol::Extended, 20_000)?;
    let hit_ratio = extended.work.plan_cache_hit_ratio();

    println!("phase 3/3: stress ({STRESS_CONNS} concurrent connections, mixed workload)");
    let stress = run_stress(&db, gen.n_suppliers())?;
    println!("  ok");

    let speedup = if qthd_simple > 0.0 { qthd_extended / qthd_simple } else { 0.0 };
    let doc = Json::object()
        .field("benchmark", "server")
        .field("sf", sf)
        .field(
            "notes",
            Json::Array(
                [
                    "Wall-clock wire-protocol run (real threads and sockets), unlike the \
                     virtual-time BENCH_throughput.json entries. A phase's elapsed time ends \
                     when its query streams finish; the update stream's wind-down is not \
                     counted.",
                    "simple = literal SQL per call (OPEN, release 2.2G); extended = \
                     Parse/Bind/Execute through the shared plan cache (REOPEN, release 3.0E).",
                    "Q15 runs with a per-stream view name; its DDL churn is why the plan-cache \
                     hit rate stays below 1 - 16/(17*S*R).",
                    "Regenerate: cargo run --release -p bench --bin experiments -- --sf <sf> server",
                ]
                .iter()
                .map(|&n| Json::from(n))
                .collect(),
            ),
        )
        .field(
            "phases",
            Json::Array(vec![
                phase_json("simple", &simple, qthd_simple),
                phase_json("extended", &extended, qthd_extended),
            ]),
        )
        .field("stress", stress)
        .field(
            "comparison",
            Json::object()
                .field("qthd_simple", qthd_simple)
                .field("qthd_extended", qthd_extended)
                .field("extended_over_simple", speedup)
                .field("extended_beats_simple", qthd_extended > qthd_simple)
                .field("extended_hit_ratio", hit_ratio)
                .field("hit_ratio_above_90pct", hit_ratio > 0.9),
        );
    Ok(doc)
}
