//! The `experiments trace` subcommand: end-to-end observability demo.
//!
//! For one TPC-D query it produces the three artifacts the tracing layer
//! exists for:
//!
//! 1. an **EXPLAIN ANALYZE**-style plan trace of the query on the isolated
//!    RDBMS (per-node rows, pages, simulated milliseconds),
//! 2. **ST05** SQL traces of the Open SQL report on Release 2.2G and 3.0E,
//!    making the push-down difference visible statement by statement,
//! 3. **latency histograms** from the dispatcher (queue wait / service per
//!    work-process class) and the throughput driver (per-stream response
//!    times).
//!
//! Each artifact renders as text and exports as JSON.

use r3::dispatcher::{Dispatcher, DispatcherConfig, WpKind};
use r3::reports::{run_query_rows, SapInterface};
use r3::{sqltrace, R3System, Release};
use rdbms::error::{DbError, DbResult};
use serde_json::Json;
use std::sync::Arc;
use tpcd::throughput::{run_throughput_test, IsolatedWorkload, ThroughputConfig};
use tpcd::{DbGen, QueryParams};
use trace::TraceSession;

/// One named artifact: rendered text plus its JSON export.
pub struct TraceArtifact {
    pub name: String,
    pub text: String,
    pub json: Json,
}

/// Run the full trace demo for TPC-D query `n` at scale `sf`.
pub fn run_trace(n: usize, sf: f64) -> DbResult<Vec<TraceArtifact>> {
    if !(1..=17).contains(&n) {
        return Err(DbError::execution(format!("no TPC-D query Q{n}")));
    }
    let gen = DbGen::new(sf);
    let p = QueryParams::for_scale(gen.sf);
    let mut artifacts = Vec::new();
    artifacts.push(plan_trace(n, &gen, &p)?);
    artifacts.extend(st05_traces(n, &gen, &p)?);
    artifacts.push(dispatcher_histograms(n, &gen, &p)?);
    artifacts.push(throughput_histograms(&gen, &p)?);
    Ok(artifacts)
}

/// EXPLAIN ANALYZE on the isolated RDBMS: every plan node a span.
fn plan_trace(n: usize, gen: &DbGen, p: &QueryParams) -> DbResult<TraceArtifact> {
    let db = rdbms::Database::with_defaults();
    tpcd::schema::load(&db, gen)?;
    let session = TraceSession::start(db.calibration());
    let result = tpcd::run_query(&db, n, p)?;
    let trace = session.finish();

    // The acceptance invariant: per-node self times sum to the total.
    let total_ms = db.calibration().millis(&trace.total);
    let self_ms = trace.self_ms_total();
    assert!(
        (total_ms - self_ms).abs() < 1e-6,
        "plan trace does not add up: self sum {self_ms} ms vs total {total_ms} ms"
    );

    let mut text = format!(
        "EXPLAIN ANALYZE Q{n} (isolated RDBMS, SF {}): {} rows, {:.3} ms simulated\n\n",
        gen.sf,
        result.rows.len(),
        total_ms,
    );
    text.push_str(&trace.render());
    Ok(TraceArtifact {
        name: format!("trace_plan_q{n}"),
        text,
        json: Json::object()
            .field("query", n as u64)
            .field("sf", gen.sf)
            .field("rows", result.rows.len())
            .field("trace", trace.to_json()),
    })
}

/// ST05 traces of the Open SQL report on both releases.
fn st05_traces(n: usize, gen: &DbGen, p: &QueryParams) -> DbResult<Vec<TraceArtifact>> {
    let mut out = Vec::new();
    let mut crossings = Vec::new();
    for release in [Release::R22, Release::R30] {
        let sys = R3System::install_default(release)?;
        sys.load_tpcd(gen)?;
        sys.sql_trace.enable();
        run_query_rows(&sys, SapInterface::Open, n, p)?;
        let entries = sys.sql_trace.take();
        let summary = sqltrace::summarize(&entries);
        crossings.push(summary.crossings);
        let cal = sys.db.calibration();
        let mut text = format!(
            "ST05 trace: Q{n} via Open SQL on Release {release} — {} statements, {} crossings\n\n",
            summary.statements, summary.crossings,
        );
        text.push_str(&sqltrace::render(&entries, &cal, 80, 40));
        out.push(TraceArtifact {
            name: format!(
                "trace_st05_q{n}_{}",
                match release {
                    Release::R22 => "22g",
                    Release::R30 => "30e",
                }
            ),
            text,
            json: Json::object()
                .field("query", n as u64)
                .field("release", release.to_string())
                .field("interface", "Open SQL")
                .field("trace", sqltrace::to_json(&entries, &cal, 500)),
        });
    }
    if r3::reports::touches_konv(n) && crossings[1] > crossings[0] {
        return Err(DbError::execution(format!(
            "expected 3.0E push-down to need no more crossings than 2.2G for Q{n}, \
             got {} vs {}",
            crossings[1], crossings[0],
        )));
    }
    Ok(out)
}

/// Queue-wait and service-time histograms from a dispatcher run: a burst
/// of dialog requests (the traced query via Open SQL) plus batch-input
/// jobs on the batch work process.
fn dispatcher_histograms(n: usize, gen: &DbGen, p: &QueryParams) -> DbResult<TraceArtifact> {
    let sys = Arc::new(R3System::install_default(Release::R30)?);
    sys.load_tpcd(gen)?;
    let dispatcher = Dispatcher::start(
        Arc::clone(&sys),
        DispatcherConfig { dialog_processes: 2, batch_processes: 1 },
    );
    let mut handles = Vec::new();
    for i in 0..6 {
        let p = p.clone();
        handles.push(dispatcher.submit(WpKind::Dialog, format!("dia-{i}"), move |sys| {
            run_query_rows(sys, SapInterface::Open, n, &p).map(|_| ())
        }));
    }
    for i in 0..2u64 {
        let gen = *gen;
        handles.push(dispatcher.submit(WpKind::Batch, format!("btc-{i}"), move |sys| {
            r3::batch_input::batch_uf1(sys, &gen, i + 1).map(|_| ())
        }));
    }
    for h in handles {
        let stats = h.wait();
        stats.result.map_err(|e| {
            DbError::execution(format!("dispatcher request {} failed: {e}", stats.name))
        })?;
    }
    let metrics = dispatcher.metrics();
    let text = format!(
        "Dispatcher latency (wall µs): 6 dialog Q{n} requests on 2 DIA, 2 batch-input jobs on 1 BTC\n\
         dialog  queue-wait p50/p95/p99: {}/{}/{}  service p50/p95/p99: {}/{}/{}\n\
         batch   queue-wait p50/p95/p99: {}/{}/{}  service p50/p95/p99: {}/{}/{}\n",
        metrics.dialog.queue_wait_us.p50(),
        metrics.dialog.queue_wait_us.p95(),
        metrics.dialog.queue_wait_us.p99(),
        metrics.dialog.service_us.p50(),
        metrics.dialog.service_us.p95(),
        metrics.dialog.service_us.p99(),
        metrics.batch.queue_wait_us.p50(),
        metrics.batch.queue_wait_us.p95(),
        metrics.batch.queue_wait_us.p99(),
        metrics.batch.service_us.p50(),
        metrics.batch.service_us.p95(),
        metrics.batch.service_us.p99(),
    );
    let json = metrics.to_json();
    dispatcher.shutdown();
    Ok(TraceArtifact { name: "trace_dispatcher_latency".into(), text, json })
}

/// Per-stream response-time histograms from the deterministic throughput
/// driver (simulated µs, lock wait included).
fn throughput_histograms(gen: &DbGen, p: &QueryParams) -> DbResult<TraceArtifact> {
    let db = rdbms::Database::with_defaults();
    tpcd::schema::load(&db, gen)?;
    let workload = IsolatedWorkload { db: &db, gen };
    let result = run_throughput_test(
        &workload,
        p,
        gen.sf,
        &ThroughputConfig { query_streams: 2, seed: 42, ..Default::default() },
    )?;
    let mut text = format!(
        "Throughput-driver latency (simulated µs), {} query streams + UPD:\n",
        result.query_streams,
    );
    let mut streams = Vec::new();
    for s in &result.streams {
        text.push_str(&format!(
            "  {:>4}: {} units, p50 {} µs, p95 {} µs, p99 {} µs, max {} µs\n",
            s.stream,
            s.latency_us.count(),
            s.latency_us.p50(),
            s.latency_us.p95(),
            s.latency_us.p99(),
            s.latency_us.max(),
        ));
        streams.push(
            Json::object()
                .field("stream", s.stream.clone())
                .field("latency", s.latency_us.to_json("us")),
        );
    }
    Ok(TraceArtifact {
        name: "trace_throughput_latency".into(),
        text,
        json: Json::object()
            .field("configuration", result.configuration.clone())
            .field("query_streams", result.query_streams)
            .field("elapsed_seconds", result.elapsed_seconds)
            .field("streams", Json::Array(streams)),
    })
}
