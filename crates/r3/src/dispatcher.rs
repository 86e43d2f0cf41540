//! The SAP R/3 dispatcher and work-process pool.
//!
//! In the paper's three-tier architecture (Figure 1) every application
//! server runs one **dispatcher** that queues incoming requests and hands
//! them to a fixed pool of **work processes**: dialog work processes serve
//! interactive steps, batch work processes run background jobs (the batch
//! input sessions of §2.4 and the update stream of the throughput test).
//! A request that arrives while every suitable work process is busy waits
//! in the dispatcher queue — that queue wait is a real, measured component
//! of R/3 response time, so it is reported per request here.
//!
//! Work processes are real OS threads sharing one [`R3System`] (database,
//! table buffer, cursor cache). Per-request work attribution uses
//! [`MeterScope`]: everything a job meters lands both on the system-wide
//! meter and on the request's own meter.

use crate::R3System;
use parking_lot::{Condvar, Mutex};
use rdbms::{DbError, DbResult, RequestCtx};
use serde_json::Json;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trace::meter::{Calibration, CostMeter, MeterScope, MeterSnapshot};
use trace::wait::WaitEvent;
use trace::Histogram;

/// Work-process type, which doubles as the request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WpKind {
    Dialog,
    Batch,
}

impl std::fmt::Display for WpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WpKind::Dialog => write!(f, "DIA"),
            WpKind::Batch => write!(f, "BTC"),
        }
    }
}

/// Pool sizing. R/3 installations of the era ran a handful of dialog work
/// processes and one or two batch work processes per application server.
#[derive(Debug, Clone, Copy)]
pub struct DispatcherConfig {
    pub dialog_processes: usize,
    pub batch_processes: usize,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig { dialog_processes: 2, batch_processes: 1 }
    }
}

type Job = Box<dyn FnOnce(&R3System) -> DbResult<()> + Send + 'static>;

struct Request {
    name: String,
    kind: WpKind,
    job: Job,
    enqueued: Instant,
    /// Trace context minted at submission (queue entry), carried across
    /// the thread boundary and installed by the serving work process.
    trace: Option<RequestCtx>,
    handle: Arc<HandleState>,
}

/// Completed-request report: where the time went and what work was done.
#[derive(Debug, Clone)]
pub struct RequestStats {
    pub name: String,
    pub kind: WpKind,
    /// Which work process served the request ("DIA-0", "BTC-1", ...).
    pub worker: String,
    /// End-to-end trace id for M$TRACES / M$SPANS / ST05 correlation
    /// (0 when the database monitor was disabled at submission).
    pub trace_id: u64,
    /// Time spent in the dispatcher queue before a work process picked
    /// the request up.
    pub queue_wait: Duration,
    /// Wall time inside the work process.
    pub service: Duration,
    /// Metered work attributed to this request (database I/O, tuples,
    /// interface crossings, lock waits, ...).
    pub work: MeterSnapshot,
    pub result: Result<(), DbError>,
}

impl RequestStats {
    /// Simulated seconds of database-side work for this request.
    pub fn db_seconds(&self, cal: &Calibration) -> f64 {
        cal.seconds(&self.work)
    }
}

/// Latency distributions for one work-process class, in wall-clock
/// microseconds. Atomic throughout: work processes record concurrently
/// without coordination.
#[derive(Debug, Default)]
pub struct WpMetrics {
    /// Time requests spent in the dispatcher queue.
    pub queue_wait_us: Histogram,
    /// Time requests spent inside a work process.
    pub service_us: Histogram,
}

impl WpMetrics {
    fn record(&self, stats: &RequestStats) {
        self.queue_wait_us.record(stats.queue_wait.as_micros() as u64);
        self.service_us.record(stats.service.as_micros() as u64);
    }

    pub fn to_json(&self) -> Json {
        Json::object()
            .field("queue_wait", self.queue_wait_us.to_json("us"))
            .field("service", self.service_us.to_json("us"))
    }
}

/// Per-class latency histograms for the whole dispatcher.
#[derive(Debug, Default)]
pub struct DispatcherMetrics {
    pub dialog: WpMetrics,
    pub batch: WpMetrics,
}

impl DispatcherMetrics {
    pub fn for_kind(&self, kind: WpKind) -> &WpMetrics {
        match kind {
            WpKind::Dialog => &self.dialog,
            WpKind::Batch => &self.batch,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::object().field("dialog", self.dialog.to_json()).field("batch", self.batch.to_json())
    }
}

struct HandleState {
    done: Mutex<Option<RequestStats>>,
    cv: Condvar,
}

/// Ticket for a submitted request; `wait` blocks until a work process has
/// finished it and returns the stats.
pub struct RequestHandle {
    state: Arc<HandleState>,
}

impl RequestHandle {
    pub fn wait(self) -> RequestStats {
        let mut done = self.state.done.lock();
        loop {
            if let Some(stats) = done.take() {
                return stats;
            }
            self.state.cv.wait(&mut done);
        }
    }
}

struct Queues {
    dialog: VecDeque<Request>,
    batch: VecDeque<Request>,
    shutdown: bool,
}

struct Shared {
    sys: Arc<R3System>,
    queues: Mutex<Queues>,
    enqueued: Condvar,
    metrics: Arc<DispatcherMetrics>,
}

/// Dispatcher + work-process pool. Dropping it drains the queues and joins
/// the worker threads.
pub struct Dispatcher {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Dispatcher {
    pub fn start(sys: Arc<R3System>, config: DispatcherConfig) -> Dispatcher {
        let shared = Arc::new(Shared {
            sys,
            queues: Mutex::new(Queues {
                dialog: VecDeque::new(),
                batch: VecDeque::new(),
                shutdown: false,
            }),
            enqueued: Condvar::new(),
            metrics: Arc::new(DispatcherMetrics::default()),
        });
        let mut workers = Vec::new();
        for (kind, count) in
            [(WpKind::Dialog, config.dialog_processes), (WpKind::Batch, config.batch_processes)]
        {
            for i in 0..count {
                let shared = Arc::clone(&shared);
                let name = format!("{kind}-{i}");
                workers.push(
                    std::thread::Builder::new()
                        .name(name.clone())
                        .spawn(move || work_process(shared, kind, name))
                        .expect("spawn work process"),
                );
            }
        }
        Dispatcher { shared, workers }
    }

    /// Queue a request for the given work-process class.
    pub fn submit(
        &self,
        kind: WpKind,
        name: impl Into<String>,
        job: impl FnOnce(&R3System) -> DbResult<()> + Send + 'static,
    ) -> RequestHandle {
        let handle = Arc::new(HandleState { done: Mutex::new(None), cv: Condvar::new() });
        let name = name.into();
        // Mint the trace at queue entry so the dispatcher wait is inside
        // the request's end-to-end window; the work process installs it.
        let origin = match kind {
            WpKind::Dialog => "r3/dialog",
            WpKind::Batch => "r3/batch",
        };
        let trace = self.shared.sys.db.begin_request(origin, name.as_str());
        let request = Request {
            name,
            kind,
            job: Box::new(job),
            enqueued: Instant::now(),
            trace,
            handle: Arc::clone(&handle),
        };
        {
            let mut q = self.shared.queues.lock();
            assert!(!q.shutdown, "submit after shutdown");
            match kind {
                WpKind::Dialog => q.dialog.push_back(request),
                WpKind::Batch => q.batch.push_back(request),
            }
        }
        self.shared.enqueued.notify_all();
        RequestHandle { state: handle }
    }

    /// Latency histograms recorded so far (shared with the live work
    /// processes; safe to read while requests are still being served).
    pub fn metrics(&self) -> Arc<DispatcherMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Number of requests currently waiting in the queues.
    pub fn queued(&self) -> usize {
        let q = self.shared.queues.lock();
        q.dialog.len() + q.batch.len()
    }

    /// Drain the queues and stop every work process.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut q = self.shared.queues.lock();
            if q.shutdown {
                return;
            }
            q.shutdown = true;
        }
        self.shared.enqueued.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn work_process(shared: Arc<Shared>, kind: WpKind, worker_name: String) {
    loop {
        let request = {
            let mut q = shared.queues.lock();
            loop {
                let next = match kind {
                    WpKind::Dialog => q.dialog.pop_front(),
                    WpKind::Batch => q.batch.pop_front(),
                };
                if let Some(r) = next {
                    break r;
                }
                if q.shutdown {
                    return;
                }
                shared.enqueued.wait(&mut q);
            }
        };
        let mut request = request;
        // Install the trace context before recording the queue wait so the
        // DispatchQueue interval (and every wait below the job) attaches
        // to this request's trace.
        let trace_id = request.trace.as_ref().map(RequestCtx::trace_id).unwrap_or(0);
        let traced = request.trace.take().map(RequestCtx::install);
        let queue_wait = request.enqueued.elapsed();
        // Queue time is a real wait the paper measures; surface it in
        // M$WAIT_EVENTS alongside the engine's own block points.
        shared.sys.db.wait_stats().record(WaitEvent::DispatchQueue, queue_wait);
        let meter = CostMeter::new();
        let started = Instant::now();
        let result = {
            let _scope = MeterScope::enter(Arc::clone(&meter));
            // A panicking job must not take the work process down with it:
            // report it as a failed request and keep serving.
            match catch_unwind(AssertUnwindSafe(|| (request.job)(&shared.sys))) {
                Ok(r) => r,
                Err(_) => Err(DbError::execution(format!(
                    "work process {worker_name} aborted request {}: job panicked",
                    request.name
                ))),
            }
        };
        // End of the traced window: the finished trace lands in M$TRACES
        // before the submitter is woken, so a caller holding the stats can
        // immediately look its trace_id up.
        drop(traced);
        let stats = RequestStats {
            name: request.name,
            kind: request.kind,
            worker: worker_name.clone(),
            trace_id,
            queue_wait,
            service: started.elapsed(),
            work: meter.snapshot(),
            result,
        };
        shared.metrics.for_kind(stats.kind).record(&stats);
        shared.sys.workload.record(&stats, &shared.sys.db.calibration());
        *request.handle.done.lock() = Some(stats);
        request.handle.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Release;

    #[test]
    fn r3_system_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<R3System>();
        assert_send_sync::<Dispatcher>();
    }

    #[test]
    fn dialog_and_batch_requests_complete_with_stats() {
        let sys = Arc::new(R3System::install_default(Release::R30).unwrap());
        sys.db.execute("CREATE TABLE z (a INTEGER)").unwrap();
        sys.db.execute("INSERT INTO z VALUES (1), (2), (3)").unwrap();
        let dispatcher = Dispatcher::start(
            Arc::clone(&sys),
            DispatcherConfig { dialog_processes: 2, batch_processes: 1 },
        );
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let kind = if i % 4 == 0 { WpKind::Batch } else { WpKind::Dialog };
                dispatcher.submit(kind, format!("req-{i}"), move |sys| {
                    let r = sys.db_select_prepared(
                        "SELECT COUNT(*) FROM z WHERE a > ?",
                        &[rdbms::Value::Int(0)],
                    )?;
                    assert_eq!(r.scalar()?.as_int()?, 3);
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            let stats = h.wait();
            assert!(stats.result.is_ok(), "{:?}", stats.result);
            assert!(stats.work.ipc_crossings() > 0, "request work was metered");
            match stats.kind {
                WpKind::Dialog => assert!(stats.worker.starts_with("DIA-")),
                WpKind::Batch => assert!(stats.worker.starts_with("BTC-")),
            }
        }
        let metrics = dispatcher.metrics();
        assert_eq!(metrics.dialog.service_us.count(), 6);
        assert_eq!(metrics.batch.service_us.count(), 2);
        assert_eq!(metrics.dialog.queue_wait_us.count(), 6);
        assert!(metrics.dialog.service_us.p50() <= metrics.dialog.service_us.max());
        dispatcher.shutdown();
    }

    #[test]
    fn workload_rollup_is_queryable_as_m_workload() {
        let sys = Arc::new(R3System::install_default(Release::R30).unwrap());
        sys.db.execute("CREATE TABLE z (a INTEGER)").unwrap();
        sys.db.execute("INSERT INTO z VALUES (1)").unwrap();
        let dispatcher = Dispatcher::start(
            Arc::clone(&sys),
            DispatcherConfig { dialog_processes: 2, batch_processes: 1 },
        );
        let handles: Vec<_> = (0..6)
            .map(|i| {
                dispatcher.submit(WpKind::Dialog, format!("order-{i}"), |sys| {
                    sys.db_query_direct("SELECT COUNT(*) FROM z")?;
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            assert!(h.wait().result.is_ok());
        }
        // The instance suffix is stripped: six requests, one ST03 line.
        let rows = sys
            .db_query_direct(
                "SELECT TASK_TYPE, WP_TYPE, STEPS, SERVICE_US FROM M$WORKLOAD \
                 WHERE TASK_TYPE = 'order'",
            )
            .unwrap();
        assert_eq!(rows.rows.len(), 1, "{rows:?}");
        assert_eq!(rows.rows[0][1], rdbms::Value::str("DIA"));
        assert_eq!(rows.rows[0][2], rdbms::Value::Int(6));
        // Every pickup recorded its dispatcher-queue wait.
        let snap = sys.db.wait_stats().snapshot();
        assert!(snap.count(WaitEvent::DispatchQueue) >= 6);
        dispatcher.shutdown();
    }

    #[test]
    fn requests_carry_trace_context_across_the_pool() {
        let sys = Arc::new(R3System::install_default(Release::R30).unwrap());
        sys.db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        sys.db.execute("INSERT INTO t VALUES (1)").unwrap();
        let dispatcher = Dispatcher::start(
            Arc::clone(&sys),
            DispatcherConfig { dialog_processes: 1, batch_processes: 0 },
        );
        // One worker: the second request must sit in the dispatcher queue
        // while the first sleeps, making its queue wait trace-visible.
        let slow = dispatcher.submit(WpKind::Dialog, "slow", |_| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(())
        });
        let queued = dispatcher.submit(WpKind::Dialog, "queued", |sys| {
            sys.db_query_direct("SELECT COUNT(*) FROM t")?;
            Ok(())
        });
        let slow_stats = slow.wait();
        let queued_stats = queued.wait();
        assert_ne!(queued_stats.trace_id, 0, "monitor on => request minted a trace");
        assert_ne!(slow_stats.trace_id, queued_stats.trace_id);
        // The finished trace is in the ring before wait() returns.
        let t = sys
            .db
            .trace_ring()
            .get(queued_stats.trace_id)
            .expect("completed trace landed in M$TRACES ring");
        assert_eq!(t.origin, "r3/dialog");
        assert_eq!(&*t.label, "queued");
        // Queue time was recorded while the trace was installed...
        assert!(
            t.waits.iter().any(|w| w.event == WaitEvent::DispatchQueue),
            "dispatcher-queue wait attached to the trace: {:?}",
            t.waits
        );
        // ...and the critical path still partitions end-to-end exactly.
        let p = t.critical_path();
        assert_eq!(p.sum_us(), t.end_to_end_us());
        assert!(p.segment(WaitEvent::DispatchQueue) > 0, "{p:?}");
        dispatcher.shutdown();
    }

    #[test]
    fn monitor_off_requests_are_untraced() {
        let sys = Arc::new(R3System::install_default(Release::R30).unwrap());
        sys.db.set_monitor_enabled(false);
        let dispatcher = Dispatcher::start(
            Arc::clone(&sys),
            DispatcherConfig { dialog_processes: 1, batch_processes: 0 },
        );
        let stats = dispatcher.submit(WpKind::Dialog, "dark", |_| Ok(())).wait();
        assert_eq!(stats.trace_id, 0);
        assert_eq!(sys.db.trace_ring().completed(), 0);
        dispatcher.shutdown();
    }

    #[test]
    fn panicking_job_fails_request_but_not_the_pool() {
        let sys = Arc::new(R3System::install_default(Release::R30).unwrap());
        let dispatcher = Dispatcher::start(
            Arc::clone(&sys),
            DispatcherConfig { dialog_processes: 1, batch_processes: 0 },
        );
        let bad = dispatcher.submit(WpKind::Dialog, "bad", |_| panic!("boom"));
        let good = dispatcher.submit(WpKind::Dialog, "good", |_| Ok(()));
        assert!(bad.wait().result.is_err());
        assert!(good.wait().result.is_ok(), "pool survived the panic");
    }
}
