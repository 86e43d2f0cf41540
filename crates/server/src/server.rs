//! Accept loop, connection threads, and server-wide statistics.

use crate::protocol::{read_frame, write_frame, write_string, MAX_FRAME, MSG_ERROR};
use crate::session::{Disposition, Session};
use parking_lot::Mutex;
use rdbms::monitor::MonitorView;
use rdbms::{Column, DataType, Database, PlanCache, Value};
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trace::Histogram;

/// Shared plan-cache capacity (plans, not bytes).
const PLAN_CACHE_CAPACITY: usize = 256;

pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { addr: "127.0.0.1:0".into() }
    }
}

/// Monotonic counters, all cheap atomics bumped by connection threads.
#[derive(Default)]
pub struct ServerStats {
    pub sessions_opened: AtomicU64,
    pub sessions_active: AtomicU64,
    /// Frames that failed to decode (bad tag, truncated/oversized payload).
    pub protocol_errors: AtomicU64,
    /// Connections that died (EOF or I/O error) with a transaction open —
    /// each one rolled back by the session teardown.
    pub disconnect_rollbacks: AtomicU64,
    /// Connection handlers that panicked (always a bug; the session is
    /// still torn down and the count exposed so tests can assert zero).
    pub panics: AtomicU64,
    pub simple_queries: AtomicU64,
    pub extended_executes: AtomicU64,
}

/// Point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub sessions_opened: u64,
    pub sessions_active: u64,
    pub protocol_errors: u64,
    pub disconnect_rollbacks: u64,
    pub panics: u64,
    pub simple_queries: u64,
    pub extended_executes: u64,
}

/// Live per-connection facts behind the `M$SESSIONS` view — SM50's process
/// overview: who is connected, in a transaction or idle, doing what.
/// Updated with cheap atomics on the connection's own thread.
pub(crate) struct SessionInfo {
    pub id: u64,
    pub started: Instant,
    pub in_txn: AtomicBool,
    pub queries: AtomicU64,
    pub executes: AtomicU64,
    /// Most recent statement text (display-normalized, bounded).
    pub last_statement: Mutex<String>,
}

impl SessionInfo {
    fn new(id: u64) -> Arc<SessionInfo> {
        Arc::new(SessionInfo {
            id,
            started: Instant::now(),
            in_txn: AtomicBool::new(false),
            queries: AtomicU64::new(0),
            executes: AtomicU64::new(0),
            last_statement: Mutex::new(String::new()),
        })
    }
}

struct Shared {
    db: Arc<Database>,
    cache: PlanCache,
    stats: ServerStats,
    shutdown: AtomicBool,
    /// Stream clones for every live connection, so shutdown can unblock
    /// reader threads parked in `read_frame`.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Per-message-type service time (µs), keyed by client tag.
    latencies: Mutex<HashMap<u8, Arc<Histogram>>>,
    /// Live sessions, for `M$SESSIONS`.
    sessions: Mutex<HashMap<u64, Arc<SessionInfo>>>,
}

/// A running server. Dropping it without [`Server::shutdown`] aborts the
/// accept thread but leaves connection threads to finish on their own;
/// call `shutdown` for a deterministic teardown.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. The database is shared with the caller —
    /// benchmarks load data through the library API and then serve it.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            db,
            cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            latencies: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
        });
        register_server_monitor_views(&shared);
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("server-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server { shared, local_addr, accept_thread: Some(accept_thread) })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        StatsSnapshot {
            sessions_opened: s.sessions_opened.load(Ordering::Relaxed),
            sessions_active: s.sessions_active.load(Ordering::Relaxed),
            protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
            disconnect_rollbacks: s.disconnect_rollbacks.load(Ordering::Relaxed),
            panics: s.panics.load(Ordering::Relaxed),
            simple_queries: s.simple_queries.load(Ordering::Relaxed),
            extended_executes: s.extended_executes.load(Ordering::Relaxed),
        }
    }

    /// Per-message-type service-time histograms (µs), keyed by tag byte.
    pub fn latency_histograms(&self) -> HashMap<u8, Arc<Histogram>> {
        self.shared.latencies.lock().clone()
    }

    /// Number of plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Stop accepting, unblock and drop every live connection, and wait
    /// for the accept thread. Sessions with open transactions roll back
    /// (counted in `disconnect_rollbacks`).
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for (_, conn) in self.shared.conns.lock().iter() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Connection threads observe the dropped socket promptly; wait for
        // them to unregister (bounded, so a wedged thread cannot hang us).
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.stats.sessions_active.load(Ordering::SeqCst) > 0
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.stats()
    }
}

/// Register the server-scoped `M$` views on the shared database. The
/// closures hold a [`Weak`] reference — a dropped server leaves the views
/// registered but empty, and never keeps the server alive through its own
/// monitoring surface.
fn register_server_monitor_views(shared: &Arc<Shared>) {
    fn int(v: u64) -> Value {
        Value::Int(v as i64)
    }
    let weak: Weak<Shared> = Arc::downgrade(shared);
    let sessions = MonitorView::new(
        "M$SESSIONS",
        vec![
            Column::new("SESSION_ID", DataType::Int),
            Column::new("STATE", DataType::VarChar(8)),
            Column::new("QUERIES", DataType::Int),
            Column::new("EXECUTES", DataType::Int),
            Column::new("AGE_US", DataType::Int),
            Column::new("LAST_STATEMENT", DataType::VarChar(200)),
        ],
        move || {
            let Some(s) = weak.upgrade() else { return Vec::new() };
            let mut infos: Vec<Arc<SessionInfo>> = s.sessions.lock().values().cloned().collect();
            infos.sort_by_key(|i| i.id);
            infos
                .iter()
                .map(|i| {
                    let state = if i.in_txn.load(Ordering::Relaxed) { "IN_TXN" } else { "IDLE" };
                    vec![
                        Value::Int(i.id as i64),
                        Value::str(state),
                        int(i.queries.load(Ordering::Relaxed)),
                        int(i.executes.load(Ordering::Relaxed)),
                        int(i.started.elapsed().as_micros() as u64),
                        Value::str(i.last_statement.lock().clone()),
                    ]
                })
                .collect()
        },
    );
    shared.db.catalog().register_monitor_view(sessions);

    let weak: Weak<Shared> = Arc::downgrade(shared);
    let plans = MonitorView::new(
        "M$PLAN_CACHE",
        vec![
            Column::new("STATEMENT", DataType::VarChar(200)),
            Column::new("HITS", DataType::Int),
            Column::new("N_PARAMS", DataType::Int),
            Column::new("LAST_USED", DataType::Int),
            Column::new("DEPENDS_ON", DataType::VarChar(128)),
        ],
        move || {
            let Some(s) = weak.upgrade() else { return Vec::new() };
            s.cache
                .entries_snapshot()
                .into_iter()
                .map(|e| {
                    vec![
                        Value::str(e.statement),
                        int(e.hits),
                        int(e.n_params as u64),
                        int(e.last_used),
                        Value::str(e.dependencies.join(",")),
                    ]
                })
                .collect()
        },
    );
    shared.db.catalog().register_monitor_view(plans);
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut next_id = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let id = next_id;
                next_id += 1;
                stream.set_nonblocking(false).ok();
                stream.set_nodelay(true).ok();
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().insert(id, clone);
                }
                let conn_shared = Arc::clone(&shared);
                let res = std::thread::Builder::new()
                    .name(format!("server-conn-{id}"))
                    .spawn(move || connection_thread(id, stream, conn_shared));
                if res.is_err() {
                    shared.conns.lock().remove(&id);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn connection_thread(id: u64, stream: TcpStream, shared: Arc<Shared>) {
    shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
    shared.stats.sessions_active.fetch_add(1, Ordering::SeqCst);
    let info = SessionInfo::new(id);
    shared.sessions.lock().insert(id, Arc::clone(&info));
    let result = catch_unwind(AssertUnwindSafe(|| serve_connection(stream, &shared, info)));
    if result.is_err() {
        shared.stats.panics.fetch_add(1, Ordering::Relaxed);
    }
    shared.sessions.lock().remove(&id);
    shared.conns.lock().remove(&id);
    shared.stats.sessions_active.fetch_sub(1, Ordering::SeqCst);
}

fn record_latency(shared: &Shared, tag: u8, micros: u64) {
    let hist = {
        let mut map = shared.latencies.lock();
        Arc::clone(map.entry(tag).or_insert_with(|| Arc::new(Histogram::new())))
    };
    hist.record(micros);
}

fn serve_connection(stream: TcpStream, shared: &Shared, info: Arc<SessionInfo>) {
    let mut reader = stream.try_clone().expect("clone stream");
    let mut writer = BufWriter::new(stream);
    let mut session = Session::new(&shared.db, &shared.cache, info);
    let mut out = Vec::new();
    loop {
        let frame = match read_frame(&mut reader, MAX_FRAME) {
            Ok(Some(f)) => f,
            Ok(None) => break, // clean EOF
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized frame: answer, then drop the connection.
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let mut p = Vec::new();
                write_string(&mut p, &format!("protocol error: {e}"));
                let _ = write_frame(&mut writer, MSG_ERROR, &p);
                let _ = writer.flush();
                break;
            }
            Err(_) => break, // peer died mid-frame (or shutdown)
        };
        let (tag, payload) = frame;
        match tag {
            crate::protocol::MSG_QUERY => {
                shared.stats.simple_queries.fetch_add(1, Ordering::Relaxed);
            }
            crate::protocol::MSG_EXECUTE => {
                shared.stats.extended_executes.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        out.clear();
        let started = Instant::now();
        let disposition = session.handle_message(tag, &payload, &mut out);
        record_latency(shared, tag, started.elapsed().as_micros() as u64);
        if writer.write_all(&out).and_then(|_| writer.flush()).is_err() {
            break; // peer gone; teardown below rolls back
        }
        match disposition {
            Disposition::Continue => {}
            Disposition::Terminate => {
                drop(session);
                return;
            }
            Disposition::Fatal => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    // Reached on EOF, I/O error, or protocol error — not clean Terminate.
    // Dropping the session drops any open Txn, whose Drop impl rolls back,
    // releases locks, and flushes the WAL Abort record.
    if session.in_txn() {
        shared.stats.disconnect_rollbacks.fetch_add(1, Ordering::Relaxed);
    }
    drop(session);
}
