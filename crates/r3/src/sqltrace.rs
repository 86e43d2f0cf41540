//! ST05-style SQL trace.
//!
//! SAP's transaction ST05 records every statement the application server
//! sends across the RDBMS interface — the instrument the paper's authors
//! used to discover what Open SQL actually submits (§4.1's blind
//! parameterized plans, §2.3's per-document nested SELECT loops). This
//! module is that instrument for the simulator: when enabled on an
//! [`crate::R3System`], every interface crossing appends a
//! [`SqlTraceEntry`] carrying the statement text, bound parameters, rows
//! shipped, crossings charged, and the exact [`MeterSnapshot`] work delta
//! of the call (captured through a scratch [`MeterScope`], so concurrent
//! work on other threads does not pollute the attribution).
//!
//! Buffer hits are traced too, with zero crossings — making "buffer hit
//! vs. pass-through" directly visible — and the invariant that the traced
//! crossings sum to the meter's `ipc_crossings` counter is tested in
//! `tests/sqltrace_equivalence.rs`.

use rdbms::types::Value;
use serde_json::Json;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use trace::meter::{CostMeter, MeterScope, MeterSnapshot};

/// What kind of interface call an entry records. OPEN/REOPEN/EXEC each
/// model one OPEN + FETCH-to-completion + CLOSE round trip (a single
/// crossing, matching the meter); REOPEN means the cursor cache supplied
/// the prepared plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlOp {
    /// First execution of a parameterized statement: PREPARE + OPEN.
    Open,
    /// Cursor-cache hit: the statement re-executes with new bindings.
    Reopen,
    /// Native SQL / direct statement with literals inline.
    Exec,
    /// SELECT SINGLE satisfied by the application-server table buffer —
    /// no crossing reaches the RDBMS.
    BufferHit,
    /// Dictionary-mediated INSERT.
    Insert,
    /// Open SQL DELETE (or cluster-document delete).
    Delete,
    /// COMMIT WORK: the database commit at the end of a logical unit of
    /// work (group commit parks here until a log force covers it).
    Commit,
}

impl SqlOp {
    pub fn label(self) -> &'static str {
        match self {
            SqlOp::Open => "OPEN",
            SqlOp::Reopen => "REOPEN",
            SqlOp::Exec => "EXEC",
            SqlOp::BufferHit => "BUFHIT",
            SqlOp::Insert => "INSERT",
            SqlOp::Delete => "DELETE",
            SqlOp::Commit => "COMMIT",
        }
    }
}

/// One traced interface call.
#[derive(Debug, Clone)]
pub struct SqlTraceEntry {
    pub seq: u64,
    /// End-to-end request trace this crossing happened under (see
    /// `trace::request`); 0 when no request trace was active, so one
    /// request's crossings are retrievable by id via
    /// [`SqlTrace::entries_for`].
    pub trace_id: u64,
    pub op: SqlOp,
    /// Statement text as submitted (parameter markers for Open SQL,
    /// literals for Native SQL).
    pub statement: String,
    /// Bound parameter values, in order (empty for direct statements).
    pub params: Vec<Value>,
    /// Rows shipped to the application server (or affected, for DML).
    pub rows: u64,
    /// Interface crossings this call charged to the meter (0 for buffer
    /// hits).
    pub crossings: u64,
    /// Exact work delta of the call.
    pub work: MeterSnapshot,
    /// The error the call returned, if it failed (its crossing was still
    /// charged).
    pub error: Option<String>,
}

impl SqlTraceEntry {
    pub fn to_json(&self) -> Json {
        let obj = Json::object()
            .field("seq", self.seq)
            .field("trace_id", self.trace_id)
            .field("op", self.op.label())
            .field("statement", self.statement.clone())
            .field(
                "params",
                Json::Array(self.params.iter().map(|p| Json::from(p.to_string())).collect()),
            )
            .field("rows", self.rows)
            .field("crossings", self.crossings)
            .field("work", self.work.to_json());
        match &self.error {
            Some(e) => obj.field("error", e.clone()),
            None => obj,
        }
    }
}

/// The trace facility. Lives on [`crate::R3System`]; disabled (and nearly
/// free) unless a caller enables it.
///
/// The buffer is a bounded ring: once `capacity` entries are held, each
/// new entry evicts the oldest and bumps [`SqlTrace::dropped`]. A
/// long-running traced workload therefore keeps the most recent window
/// (what ST05 shows) at a fixed memory ceiling instead of growing without
/// bound.
#[derive(Debug)]
pub struct SqlTrace {
    enabled: AtomicBool,
    next_seq: AtomicU64,
    capacity: usize,
    entries: Mutex<VecDeque<SqlTraceEntry>>,
    dropped: AtomicU64,
}

/// Default ring capacity — comfortably above the largest single-query
/// trace in the workspace (TPC-D Q3 on the R/3 schema records ~35k calls).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Default for SqlTrace {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl SqlTrace {
    /// A trace whose ring holds at most `capacity` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SqlTrace {
            enabled: AtomicBool::new(false),
            next_seq: AtomicU64::new(0),
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Ring capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted from the ring since the last [`SqlTrace::clear`]
    /// (drained entries do not count as dropped).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain the recorded entries (ordered by sequence number).
    pub fn take(&self) -> Vec<SqlTraceEntry> {
        let mut entries: Vec<SqlTraceEntry> =
            std::mem::take(&mut *self.entries.lock().unwrap()).into();
        entries.sort_by_key(|e| e.seq);
        entries
    }

    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Non-draining view of the calls recorded under one request trace id
    /// (ordered by sequence number). This is "show me exactly what SQL
    /// that request submitted" — the ST05 workflow the paper's authors
    /// used, now joinable against M$TRACES.
    pub fn entries_for(&self, trace_id: u64) -> Vec<SqlTraceEntry> {
        let entries = self.entries.lock().unwrap();
        let mut out: Vec<SqlTraceEntry> =
            entries.iter().filter(|e| e.trace_id == trace_id).cloned().collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Begin recording one interface call; `None` when tracing is off.
    /// The guard's scratch meter scope captures exactly the work performed
    /// on this thread until [`SqlTraceGuard::finish`].
    pub fn begin(&self) -> Option<SqlTraceGuard<'_>> {
        if !self.is_enabled() {
            return None;
        }
        let meter = CostMeter::new();
        let scope = MeterScope::enter(Arc::clone(&meter));
        Some(SqlTraceGuard { trace: self, meter, error: None, _scope: scope })
    }
}

/// In-flight recording of one traced call. Dropping it without
/// [`SqlTraceGuard::finish`] discards the entry.
pub struct SqlTraceGuard<'a> {
    trace: &'a SqlTrace,
    meter: Arc<CostMeter>,
    error: Option<String>,
    _scope: MeterScope,
}

impl SqlTraceGuard<'_> {
    /// Record the call as failed with `error`.
    pub fn failed(mut self, error: &impl fmt::Display) -> Self {
        self.error = Some(error.to_string());
        self
    }

    pub fn finish(
        self,
        op: SqlOp,
        statement: impl Into<String>,
        params: &[Value],
        rows: u64,
        crossings: u64,
    ) {
        let work = self.meter.snapshot();
        let trace_id = trace::request::current_trace_id().unwrap_or(0);
        let seq = self.trace.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.trace.entries.lock().unwrap();
        if entries.len() == self.trace.capacity {
            entries.pop_front();
            self.trace.dropped.fetch_add(1, Ordering::Relaxed);
        }
        entries.push_back(SqlTraceEntry {
            seq,
            trace_id,
            op,
            statement: statement.into(),
            params: params.to_vec(),
            rows,
            crossings,
            work,
            error: self.error,
        });
        // _scope pops here, ending the attribution window.
    }
}

/// Aggregate view of a trace (per report / per experiment).
#[derive(Debug, Clone, Copy, Default)]
pub struct SqlTraceSummary {
    pub statements: u64,
    pub crossings: u64,
    pub rows: u64,
    pub buffer_hits: u64,
}

pub fn summarize(entries: &[SqlTraceEntry]) -> SqlTraceSummary {
    let mut s = SqlTraceSummary::default();
    for e in entries {
        s.statements += 1;
        s.crossings += e.crossings;
        s.rows += e.rows;
        if e.op == SqlOp::BufferHit {
            s.buffer_hits += 1;
        }
    }
    s
}

/// Render entries as an ST05-style list. `cal` converts each entry's work
/// delta into simulated milliseconds; `max_statement` truncates long SQL
/// and `max_entries` limits the listed calls (0 = no limit; the totals
/// line always covers every entry).
pub fn render(
    entries: &[SqlTraceEntry],
    cal: &trace::meter::Calibration,
    max_statement: usize,
    max_entries: usize,
) -> String {
    let shown = if max_entries > 0 { entries.len().min(max_entries) } else { entries.len() };
    let mut out = String::new();
    out.push_str("   # |       ms |     op | rows | x | statement\n");
    out.push_str("-----+----------+--------+------+---+----------------------------------------\n");
    for e in &entries[..shown] {
        let mut stmt = e.statement.replace('\n', " ");
        if max_statement > 0 && stmt.len() > max_statement {
            stmt.truncate(max_statement.saturating_sub(1));
            stmt.push('…');
        }
        if !e.params.is_empty() {
            let ps: Vec<String> = e.params.iter().map(|p| format!("'{p}'")).collect();
            stmt.push_str(&format!("  [{}]", ps.join(", ")));
        }
        if let Some(err) = &e.error {
            stmt.push_str(&format!("  !! {err}"));
        }
        out.push_str(&format!(
            "{:>4} | {:>8.3} | {:>6} | {:>4} | {} | {}\n",
            e.seq,
            cal.millis(&e.work),
            e.op.label(),
            e.rows,
            e.crossings,
            stmt,
        ));
    }
    if shown < entries.len() {
        out.push_str(&format!("   … ({} more calls not listed)\n", entries.len() - shown));
    }
    let s = summarize(entries);
    out.push_str(&format!(
        "total: {} statements, {} crossings, {} rows shipped, {} buffer hits\n",
        s.statements, s.crossings, s.rows, s.buffer_hits,
    ));
    out
}

/// JSON export: summary totals over *all* entries plus the first
/// `max_entries` entries in full (0 = all; `entries_truncated` records how
/// many were dropped).
pub fn to_json(
    entries: &[SqlTraceEntry],
    cal: &trace::meter::Calibration,
    max_entries: usize,
) -> Json {
    let shown = if max_entries > 0 { entries.len().min(max_entries) } else { entries.len() };
    let s = summarize(entries);
    let mut ms = 0.0;
    for e in entries {
        ms += cal.millis(&e.work);
    }
    Json::object()
        .field("statements", s.statements)
        .field("crossings", s.crossings)
        .field("rows_shipped", s.rows)
        .field("buffer_hits", s.buffer_hits)
        .field("traced_ms", ms)
        .field("entries_truncated", (entries.len() - shown) as u64)
        .field(
            "entries",
            Json::Array(entries[..shown].iter().map(SqlTraceEntry::to_json).collect()),
        )
}

impl fmt::Display for SqlOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_entries_and_counts_drops() {
        let trace = SqlTrace::with_capacity(4);
        trace.enable();
        for i in 0..10 {
            trace.begin().unwrap().finish(SqlOp::Exec, format!("S{i}"), &[], 0, 1);
        }
        assert_eq!(trace.dropped(), 6);
        let entries = trace.take();
        let stmts: Vec<&str> = entries.iter().map(|e| e.statement.as_str()).collect();
        assert_eq!(stmts, vec!["S6", "S7", "S8", "S9"]);
        // Draining is not dropping; clear resets the counter.
        assert_eq!(trace.dropped(), 6);
        trace.clear();
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn entries_carry_the_active_trace_id_and_are_retrievable_by_it() {
        let ring = trace::request::TraceRing::new(8);
        let st05 = SqlTrace::with_capacity(16);
        st05.enable();
        // Outside any request: crossings tag trace_id 0.
        st05.begin().unwrap().finish(SqlOp::Exec, "S-untraced", &[], 0, 1);
        let ctx = ring.begin("test", "first");
        let first_id = ctx.trace_id();
        {
            let _guard = ctx.install();
            st05.begin().unwrap().finish(SqlOp::Open, "S-first-a", &[], 1, 1);
            st05.begin().unwrap().finish(SqlOp::Reopen, "S-first-b", &[], 1, 1);
        }
        let ctx = ring.begin("test", "second");
        let second_id = ctx.trace_id();
        {
            let _guard = ctx.install();
            st05.begin().unwrap().finish(SqlOp::Commit, "S-second", &[], 0, 1);
        }
        let first: Vec<String> =
            st05.entries_for(first_id).iter().map(|e| e.statement.clone()).collect();
        assert_eq!(first, vec!["S-first-a", "S-first-b"]);
        assert_eq!(st05.entries_for(second_id).len(), 1);
        assert_eq!(st05.entries_for(0).len(), 1, "untraced crossing under id 0");
        // entries_for does not drain: the full ring is still there.
        assert_eq!(st05.take().len(), 4);
        // And the JSON export carries the id for offline correlation.
        st05.begin().unwrap().finish(SqlOp::Exec, "S-json", &[], 0, 1);
        let json = to_json(&st05.take(), &trace::meter::Calibration::default(), 0);
        assert!(serde_json::to_string(&json).unwrap().contains("\"trace_id\""));
    }

    #[test]
    fn default_capacity_is_large_and_ring_is_inert_below_it() {
        let trace = SqlTrace::default();
        assert_eq!(trace.capacity(), DEFAULT_TRACE_CAPACITY);
        trace.enable();
        for i in 0..100 {
            trace.begin().unwrap().finish(SqlOp::Open, format!("S{i}"), &[], 1, 1);
        }
        assert_eq!(trace.dropped(), 0);
        assert_eq!(trace.take().len(), 100);
    }
}
