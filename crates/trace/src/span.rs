//! Span-based tracing over the cost clock.
//!
//! A [`TraceSession`] installs a tracer on the thread, backed by a fresh
//! [`CostMeter`] entered as a [`MeterScope`], so every metered operation on
//! the thread — regardless of which meter it is charged to — is also
//! mirrored into the session meter. Each [`span`] snapshots that meter when
//! it opens and when it closes; the delta is the span's *inclusive* work,
//! and spans nest into a tree following RAII scope. Because the work unit is
//! the deterministic meter (not wall time), traces are bit-for-bit
//! reproducible and convert to simulated 1996 milliseconds through a
//! [`Calibration`].
//!
//! Instrumentation sites call [`span`] unconditionally; when nothing is
//! listening on the thread the guard is inert and costs one thread-local
//! read. The tracer lives in the thread's instrumentation context (see
//! [`crate::listening`]) beside the request trace, so one access serves
//! both. Sessions compose with existing [`MeterScope`]s in either nesting
//! order (a dispatcher request scope around a session, or a transaction
//! scope inside one): scope mirroring is additive.

use crate::meter::{Calibration, CostMeter, MeterScope, MeterSnapshot};
use serde_json::Json;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// One closed span: inclusive work plus the sub-spans opened beneath it.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: String,
    pub attrs: Vec<(String, String)>,
    /// Inclusive meter delta from open to close (children included).
    pub work: MeterSnapshot,
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    fn named(name: String) -> SpanRecord {
        SpanRecord { name, attrs: Vec::new(), work: MeterSnapshot::default(), children: Vec::new() }
    }

    /// Exclusive work: this span's delta minus its children's. Summing
    /// `self_work` over a tree reproduces the root's inclusive work.
    pub fn self_work(&self) -> MeterSnapshot {
        let mut childs = MeterSnapshot::default();
        for c in &self.children {
            childs = childs.plus(&c.work);
        }
        self.work.since(&childs)
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Depth-first search for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Number of spans in this subtree (including `self`).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanRecord::span_count).sum::<usize>()
    }

    pub fn to_json(&self, cal: &Calibration) -> Json {
        let mut attrs = Json::object();
        for (k, v) in &self.attrs {
            attrs = attrs.field(k, v.clone());
        }
        Json::object()
            .field("name", self.name.clone())
            .field("attrs", attrs)
            .field("self_ms", cal.millis(&self.self_work()))
            .field("cum_ms", cal.millis(&self.work))
            .field("work", self.work.to_json())
            .field("children", Json::Array(self.children.iter().map(|c| c.to_json(cal)).collect()))
    }

    fn render_into(&self, cal: &Calibration, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let attrs = if self.attrs.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = self.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!(" [{}]", parts.join(" "))
        };
        let w = &self.work;
        out.push_str(&format!(
            "{indent}-> {}{attrs}  (self {:.2} ms, cum {:.2} ms, pages {}, db_tuples {})\n",
            self.name,
            cal.millis(&self.self_work()),
            cal.millis(w),
            w.pages_read(),
            w.db_tuples(),
        ));
        for c in &self.children {
            c.render_into(cal, depth + 1, out);
        }
    }
}

struct Frame {
    name: String,
    attrs: Vec<(String, String)>,
    start: MeterSnapshot,
    children: Vec<SpanRecord>,
}

/// A [`TraceSession`]'s state in the thread's instrumentation context.
pub(crate) struct TracerState {
    meter: Arc<CostMeter>,
    stack: Vec<Frame>,
    roots: Vec<SpanRecord>,
}

/// Open a span. Inert (and nearly free) when no [`TraceSession`] is
/// installed on this thread. Independently of the tracer, the span also
/// opens a wall-clock frame in the active request trace, if one is
/// installed on this thread (see [`crate::request`]) — a request being
/// served and a `TraceSession` are orthogonal instruments.
pub fn span(name: &str) -> Span {
    crate::ctx::with(|ctx| {
        let req = crate::request::frame_open(ctx, name).is_some();
        let depth = match ctx.tracer.as_mut() {
            None => 0,
            Some(state) => state.push(SpanRecord::named(name.to_string())),
        };
        Span { depth, req, _not_send: PhantomData }
    })
}

impl TracerState {
    /// Push a frame that continues `record`; returns the new depth.
    fn push(&mut self, record: SpanRecord) -> usize {
        // The meter only grows, so it covers the work already recorded:
        // counting from `now - work` adds that back in at the close.
        let start = self.meter.snapshot().since(&record.work);
        let SpanRecord { name, attrs, children, .. } = record;
        self.stack.push(Frame { name, attrs, start, children });
        self.stack.len()
    }

    /// Pop the frame at `depth` into a record of its work.
    fn pop(&mut self, depth: usize) -> Option<SpanRecord> {
        // RAII + !Send make spans strictly nested, so our frame is on top.
        debug_assert_eq!(self.stack.len(), depth, "span closed out of order");
        let frame = self.stack.pop()?;
        let work = self.meter.snapshot().since(&frame.start);
        Some(SpanRecord { name: frame.name, attrs: frame.attrs, work, children: frame.children })
    }

    /// Attach a closed record to the innermost open span, or as a root.
    fn attach(&mut self, record: SpanRecord) {
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(record),
            None => self.roots.push(record),
        }
    }
}

/// RAII guard for an open span. Dropping it closes the span, computes the
/// inclusive work delta, and attaches the record to the enclosing span (or
/// to the session's root list). `!Send`, like the tracer it talks to.
pub struct Span {
    /// 1-based position of this span's frame on the tracer stack;
    /// 0 means the guard is inert (no session was active at open).
    depth: usize,
    /// Whether this span opened a frame in the active request trace.
    req: bool,
    _not_send: PhantomData<*const ()>,
}

impl Span {
    /// Attach a key/value attribute. May be called at any point while the
    /// span is open, including after child spans have closed (the usual
    /// pattern: run the children, then record `rows_out`).
    pub fn attr(&self, key: &str, value: impl fmt::Display) {
        if self.depth == 0 {
            return;
        }
        let attr = (key.to_string(), value.to_string());
        crate::ctx::with(|ctx| {
            if let Some(frame) = ctx.tracer.as_mut().and_then(|t| t.stack.get_mut(self.depth - 1)) {
                frame.attrs.push(attr);
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.req && self.depth == 0 {
            return;
        }
        crate::ctx::with(|ctx| {
            if self.req {
                crate::request::frame_close(ctx);
            }
            let Some(state) = ctx.tracer.as_mut().filter(|_| self.depth > 0) else {
                return;
            };
            if let Some(record) = state.pop(self.depth) {
                state.attach(record);
            }
        });
    }
}

/// A span entered once per call of a resumable producer — an executor
/// operator's `next` — and closed once, after its last call. Its work is
/// the sum of the calls' meter deltas, the spans opened during the calls
/// are its children, and it becomes a child of the span open when it is
/// closed. In the active request trace it is one frame, from its first
/// call's entry to its last call's exit. Whether a [`TraceSession`] sees
/// it is decided at its first call. `!Send`, like [`Span`].
pub struct ResumableSpan {
    /// Between calls, the tracer's record so far; dropped at the first
    /// call if no session sees it.
    record: Option<SpanRecord>,
    /// After the first call: the span's frame in the active request
    /// trace, if one was opened.
    frame: Option<Option<u16>>,
    _not_send: PhantomData<*const ()>,
}

/// One call inside a [`ResumableSpan`]; dropping it leaves the span.
pub struct Entered<'a> {
    span: &'a mut ResumableSpan,
    /// As [`Span`]'s fields.
    depth: usize,
    req: bool,
}

impl ResumableSpan {
    pub fn new(name: String) -> ResumableSpan {
        let record = Some(SpanRecord::named(name));
        ResumableSpan { record, frame: None, _not_send: PhantomData }
    }

    /// Enter the span for one call.
    pub fn enter(&mut self) -> Entered<'_> {
        crate::ctx::with(|ctx| {
            let req = match self.frame {
                Some(frame) => frame.is_some_and(|at| crate::request::frame_resume(ctx, at)),
                None => {
                    let name = self.record.as_ref().map_or("", |r| r.name.as_str());
                    let frame = crate::request::frame_open(ctx, name);
                    self.frame = Some(frame);
                    frame.is_some()
                }
            };
            let depth = match (ctx.tracer.as_mut(), self.record.take()) {
                (Some(state), Some(record)) => state.push(record),
                _ => 0,
            };
            Entered { span: self, depth, req }
        })
    }

    /// Attach a key/value attribute (between calls).
    pub fn attr(&mut self, key: &str, value: impl fmt::Display) {
        if let Some(record) = &mut self.record {
            record.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Close the span after its last call.
    pub fn close(mut self) {
        if let Some(record) = self.record.take() {
            crate::ctx::with(|ctx| ctx.tracer.as_mut().map(|state| state.attach(record)));
        }
    }
}

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        if !self.req && self.depth == 0 {
            return;
        }
        crate::ctx::with(|ctx| {
            if self.req {
                crate::request::frame_close(ctx);
            }
            if let Some(state) = ctx.tracer.as_mut().filter(|_| self.depth > 0) {
                self.span.record = state.pop(self.depth);
            }
        });
    }
}

/// Installs the thread-local tracer and a session [`CostMeter`] (entered as
/// a [`MeterScope`]) for the lifetime of the value. [`TraceSession::finish`]
/// uninstalls both and returns the collected [`Trace`]. One session per
/// thread at a time.
pub struct TraceSession {
    scope: Option<MeterScope>,
    calibration: Calibration,
}

impl TraceSession {
    pub fn start(calibration: Calibration) -> TraceSession {
        let meter = CostMeter::new();
        let scope = MeterScope::enter(Arc::clone(&meter));
        crate::ctx::with(|ctx| {
            assert!(ctx.tracer.is_none(), "a TraceSession is already active on this thread");
            ctx.tracer = Some(TracerState { meter, stack: Vec::new(), roots: Vec::new() });
        });
        TraceSession { scope: Some(scope), calibration }
    }

    /// Close the session and return the span tree. All spans opened during
    /// the session must be closed by now (RAII makes that the default).
    pub fn finish(mut self) -> Trace {
        let state =
            crate::ctx::with(|ctx| ctx.tracer.take()).expect("TraceSession state disappeared");
        debug_assert!(state.stack.is_empty(), "unclosed spans at TraceSession::finish");
        let total = state.meter.snapshot();
        self.scope = None; // drop the MeterScope now
        Trace { calibration: self.calibration, total, roots: state.roots }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // Abandoned without finish() (e.g. unwinding): uninstall the tracer
        // so the thread can host a future session.
        if self.scope.is_some() {
            drop(crate::ctx::with(|ctx| ctx.tracer.take()));
        }
    }
}

/// A finished trace: the session's total work plus the span tree.
#[derive(Debug, Clone)]
pub struct Trace {
    pub calibration: Calibration,
    /// Everything metered on the thread while the session was active,
    /// including work outside any span.
    pub total: MeterSnapshot,
    pub roots: Vec<SpanRecord>,
}

impl Trace {
    /// Simulated seconds for the whole session.
    pub fn seconds(&self) -> f64 {
        self.calibration.seconds(&self.total)
    }

    /// The single root span, when the trace has exactly one.
    pub fn root(&self) -> Option<&SpanRecord> {
        if self.roots.len() == 1 {
            self.roots.first()
        } else {
            None
        }
    }

    /// Sum of exclusive (self) milliseconds over every span — equals each
    /// root's inclusive time, so the rendered tree "adds up".
    pub fn self_ms_total(&self) -> f64 {
        fn walk(rec: &SpanRecord, cal: &Calibration) -> f64 {
            cal.millis(&rec.self_work()) + rec.children.iter().map(|c| walk(c, cal)).sum::<f64>()
        }
        self.roots.iter().map(|r| walk(r, &self.calibration)).sum()
    }

    /// EXPLAIN-ANALYZE style tree, one line per span.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {:.2} ms simulated total ({} spans)\n",
            self.calibration.millis(&self.total),
            self.roots.iter().map(SpanRecord::span_count).sum::<usize>(),
        ));
        for r in &self.roots {
            r.render_into(&self.calibration, 0, &mut out);
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::object()
            .field("total_ms", self.calibration.millis(&self.total))
            .field("total", self.total.to_json())
            .field(
                "spans",
                Json::Array(self.roots.iter().map(|r| r.to_json(&self.calibration)).collect()),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::Counter;

    fn charge(meter: &CostMeter, n: u64) {
        meter.add(Counter::DbTuples, n);
    }

    #[test]
    fn spans_collect_into_a_tree_with_deltas() {
        let work = CostMeter::new(); // stand-in for an engine-global meter
        let session = TraceSession::start(Calibration::default());
        {
            let root = span("root");
            charge(&work, 1);
            {
                let _child = span("child-a");
                charge(&work, 10);
            }
            {
                let child = span("child-b");
                charge(&work, 100);
                child.attr("rows_out", 7);
            }
            charge(&work, 1000);
            root.attr("kind", "test");
        }
        let trace = session.finish();
        assert_eq!(trace.total.db_tuples(), 1111);
        let root = trace.root().expect("one root");
        assert_eq!(root.work.db_tuples(), 1111);
        assert_eq!(root.self_work().db_tuples(), 1001);
        assert_eq!(root.attr("kind"), Some("test"));
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].work.db_tuples(), 10);
        assert_eq!(root.children[1].work.db_tuples(), 100);
        assert_eq!(root.children[1].attr("rows_out"), Some("7"));
    }

    #[test]
    fn resumable_span_sums_its_calls_and_attaches_at_close() {
        let work = CostMeter::new();
        let session = TraceSession::start(Calibration::default());
        {
            let _root = span("root");
            let mut node = ResumableSpan::new("node".to_string());
            for call in 0..3 {
                {
                    let _call = node.enter();
                    charge(&work, 10);
                    let _child = span(&format!("child-{call}"));
                    charge(&work, 1);
                }
                charge(&work, 100); // the caller's, between calls
            }
            node.attr("rows_out", 3);
            node.close();
        }
        let trace = session.finish();
        let root = trace.root().expect("one root");
        assert_eq!(root.work.db_tuples(), 333);
        assert_eq!(root.children.len(), 1);
        let node = &root.children[0];
        assert_eq!(node.name, "node");
        assert_eq!(node.work.db_tuples(), 33);
        assert_eq!(node.self_work().db_tuples(), 30);
        let names: Vec<&str> = node.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["child-0", "child-1", "child-2"]);
        assert_eq!(node.attr("rows_out"), Some("3"));
    }

    #[test]
    fn self_ms_sums_to_root_inclusive_ms() {
        let work = CostMeter::new();
        let session = TraceSession::start(Calibration::default());
        {
            let _root = span("root");
            {
                let _a = span("a");
                charge(&work, 17);
                {
                    let _b = span("b");
                    work.add(Counter::RandPageReads, 3);
                }
            }
            work.add(Counter::SeqPageReads, 5);
        }
        let trace = session.finish();
        let root_ms = trace.calibration.millis(&trace.root().unwrap().work);
        assert!((trace.self_ms_total() - root_ms).abs() < 1e-9);
    }

    #[test]
    fn spans_are_inert_without_a_session() {
        let work = CostMeter::new();
        let s = span("orphan");
        s.attr("ignored", 1);
        charge(&work, 5);
        drop(s);
        assert!(!crate::listening());
    }

    #[test]
    fn session_composes_with_meter_scopes() {
        // A dispatcher-style request scope wrapping a session, and a
        // transaction-style scope inside one: both meters see the work and
        // the span tree still nests correctly across the scope boundaries.
        let request = CostMeter::new();
        let txn = CostMeter::new();
        let work = CostMeter::new();
        let _request_scope = MeterScope::enter(Arc::clone(&request));
        let session = TraceSession::start(Calibration::default());
        {
            let _outer = span("request");
            charge(&work, 1);
            {
                let _txn_scope = MeterScope::enter(Arc::clone(&txn));
                let _inner = span("txn");
                charge(&work, 10);
            }
            charge(&work, 100);
        }
        let trace = session.finish();
        assert_eq!(trace.total.db_tuples(), 111);
        let root = trace.root().unwrap();
        assert_eq!(root.work.db_tuples(), 111);
        assert_eq!(root.find("txn").unwrap().work.db_tuples(), 10);
        assert_eq!(request.get(Counter::DbTuples), 111);
        assert_eq!(txn.get(Counter::DbTuples), 10);
    }

    #[test]
    fn abandoned_session_uninstalls_tracer() {
        {
            let _session = TraceSession::start(Calibration::default());
            assert!(crate::listening());
        }
        assert!(!crate::listening());
        // And a new session can start afterwards.
        let s = TraceSession::start(Calibration::default());
        s.finish();
    }
}
