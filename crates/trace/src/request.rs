//! Per-request trace context: the spine that attaches spans and wait
//! events to *one concrete request* instead of global accumulators.
//!
//! The paper's method is attribution — where did one slow dialog step's
//! response time go? — and PR 8's `M$` views only answer that in
//! aggregate. This module mints a [`TraceRing`]-scoped trace id at request
//! entry (wire-server statement, dispatcher submission), carries it across
//! threads inside a `Send` [`RequestCtx`], and installs it on the serving
//! thread as a `!Send` [`RequestGuard`]. While the guard is alive:
//!
//! * every [`span`](crate::span::span) opened on the thread also opens a
//!   wall-clock *frame* in the request's span tree (independent of whether
//!   a [`TraceSession`](crate::TraceSession) is installed), and
//! * every [`WaitStats::record`](crate::WaitStats::record) performed on
//!   the thread lands in the request as a [`WaitInterval`], attributed to
//!   the innermost open frame, and in the request's per-event totals.
//!
//! That single hook covers all five wait events because each is recorded on
//! the thread serving the request: the group-commit *leader* records
//! `WalFlush` and a *follower* records `GroupCommitWait` on their own
//! threads, a work process records `DispatchQueue` at pickup, and lock /
//! exec waits happen inline. No wait call site changes.
//!
//! When the guard drops — or [`RequestGuard::finish`] returns the service
//! time and wait totals, which is all `M$STATEMENTS` records of a
//! statement — the finished [`RequestTrace`] is pushed into the bounded
//! ring, where the `M$TRACES` / `M$SPANS` monitor views and the
//! Chrome trace-event exporter ([`chrome_trace_json`]) read it. The
//! [`critical_path`] analyzer decomposes the request's end-to-end wall
//! time into per-event segments plus an app-server remainder that
//! **provably sum to the end-to-end latency** (see the function docs).
//!
//! All times are wall-clock microseconds since the ring's epoch: waits are
//! real thread blocking, which the deterministic cost clock intentionally
//! does not model.

use crate::ctx::ThreadCtx;
use crate::wait::{WaitEvent, WaitSnapshot};
use serde_json::Json;
use std::collections::{HashSet, VecDeque};
use std::marker::PhantomData;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Spans recorded per request before overflow (counted, not silently lost).
pub const MAX_SPANS_PER_TRACE: usize = 512;
/// Wait intervals recorded per request before overflow.
pub const MAX_WAITS_PER_TRACE: usize = 1024;
/// Key/value annotations recorded per request before overflow.
pub const MAX_ANNOTATIONS: usize = 64;
/// Bytes of completed traces a [`TraceRing`] retains, whatever its
/// capacity in traces: a trace of one statement weighs a few hundred
/// bytes, one that hit every per-trace bound a hundred thousand.
pub const RING_BYTE_BUDGET: usize = 4 << 20;
/// Distinct span names a thread interns; later ones are allocated afresh.
const MAX_INTERNED_NAMES: usize = 1024;
/// [`SpanNode::parent`] of a span opened outside any other
/// ([`MAX_SPANS_PER_TRACE`] is far below).
pub const NO_PARENT: u16 = u16::MAX;
/// What [`frame_open`] returns for a frame past [`MAX_SPANS_PER_TRACE`].
const DROPPED: u16 = u16::MAX;
/// `SpanNode::waits` of a span that recorded no wait.
const NO_WAITS: u16 = u16::MAX;

/// One wait the request incurred, as a half-open interval on the ring's
/// microsecond timeline. Zero-length waits are counted in the span
/// breakdown but not stored as intervals — they contribute nothing to the
/// critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitInterval {
    pub event: WaitEvent,
    pub start_us: u64,
    pub end_us: u64,
}

impl WaitInterval {
    pub fn len_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Waits recorded while one span was the innermost open frame.
#[derive(Debug, Clone, Default)]
struct SpanWaits {
    counts: [u64; WaitEvent::COUNT],
    micros: [u64; WaitEvent::COUNT],
}

/// One closed span frame in a request's tree. The tree is stored flat, in
/// the order the spans opened — depth-first pre-order — with each span
/// naming its parent by index. What most spans of a trace share or lack
/// is held once by the [`RequestTrace`]: the name (see
/// [`RequestTrace::span_name`]) and the tally of waits recorded while the
/// span was the innermost open frame, which only a span that waited has.
#[derive(Debug, Clone)]
pub struct SpanNode {
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the enclosing span in [`RequestTrace::spans`], or
    /// [`NO_PARENT`].
    pub parent: u16,
    name: u16,
    waits: u16,
}

impl SpanNode {
    pub fn elapsed_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A finished request: identity, queue/service boundaries, the span tree,
/// and every non-zero wait interval — everything the critical-path
/// analyzer and the Chrome exporter need.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    pub trace_id: u64,
    /// Entry point that minted the id (`server/simple`, `r3/dialog`, ...).
    pub origin: &'static str,
    /// Human label: statement text, report name, job name. Shared with
    /// whoever minted the request, if they hold it as an `Arc` too.
    pub label: Arc<str>,
    /// When the request entered the system (mint time — for dispatched
    /// work this is submission, before any queueing).
    pub enqueued_us: u64,
    /// When a serving thread picked the request up (guard install).
    pub started_us: u64,
    /// When the request finished (guard drop).
    pub ended_us: u64,
    /// The span tree, flat (see [`SpanNode`]).
    pub spans: Vec<SpanNode>,
    /// The distinct span names, each shared with every other trace served
    /// by the same thread.
    names: Vec<Arc<str>>,
    /// The wait tallies of the spans that waited.
    span_waits: Vec<SpanWaits>,
    pub waits: Vec<WaitInterval>,
    pub annotations: Vec<(&'static str, Box<str>)>,
    /// Frames / intervals not recorded because the per-trace bound hit.
    pub dropped_spans: u64,
    pub dropped_waits: u64,
}

impl RequestTrace {
    /// Wall-clock end-to-end latency, queue time included.
    pub fn end_to_end_us(&self) -> u64 {
        self.ended_us.saturating_sub(self.enqueued_us)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    pub fn span_name(&self, span: &SpanNode) -> &str {
        &self.names[span.name as usize]
    }

    /// Waits of one kind recorded while `span` was the innermost open
    /// frame (its children's excluded).
    pub fn span_wait_count(&self, span: &SpanNode, event: WaitEvent) -> u64 {
        self.span_waits.get(span.waits as usize).map_or(0, |w| w.counts[event as usize])
    }

    pub fn span_wait_micros(&self, span: &SpanNode, event: WaitEvent) -> u64 {
        self.span_waits.get(span.waits as usize).map_or(0, |w| w.micros[event as usize])
    }

    /// What keeping this trace costs a ring, estimated from what it holds:
    /// the record, its arrays, and the text only it owns (a shared label
    /// is counted as if it were; a span name is one pointer).
    pub fn retained_bytes(&self) -> usize {
        size_of::<Self>()
            + 2 * size_of::<usize>()
            + self.label.len()
            + self.spans.len() * size_of::<SpanNode>()
            + self.names.len() * size_of::<Arc<str>>()
            + self.span_waits.len() * size_of::<SpanWaits>()
            + self.waits.len() * size_of::<WaitInterval>()
            + self.annotations.len() * size_of::<(&str, Box<str>)>()
            + self.annotations.iter().map(|(_, v)| v.len()).sum::<usize>()
    }

    /// Decompose this request's end-to-end time (see [`critical_path`]).
    pub fn critical_path(&self) -> CriticalPath {
        critical_path(&self.waits, self.enqueued_us, self.ended_us)
    }

    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations.iter().find(|(k, _)| *k == key).map(|(_, v)| &**v)
    }

    /// Span `i` and, nested under it, the spans that name it their parent.
    fn span_json(&self, i: usize) -> Json {
        let span = &self.spans[i];
        let mut waits = Json::object();
        for ev in WaitEvent::ALL {
            if self.span_wait_count(span, ev) > 0 {
                waits = waits.field(
                    ev.name(),
                    Json::object()
                        .field("count", self.span_wait_count(span, ev))
                        .field("micros", self.span_wait_micros(span, ev)),
                );
            }
        }
        Json::object()
            .field("name", self.span_name(span))
            .field("start_us", span.start_us)
            .field("end_us", span.end_us)
            .field("waits", waits)
            .field("children", Json::Array(self.spans_json(i as u16, i + 1)))
    }

    /// The spans from index `from` on whose parent is `parent`, as JSON.
    fn spans_json(&self, parent: u16, from: usize) -> Vec<Json> {
        let children = (from..self.spans.len()).filter(|&c| self.spans[c].parent == parent);
        children.map(|c| self.span_json(c)).collect()
    }

    pub fn to_json(&self) -> Json {
        let mut ann = Json::object();
        for (k, v) in &self.annotations {
            ann = ann.field(k, &**v);
        }
        Json::object()
            .field("trace_id", self.trace_id)
            .field("origin", self.origin)
            .field("label", &*self.label)
            .field("enqueued_us", self.enqueued_us)
            .field("started_us", self.started_us)
            .field("ended_us", self.ended_us)
            .field("end_to_end_us", self.end_to_end_us())
            .field("critical_path", self.critical_path().to_json())
            .field("spans", Json::Array(self.spans_json(NO_PARENT, 0)))
            .field(
                "waits",
                Json::Array(
                    self.waits
                        .iter()
                        .map(|w| {
                            Json::object()
                                .field("event", w.event.name())
                                .field("start_us", w.start_us)
                                .field("end_us", w.end_us)
                        })
                        .collect(),
                ),
            )
            .field("annotations", ann)
            .field("dropped_spans", self.dropped_spans)
            .field("dropped_waits", self.dropped_waits)
    }
}

/// A request's end-to-end time split into one segment per wait event plus
/// the app-server remainder. By construction (see [`critical_path`]):
/// `segments.sum() + app_server_us == end_to_end_us`, exactly, in u64
/// microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CriticalPath {
    pub end_to_end_us: u64,
    pub segments: [u64; WaitEvent::COUNT],
    /// Time covered by no wait interval: application-server code, server
    /// framing, dispatcher bookkeeping — everything above the engine.
    pub app_server_us: u64,
}

impl CriticalPath {
    pub fn segment(&self, event: WaitEvent) -> u64 {
        self.segments[event as usize]
    }

    /// `Σ segments + app_server` — always equals `end_to_end_us`.
    pub fn sum_us(&self) -> u64 {
        self.segments.iter().sum::<u64>() + self.app_server_us
    }

    /// Fraction of end-to-end time in one segment (0.0 when end-to-end
    /// is zero).
    pub fn fraction(&self, event: WaitEvent) -> f64 {
        if self.end_to_end_us == 0 {
            0.0
        } else {
            self.segment(event) as f64 / self.end_to_end_us as f64
        }
    }

    pub fn app_server_fraction(&self) -> f64 {
        if self.end_to_end_us == 0 {
            0.0
        } else {
            self.app_server_us as f64 / self.end_to_end_us as f64
        }
    }

    pub fn to_json(&self) -> Json {
        let mut obj = Json::object().field("end_to_end_us", self.end_to_end_us);
        for ev in WaitEvent::ALL {
            obj = obj.field(&format!("{}_us", ev.name()), self.segment(ev));
        }
        obj.field("app_server_us", self.app_server_us)
    }
}

/// Decompose a request window into per-event segments that **exactly**
/// partition it.
///
/// Rule: each microsecond of `[window_start, window_end)` covered by at
/// least one wait interval belongs to the *latest-starting* interval
/// covering it (ties broken by record order — the later record is the
/// inner one); uncovered microseconds are the app-server remainder. This
/// is the carve-out the taxonomy intends: `Exec` spans a statement's whole
/// execution, and a lock wait inside it starts later, so the lock steals
/// exactly its own microseconds from `Exec`.
///
/// Exactness holds by construction: the sweep walks the sorted boundary
/// points of all (window-clamped) intervals, and every elementary slice
/// between consecutive boundaries is attributed to exactly one bucket, so
/// the slices — which sum to `window_end - window_start` — are partitioned
/// with no rounding (all u64 µs arithmetic). The property test in
/// `trace/tests/request_props.rs` checks it under random interleavings.
pub fn critical_path(waits: &[WaitInterval], window_start: u64, window_end: u64) -> CriticalPath {
    let window_end = window_end.max(window_start);
    let end_to_end_us = window_end - window_start;
    // Clamp into the window; drop empties.
    let mut ivs: Vec<WaitInterval> = waits
        .iter()
        .map(|w| WaitInterval {
            event: w.event,
            start_us: w.start_us.clamp(window_start, window_end),
            end_us: w.end_us.clamp(window_start, window_end),
        })
        .filter(|w| w.start_us < w.end_us)
        .collect();
    // Stable sort keeps record order among equal starts: the later record
    // sits later in the list and wins as "innermost".
    ivs.sort_by_key(|w| w.start_us);

    let mut boundaries: Vec<u64> = Vec::with_capacity(ivs.len() * 2 + 2);
    boundaries.push(window_start);
    boundaries.push(window_end);
    for w in &ivs {
        boundaries.push(w.start_us);
        boundaries.push(w.end_us);
    }
    boundaries.sort_unstable();
    boundaries.dedup();

    let mut segments = [0u64; WaitEvent::COUNT];
    let mut app_server_us = 0u64;
    // Lazy-deletion stack: intervals in start order; the owner of a slice
    // is the latest-started interval still covering it.
    let mut stack: Vec<(WaitEvent, u64)> = Vec::new();
    let mut next = 0usize;
    for pair in boundaries.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        while next < ivs.len() && ivs[next].start_us <= a {
            stack.push((ivs[next].event, ivs[next].end_us));
            next += 1;
        }
        while stack.last().is_some_and(|&(_, end)| end <= a) {
            stack.pop();
        }
        match stack.last() {
            Some(&(event, _)) => segments[event as usize] += b - a,
            None => app_server_us += b - a,
        }
    }
    let path = CriticalPath { end_to_end_us, segments, app_server_us };
    debug_assert_eq!(path.sum_us(), end_to_end_us);
    path
}

// ---------------------------------------------------------------------------
// Active-request machinery (in the thread's context, driven by span.rs and
// wait.rs).
// ---------------------------------------------------------------------------

pub(crate) struct ActiveTrace {
    ring: Arc<TraceRing>,
    /// The trace so far; closed frames have their `end_us`. Its arrays are
    /// the thread's [`Spare`] ones until it is finished.
    trace: RequestTrace,
    /// Indices of the open frames, innermost last.
    open: Vec<u16>,
    /// Depth of span frames opened past [`MAX_SPANS_PER_TRACE`]; their
    /// closes unwind this counter before touching the real stack (strict
    /// RAII nesting makes the overflowed frames the innermost ones).
    overflow_depth: usize,
    /// Every wait recorded while this request was the innermost one —
    /// zero-length ones, ones outside any frame and ones past
    /// [`MAX_WAITS_PER_TRACE`] included. Kept here, not on the finished
    /// trace, so the ring's traces weigh no more for it.
    waits: WaitSnapshot,
}

impl ActiveTrace {
    fn close_frame(&mut self, end_us: u64) {
        if let Some(frame) = self.open.pop() {
            self.trace.spans[frame as usize].end_us = end_us;
        }
    }
}

/// The arrays a request's trace is collected into, empty. A thread keeps
/// one set from one request to the next — a request then grows none of
/// them, and the finished trace takes exact-sized copies. What a thread
/// keeps is bounded by the per-trace bounds (under 100 KB).
pub(crate) struct Spare {
    spans: Vec<SpanNode>,
    names: Vec<Arc<str>>,
    span_waits: Vec<SpanWaits>,
    waits: Vec<WaitInterval>,
    annotations: Vec<(&'static str, Box<str>)>,
    open: Vec<u16>,
}

impl Spare {
    pub(crate) const fn new() -> Spare {
        Spare {
            spans: Vec::new(),
            names: Vec::new(),
            span_waits: Vec::new(),
            waits: Vec::new(),
            annotations: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// Leave in `v` a copy of itself with no room to spare and return the
/// array it had, emptied.
fn right_size<T>(v: &mut Vec<T>) -> Vec<T> {
    let mut exact = Vec::with_capacity(v.len());
    exact.append(v);
    std::mem::replace(v, exact)
}

fn intern(names: &mut Option<HashSet<Arc<str>>>, name: &str) -> Arc<str> {
    let names = names.get_or_insert_with(HashSet::new);
    if let Some(known) = names.get(name) {
        return Arc::clone(known);
    }
    let fresh: Arc<str> = Arc::from(name);
    if names.len() < MAX_INTERNED_NAMES {
        names.insert(Arc::clone(&fresh));
    }
    fresh
}

/// Trace id of the innermost request active on this thread, if any. Used
/// by the ST05 SQL trace to tag interface crossings.
pub fn current_trace_id() -> Option<u64> {
    crate::ctx::with(|ctx| ctx.requests.last().map(|t| t.trace.trace_id))
}

/// Attach a key/value annotation to the innermost active request (lock
/// table names, group-commit role). No-op when no request is active.
pub fn annotate(key: &'static str, value: impl std::fmt::Display) {
    let value: Box<str> = value.to_string().into();
    crate::ctx::with(|ctx| {
        if let Some(t) = ctx.requests.last_mut() {
            if t.trace.annotations.len() < MAX_ANNOTATIONS {
                t.trace.annotations.push((key, value));
            }
        }
    });
}

/// Hook called by [`span`](crate::span::span): open a frame in the active
/// request's tree. Returns where, if a frame was opened ([`DROPPED`] past
/// the bound; the `Span` guard remembers, so close pairs with open even if
/// the request ends first).
pub(crate) fn frame_open(ctx: &mut ThreadCtx, name: &str) -> Option<u16> {
    let ThreadCtx { requests, names, .. } = ctx;
    let t = requests.last_mut()?;
    let trace = &mut t.trace;
    if trace.spans.len() >= MAX_SPANS_PER_TRACE {
        t.overflow_depth += 1;
        trace.dropped_spans += 1;
        return Some(DROPPED);
    }
    // A trace has a handful of distinct names: a scan finds a repeat.
    let known = trace.names.iter().position(|n| &**n == name);
    let name = known.unwrap_or_else(|| {
        trace.names.push(intern(names, name));
        trace.names.len() - 1
    }) as u16;
    let start_us = t.ring.now_us();
    let parent = t.open.last().copied().unwrap_or(NO_PARENT);
    let at = trace.spans.len() as u16;
    t.open.push(at);
    trace.spans.push(SpanNode { start_us, end_us: start_us, parent, name, waits: NO_WAITS });
    Some(at)
}

/// Hook called when a [`ResumableSpan`](crate::span::ResumableSpan) is
/// entered again: reopen its frame `at` (as [`frame_open`] returned it)
/// in the innermost active request. Returns whether a close is owed.
pub(crate) fn frame_resume(ctx: &mut ThreadCtx, at: u16) -> bool {
    let Some(t) = ctx.requests.last_mut() else {
        return false;
    };
    // Inside an overflowed frame, or a frame of another request: the
    // close unwinds the overflow counter (see `overflow_depth`).
    if at == DROPPED || t.overflow_depth > 0 || usize::from(at) >= t.trace.spans.len() {
        t.overflow_depth += 1;
    } else {
        t.open.push(at);
    }
    true
}

/// Hook called when a `Span` that opened a frame drops.
pub(crate) fn frame_close(ctx: &mut ThreadCtx) {
    let Some(t) = ctx.requests.last_mut() else {
        return; // the request already finished; nothing to close
    };
    if t.overflow_depth > 0 {
        t.overflow_depth -= 1;
        return;
    }
    let end_us = t.ring.now_us();
    t.close_frame(end_us);
}

/// Hook called by [`WaitStats::record`](crate::WaitStats::record): land
/// the completed wait in the innermost active request.
pub(crate) fn note_wait(event: WaitEvent, micros: u64) {
    crate::ctx::with(|ctx| {
        let Some(t) = ctx.requests.last_mut() else {
            return;
        };
        t.waits.add(event, micros);
        let trace = &mut t.trace;
        if let Some(&frame) = t.open.last() {
            let span = &mut trace.spans[frame as usize];
            if span.waits == NO_WAITS {
                span.waits = trace.span_waits.len() as u16;
                trace.span_waits.push(SpanWaits::default());
            }
            let tally = &mut trace.span_waits[span.waits as usize];
            tally.counts[event as usize] += 1;
            tally.micros[event as usize] += micros;
        }
        if micros == 0 {
            return; // counted above; contributes nothing to the path
        }
        if trace.waits.len() >= MAX_WAITS_PER_TRACE {
            trace.dropped_waits += 1;
            return;
        }
        let end_us = t.ring.now_us();
        // The wait may have begun before this thread picked the request
        // up (dispatch-queue time), but never before it entered.
        let start_us = end_us.saturating_sub(micros).max(trace.enqueued_us);
        trace.waits.push(WaitInterval { event, start_us, end_us });
    });
}

/// A minted-but-not-yet-serving request. `Send`: the dispatcher creates it
/// on the submitting thread and a work process [`install`](Self::install)s
/// it; its mint time is the queue-entry boundary.
#[derive(Debug)]
pub struct RequestCtx {
    ring: Arc<TraceRing>,
    trace_id: u64,
    origin: &'static str,
    label: Arc<str>,
    enqueued_us: u64,
}

impl RequestCtx {
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Begin serving on the current thread. While the returned guard is
    /// alive, this thread's spans and wait events attach to the request.
    pub fn install(self) -> RequestGuard {
        let started_us = self.ring.now_us();
        crate::ctx::with(|ctx| {
            let spare = std::mem::replace(&mut ctx.spare, Spare::new());
            ctx.requests.push(ActiveTrace {
                ring: self.ring,
                trace: RequestTrace {
                    trace_id: self.trace_id,
                    origin: self.origin,
                    label: self.label,
                    enqueued_us: self.enqueued_us,
                    started_us,
                    ended_us: started_us,
                    spans: spare.spans,
                    names: spare.names,
                    span_waits: spare.span_waits,
                    waits: spare.waits,
                    annotations: spare.annotations,
                    dropped_spans: 0,
                    dropped_waits: 0,
                },
                open: spare.open,
                overflow_depth: 0,
                waits: WaitSnapshot::default(),
            });
        });
        RequestGuard { _not_send: PhantomData }
    }
}

/// RAII guard for a request being served. Dropping it — or
/// [`finish`](Self::finish)ing it — ends the trace and pushes it into the
/// ring. `!Send`: it pops the same per-thread stack it pushed; strict
/// nesting is the caller's contract (guards are scoped around one
/// statement / one dispatched job).
pub struct RequestGuard {
    _not_send: PhantomData<*const ()>,
}

impl RequestGuard {
    /// End the request now and return its service time (install to now)
    /// and the totals of every wait recorded while it was the innermost
    /// request on this thread — what `M$STATEMENTS` folds per statement.
    pub fn finish(self) -> (Duration, WaitSnapshot) {
        std::mem::forget(self);
        finish_innermost()
    }
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        finish_innermost();
    }
}

/// Finish the innermost active request: close its open frames, hand its
/// arrays back to the thread and push the trace into its ring.
fn finish_innermost() -> (Duration, WaitSnapshot) {
    let finished = crate::ctx::with(|ctx| {
        let mut active = ctx.requests.pop()?;
        let ended_us = active.ring.now_us();
        while !active.open.is_empty() {
            active.close_frame(ended_us);
        }
        let trace = &mut active.trace;
        trace.ended_us = ended_us;
        ctx.spare = Spare {
            spans: right_size(&mut trace.spans),
            names: right_size(&mut trace.names),
            span_waits: right_size(&mut trace.span_waits),
            waits: right_size(&mut trace.waits),
            annotations: right_size(&mut trace.annotations),
            open: active.open,
        };
        Some((active.ring, active.trace, active.waits))
    });
    let Some((ring, trace, waits)) = finished else {
        return (Duration::ZERO, WaitSnapshot::default());
    };
    let service = Duration::from_micros(trace.ended_us.saturating_sub(trace.started_us));
    ring.push(trace);
    (service, waits)
}

/// Bounded ring of completed [`RequestTrace`]s plus the trace-id mint and
/// the microsecond epoch every trace timestamps against. Two bounds hold
/// at once: at most `capacity` traces, and at most [`RING_BYTE_BUDGET`]
/// bytes of them; the oldest trace goes while either is exceeded.
#[derive(Debug)]
pub struct TraceRing {
    epoch: Instant,
    capacity: usize,
    next_id: AtomicU64,
    completed: AtomicU64,
    evicted: AtomicU64,
    ring: Mutex<Retained>,
}

#[derive(Debug, Default)]
struct Retained {
    /// Oldest first, each with its [`RequestTrace::retained_bytes`] as
    /// estimated when it was pushed.
    traces: VecDeque<(usize, Arc<RequestTrace>)>,
    bytes: usize,
}

impl TraceRing {
    pub fn new(capacity: usize) -> Arc<TraceRing> {
        Arc::new(TraceRing {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            completed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            ring: Mutex::new(Retained::default()),
        })
    }

    /// Microseconds since the ring's epoch — the shared trace timeline.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Mint a trace id for a request entering the system now. A label
    /// handed over as an `Arc<str>` is shared, any other text is copied.
    pub fn begin(self: &Arc<Self>, origin: &'static str, label: impl Into<Arc<str>>) -> RequestCtx {
        RequestCtx {
            ring: Arc::clone(self),
            trace_id: self.next_id.fetch_add(1, Ordering::Relaxed),
            origin,
            label: label.into(),
            enqueued_us: self.now_us(),
        }
    }

    fn push(&self, trace: RequestTrace) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let bytes = trace.retained_bytes();
        let mut ring = self.ring.lock().unwrap();
        ring.traces.push_back((bytes, Arc::new(trace)));
        ring.bytes += bytes;
        while ring.traces.len() > self.capacity || ring.bytes > RING_BYTE_BUDGET {
            let Some((oldest, _)) = ring.traces.pop_front() else { break };
            ring.bytes -= oldest;
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every retained trace, oldest first. Cheap Arc clones; the scan
    /// holds the ring lock only while copying the pointers, so rotation
    /// during a monitor-view read cannot tear a trace in half.
    pub fn snapshot(&self) -> Vec<Arc<RequestTrace>> {
        self.ring.lock().unwrap().traces.iter().map(|(_, t)| Arc::clone(t)).collect()
    }

    pub fn get(&self, trace_id: u64) -> Option<Arc<RequestTrace>> {
        let ring = self.ring.lock().unwrap();
        ring.traces.iter().find(|(_, t)| t.trace_id == trace_id).map(|(_, t)| Arc::clone(t))
    }

    /// Estimated bytes of the retained traces (at most
    /// [`RING_BYTE_BUDGET`]).
    pub fn retained_bytes(&self) -> usize {
        self.ring.lock().unwrap().bytes
    }

    /// Total requests completed (including ones the ring since evicted).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Traces rotated out of the ring, by either bound.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop every retained trace (between experiment phases).
    pub fn clear(&self) {
        *self.ring.lock().unwrap() = Retained::default();
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export and validation.
// ---------------------------------------------------------------------------

/// Export traces as a Chrome trace-event document (the JSON object form),
/// loadable in `chrome://tracing` or Perfetto. One track (`tid`) per
/// request; each request, each span, and each wait interval becomes a
/// complete (`ph:"X"`) event with microsecond `ts`/`dur`. Events are
/// emitted in non-decreasing `ts` order per track ([`validate_chrome_trace`]
/// checks that, plus the required fields).
pub fn chrome_trace_json(traces: &[Arc<RequestTrace>]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for t in traces {
        // (ts, dur, name, cat, args) — sorted by ts before emission so the
        // per-track monotonicity contract holds regardless of how spans
        // and waits interleave.
        let mut evs: Vec<(u64, u64, String, &'static str, Option<Json>)> = Vec::new();
        evs.push((
            t.enqueued_us,
            t.end_to_end_us().max(1),
            format!("{} [{}]", t.label, t.origin),
            "request",
            Some(t.critical_path().to_json().field("trace_id", t.trace_id)),
        ));
        for span in &t.spans {
            let name = t.span_name(span).to_string();
            evs.push((span.start_us, span.elapsed_us().max(1), name, "span", None));
        }
        for w in &t.waits {
            evs.push((
                w.start_us,
                w.len_us().max(1),
                format!("wait:{}", w.event.name()),
                "wait",
                None,
            ));
        }
        evs.sort_by_key(|e| e.0);
        for (ts, dur, name, cat, args) in evs {
            let mut ev = Json::object()
                .field("name", name)
                .field("cat", cat)
                .field("ph", "X")
                .field("ts", ts)
                .field("dur", dur)
                .field("pid", 1u64)
                .field("tid", t.trace_id);
            if let Some(args) = args {
                ev = ev.field("args", args);
            }
            events.push(ev);
        }
    }
    Json::object().field("traceEvents", Json::Array(events)).field("displayTimeUnit", "ms")
}

/// Validate a Chrome trace-event document produced by
/// [`chrome_trace_json`] (or re-parsed from its serialized form): the
/// `traceEvents` array exists, every event carries `ph`/`ts`/`dur`/`pid`/
/// `tid`/`name`, and timestamps are non-decreasing per track. Returns the
/// number of events checked.
pub fn validate_chrome_trace(doc: &Json) -> Result<usize, String> {
    let events = match doc.get("traceEvents") {
        Some(Json::Array(evs)) => evs,
        _ => return Err("missing traceEvents array".to_string()),
    };
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let num = |key: &str| -> Result<f64, String> {
            ev.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i}: missing numeric '{key}'"))
        };
        match ev.get("ph").and_then(Json::as_str) {
            Some("X") => {}
            Some(other) => return Err(format!("event {i}: unexpected ph '{other}'")),
            None => return Err(format!("event {i}: missing ph")),
        }
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing name"));
        }
        let ts = num("ts")?;
        num("dur")?;
        num("pid")?;
        let tid = num("tid")? as u64;
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!("event {i}: ts {ts} < {prev} on track {tid} (not monotone)"));
            }
        }
        last_ts.insert(tid, ts);
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::WaitStats;

    fn iv(event: WaitEvent, start_us: u64, end_us: u64) -> WaitInterval {
        WaitInterval { event, start_us, end_us }
    }

    #[test]
    fn critical_path_partitions_exactly() {
        // Exec covers [10, 100); a lock wait [40, 70) carves itself out.
        let waits = [iv(WaitEvent::Exec, 10, 100), iv(WaitEvent::Lock, 40, 70)];
        let p = critical_path(&waits, 0, 120);
        assert_eq!(p.end_to_end_us, 120);
        assert_eq!(p.segment(WaitEvent::Exec), 60);
        assert_eq!(p.segment(WaitEvent::Lock), 30);
        assert_eq!(p.app_server_us, 30);
        assert_eq!(p.sum_us(), 120);
    }

    #[test]
    fn critical_path_latest_start_wins_on_overlap() {
        // Partial overlap, not nesting: the later-starting interval owns
        // its whole extent, the earlier one only the prefix.
        let waits = [iv(WaitEvent::WalFlush, 0, 50), iv(WaitEvent::GroupCommitWait, 30, 80)];
        let p = critical_path(&waits, 0, 80);
        assert_eq!(p.segment(WaitEvent::WalFlush), 30);
        assert_eq!(p.segment(WaitEvent::GroupCommitWait), 50);
        assert_eq!(p.app_server_us, 0);
        assert_eq!(p.sum_us(), 80);
    }

    #[test]
    fn critical_path_clamps_to_window() {
        let waits = [iv(WaitEvent::DispatchQueue, 0, 1000)];
        let p = critical_path(&waits, 100, 300);
        assert_eq!(p.end_to_end_us, 200);
        assert_eq!(p.segment(WaitEvent::DispatchQueue), 200);
        assert_eq!(p.app_server_us, 0);
    }

    #[test]
    fn guard_collects_spans_and_waits_into_the_ring() {
        let ring = TraceRing::new(8);
        let stats = WaitStats::new();
        let ctx = ring.begin("test", "demo request");
        let id = ctx.trace_id();
        {
            let _guard = ctx.install();
            assert_eq!(current_trace_id(), Some(id));
            {
                let _outer = crate::span("outer");
                {
                    let _inner = crate::span("inner");
                    stats.record(WaitEvent::Lock, Duration::from_micros(250));
                }
                stats.record(WaitEvent::Exec, Duration::from_micros(40));
            }
            annotate("kind", "unit-test");
        }
        assert_eq!(current_trace_id(), None);
        let traces = ring.snapshot();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.trace_id, id);
        assert_eq!(t.origin, "test");
        assert_eq!(t.span_count(), 2);
        let (outer, inner) = (&t.spans[0], &t.spans[1]);
        assert_eq!((t.span_name(outer), outer.parent), ("outer", NO_PARENT));
        assert_eq!((t.span_name(inner), inner.parent), ("inner", 0));
        assert_eq!(t.span_wait_micros(inner, WaitEvent::Lock), 250);
        assert_eq!(t.span_wait_micros(outer, WaitEvent::Exec), 40);
        assert_eq!(t.waits.len(), 2);
        assert_eq!(t.annotation("kind"), Some("unit-test"));
        // The fabricated durations exceed the real elapsed time, so the
        // per-segment split is degenerate — but the partition identity
        // must hold regardless.
        let p = t.critical_path();
        assert_eq!(p.sum_us(), t.end_to_end_us());
        assert_eq!(ring.get(id).unwrap().trace_id, id);
        // The JSON form nests what the trace stores flat.
        let json = t.to_json();
        let Some(Json::Array(roots)) = json.get("spans") else { panic!("no spans: {json:?}") };
        let Some(Json::Array(children)) = roots[0].get("children") else { panic!("{json:?}") };
        assert_eq!((roots.len(), children.len()), (1, 1));
        assert_eq!(children[0].get("name").and_then(Json::as_str), Some("inner"));
    }

    #[test]
    fn a_resumable_span_is_one_frame_across_its_calls() {
        let ring = TraceRing::new(8);
        let stats = WaitStats::new();
        let guard = ring.begin("test", "pull").install();
        {
            let _root = crate::span("root");
            let mut node = crate::ResumableSpan::new("node".to_string());
            for _ in 0..3 {
                let _call = node.enter();
                let _child = crate::span("child");
                stats.record(WaitEvent::Lock, Duration::from_micros(5));
            }
            let _after = crate::span("after");
            node.close();
        }
        drop(guard);
        let t = &ring.snapshot()[0];
        let names: Vec<(&str, u16)> = t.spans.iter().map(|s| (t.span_name(s), s.parent)).collect();
        assert_eq!(
            names,
            [
                ("root", NO_PARENT),
                ("node", 0),
                ("child", 1),
                ("child", 1),
                ("child", 1),
                ("after", 0)
            ]
        );
        let (node, last_child) = (&t.spans[1], &t.spans[4]);
        assert!(node.start_us <= t.spans[2].start_us && node.end_us >= last_child.end_us);
        assert_eq!(t.span_wait_count(&t.spans[2], WaitEvent::Lock), 1);
    }

    #[test]
    fn zero_length_waits_count_but_add_no_interval() {
        let ring = TraceRing::new(8);
        let stats = WaitStats::new();
        let guard = ring.begin("test", "uncontended locks").install();
        {
            let _s = crate::span("scan");
            for _ in 0..10 {
                stats.record(WaitEvent::Lock, Duration::ZERO);
            }
        }
        stats.record(WaitEvent::Lock, Duration::ZERO); // outside any frame
        let (_, waits) = guard.finish();
        let t = &ring.snapshot()[0];
        assert!(t.waits.is_empty());
        assert_eq!(t.span_wait_count(&t.spans[0], WaitEvent::Lock), 10);
        assert_eq!((waits.count(WaitEvent::Lock), waits.micros(WaitEvent::Lock)), (11, 0));
    }

    #[test]
    fn ring_rotation_is_bounded_and_counted() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            let ctx = ring.begin("test", format!("req {i}"));
            drop(ctx.install());
        }
        assert_eq!(ring.snapshot().len(), 4);
        assert_eq!(ring.completed(), 10);
        assert_eq!(ring.evicted(), 6);
        // Newest survive.
        assert!(ring.snapshot().iter().all(|t| t.trace_id > 6));
    }

    #[test]
    fn span_overflow_is_counted_and_unwinds_cleanly() {
        let ring = TraceRing::new(2);
        let ctx = ring.begin("test", "deep");
        {
            let _guard = ctx.install();
            let mut guards = Vec::new();
            for i in 0..(MAX_SPANS_PER_TRACE + 5) {
                guards.push(crate::span(&format!("s{i}")));
            }
        }
        let t = &ring.snapshot()[0];
        assert_eq!(t.span_count(), MAX_SPANS_PER_TRACE);
        assert_eq!(t.dropped_spans, 5);
    }

    #[test]
    fn nested_requests_innermost_wins() {
        let ring = TraceRing::new(8);
        let stats = WaitStats::new();
        let outer = ring.begin("test", "outer");
        let outer_id = outer.trace_id();
        let _og = outer.install();
        {
            let inner = ring.begin("test", "inner");
            let inner_id = inner.trace_id();
            let _ig = inner.install();
            assert_eq!(current_trace_id(), Some(inner_id));
            stats.record(WaitEvent::Exec, Duration::from_micros(5));
        }
        assert_eq!(current_trace_id(), Some(outer_id));
        let inner_trace = ring.snapshot().pop().unwrap();
        assert_eq!(&*inner_trace.label, "inner");
        assert_eq!(inner_trace.waits.len(), 1);
    }

    #[test]
    fn chrome_export_round_trips_and_validates() {
        let ring = TraceRing::new(8);
        let stats = WaitStats::new();
        for i in 0..3 {
            let ctx = ring.begin("test", format!("q{i}"));
            let _g = ctx.install();
            let _s = crate::span("exec");
            stats.record(WaitEvent::Exec, Duration::from_micros(30));
        }
        let doc = chrome_trace_json(&ring.snapshot());
        let n = validate_chrome_trace(&doc).expect("exported doc validates");
        assert!(n >= 9, "3 requests x (request + span + wait) = {n}");
        // And it survives serialization.
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let parsed = serde_json::from_str(&text).expect("round-trips");
        assert_eq!(validate_chrome_trace(&parsed).unwrap(), n);
    }

    #[test]
    fn validator_rejects_malformed_events() {
        let no_events = Json::object().field("displayTimeUnit", "ms");
        assert!(validate_chrome_trace(&no_events).is_err());
        let bad_event = Json::object().field(
            "traceEvents",
            Json::Array(vec![Json::object().field("ph", "X").field("name", "x")]),
        );
        assert!(validate_chrome_trace(&bad_event).unwrap_err().contains("ts"));
        let non_monotone = Json::object().field(
            "traceEvents",
            Json::Array(
                [(100u64, 10u64), (50, 10)]
                    .iter()
                    .map(|&(ts, dur)| {
                        Json::object()
                            .field("name", "e")
                            .field("ph", "X")
                            .field("ts", ts)
                            .field("dur", dur)
                            .field("pid", 1u64)
                            .field("tid", 7u64)
                    })
                    .collect(),
            ),
        );
        assert!(validate_chrome_trace(&non_monotone).unwrap_err().contains("monotone"));
    }
}
