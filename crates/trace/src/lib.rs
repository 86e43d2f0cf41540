//! Workspace-wide observability.
//!
//! The paper's method *is* observability: the authors found Section 4.1's
//! parameterized-plan disaster and Section 2.3's interface-crossing costs by
//! reading SAP's SQL trace, not by staring at end-to-end times. This crate
//! gives the reproduction the same three instruments, all driven by the
//! deterministic cost clock so every number is reproducible bit-for-bit:
//!
//! * [`meter`] — the cost clock itself ([`CostMeter`], [`Counter`],
//!   [`MeterSnapshot`], [`MeterScope`], [`Calibration`]), shared by the
//!   engine and the layers above it.
//! * [`mod@span`] — span-based tracing. A [`TraceSession`] installs a
//!   tracer on the thread; every [`span`](span::span) records the
//!   [`MeterSnapshot`] delta across its lifetime and the spans form a tree
//!   (plan nodes, SQL calls, report phases). Rendering multiplies the
//!   deltas by a [`Calibration`] to get simulated milliseconds per node —
//!   an `EXPLAIN ANALYZE` for the simulated 1996 hardware.
//! * [`histogram`] — a log-bucketed, mergeable, lock-free-enough
//!   [`Histogram`] for latency distributions (dispatcher queue wait and
//!   service time, per-stream query latencies).
//! * [`wait`] — the wait-event taxonomy ([`WaitEvent`], [`WaitStats`],
//!   [`WaitTimer`]) behind the live `M$WAIT_EVENTS` / `M$STATEMENTS`
//!   monitoring views: wall-clock off-CPU time (lock waits, log forces,
//!   queue waits) that the deterministic cost clock intentionally does not
//!   model.
//! * [`request`] — per-request trace context: a [`TraceRing`] mints a
//!   trace id at request entry, a `Send` [`RequestCtx`] carries it across
//!   the dispatcher queue, and while its guard is installed every span and
//!   wait event on the thread attaches to that request, which also keeps
//!   the request's wait totals ([`RequestGuard::finish`]). Completed
//!   [`RequestTrace`]s land in a bounded ring behind the `M$TRACES` /
//!   `M$SPANS` views, decompose into exact critical-path segments
//!   ([`critical_path`]), and export as Chrome trace-event JSON
//!   ([`chrome_trace_json`]).
//!
//! Each thread keeps the per-thread state of all of these — meter scopes,
//! the tracer, the requests being served — in one context behind one
//! thread-local, so a meter add, a wait record or a span open reaches it
//! with one access ([`listening`] asks whether any span listener is there).

mod ctx;
pub mod histogram;
pub mod meter;
pub mod request;
pub mod span;
pub mod wait;

pub use ctx::listening;
pub use histogram::Histogram;
pub use meter::{fmt_duration, Calibration, CostMeter, Counter, MeterScope, MeterSnapshot};
pub use request::{
    chrome_trace_json, critical_path, validate_chrome_trace, CriticalPath, RequestCtx,
    RequestGuard, RequestTrace, SpanNode, TraceRing, WaitInterval,
};
pub use span::{span, Entered, ResumableSpan, Span, SpanRecord, Trace, TraceSession};
pub use wait::{WaitEvent, WaitSnapshot, WaitStats, WaitTimer};
