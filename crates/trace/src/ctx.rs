//! The per-thread instrumentation context.
//!
//! Every instrument that attributes to "whatever this thread is doing"
//! keeps its per-thread state in one [`ThreadCtx`]: the meter scopes
//! [`CostMeter::add`] mirrors into, the plan tracer of a
//! [`TraceSession`](crate::TraceSession), the requests being served with
//! the arrays they collect into, and the interned span names. One
//! `const`-initialised thread-local means each hot-path hook — a meter add,
//! a wait record, a span open or close, the executor's listener gate —
//! reaches all of it with a single thread-local access.
//!
//! Nothing re-enters the context while it is borrowed: the code that runs
//! under the borrow touches only atomics, the trace ring's mutex and plain
//! allocations, never another instrument. Formatting caller-supplied values
//! happens before the borrow.

use crate::meter::CostMeter;
use crate::request::{ActiveTrace, Spare};
use crate::span::TracerState;
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

pub(crate) struct ThreadCtx {
    /// Meters every [`CostMeter::add`] on this thread is mirrored into
    /// (one per live [`MeterScope`](crate::MeterScope), innermost last).
    pub(crate) scopes: Vec<Arc<CostMeter>>,
    /// The plan tracer of the installed trace session, if any.
    pub(crate) tracer: Option<TracerState>,
    /// Requests being served on this thread, innermost last.
    pub(crate) requests: Vec<ActiveTrace>,
    /// The arrays the next request installed on this thread collects into.
    pub(crate) spare: Spare,
    /// Span names opened on this thread: a span of a name seen before
    /// allocates nothing, and retained traces share one copy of the text.
    pub(crate) names: Option<HashSet<Arc<str>>>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx {
            scopes: Vec::new(),
            tracer: None,
            requests: Vec::new(),
            spare: Spare::new(),
            names: None,
        })
    };
}

/// Run `f` on this thread's context.
pub(crate) fn with<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> R {
    CTX.with(|ctx| f(&mut ctx.borrow_mut()))
}

/// Is anything on this thread listening to spans — a trace session or a
/// request trace? Instrumentation that does extra work to label a span
/// (formatting, counting rows) gates on this; plain
/// [`span`](crate::span::span) calls don't need to.
pub fn listening() -> bool {
    with(|ctx| ctx.tracer.is_some() || !ctx.requests.is_empty())
}
