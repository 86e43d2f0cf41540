//! Property test for the per-thread instrumentation context. Meter scopes,
//! request traces, a trace session and spans all keep their state in one
//! context per thread, so a random interleaving of them on one thread must
//! leave each instrument's attribution exactly what a model says — and
//! must never borrow the context twice (which would panic).

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use trace::{
    Calibration, CostMeter, Counter, MeterScope, MeterSnapshot, RequestGuard, Span, SpanRecord,
    TraceRing, TraceSession, WaitEvent, WaitSnapshot, WaitStats,
};

/// One live RAII guard on the thread, with what the model expects of it.
enum Frame {
    Scope {
        meter: Arc<CostMeter>,
        scope: MeterScope,
        expected: MeterSnapshot,
    },
    Request {
        guard: RequestGuard,
        id: u64,
        /// Waits recorded while this request was innermost, so far.
        waits: WaitSnapshot,
        /// The global snapshot taken when it last became innermost.
        since: Option<WaitSnapshot>,
    },
    Session {
        session: TraceSession,
        expected: MeterSnapshot,
        /// Expected inclusive work of every traced span closed under it.
        closed: HashMap<u64, MeterSnapshot>,
    },
    Span {
        span: Span,
        id: u64,
        /// Opened while a session was installed (so the tracer records it).
        traced: bool,
        expected: MeterSnapshot,
    },
}

struct Model {
    stack: Vec<Frame>,
    ring: Arc<TraceRing>,
    global: Arc<CostMeter>,
    stats: Arc<WaitStats>,
    next_span: u64,
}

fn plus(snap: &MeterSnapshot, counter: Counter, n: u64) -> MeterSnapshot {
    snap.with(counter, snap.get(counter) + n)
}

impl Model {
    fn has_session(&self) -> bool {
        self.stack.iter().any(|f| matches!(f, Frame::Session { .. }))
    }

    fn innermost_request(&mut self) -> Option<&mut Frame> {
        self.stack.iter_mut().rev().find(|f| matches!(f, Frame::Request { .. }))
    }

    /// The innermost request stops (`pause`) or starts (`!pause`) being
    /// the one waits land in.
    fn switch_innermost(&mut self, pause: bool) {
        let now = self.stats.snapshot();
        if let Some(Frame::Request { waits, since, .. }) = self.innermost_request() {
            if pause {
                let from = since.take().expect("the innermost request is running");
                *waits = waits.plus(&now.since(&from));
            } else {
                *since = Some(now);
            }
        }
    }

    fn push(&mut self, kind: u8) {
        match kind {
            0 => {
                let meter = CostMeter::new();
                let scope = MeterScope::enter(Arc::clone(&meter));
                self.stack.push(Frame::Scope { meter, scope, expected: MeterSnapshot::default() });
            }
            1 => {
                self.switch_innermost(true);
                let ctx = self.ring.begin("prop", "request");
                let id = ctx.trace_id();
                let guard = ctx.install();
                self.stack.push(Frame::Request {
                    guard,
                    id,
                    waits: WaitSnapshot::default(),
                    since: Some(self.stats.snapshot()),
                });
            }
            2 if !self.has_session() => self.stack.push(Frame::Session {
                session: TraceSession::start(Calibration::default()),
                expected: MeterSnapshot::default(),
                closed: HashMap::new(),
            }),
            _ => {
                let id = self.next_span;
                self.next_span += 1;
                let span = trace::span(["scan", "probe", "join"][id as usize % 3]);
                span.attr("id", id);
                self.stack.push(Frame::Span {
                    span,
                    id,
                    traced: self.has_session(),
                    expected: MeterSnapshot::default(),
                });
            }
        }
    }

    fn pop(&mut self) {
        let Some(frame) = self.stack.pop() else { return };
        match frame {
            Frame::Scope { meter, scope, expected } => {
                drop(scope);
                assert_eq!(meter.snapshot(), expected, "a scoped meter holds its adds");
            }
            Frame::Request { guard, id, waits, since } => {
                let from = since.expect("the popped request is the innermost");
                let waits = waits.plus(&self.stats.snapshot().since(&from));
                let (service, totals) = guard.finish();
                assert_eq!(totals, waits, "request {id}: totals are its waits while innermost");
                let t = self.ring.get(id).expect("a finished request is in the ring");
                assert_eq!(service.as_micros() as u64, t.ended_us - t.started_us);
                assert_eq!(t.critical_path().sum_us(), t.end_to_end_us());
                self.switch_innermost(false);
            }
            Frame::Session { session, expected, closed } => {
                let trace = session.finish();
                assert_eq!(trace.total, expected, "the session meter holds its adds");
                let mut self_sum = MeterSnapshot::default();
                let mut seen = 0;
                for root in &trace.roots {
                    check_span(root, &closed, &mut self_sum, &mut seen);
                }
                let roots =
                    trace.roots.iter().fold(MeterSnapshot::default(), |acc, r| acc.plus(&r.work));
                assert_eq!(self_sum, roots, "self work sums to the roots' work");
                assert_eq!(seen, closed.len(), "every traced span is in the tree once");
            }
            Frame::Span { span, id, traced, expected } => {
                drop(span);
                if traced {
                    let Some(Frame::Session { closed, .. }) =
                        self.stack.iter_mut().rev().find(|f| matches!(f, Frame::Session { .. }))
                    else {
                        panic!("a traced span closes under its session");
                    };
                    closed.insert(id, expected);
                }
            }
        }
    }

    /// Meter `n` of `counter`, into the innermost scope's own meter when
    /// `own` (a scope never counts its own adds twice), else a global one.
    fn add(&mut self, counter: Counter, n: u64, own: bool) {
        let target = self
            .stack
            .iter()
            .rev()
            .find_map(|f| match f {
                Frame::Scope { meter, .. } if own => Some(Arc::clone(meter)),
                _ => None,
            })
            .unwrap_or_else(|| Arc::clone(&self.global));
        target.add(counter, n);
        for frame in &mut self.stack {
            match frame {
                Frame::Scope { expected, .. } | Frame::Session { expected, .. } => {
                    *expected = plus(expected, counter, n);
                }
                Frame::Span { expected, traced: true, .. } => {
                    *expected = plus(expected, counter, n)
                }
                _ => {}
            }
        }
    }

    fn check_listeners(&self) {
        let request = self.stack.iter().rev().find_map(|f| match f {
            Frame::Request { id, .. } => Some(*id),
            _ => None,
        });
        assert_eq!(trace::request::current_trace_id(), request);
        assert_eq!(trace::listening(), self.has_session() || request.is_some());
    }
}

impl Drop for Model {
    /// Guards go innermost first even when a failed check unwinds.
    fn drop(&mut self) {
        while self.stack.pop().is_some() {}
    }
}

fn check_span(
    rec: &SpanRecord,
    closed: &HashMap<u64, MeterSnapshot>,
    self_sum: &mut MeterSnapshot,
    seen: &mut usize,
) {
    let id: u64 = rec.attr("id").expect("every span is labelled").parse().unwrap();
    assert_eq!(Some(&rec.work), closed.get(&id), "span {id}: inclusive work");
    *self_sum = self_sum.plus(&rec.self_work());
    *seen += 1;
    for child in &rec.children {
        check_span(child, closed, self_sum, seen);
    }
}

fn drive(ops: Vec<(u8, u64, u64)>) {
    let mut model = Model {
        stack: Vec::new(),
        ring: TraceRing::new(1024),
        global: CostMeter::new(),
        stats: WaitStats::new(),
        next_span: 0,
    };
    for (op, a, b) in ops {
        match op {
            0..=4 => model.push(op),
            5..=7 => model.pop(),
            8..=9 => {
                let counter = Counter::ALL[a as usize % Counter::COUNT];
                model.add(counter, b % 1000, op == 9);
            }
            10..=11 => {
                let event = WaitEvent::ALL[a as usize % WaitEvent::COUNT];
                let micros = if b % 4 == 0 { 0 } else { b % 500 };
                model.stats.record(event, Duration::from_micros(micros));
            }
            _ => trace::request::annotate("op", a),
        }
        model.check_listeners();
    }
    while !model.stack.is_empty() {
        model.pop();
        model.check_listeners();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving of scope enter/exit, nested request install and
    /// finish, session start/finish, span open/close, meter adds, wait
    /// records and annotations on one thread.
    #[test]
    fn instruments_sharing_the_thread_context_attribute_exactly(
        ops in prop::collection::vec((0u8..13, 0u64..1_000, 0u64..10_000), 1..120),
    ) {
        drive(ops);
    }
}

/// The same interleavings on several threads at once: each thread's
/// context is its own.
#[test]
fn thread_contexts_are_independent() {
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..50u64 {
                    let ops = (0..60u64)
                        .map(|k| {
                            let x = (t * 7919 + i * 104_729 + k * 1_299_709) % 1_000_003;
                            ((x % 13) as u8, x % 1_000, x % 10_000)
                        })
                        .collect();
                    drive(ops);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}
