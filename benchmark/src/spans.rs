//! Harness-side spans: one record around each call the benchmark makes
//! into a layer. Spans stay in memory and are written once, at the end.

use serde_json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    /// All spans of one op share this id.
    pub op: u64,
    pub id: u32,
    /// The span that caused this one ([`ROOT`] for the op span itself).
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Engine tuples processed inside the span, where the harness took a
    /// counter snapshot at both edges (single-client workloads), else 0.
    pub db_tuples: u64,
}

/// An open span: close it with [`Tracer::end`].
pub struct Open {
    name: &'static str,
    op: u64,
    pub id: u32,
    parent: u32,
    start_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    done: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), next_id: AtomicU32::new(1), done: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, op: u64, parent: u32) -> Open {
        // Relaxed: the id publishes nothing but itself.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { name, op, id, parent, start_ns: self.now_ns() }
    }

    pub fn end(&self, open: Open, db_tuples: u64) {
        let rec = SpanRec {
            name: open.name,
            op: open.op,
            id: open.id,
            parent: open.parent,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            db_tuples,
        };
        self.done.lock().expect("span sink poisoned by a panicking client thread").push(rec);
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.done.lock().expect("span sink poisoned"))
    }
}

/// Run `f` inside a span when tracing is on; just run it otherwise. The
/// closure receives the span's id to parent its own children on.
pub fn spanned<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    parent: u32,
    f: impl FnOnce(u32) -> T,
) -> T {
    match tracer {
        None => f(ROOT),
        Some(t) => {
            let open = t.begin(name, op, parent);
            let out = f(open.id);
            t.end(open, 0);
            out
        }
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (clipped to the interval; children may overlap each other).
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Per-span self time: its duration minus the part of that interval its
/// child spans cover. Returns (span index, self ns) in input order.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            match children.get_mut(&s.id) {
                None => dur,
                Some(kids) => dur - covered_ns(s.start_ns, s.end_ns, kids).min(dur),
            }
        })
        .collect()
}

/// Totals per span name: (count, total ns, self ns).
pub fn by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns.saturating_sub(s.start_ns);
        e.2 += self_ns;
    }
    out
}

/// Share of op wall time covered by child spans: 1 - Σ op self / Σ op.
pub fn coverage(spans: &[SpanRec]) -> f64 {
    match by_name(spans).get("op") {
        Some(&(_, total, self_ns)) if total > 0 => 1.0 - self_ns as f64 / total as f64,
        _ => 0.0,
    }
}

pub fn to_json(spans: &[SpanRec]) -> Json {
    Json::Array(
        spans
            .iter()
            .map(|s| {
                Json::object()
                    .field("name", s.name)
                    .field("op", s.op)
                    .field("id", s.id as u64)
                    .field("parent", s.parent as u64)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .field("db_tuples", s.db_tuples)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { name, op: 1, id, parent, start_ns, end_ns, db_tuples: 0 }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span("op", 1, ROOT, 0, 100),
            span("parse", 2, 1, 10, 20),
            span("execute", 3, 1, 30, 90),
            span("inner", 4, 3, 40, 50),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 50, 10]);
        assert!((coverage(&spans) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children overlap on [40, 60); a third sticks out past the parent.
        let spans = [
            span("op", 1, ROOT, 0, 100),
            span("a", 2, 1, 20, 60),
            span("b", 3, 1, 40, 80),
            span("c", 4, 1, 90, 130),
        ];
        // Covered: [20, 80) + [90, 100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn by_name_sums_count_total_and_self() {
        let spans = [
            span("op", 1, ROOT, 0, 10),
            span("execute", 2, 1, 2, 8),
            span("op", 3, ROOT, 10, 30),
            span("execute", 4, 3, 10, 30),
        ];
        let names = by_name(&spans);
        assert_eq!(names["op"], (2, 30, 4));
        assert_eq!(names["execute"], (2, 26, 26));
    }

    #[test]
    fn tracer_records_parentage() {
        let t = Tracer::new();
        let got =
            spanned(Some(&t), "op", 7, ROOT, |op| spanned(Some(&t), "execute", 7, op, |_| 42));
        assert_eq!(got, 42);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let (child, parent) = (&spans[0], &spans[1]);
        assert_eq!((child.name, parent.name), ("execute", "op"));
        assert_eq!(child.parent, parent.id);
        assert_eq!(child.op, 7);
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        assert_eq!(spanned(None, "op", 1, ROOT, |id| id), ROOT);
    }
}
