//! Property tests for per-request critical-path attribution: the whole
//! point of the decomposition is that its segments *provably* sum to the
//! end-to-end latency, so we check exactly that — first on the pure
//! analyzer under arbitrary interval soups, then end to end through the
//! real span/wait machinery under random interleavings.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use trace::request::{
    annotate, critical_path, TraceRing, WaitInterval, MAX_ANNOTATIONS, MAX_SPANS_PER_TRACE,
    MAX_WAITS_PER_TRACE, NO_PARENT, RING_BYTE_BUDGET,
};
use trace::{chrome_trace_json, validate_chrome_trace, WaitEvent, WaitStats};

fn arb_event() -> impl Strategy<Value = WaitEvent> {
    (0..WaitEvent::COUNT).prop_map(|i| WaitEvent::ALL[i])
}

fn arb_interval(horizon: u64) -> impl Strategy<Value = WaitInterval> {
    (arb_event(), 0..horizon, 0..horizon).prop_map(|(event, a, b)| WaitInterval {
        event,
        start_us: a.min(b),
        end_us: a.max(b),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure analyzer: for any soup of (possibly overlapping, nested,
    /// out-of-window, zero-length) wait intervals and any window, the
    /// per-event segments plus the app-server remainder partition the
    /// window exactly, in u64 microseconds.
    #[test]
    fn segments_partition_any_window_exactly(
        ivs in prop::collection::vec(arb_interval(10_000), 0..64),
        a in 0u64..10_000,
        b in 0u64..10_000,
    ) {
        let (lo, hi) = (a.min(b), a.max(b));
        let p = critical_path(&ivs, lo, hi);
        prop_assert_eq!(p.end_to_end_us, hi - lo);
        prop_assert_eq!(p.sum_us(), hi - lo);
        // And each segment is bounded by the total covered time.
        let covered: u64 = p.segments.iter().sum();
        prop_assert!(covered <= p.end_to_end_us);
        prop_assert_eq!(covered + p.app_server_us, p.end_to_end_us);
    }

    /// A degenerate window attributes nothing.
    #[test]
    fn empty_window_is_all_zero(
        ivs in prop::collection::vec(arb_interval(1_000), 0..16),
        at in 0u64..1_000,
    ) {
        let p = critical_path(&ivs, at, at);
        prop_assert_eq!(p.end_to_end_us, 0);
        prop_assert_eq!(p.sum_us(), 0);
    }

    /// End to end through the real machinery: install a request, drive a
    /// random interleaving of span opens/closes and wait records, and the
    /// finished trace's critical path still sums exactly to its
    /// end-to-end latency — whatever the fabricated durations and nesting
    /// did. Also exercises per-frame attribution bookkeeping.
    #[test]
    fn random_span_wait_interleavings_still_sum(
        // 0 = open span, 1 = close span, 2.. = record a wait.
        ops in prop::collection::vec((0u8..8, arb_event(), 0u64..5_000), 1..80),
    ) {
        let ring = TraceRing::new(16);
        let stats = WaitStats::new();
        let ctx = ring.begin("proptest", "interleaving");
        {
            let _guard = ctx.install();
            let mut spans = Vec::new();
            for (op, event, micros) in ops {
                match op {
                    0..=2 => spans.push(trace::span("node")),
                    3..=4 => {
                        spans.pop();
                    }
                    _ => stats.record(event, Duration::from_micros(micros)),
                }
            }
            // RAII closes whatever is still open.
        }
        let traces = ring.snapshot();
        prop_assert_eq!(traces.len(), 1);
        let t = &traces[0];
        let p = t.critical_path();
        prop_assert_eq!(p.sum_us(), t.end_to_end_us());
        prop_assert_eq!(p.end_to_end_us, t.end_to_end_us());
        // Every recorded wait landed somewhere: the trace-level interval
        // list plus per-frame counts never lose a record silently.
        prop_assert!(t.dropped_waits == 0);
        // The export of whatever came out still validates.
        let doc = chrome_trace_json(&traces);
        prop_assert!(validate_chrome_trace(&doc).is_ok());
    }
}

/// Concurrent completions: the ring stays bounded, never panics, and a
/// snapshot taken mid-rotation never observes a duplicated trace id. The
/// writers start only once the reader has taken its first snapshot, so
/// the reader scans however the threads are scheduled.
#[test]
fn concurrent_completions_never_duplicate_ids_in_a_snapshot() {
    let ring = TraceRing::new(32);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let start = Arc::new(std::sync::Barrier::new(9));
    let writers: Vec<_> = (0..8)
        .map(|w| {
            let ring = Arc::clone(&ring);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let stats = WaitStats::new();
                for i in 0..200 {
                    let ctx = ring.begin("race", format!("w{w}-{i}"));
                    let _g = ctx.install();
                    let _s = trace::span("work");
                    stats.record(WaitEvent::Exec, Duration::from_micros(i % 7));
                }
            })
        })
        .collect();
    let reader = {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scans = 0u64;
            loop {
                let snap = ring.snapshot();
                if scans == 0 {
                    start.wait();
                }
                let mut ids: Vec<u64> = snap.iter().map(|t| t.trace_id).collect();
                let n = ids.len();
                assert!(n <= 32, "ring exceeded its bound: {n}");
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), n, "duplicate trace ids in one snapshot");
                scans += 1;
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    return scans;
                }
            }
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let scans = reader.join().unwrap();
    assert!(scans > 0);
    assert_eq!(ring.completed(), 8 * 200);
}

/// Serve one request that overruns every per-trace bound: spans nested
/// six deep under four names, each with waits of its own.
fn serve_worst_case(ring: &Arc<TraceRing>, stats: &WaitStats, i: usize) -> u64 {
    let ctx = ring.begin("test", format!("worst case {i}"));
    let id = ctx.trace_id();
    let _guard = ctx.install();
    let mut open = Vec::new();
    for s in 0..MAX_SPANS_PER_TRACE + 8 {
        open.push(trace::span(["scan", "probe", "join", "sort"][s % 4]));
        if s < MAX_WAITS_PER_TRACE / 2 + 8 {
            stats.record(WaitEvent::Lock, Duration::from_micros(3));
            stats.record(WaitEvent::Exec, Duration::from_micros(5));
        }
        if open.len() > 5 {
            open.pop();
        }
    }
    for a in 0..MAX_ANNOTATIONS + 2 {
        annotate("lock_wait_table", format!("a table name of some length {a}"));
    }
    id
}

/// The ring's second bound: 4,096 traces that each hit every per-trace
/// limit (over 80 KB apiece, 330 MB if all were kept) never hold more than
/// the byte budget, and the accounting says where the rest went.
#[test]
fn worst_case_traces_stay_within_the_byte_budget() {
    let ring = TraceRing::new(4096);
    let stats = WaitStats::new();
    let mut last = 0;
    for i in 0..4096 {
        last = serve_worst_case(&ring, &stats, i);
        assert!(ring.retained_bytes() <= RING_BYTE_BUDGET, "after {i}: {}", ring.retained_bytes());
    }
    let kept = ring.snapshot();
    assert!((10..200).contains(&kept.len()), "{} traces kept", kept.len());
    assert_eq!(ring.completed(), 4096);
    assert_eq!(ring.evicted(), 4096 - kept.len() as u64);
    assert_eq!(kept.iter().map(|t| t.retained_bytes()).sum::<usize>(), ring.retained_bytes());
    // The newest are the ones kept, whole.
    assert!(kept.windows(2).all(|w| w[0].trace_id + 1 == w[1].trace_id));
    let t = ring.get(last).expect("the newest trace is retained");
    assert_eq!(kept.last().unwrap().trace_id, last);
    assert_eq!((t.span_count(), t.dropped_spans), (MAX_SPANS_PER_TRACE, 8));
    assert_eq!((t.waits.len(), t.dropped_waits), (MAX_WAITS_PER_TRACE, 16));
    assert_eq!(t.annotations.len(), MAX_ANNOTATIONS);
    assert!(t.retained_bytes() > 80_000, "{} bytes", t.retained_bytes());
    // What a retained trace says is what it always said.
    assert_eq!((&*t.label, t.origin), ("worst case 4095", "test"));
    assert_eq!(t.annotation("lock_wait_table"), Some("a table name of some length 0"));
    let names: Vec<&str> = t.spans[..6].iter().map(|s| t.span_name(s)).collect();
    assert_eq!(names, ["scan", "probe", "join", "sort", "scan", "probe"]);
    let parents: Vec<u16> = t.spans[..7].iter().map(|s| s.parent).collect();
    assert_eq!(parents, [NO_PARENT, 0, 1, 2, 3, 4, 4], "six deep, then siblings");
    assert_eq!(t.span_wait_count(&t.spans[0], WaitEvent::Lock), 1);
    assert_eq!(t.span_wait_micros(&t.spans[0], WaitEvent::Exec), 5);
    assert_eq!(t.critical_path().sum_us(), t.end_to_end_us());
    let doc = chrome_trace_json(std::slice::from_ref(&t));
    let events = validate_chrome_trace(&doc).expect("a retained trace still exports");
    assert_eq!(events, 1 + MAX_SPANS_PER_TRACE + MAX_WAITS_PER_TRACE);
}

/// The ring's first bound is untouched for the traffic it was sized for:
/// 4,096 point probes (a statement's text, two plan nodes, one exec wait)
/// all stay, in 1.6 MiB, and the 4,097th pushes out exactly the oldest.
#[test]
fn probe_shaped_traces_all_stay_resident() {
    let ring = TraceRing::new(4096);
    let stats = WaitStats::new();
    // As the server does for a prepared statement: one text, shared.
    let sql: Arc<str> =
        "SELECT o_custkey, o_totalprice, o_shippriority FROM orders WHERE o_orderkey = ?".into();
    let probe = || {
        let _guard = ring.begin("server/extended", Arc::clone(&sql)).install();
        {
            let _project = trace::span("Project");
            let _scan = trace::span("IndexScan ORDERS via ORDERS_PKEY");
        }
        // The engine times a statement around its plan, not inside it.
        stats.record(WaitEvent::Exec, Duration::from_micros(30));
    };
    for _ in 0..4096 {
        probe();
    }
    assert_eq!((ring.snapshot().len(), ring.evicted()), (4096, 0));
    assert!(ring.retained_bytes() <= 1_600 * 1024, "{} bytes", ring.retained_bytes());
    assert!(ring.retained_bytes() / 4096 <= 400, "{} bytes a probe", ring.retained_bytes() / 4096);
    let first = ring.snapshot()[0].trace_id;
    probe();
    assert_eq!((ring.snapshot().len(), ring.evicted(), ring.completed()), (4096, 1, 4097));
    assert!(ring.get(first).is_none() && ring.get(first + 1).is_some());
    // Heavy traces among them push out as many probes as they weigh:
    // forty-four are 3.6 MB, which leaves room for a few hundred probes.
    for i in 0..44 {
        serve_worst_case(&ring, &stats, i);
    }
    assert!(ring.snapshot().len() < 2000, "{} left", ring.snapshot().len());
    assert!(ring.retained_bytes() <= RING_BYTE_BUDGET);
}
