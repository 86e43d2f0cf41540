//! Property tests for the hierarchical lock manager: real contention on
//! real threads, the pure conflict function the throughput driver holds
//! its virtual-time locks with ([`LockRequest::conflicts`]) checked
//! against what the manager actually grants, and the arrival-order grant
//! rule (no request passes an earlier waiter it conflicts with).

use proptest::prelude::*;
use rdbms::error::{DbError, DbResult};
use rdbms::lock::{KeyRange, LockManager, LockMode, LockRequest, RowLock};
use rdbms::storage::codec::encode_key;
use rdbms::types::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

fn key(k: i64) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

fn int_key(k: i64) -> Vec<u8> {
    encode_key(&[Value::Int(k)])
}

/// `[lo, hi]` over integer keys, `None` meaning unbounded on that side.
fn span(lo: Option<i64>, hi: Option<i64>) -> KeyRange {
    KeyRange::span(lo.map(int_key).as_deref(), hi.map(int_key).as_deref())
}

fn request(lm: &LockManager, txn: u64, req: &LockRequest) -> DbResult<Duration> {
    match req {
        LockRequest::Table(mode) => lm.acquire(txn, "T", *mode),
        LockRequest::Row(row) => lm.acquire_row(txn, "T", row.clone()),
    }
}

/// Txn 1 holds `a`; does the manager make txn 2's request for `b` wait?
fn manager_blocks(a: &LockRequest, b: &LockRequest) -> bool {
    let lm = LockManager::new(Duration::from_millis(5));
    request(&lm, 1, a).expect("first request on an idle table is granted");
    match request(&lm, 2, b) {
        Ok(_) => false,
        Err(DbError::Deadlock(_)) => true,
        Err(e) => panic!("unexpected error: {e}"),
    }
}

fn arb_bound() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![Just(None), (0i64..8).prop_map(Some)]
}

fn arb_range() -> impl Strategy<Value = KeyRange> {
    prop_oneof![
        (0i64..8).prop_map(|k| KeyRange::point(&int_key(k))),
        (arb_bound(), arb_bound()).prop_map(|(lo, hi)| span(lo, hi)),
        Just(KeyRange::all()),
    ]
}

fn arb_request() -> impl Strategy<Value = LockRequest> {
    prop_oneof![
        prop_oneof![
            Just(LockMode::IntentShared),
            Just(LockMode::IntentExclusive),
            Just(LockMode::Shared),
            Just(LockMode::Exclusive),
        ]
        .prop_map(LockRequest::Table),
        arb_range().prop_map(|r| LockRequest::Row(RowLock::shared(r))),
        arb_range().prop_map(|r| LockRequest::Row(RowLock::shared_existing(r))),
        arb_range().prop_map(|r| LockRequest::Row(RowLock::exclusive(r))),
        arb_range().prop_map(|r| LockRequest::Row(RowLock::insert(r))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pure conflict function is the manager's: a second transaction
    /// blocks exactly when `conflicts` says so, in either order.
    #[test]
    fn conflicts_predicts_the_manager(a in arb_request(), b in arb_request()) {
        prop_assert_eq!(a.conflicts(&b), b.conflicts(&a), "symmetric: {:?} {:?}", a, b);
        prop_assert_eq!(manager_blocks(&a, &b), a.conflicts(&b), "{:?} then {:?}", a, b);
    }
}

/// One single-lock transaction per request, arriving in order: each request
/// is issued once the one before it is granted or queued. Granted
/// transactions hold until every request has arrived, then release after
/// their `hold_us`. A transaction holding one lock and waiting for none
/// never deadlocks, so every request is granted; the grant order must put
/// each queued waiter before every later request that conflicts with it.
fn run_arrival_case(reqs: &[(LockRequest, u64)]) {
    let lm = Arc::new(LockManager::new(Duration::from_secs(20)));
    let order = Arc::new(Mutex::new(Vec::new()));
    let arrived = Arc::new(AtomicBool::new(false));
    let granted: Arc<Vec<AtomicBool>> =
        Arc::new(reqs.iter().map(|_| AtomicBool::new(false)).collect());
    let mut queued = vec![false; reqs.len()];
    let mut handles = Vec::new();
    for (i, (req, hold_us)) in reqs.iter().cloned().enumerate() {
        let txn = i as u64 + 1;
        let shared =
            (Arc::clone(&lm), Arc::clone(&order), Arc::clone(&arrived), Arc::clone(&granted));
        handles.push(thread::spawn(move || {
            let (lm, order, arrived, granted) = shared;
            request(&lm, txn, &req).expect("a single-lock transaction is always granted");
            order.lock().unwrap().push(i);
            granted[i].store(true, Ordering::SeqCst);
            while !arrived.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_micros(100));
            }
            thread::sleep(Duration::from_micros(hold_us));
            lm.release_all(txn);
        }));
        while !granted[i].load(Ordering::SeqCst) {
            if lm.snapshot_locks().iter().any(|l| l.txn == txn && l.state == "WAITING") {
                queued[i] = true;
                break;
            }
            thread::yield_now();
        }
    }
    arrived.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().unwrap();
    }
    let order = order.lock().unwrap();
    let at = |i: usize| order.iter().position(|&g| g == i).expect("every request is granted");
    for (i, (waiter, _)) in reqs.iter().enumerate().filter(|&(i, _)| queued[i]) {
        for (j, (later, _)) in reqs.iter().enumerate().skip(i + 1) {
            if waiter.conflicts(later) {
                assert!(
                    at(i) < at(j),
                    "request {j} ({later:?}) passed the earlier waiter {i} ({waiter:?}): \
                     grants {order:?} for {reqs:?}"
                );
            }
        }
    }
    assert!(lm.is_quiescent());
}

fn arb_arrivals() -> impl Strategy<Value = Vec<(LockRequest, u64)>> {
    prop::collection::vec((arb_request(), 0u64..400), 2..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Readers and writers on one table are granted in arrival order
    /// wherever they conflict.
    #[test]
    fn no_request_passes_an_earlier_conflicting_waiter(reqs in arb_arrivals()) {
        run_arrival_case(&reqs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The same at 1 000 cases (`cargo test --release -p rdbms --test
    /// lock_props -- --ignored`).
    #[test]
    #[ignore]
    fn no_request_passes_an_earlier_conflicting_waiter_long(reqs in arb_arrivals()) {
        run_arrival_case(&reqs);
    }
}

/// The claim shapes the throughput driver uses, with the verdicts its
/// workloads depend on; each is also checked against the manager.
#[test]
fn throughput_claim_shapes_conflict_as_documented() {
    let table_s = LockRequest::Table(LockMode::Shared);
    let table_x = LockRequest::Table(LockMode::Exclusive);
    let probe = LockRequest::Row(RowLock::shared_existing(KeyRange::all()));
    let fresh_x = LockRequest::Row(RowLock::insert(span(Some(100), Some(120))));
    let old_x = LockRequest::Row(RowLock::exclusive(span(Some(1), Some(20))));
    let fresh_overlap = LockRequest::Row(RowLock::insert(span(Some(110), Some(130))));
    let cases = [
        // Reads never conflict with reads.
        (&table_s, &table_s, false),
        (&table_s, &probe, false),
        (&probe, &probe, false),
        // Table X conflicts with everything.
        (&table_x, &table_s, true),
        (&table_x, &table_x, true),
        (&table_x, &probe, true),
        (&table_x, &fresh_x, true),
        // Table S covers the keyspace: any row X under it must wait.
        (&table_s, &fresh_x, true),
        // Probes hold existing rows only: fresh inserts slip, deletes wait.
        (&probe, &fresh_x, false),
        (&probe, &old_x, true),
        // Row X vs row X goes by key overlap.
        (&fresh_x, &old_x, false),
        (&fresh_x, &fresh_overlap, true),
    ];
    for (a, b, expected) in cases {
        assert_eq!(a.conflicts(b), expected, "{a:?} vs {b:?}");
        assert_eq!(b.conflicts(a), expected, "{b:?} vs {a:?}");
        assert_eq!(manager_blocks(a, b), expected, "manager: {a:?} then {b:?}");
        assert_eq!(manager_blocks(b, a), expected, "manager: {b:?} then {a:?}");
    }
    // Table granularity restores the pre-hierarchical baseline.
    assert_eq!(probe.table_granular(), table_s);
    assert_eq!(fresh_x.table_granular(), table_x);
    assert_eq!(table_s.table_granular(), table_s);
}

/// Row-level X locks on the same key are mutually exclusive, keys are
/// independent, and nothing leaks: after every thread releases, the
/// manager is quiescent.
#[test]
fn concurrent_row_writers_are_mutually_exclusive() {
    let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
    let keys = 4usize;
    let flags: Arc<Vec<AtomicBool>> = Arc::new((0..keys).map(|_| AtomicBool::new(false)).collect());
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let lm = Arc::clone(&lm);
        let flags = Arc::clone(&flags);
        handles.push(thread::spawn(move || {
            for i in 0..50u64 {
                let me = 1 + t; // one txn id per thread, reused per iteration
                let k = ((t + i) % keys as u64) as usize;
                lm.acquire_row(me, "T", RowLock::exclusive(KeyRange::point(&key(k as i64))))
                    .expect("row X grant");
                // Critical section: no other holder of this key.
                assert!(!flags[k].swap(true, Ordering::SeqCst), "two X holders on key {k}");
                thread::yield_now();
                flags[k].store(false, Ordering::SeqCst);
                lm.release_all(me);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(lm.is_quiescent(), "no phantom holders after release_all");
}

/// Escalation (row locks traded for a table lock past the threshold) must
/// not open a window where two writers hold overlapping claims. Escalating
/// writers that deadlock against each other retry, and the manager ends
/// quiescent.
#[test]
fn escalation_preserves_mutual_exclusion() {
    let lm = Arc::new(LockManager::configured(Duration::from_secs(10), 4, None));
    let in_section = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let lm = Arc::clone(&lm);
        let in_section = Arc::clone(&in_section);
        handles.push(thread::spawn(move || {
            let me = 1 + t;
            for round in 0..10i64 {
                // Insert a disjoint block of 8 keys: escalates to table X
                // at the 5th row lock.
                let base = (t as i64) * 1000 + round * 10;
                let mut aborted = false;
                for k in base..base + 8 {
                    match lm.acquire_row(me, "T", RowLock::insert(KeyRange::point(&key(k)))) {
                        Ok(_) => {}
                        Err(DbError::Deadlock(_)) => {
                            // Victim of an escalation race: roll back and
                            // retry the round.
                            lm.release_all(me);
                            aborted = true;
                            break;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                if aborted {
                    continue;
                }
                assert!(lm.holds_table_lock(me, "T"), "past threshold the lock is table-level");
                assert!(
                    !in_section.swap(true, Ordering::SeqCst),
                    "escalated X must exclude other writers"
                );
                thread::yield_now();
                in_section.store(false, Ordering::SeqCst);
                lm.release_all(me);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(lm.is_quiescent());
}

/// A probe reader (IS + shared existing-row locks) does not block RF1-style
/// fresh-key inserts — the regression the hierarchy exists for — while a
/// serializable scan (table S) still does.
#[test]
fn fresh_inserts_slip_past_probe_readers_but_not_scans() {
    let lm = LockManager::new(Duration::from_millis(100));
    // Txn 1 probes existing LINEITEM rows.
    lm.acquire_row(1, "LINEITEM", RowLock::shared_existing(KeyRange::all())).unwrap();
    // Txn 2 inserts a fresh key: granted immediately.
    lm.acquire_row(2, "LINEITEM", RowLock::insert(KeyRange::point(&key(999_999))))
        .expect("fresh insert must not wait behind a probe reader");
    lm.release_all(2);
    lm.release_all(1);

    // Txn 3 scans (serializable table S): the same insert now blocks.
    lm.acquire(3, "LINEITEM", LockMode::Shared).unwrap();
    let err = lm
        .acquire_row(4, "LINEITEM", RowLock::insert(KeyRange::point(&key(999_999))))
        .expect_err("table S must block the insert");
    assert!(matches!(err, DbError::Deadlock(_)), "blocked insert times out: {err}");
    lm.release_all(3);
    lm.release_all(4);
    assert!(lm.is_quiescent());
}

/// Shared-to-exclusive conversion under contention: many readers of one
/// key, each upgrading to X. Exactly one converts at a time; deadlock
/// victims (two simultaneous upgraders form a genuine cycle) roll back
/// and retry. No lost exclusions, no leaked locks.
#[test]
fn upgrade_storm_converges() {
    let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
    let in_section = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let lm = Arc::clone(&lm);
        let in_section = Arc::clone(&in_section);
        handles.push(thread::spawn(move || {
            let me = 1 + t;
            let mut completed = 0;
            while completed < 10 {
                let step = (|| {
                    lm.acquire_row(me, "T", RowLock::shared(KeyRange::point(&key(1))))?;
                    lm.acquire_row(me, "T", RowLock::exclusive(KeyRange::point(&key(1))))?;
                    Ok(())
                })();
                match step {
                    Ok(()) => {
                        assert!(
                            !in_section.swap(true, Ordering::SeqCst),
                            "upgraded X must be exclusive"
                        );
                        thread::yield_now();
                        in_section.store(false, Ordering::SeqCst);
                        lm.release_all(me);
                        completed += 1;
                    }
                    Err(DbError::Deadlock(_)) => lm.release_all(me),
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(lm.is_quiescent());
}
