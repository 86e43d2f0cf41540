//! Peak live heap and allocation calls of each TPC-D query: what one
//! query holds on top of the loaded database, and how often it asks the
//! allocator, measured by a counting global allocator.
//!
//! The executor streams row batches: a scan feeding an aggregate holds a
//! page of rows and the groups, a join its build side. Consumed rows are
//! refilled, not reallocated (DESIGN.md §15.5), so a streaming pipeline
//! allocates per row it keeps, not per row it passes. This file holds one
//! test so that no other test allocates beside the measured queries.

use rdbms::storage::PagerConfig;
use rdbms::{Database, DbConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use tpcd::dbgen::DbGen;
use tpcd::power::run_query;
use tpcd::queries::QueryParams;
use tpcd::schema::load;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Calls to `alloc`, `alloc_zeroed` and `realloc`.
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MB: f64 = (1 << 20) as f64;

/// SF 0.002 against a 1 MB pool, as the benchmark's `tpcd_power`: the
/// pool is full after the load, so a query's misses replace frames and do
/// not grow the heap.
#[test]
fn each_query_holds_at_most_a_few_mb() {
    let db = Database::new(DbConfig {
        pager: PagerConfig::with_pool_bytes(1 << 20),
        ..DbConfig::default()
    });
    let gen = DbGen::new(0.002);
    load(&db, &gen).unwrap();
    let params = QueryParams::for_scale(gen.sf);

    let mut peaks = Vec::new();
    let mut allocs = Vec::new();
    let mut per_tuple = Vec::new();
    println!("query  peak MB above the loaded database   allocations   per DbTuple");
    for n in 1..=17 {
        let before = db.snapshot();
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        let calls = CALLS.load(Relaxed);
        run_query(&db, n, &params).unwrap();
        let made = CALLS.load(Relaxed) - calls;
        let peak = (PEAK.load(Relaxed) - base) as f64 / MB;
        let tuples = db.snapshot().since(&before).db_tuples();
        let ratio = made as f64 / tuples.max(1) as f64;
        println!("Q{n:<5} {peak:6.2} {made:>34} {ratio:>13.3}");
        peaks.push(peak);
        allocs.push(made);
        per_tuple.push(ratio);
    }
    let sum: usize = allocs.iter().sum();
    println!("Q1-Q17 {sum:>41}");
    for q in [1, 6] {
        assert!(peaks[q - 1] < 1.0, "Q{q} (scan into aggregate) held {:.2} MB", peaks[q - 1]);
    }
    for (i, peak) in peaks.iter().enumerate() {
        assert!(*peak < 6.0, "Q{} held {peak:.2} MB", i + 1);
    }
    // A streaming pipeline refills the rows it passes: one round made
    // 319 481 allocations, and Q1 1.58 per tuple, before it did.
    assert!(sum <= 213_000, "Q1-Q17 made {sum} allocations");
    assert!(per_tuple[0] <= 0.15, "Q1 made {:.3} allocations per DbTuple", per_tuple[0]);
}
