//! Peak live heap of each TPC-D query: what one query holds on top of the
//! loaded database, measured by a counting global allocator.
//!
//! The executor streams row batches: a scan feeding an aggregate holds a
//! page of rows and the groups, a join its build side. This file holds one
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

fn grew(bytes: usize) {
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
    println!("query  peak MB above the loaded database");
    for n in 1..=17 {
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        run_query(&db, n, &params).unwrap();
        let peak = (PEAK.load(Relaxed) - base) as f64 / MB;
        println!("Q{n:<5} {peak:6.2}");
        peaks.push(peak);
    }
    for q in [1, 6] {
        assert!(peaks[q - 1] < 1.0, "Q{q} (scan into aggregate) held {:.2} MB", peaks[q - 1]);
    }
    for (i, peak) in peaks.iter().enumerate() {
        assert!(*peak < 6.0, "Q{} held {peak:.2} MB", i + 1);
    }
}
