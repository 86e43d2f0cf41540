//! The metered work of each kind of B+-tree operation, pinned.
//!
//! Two fixed three-level trees, one unique and one not, live in a pool of
//! eight pages, so exact-LRU order decides which node accesses miss. Each
//! tree runs one chained history: a build, inserts that fit, split a leaf
//! and split an interior node, exact and range searches, plain deletes,
//! deletes that empty a leaf or free an interior node, and deletes that
//! collapse the root. The table records, for the first operation of each
//! kind and for every kind summed over the history, the meter's delta:
//! node reads, random and sequential page reads (the pool's misses) and
//! dirty write-backs. A final flush counts the dirty pages left resident.
//! Because every row depends on the pool state all earlier rows left, a
//! change that reorders page accesses inside one operation moves the
//! table even where that operation's own counts do not.
//!
//! This is the per-operation form of `tpcd --test counter_identity`: a
//! storage change that moves a row is a behaviour change and must be
//! argued as one. Replace `golden/btree_meter.txt` with the table the
//! failing assertion prints only when it is.

use rdbms::index::BTree;
use rdbms::storage::{Pager, PagerConfig, Rid};
use rdbms::{CostMeter, Counter, MeterSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/btree_meter.txt");

/// Entries the build inserts: enough 200-byte keys for three levels.
const BUILT: u64 = 3_000;
/// Entries inserted after the build: enough to split an interior node.
const ADDED: u64 = 1_200;

/// A 200-byte key that sorts as `v`.
fn key(v: u64) -> Vec<u8> {
    let mut k = vec![b'k'; 192];
    k.extend_from_slice(&v.to_be_bytes());
    k
}

/// `0..n` in a fixed scattered order (`n` is not a multiple of 7919).
fn scattered(n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| i * 7919 % n)
}

/// What one kind of operation did: its first occurrence (its index in the
/// history, its delta and the node-page change) and the sum over all.
#[derive(Default)]
struct Kind {
    first: Option<(usize, MeterSnapshot, i64)>,
    total: MeterSnapshot,
    count: usize,
}

struct History {
    tree: BTree,
    pager: Arc<Pager>,
    meter: Arc<CostMeter>,
    ops: usize,
    kinds: BTreeMap<&'static str, Kind>,
}

impl History {
    fn new(unique: bool) -> History {
        let meter = CostMeter::new();
        let pager = Pager::new(PagerConfig { pool_pages: 8 }, Arc::clone(&meter));
        let tree = BTree::new(Arc::clone(&pager), unique).unwrap();
        History { tree, pager, meter, ops: 0, kinds: BTreeMap::new() }
    }

    /// Run `f` on the tree and file its delta under the kind `classify`
    /// names from the node-page and height changes.
    fn run<R>(
        &mut self,
        f: impl FnOnce(&mut BTree) -> R,
        classify: impl FnOnce(i64, i64) -> &'static str,
    ) -> R {
        let (pages, height) = (self.tree.node_pages() as i64, self.tree.height() as i64);
        let before = self.meter.snapshot();
        let out = f(&mut self.tree);
        let delta = self.meter.snapshot().since(&before);
        let dpages = self.tree.node_pages() as i64 - pages;
        let kind =
            self.kinds.entry(classify(dpages, self.tree.height() as i64 - height)).or_default();
        kind.first.get_or_insert((self.ops, delta, dpages));
        kind.total = kind.total.plus(&delta);
        kind.count += 1;
        self.ops += 1;
        out
    }

    fn insert(&mut self, k: u64, rid: Rid) {
        let key = key(k);
        self.run(
            |t| t.insert(&key, rid).unwrap(),
            |dpages, _| match dpages {
                0 => "insert.fits",
                1 => "insert.splits_leaf",
                _ => "insert.splits_interior",
            },
        );
    }

    fn delete(&mut self, k: u64, rid: Rid) {
        let key = key(k);
        let found = self.run(
            |t| t.delete(&key, rid).unwrap(),
            |dpages, dheight| match (dpages, dheight) {
                (0, _) => "delete.plain",
                (_, 0) if dpages == -1 => "delete.empties_leaf",
                (_, 0) => "delete.frees_interior",
                _ => "delete.collapses_root",
            },
        );
        assert!(found, "entry {k} not found");
    }

    /// The recorded table, ended by the dirty pages a flush writes back.
    fn table(&self, name: &str) -> String {
        let row = |w: &MeterSnapshot| {
            format!(
                "{} {} {} {}",
                w.get(Counter::IndexNodeReads),
                w.rand_page_reads(),
                w.seq_page_reads(),
                w.page_writes()
            )
        };
        let mut out = String::new();
        for (kind, k) in &self.kinds {
            let (at, first, dpages) = k.first.as_ref().expect("a kind has a first");
            out.push_str(&format!("{name} {kind} first@{at} {} pages{dpages:+}\n", row(first)));
            out.push_str(&format!("{name} {kind} all×{} {}\n", k.count, row(&k.total)));
        }
        let before = self.meter.snapshot();
        self.pager.flush_all();
        let flushed = self.meter.snapshot().since(&before);
        out.push_str(&format!("{name} flush {}\n", flushed.page_writes()));
        out
    }
}

/// The chained history of one tree. Non-unique trees hold each user key
/// up to three times, under distinct rids.
fn history(unique: bool) -> String {
    let mut h = History::new(unique);
    let copies = if unique { 1 } else { 3 };
    let user = |v: u64| if unique { v } else { v / copies };
    let rid = |v: u64| Rid::new(v as u32, (v % 7) as u16);
    // Even values first, then odd ones between them.
    for v in scattered(BUILT) {
        h.run(|t| t.insert(&key(user(2 * v)), rid(2 * v)).unwrap(), |_, _| "build");
    }
    assert_eq!(h.tree.height(), 3, "the build makes three levels");
    for v in scattered(ADDED) {
        h.insert(user(2 * v + 1), rid(2 * v + 1));
    }
    for v in scattered(97) {
        let k = key(user(v * 60));
        let found = h.run(|t| t.search_exact(&k).unwrap(), |_, _| "search_exact");
        assert!(!found.is_empty());
    }
    for v in scattered(23) {
        let (lo, hi) = (key(user(v * 250)), key(user(v * 250 + 150)));
        let got = h.run(
            |t| t.range_scan(Bound::Included(&lo), Bound::Excluded(&hi)).unwrap(),
            |_, _| "range_scan",
        );
        assert!(!got.is_empty());
    }
    // Every entry goes: first a scattered third, then the rest in order,
    // which empties leaves, frees interior nodes and shortens the tree.
    let mut live: Vec<u64> = (0..2 * BUILT).filter(|v| v % 2 == 0 || v / 2 < ADDED).collect();
    let total = live.len() as u64;
    let third: Vec<u64> = scattered(total).take(total as usize / 3).collect();
    for &i in &third {
        h.delete(user(live[i as usize]), rid(live[i as usize]));
    }
    let gone: BTreeSet<u64> = third.iter().map(|&i| live[i as usize]).collect();
    live.retain(|v| !gone.contains(v));
    for &v in &live {
        h.delete(user(v), rid(v));
    }
    assert_eq!((h.tree.entry_count(), h.tree.node_pages(), h.tree.height()), (0, 1, 1));
    h.table(if unique { "unique" } else { "non_unique" })
}

#[test]
fn each_btree_operation_meters_the_recorded_work() {
    let actual = history(true) + &history(false);
    assert!(
        actual == GOLDEN,
        "metered B+-tree work drifted from crates/rdbms/tests/golden/btree_meter.txt.\n\
         expected:\n{GOLDEN}\nactual:\n{actual}"
    );
}
