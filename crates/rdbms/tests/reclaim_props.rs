//! Space reclamation against a model: a heap and two B+-trees under random
//! inserts, deletes and updates must hold exactly the rows a `BTreeMap`
//! holds, whatever slots were reused, pages compacted, leaves unlinked and
//! pages handed back on the way — and under churn the page count must stop
//! growing.

use proptest::prelude::*;
use rdbms::index::btree::BTree;
use rdbms::storage::codec::encode_key;
use rdbms::storage::{AccessPattern, HeapFile, Pager, PagerConfig, Rid, PAGE_SIZE};
use rdbms::types::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use trace::meter::CostMeter;

/// A table of `(key, payload)` rows with a unique index on the key and a
/// non-unique one on the payload's length class.
struct Table {
    pager: Arc<Pager>,
    heap: HeapFile,
    by_key: BTree,
    by_class: BTree,
    /// key -> (where the row lives, payload length)
    model: BTreeMap<i64, (Rid, usize)>,
}

fn row(key: i64, len: usize) -> Vec<Value> {
    vec![Value::Int(key), Value::str("x".repeat(len))]
}

fn key_of(key: i64) -> Vec<u8> {
    encode_key(&[Value::Int(key)])
}

fn class_of(len: usize) -> Vec<u8> {
    encode_key(&[Value::Int((len % 5) as i64)])
}

impl Table {
    fn new(pool_pages: usize) -> Table {
        let pager = Pager::new(PagerConfig { pool_pages }, CostMeter::new());
        Table {
            heap: HeapFile::new(Arc::clone(&pager)),
            by_key: BTree::new(Arc::clone(&pager), true).unwrap(),
            by_class: BTree::new(Arc::clone(&pager), false).unwrap(),
            pager,
            model: BTreeMap::new(),
        }
    }

    fn insert(&mut self, key: i64, len: usize) {
        if self.model.contains_key(&key) {
            assert!(self.by_key.insert(&key_of(key), Rid::new(0, 0)).is_err(), "duplicate key");
            return;
        }
        let rid = self.heap.insert(&row(key, len)).unwrap();
        self.by_key.insert(&key_of(key), rid).unwrap();
        self.by_class.insert(&class_of(len), rid).unwrap();
        self.model.insert(key, (rid, len));
    }

    fn delete(&mut self, key: i64) {
        let Some((rid, len)) = self.model.remove(&key) else {
            assert!(self.by_key.search_exact(&key_of(key)).unwrap().is_empty());
            return;
        };
        assert!(self.by_key.delete(&key_of(key), rid).unwrap());
        assert!(self.by_class.delete(&class_of(len), rid).unwrap());
        self.heap.delete(rid).unwrap();
    }

    /// As `Catalog::update_row` does it: index entries out, row rewritten
    /// (moving if it must), index entries in under the rid it has now.
    fn update(&mut self, key: i64, len: usize) {
        let Some(&(rid, old_len)) = self.model.get(&key) else { return };
        assert!(self.by_key.delete(&key_of(key), rid).unwrap());
        assert!(self.by_class.delete(&class_of(old_len), rid).unwrap());
        let now = self.heap.update(rid, &row(key, len)).unwrap();
        self.by_key.insert(&key_of(key), now).unwrap();
        self.by_class.insert(&class_of(len), now).unwrap();
        self.model.insert(key, (now, len));
    }

    fn get(&self, key: i64) {
        let rids = self.by_key.search_exact(&key_of(key)).unwrap();
        match self.model.get(&key) {
            None => assert!(rids.is_empty(), "key {key} is gone but indexed at {rids:?}"),
            Some(&(rid, len)) => {
                assert_eq!(rids, vec![rid]);
                let got = self.heap.get(rid, AccessPattern::Random).unwrap();
                assert_eq!(got, Some(row(key, len)), "key {key} at {rid:?}");
            }
        }
    }

    /// The three structures and the model agree, and no page is unowned.
    fn check(&self) {
        // The unique index: the model's keys, in order, at the model's rids.
        let indexed = self.by_key.scan_all().unwrap();
        let expected: Vec<(Vec<u8>, Rid)> =
            self.model.iter().map(|(&k, &(rid, _))| (key_of(k), rid)).collect();
        assert_eq!(indexed, expected);
        // Every rid in either index resolves to the row that owns the key.
        for (_, rid) in &indexed {
            let got = self.heap.get(*rid, AccessPattern::Random).unwrap().expect("indexed row");
            let key = got[0].as_int().unwrap();
            assert_eq!(self.model[&key].0, *rid);
        }
        let classes = self.by_class.scan_all().unwrap();
        assert!(classes.windows(2).all(|w| w[0].0 < w[1].0), "stored keys sorted and distinct");
        assert_eq!(classes.len(), self.model.len());
        for class in 0..5usize {
            let mut got = self.by_class.search_exact(&class_of(class)).unwrap();
            let mut want: Vec<Rid> =
                self.model.values().filter(|(_, len)| len % 5 == class).map(|&(r, _)| r).collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "length class {class}");
        }
        // The heap: the same rows, each once, and the statistics with them.
        let mut scanned: Vec<(i64, Rid, usize)> = self
            .heap
            .scan()
            .map(|item| {
                let (rid, row) = item.unwrap();
                (row[0].as_int().unwrap(), rid, row[1].as_str().unwrap().len())
            })
            .collect();
        scanned.sort();
        let want: Vec<(i64, Rid, usize)> =
            self.model.iter().map(|(&k, &(rid, len))| (k, rid, len)).collect();
        assert_eq!(scanned, want);
        assert_eq!(self.heap.live_rows(), self.model.len() as u64);
        assert_eq!((self.by_key.entry_count(), self.by_class.entry_count()), {
            let n = self.model.len() as u64;
            (n, n)
        });
        // Every allocated page belongs to one of the three.
        let owned =
            self.heap.page_count() as u64 + self.by_key.node_pages() + self.by_class.node_pages();
        assert_eq!(self.pager.allocated_pages() as u64, owned);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rows from a few bytes to a third of a page over 120 keys, in a pool
    /// of 12 pages: pages fill, compact, empty and come back many times.
    #[test]
    fn heap_and_trees_match_the_model(
        ops in prop::collection::vec((0u8..10, 0i64..120, 0usize..2800), 1..600)
    ) {
        let mut t = Table::new(12);
        for (i, (op, key, len)) in ops.into_iter().enumerate() {
            match op {
                0..=3 => t.insert(key, len),
                4..=6 => t.delete(key),
                7..=8 => t.update(key, len),
                _ => t.get(key),
            }
            if i % 97 == 0 {
                t.check();
            }
        }
        t.check();
        // Deleting what is left gives every page back but the heap's
        // insertion page and the two empty root leaves.
        for key in t.model.keys().copied().collect::<Vec<_>>() {
            t.delete(key);
        }
        t.check();
        prop_assert_eq!(t.pager.allocated_pages(), 3);
    }
}

/// Pages the heap may hold for `live_bytes` of rows no longer than `max_row`
/// once inserts have run with no hole left unfilled: a page is passed over
/// only with less than a row (and its slot) free, and the free-space map
/// is drained before a page is allocated — so every page but the insertion
/// page is more than three quarters full.
fn heap_page_bound(live_bytes: u64, max_row: usize) -> usize {
    assert!(max_row + 4 <= PAGE_SIZE / 4);
    (live_bytes as usize).div_ceil(PAGE_SIZE * 3 / 4) + 1
}

#[test]
fn churn_leaves_the_page_count_flat() {
    const N: i64 = 3000;
    let mut t = Table::new(64);
    // (pages at the end of the insert phase, pages at the end of the round)
    let mut rounds: Vec<(usize, usize)> = Vec::new();
    for round in 0..10 {
        for key in 0..N {
            t.insert(key, 40 + (key as usize * 7) % 160);
        }
        assert!(
            t.heap.page_count() <= heap_page_bound(t.heap.live_bytes(), 220),
            "round {round}: {} heap pages for {} live bytes",
            t.heap.page_count(),
            t.heap.live_bytes()
        );
        let full = t.pager.allocated_pages();
        // Not in insertion order: every third key, then the rest, so pages
        // sit half empty in the map before they go.
        for key in (0..N).step_by(3).chain((0..N).filter(|k| k % 3 != 0)) {
            t.delete(key);
        }
        t.check();
        rounds.push((full, t.pager.allocated_pages()));
    }
    // Emptied, the table is the insertion page and two root leaves again.
    assert_eq!((rounds[2].1, rounds[9].1), (3, 3), "{rounds:?}");
    // Full, it is as large as it ever was. (Not to the page: the stored
    // keys of the non-unique index end in rids, and which rids a round
    // hands out depends on the order pages came back in the round before.)
    let early = rounds[..3].iter().map(|r| r.0).max().unwrap();
    assert!(rounds[9].0 <= early + early / 20, "{rounds:?}");
}

#[test]
fn a_sliding_window_of_rows_holds_a_window_of_pages() {
    const WINDOW: i64 = 500;
    let mut t = Table::new(64);
    let mut high_water = Vec::new();
    for lap in 0..10 {
        let mut most = 0;
        for key in lap * 4000..(lap + 1) * 4000 {
            t.insert(key, 100 + (key as usize * 13) % 300);
            t.delete(key - WINDOW);
            most = most.max(t.pager.allocated_pages());
        }
        high_water.push(most);
    }
    t.check();
    assert_eq!(t.model.len() as i64, WINDOW);
    // 40 000 rows went through; the footprint is the window's (some
    // 125 KB of rows: 16 pages, and their index entries).
    assert!(high_water[9] <= high_water[2], "{high_water:?}");
    assert!(high_water[9] < 40, "{high_water:?}");
}
