//! The pager under concurrent use. Four threads mix reads, writes,
//! allocations, frees and LSN stamps over a pool smaller than their pages,
//! each on pages it owns, under a watchdog that turns a deadlock into a
//! failure; then row fetches run beside in-place updates of the same rows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbms::storage::codec::encode_row;
use rdbms::storage::{AccessPattern, HeapFile, PageId, Pager, PagerConfig};
use rdbms::{CostMeter, Value};
use std::collections::HashSet;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

const POOL_PAGES: usize = 16;
const THREADS: u64 = 4;
const OPS: usize = 100_000;
/// Pages a thread owns at most: together more than the pool holds.
const MAX_OWNED: usize = 8;

/// Run `work` on a thread of its own and fail if it has not finished
/// within a minute. (A deadlocked worker cannot be joined; the test
/// process ends it.)
fn within_watchdog(work: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        work();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => worker.join().expect("worker finished"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("worker panicked"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("no finish within 60 s: deadlock"),
    }
}

/// What a page owned by `owner` holds after its `version`-th write.
fn tag(owner: u64, version: u64) -> [u8; 16] {
    let mut tag = [0; 16];
    tag[..8].copy_from_slice(&owner.to_le_bytes());
    tag[8..].copy_from_slice(&version.to_le_bytes());
    tag
}

fn pattern(rng: &mut StdRng) -> AccessPattern {
    if rng.gen_bool(0.5) {
        AccessPattern::Random
    } else {
        AccessPattern::Sequential
    }
}

/// One thread's share. `handed_out` holds every allocated id; allocating,
/// freeing and checking a freed id happen under its lock, so "not in it"
/// means "free" while the check runs, whatever the other threads do.
fn clerk(pager: &Pager, handed_out: &Mutex<HashSet<PageId>>, me: u64) {
    let mut rng = StdRng::seed_from_u64(42 + me);
    // (page, versions written, last LSN stamped)
    let mut owned: Vec<(PageId, u64, u64)> = Vec::new();
    let mut freed: Vec<PageId> = Vec::new();
    let mut lsn = 0;
    for _ in 0..OPS {
        let roll = rng.gen_range(0..100u32);
        if owned.is_empty() || (roll < 10 && owned.len() < MAX_OWNED) {
            let pid = {
                let mut ids = handed_out.lock().unwrap();
                let pid = pager.allocate();
                assert!(ids.insert(pid), "page {pid} handed out twice");
                pid
            };
            assert_eq!(pager.page_lsn(pid), 0, "page {pid} comes back fresh");
            let fresh = pager.read(pid, pattern(&mut rng), |page| page.nslots()).unwrap();
            assert_eq!(fresh, 0, "page {pid} comes back fresh");
            pager
                .write(pid, pattern(&mut rng), |page| {
                    page.raw_mut()[..16].copy_from_slice(&tag(me, 0))
                })
                .unwrap();
            owned.push((pid, 0, 0));
            continue;
        }
        let at = rng.gen_range(0..owned.len());
        match roll {
            0..=14 => {
                let (pid, ..) = owned.swap_remove(at);
                let mut ids = handed_out.lock().unwrap();
                pager.free(pid);
                ids.remove(&pid);
                freed.push(pid);
            }
            15..=24 if !freed.is_empty() => {
                let pid = freed.swap_remove(rng.gen_range(0..freed.len()));
                let ids = handed_out.lock().unwrap();
                if !ids.contains(&pid) {
                    assert!(pager.read(pid, AccessPattern::Random, |_| ()).is_err(), "{pid}");
                    assert!(pager.write(pid, AccessPattern::Random, |_| ()).is_err(), "{pid}");
                    pager.stamp_lsn(pid, u64::MAX);
                    assert_eq!(pager.page_lsn(pid), 0, "a freed page {pid} took a stamp");
                    freed.push(pid);
                }
            }
            25..=39 => {
                lsn += 1;
                let (pid, _, stamped) = &mut owned[at];
                pager.stamp_lsn(*pid, lsn);
                *stamped = lsn;
                assert_eq!(pager.page_lsn(*pid), lsn);
            }
            40..=69 => {
                let (pid, version, _) = &mut owned[at];
                *version += 1;
                let tag = tag(me, *version);
                pager
                    .write(*pid, pattern(&mut rng), |page| {
                        page.raw_mut()[..16].copy_from_slice(&tag)
                    })
                    .unwrap();
            }
            _ => {
                let (pid, version, stamped) = owned[at];
                let (got, page_lsn) = pager
                    .read(pid, pattern(&mut rng), |page| (page.raw()[..16].to_vec(), page.lsn()))
                    .unwrap();
                assert_eq!(got, tag(me, version), "page {pid} lost its owner's last write");
                assert_eq!(page_lsn, stamped, "page {pid}");
            }
        }
        assert!(pager.resident_pages() <= POOL_PAGES);
    }
    for (pid, version, _) in owned {
        let got = pager.read(pid, AccessPattern::Random, |page| page.raw()[..16].to_vec()).unwrap();
        assert_eq!(got, tag(me, version), "page {pid} lost its owner's last write");
    }
}

#[test]
fn concurrent_page_access_keeps_every_page_and_the_pool_exact() {
    let pager = Pager::new(PagerConfig { pool_pages: POOL_PAGES }, CostMeter::new());
    let handed_out = Arc::new(Mutex::new(HashSet::new()));
    let (p, ids) = (Arc::clone(&pager), Arc::clone(&handed_out));
    within_watchdog(move || {
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for me in 0..THREADS {
                let (p, ids, start) = (&p, &ids, &start);
                s.spawn(move || {
                    start.wait();
                    clerk(p, ids, me);
                });
            }
        });
    });
    assert!(pager.resident_pages() <= POOL_PAGES);
    assert_eq!(pager.allocated_pages(), handed_out.lock().unwrap().len());
}

#[test]
fn row_fetches_beside_in_place_updates_see_whole_rows() {
    let heap =
        Arc::new(HeapFile::new(Pager::new(PagerConfig { pool_pages: 16 }, CostMeter::new())));
    let row =
        |i: usize, what: &str| vec![Value::Int(i as i64), Value::str(format!("{what}-{i:05}"))];
    let versions: Vec<[Vec<u8>; 2]> =
        (0..300).map(|i| [encode_row(&row(i, "old")), encode_row(&row(i, "new"))]).collect();
    let rids: Vec<_> = (0..300).map(|i| heap.insert(&row(i, "old")).unwrap()).collect();
    let versions = Arc::new(versions);
    within_watchdog(move || {
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for round in 0..40 {
                    let what = if round % 2 == 0 { "new" } else { "old" };
                    for (i, &rid) in rids.iter().enumerate() {
                        assert_eq!(heap.update(rid, &row(i, what)).unwrap(), rid, "in place");
                    }
                }
            });
            s.spawn(|| {
                start.wait();
                for _ in 0..40 {
                    for (i, &rid) in rids.iter().enumerate() {
                        let whole = heap
                            .get_with(rid, AccessPattern::Random, |bytes| {
                                versions[i].iter().any(|v| v.as_slice() == bytes)
                            })
                            .unwrap();
                        assert_eq!(whole, Some(true), "row {i} read torn");
                    }
                }
            });
        });
    });
}
