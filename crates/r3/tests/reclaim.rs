//! Order documents posted and deleted through batch input give their space
//! back: the `rdbms/tests/reclaim_props.rs` churn, through the application
//! server. Every document is some thirty rows over seven SAP tables and as
//! many index entries; under both releases (KONV a cluster under 2.2G, a
//! transparent table under 3.0E) ten rounds of 200 documents must leave
//! the database the size one round left it, and a posted order's request
//! trace within its budget.

use r3::dispatcher::{Dispatcher, DispatcherConfig, WpKind};
use r3::{R3System, Release};
use std::sync::Arc;
use tpcd::records::{LineItem, Order};
use tpcd::DbGen;

const DOCUMENTS: u64 = 200;

/// Refresh stream `seq` holds exactly one order at this scale factor.
fn document(gen: &DbGen, seq: u64) -> (Order, Vec<LineItem>) {
    let (mut orders, items) = gen.update_stream(seq);
    assert_eq!(orders.len(), 1);
    (orders.swap_remove(0), items)
}

#[test]
fn posting_and_deleting_orders_leaves_the_page_count_flat() {
    for release in [Release::R22, Release::R30] {
        let sys = R3System::install_default(release).unwrap();
        let gen = DbGen::new(0.0005);
        sys.load_tpcd(&gen).unwrap();
        let loaded = sys.db.pager().allocated_pages();
        let docs: Vec<_> = (1..=DOCUMENTS).map(|seq| document(&gen, seq)).collect();
        // (pages with the documents in, pages with them deleted again)
        let mut rounds = Vec::new();
        for _ in 0..10 {
            for (order, items) in &docs {
                sys.batch_input_order(order, &items.iter().collect::<Vec<_>>()).unwrap();
            }
            let posted = sys.db.pager().allocated_pages();
            // Oldest first, as the benchmark's clerks delete.
            for (order, _) in &docs {
                sys.batch_delete_order(order.orderkey).unwrap();
            }
            rounds.push((posted, sys.db.pager().allocated_pages()));
        }
        let (posted, deleted) = rounds[2];
        assert!(posted > loaded + 100, "{release:?}: 200 documents are pages of rows: {rounds:?}");
        // Deleted, their pages are back, but for the index nodes the base
        // population's keys were split over to let theirs in between
        // (nothing merges half-empty nodes) and an insertion page a table.
        assert!(
            deleted - loaded <= (posted - loaded) / 4,
            "{release:?}: loaded {loaded}, {rounds:?}"
        );
        assert!(rounds[9].0 <= posted && rounds[9].1 <= deleted, "{release:?}: {rounds:?}");
        // The base population is untouched.
        let vbak = sys.db.query("SELECT COUNT(*) FROM VBAK").unwrap().scalar().unwrap();
        assert_eq!(vbak.as_int().unwrap(), gen.n_orders());
    }
}

#[test]
fn a_posted_orders_trace_stays_within_four_kilobytes() {
    let sys = Arc::new(R3System::install_default(Release::R30).unwrap());
    let gen = DbGen::new(0.0005);
    sys.load_tpcd(&gen).unwrap();
    let dispatcher = Dispatcher::start(
        Arc::clone(&sys),
        DispatcherConfig { dialog_processes: 1, batch_processes: 1 },
    );
    for seq in 1..=20 {
        let (order, items) = document(&gen, seq);
        let stats = dispatcher
            .submit(WpKind::Dialog, "batch_input_order", move |s| {
                s.batch_input_order(&order, &items.iter().collect::<Vec<_>>())
            })
            .wait();
        stats.result.unwrap();
        let trace = sys.db.trace_ring().get(stats.trace_id).expect("just completed");
        // Eight statements for the header and nine for each item, a plan
        // node or two apiece: 17 spans for one item, 71 for seven.
        assert!(trace.span_count() >= 17, "{} spans", trace.span_count());
        assert!(
            trace.retained_bytes() <= 4096,
            "{} bytes for {} spans, {} waits",
            trace.retained_bytes(),
            trace.span_count(),
            trace.waits.len()
        );
    }
    dispatcher.shutdown();
}
