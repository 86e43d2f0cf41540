//! `R3System::load_tpcd` through the bulk interface against the
//! row-at-a-time loader it replaced, under both releases: the SAP database
//! must be the same one — the same pages, every index the same shape
//! holding the same keys, the same sizes per logical table (Table 2, right
//! half). Cluster documents take the per-document path in both.

use r3::dict::TableKind;
use r3::schema::{self as s, SAP_TABLES};
use r3::{R3System, Release};
use rdbms::schema::Row;
use tpcd::DbGen;

/// The loader before bulk load: one `insert_logical` per row, every index
/// maintained per row.
fn load_row_by_row(sys: &R3System, gen: &DbGen) {
    let put = |rows: Vec<(&'static str, Row)>| sys.insert_record(&rows).unwrap();
    gen.nations().iter().for_each(|n| put(s::nation_rows(n)));
    gen.regions().iter().for_each(|r| put(s::region_rows(r)));
    gen.parts().iter().for_each(|p| put(s::part_rows(p)));
    gen.suppliers().iter().for_each(|su| put(s::supplier_rows(su)));
    gen.partsupps().iter().for_each(|ps| put(s::partsupp_rows(ps)));
    gen.customers().iter().for_each(|c| put(s::customer_rows(c)));
    let (orders, lineitems) = gen.orders_and_lineitems();
    let konv = sys.dict.table("KONV").unwrap();
    let mut li = lineitems.iter().peekable();
    for o in &orders {
        put(s::order_rows(o));
        let mut konv_rows = Vec::new();
        while let Some(l) = li.next_if(|l| l.orderkey == o.orderkey) {
            for (t, row) in s::lineitem_rows(l) {
                if t == "KONV" && konv.kind.is_encapsulated() {
                    konv_rows.push(row);
                } else {
                    sys.insert_record(&[(t, row)]).unwrap();
                }
            }
        }
        if !konv_rows.is_empty() {
            sys.db.autocommit(|luw| sys.insert_cluster_rows(luw, &konv, &konv_rows)).unwrap();
        }
    }
    sys.db.execute("ANALYZE").unwrap();
}

/// Per index: (name, node pages, height, entries, user keys in order).
type IndexFacts = (String, u64, u32, u64, Vec<Vec<u8>>);

/// Allocated pages, the indexes, and (data, index) bytes per logical table.
type Facts = (usize, Vec<IndexFacts>, Vec<(&'static str, (u64, u64))>);

fn facts(sys: &R3System) -> Facts {
    let catalog = sys.db.catalog();
    let mut indexes = Vec::new();
    for name in catalog.table_names() {
        for index in catalog.table(&name).unwrap().indexes.read().iter() {
            let tree = index.tree.lock();
            let suffix = if tree.is_unique() { 0 } else { 6 };
            let keys = tree
                .scan_all()
                .unwrap()
                .into_iter()
                .map(|(mut k, _)| {
                    k.truncate(k.len() - suffix);
                    k
                })
                .collect();
            let shape = (tree.node_pages(), tree.height(), tree.entry_count());
            indexes.push((index.name.clone(), shape.0, shape.1, shape.2, keys));
        }
    }
    let sizes = SAP_TABLES.iter().map(|&t| (t, sys.logical_table_sizes(t).unwrap())).collect();
    (sys.db.pager().allocated_pages(), indexes, sizes)
}

#[test]
fn sap_bulk_load_builds_the_database_row_by_row_loading_builds() {
    let gen = DbGen::new(0.002);
    let mut konv_bytes = Vec::new();
    for release in [Release::R22, Release::R30] {
        let bulk = R3System::install_default(release).unwrap();
        bulk.load_tpcd(&gen).unwrap();
        let reference = R3System::install_default(release).unwrap();
        load_row_by_row(&reference, &gen);
        let (got, want) = (facts(&bulk), facts(&reference));
        assert_eq!(got.0, want.0, "{release:?}: allocated pages");
        assert_eq!(got.1.len(), want.1.len());
        for (g, w) in got.1.iter().zip(&want.1) {
            assert_eq!((&g.0, g.1, g.2, g.3), (&w.0, w.1, w.2, w.3), "{release:?}");
            assert!(g.4 == w.4, "{release:?}: {} keys differ", g.0);
        }
        assert_eq!(got.2, want.2, "{release:?}: logical table sizes");
        // KONV is a cluster under 2.2G: the per-document path ran.
        let konv = bulk.dict.table("KONV").unwrap();
        assert_eq!(matches!(konv.kind, TableKind::Cluster { .. }), release == Release::R22);
        let (data, index) = got.2.iter().find(|(t, _)| *t == "KONV").unwrap().1;
        konv_bytes.push(data + index);
    }
    // The paper's Table 2 point: converting the KONV cluster into a
    // transparent table for 3.0 roughly tripled its data plus index bytes.
    let growth = konv_bytes[1] as f64 / konv_bytes[0] as f64;
    assert!((3.0..=3.6).contains(&growth), "KONV grew {growth:.2}x from 2.2G to 3.0E");
}
