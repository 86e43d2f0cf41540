//! The bulk loader (`schema::load` through `Database::load_rows`) against
//! the row-at-a-time path it replaced: the database it leaves must be the
//! same one — the same pages, every index the same shape holding the same
//! keys in the same order, the same Table 2 sizes. Only page numbers may
//! differ, since index pages are now allocated after a table's heap pages
//! instead of between them.

use rdbms::storage::PagerConfig;
use rdbms::{Database, DbConfig};
use tpcd::dbgen::DbGen;
use tpcd::schema::{self, create_schema, table_sizes};

fn database() -> Database {
    // The benchmark's `tpcd_power` pool: the data is five times the cache.
    Database::new(DbConfig { pager: PagerConfig::with_pool_bytes(1 << 20), ..DbConfig::default() })
}

/// The loader before bulk load: one `insert_row` per row, every index
/// maintained per row.
fn load_row_by_row(db: &Database, gen: &DbGen) {
    create_schema(db).unwrap();
    let put = |table: &str, row: Vec<rdbms::Value>| db.insert_row(table, &row).unwrap();
    gen.regions().iter().for_each(|r| put("region", schema::region_row(r)));
    gen.nations().iter().for_each(|n| put("nation", schema::nation_row(n)));
    gen.suppliers().iter().for_each(|s| put("supplier", schema::supplier_row(s)));
    gen.parts().iter().for_each(|p| put("part", schema::part_row(p)));
    gen.partsupps().iter().for_each(|ps| put("partsupp", schema::partsupp_row(ps)));
    gen.customers().iter().for_each(|c| put("customer", schema::customer_row(c)));
    let (orders, lineitems) = gen.orders_and_lineitems();
    orders.iter().for_each(|o| put("orders", schema::order_row(o)));
    lineitems.iter().for_each(|l| put("lineitem", schema::lineitem_row(l)));
    db.execute("ANALYZE").unwrap();
}

/// Per index: (name, node pages, height, entries, user keys in order).
type IndexFacts = (String, u64, u32, u64, Vec<Vec<u8>>);

/// Everything that must not depend on how the database was loaded.
fn facts(db: &Database) -> (usize, Vec<IndexFacts>, Vec<(String, u64, u64)>) {
    let mut indexes = Vec::new();
    for name in db.catalog().table_names() {
        for index in db.catalog().table(&name).unwrap().indexes.read().iter() {
            let tree = index.tree.lock();
            // A non-unique tree's stored key ends in the 6-byte rid.
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
            indexes.push((
                index.name.clone(),
                tree.node_pages(),
                tree.height(),
                tree.entry_count(),
                keys,
            ));
        }
    }
    (db.pager().allocated_pages(), indexes, table_sizes(db).unwrap())
}

fn bulk_load_equals_row_by_row(sf: f64) -> Vec<IndexFacts> {
    let gen = DbGen::new(sf);
    let bulk = database();
    schema::load(&bulk, &gen).unwrap();
    let reference = database();
    load_row_by_row(&reference, &gen);
    let (got, want) = (facts(&bulk), facts(&reference));
    assert_eq!(got.0, want.0, "allocated pages");
    for (g, w) in got.1.iter().zip(&want.1) {
        assert_eq!((&g.0, g.1, g.2, g.3), (&w.0, w.1, w.2, w.3), "node pages, height, entries");
        assert!(g.4 == w.4, "{}: keys differ", g.0);
    }
    assert_eq!(got.1.len(), want.1.len());
    assert_eq!(got.2, want.2, "table sizes");
    got.1
}

#[test]
fn bulk_load_builds_the_database_row_by_row_loading_builds() {
    let indexes = bulk_load_equals_row_by_row(0.002);
    let lineitem = indexes.iter().find(|i| i.0 == "L_SHIPDATE_IDX").unwrap();
    assert!(lineitem.1 > 20 && lineitem.2 == 2, "{} pages, height {}", lineitem.1, lineitem.2);
}

/// Ten times the scale, where lineitem's indexes grow a third level: their
/// interior nodes split too. (At SF 0.01 every index is still two levels
/// high.) CI runs it in the recovery-smoke job.
#[test]
#[ignore = "SF 0.02, ~40 s; run with --ignored"]
fn bulk_load_builds_the_database_row_by_row_loading_builds_at_sf_0_02() {
    let indexes = bulk_load_equals_row_by_row(0.02);
    let tall: Vec<_> = indexes.iter().filter(|i| i.2 >= 3).map(|i| i.0.as_str()).collect();
    assert!(tall.len() >= 3 && tall.contains(&"LINEITEM_PKEY"), "three-level indexes: {tall:?}");
}
