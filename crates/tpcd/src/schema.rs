//! The original TPC-D schema (eight tables) on the rdbms engine, plus the
//! bulk loader used for the isolated-RDBMS baseline.
//!
//! Note on naming: TPC-D calls the orders table `ORDER`; like most SQL
//! implementations of the benchmark we name it `ORDERS` to avoid the
//! keyword.

use crate::dbgen::DbGen;
use crate::records::*;
use rdbms::error::DbResult;
use rdbms::types::Value;
use rdbms::Database;

/// DDL for the eight TPC-D tables.
pub const TPCD_DDL: [&str; 8] = [
    "CREATE TABLE region (
        r_regionkey INTEGER NOT NULL,
        r_name CHAR(25) NOT NULL,
        r_comment VARCHAR(152),
        PRIMARY KEY (r_regionkey))",
    "CREATE TABLE nation (
        n_nationkey INTEGER NOT NULL,
        n_name CHAR(25) NOT NULL,
        n_regionkey INTEGER NOT NULL,
        n_comment VARCHAR(152),
        PRIMARY KEY (n_nationkey))",
    "CREATE TABLE supplier (
        s_suppkey INTEGER NOT NULL,
        s_name CHAR(25) NOT NULL,
        s_address VARCHAR(40) NOT NULL,
        s_nationkey INTEGER NOT NULL,
        s_phone CHAR(15) NOT NULL,
        s_acctbal DECIMAL(12,2) NOT NULL,
        s_comment VARCHAR(101),
        PRIMARY KEY (s_suppkey))",
    "CREATE TABLE part (
        p_partkey INTEGER NOT NULL,
        p_name VARCHAR(55) NOT NULL,
        p_mfgr CHAR(25) NOT NULL,
        p_brand CHAR(10) NOT NULL,
        p_type VARCHAR(25) NOT NULL,
        p_size INTEGER NOT NULL,
        p_container CHAR(10) NOT NULL,
        p_retailprice DECIMAL(12,2) NOT NULL,
        p_comment VARCHAR(23),
        PRIMARY KEY (p_partkey))",
    "CREATE TABLE partsupp (
        ps_partkey INTEGER NOT NULL,
        ps_suppkey INTEGER NOT NULL,
        ps_availqty INTEGER NOT NULL,
        ps_supplycost DECIMAL(12,2) NOT NULL,
        ps_comment VARCHAR(199),
        PRIMARY KEY (ps_partkey, ps_suppkey))",
    "CREATE TABLE customer (
        c_custkey INTEGER NOT NULL,
        c_name VARCHAR(25) NOT NULL,
        c_address VARCHAR(40) NOT NULL,
        c_nationkey INTEGER NOT NULL,
        c_phone CHAR(15) NOT NULL,
        c_acctbal DECIMAL(12,2) NOT NULL,
        c_mktsegment CHAR(10) NOT NULL,
        c_comment VARCHAR(117),
        PRIMARY KEY (c_custkey))",
    "CREATE TABLE orders (
        o_orderkey INTEGER NOT NULL,
        o_custkey INTEGER NOT NULL,
        o_orderstatus CHAR(1) NOT NULL,
        o_totalprice DECIMAL(12,2) NOT NULL,
        o_orderdate DATE NOT NULL,
        o_orderpriority CHAR(15) NOT NULL,
        o_clerk CHAR(15) NOT NULL,
        o_shippriority INTEGER NOT NULL,
        o_comment VARCHAR(79),
        PRIMARY KEY (o_orderkey))",
    "CREATE TABLE lineitem (
        l_orderkey INTEGER NOT NULL,
        l_partkey INTEGER NOT NULL,
        l_suppkey INTEGER NOT NULL,
        l_linenumber INTEGER NOT NULL,
        l_quantity DECIMAL(12,2) NOT NULL,
        l_extendedprice DECIMAL(12,2) NOT NULL,
        l_discount DECIMAL(12,2) NOT NULL,
        l_tax DECIMAL(12,2) NOT NULL,
        l_returnflag CHAR(1) NOT NULL,
        l_linestatus CHAR(1) NOT NULL,
        l_shipdate DATE NOT NULL,
        l_commitdate DATE NOT NULL,
        l_receiptdate DATE NOT NULL,
        l_shipinstruct CHAR(25) NOT NULL,
        l_shipmode CHAR(10) NOT NULL,
        l_comment VARCHAR(44),
        PRIMARY KEY (l_orderkey, l_linenumber))",
];

/// The secondary (foreign-key) index set. Both the original TPC-D DB and
/// the SAP DB get "an equivalent set of indexes" (paper, Table 2
/// discussion). The shipdate index is the one the paper deleted for the
/// 3.0E configuration; it is created here and can be dropped by callers.
pub const TPCD_INDEXES: [&str; 7] = [
    "CREATE INDEX l_partkey_idx ON lineitem (l_partkey)",
    "CREATE INDEX l_suppkey_idx ON lineitem (l_suppkey)",
    "CREATE INDEX l_shipdate_idx ON lineitem (l_shipdate)",
    "CREATE INDEX o_custkey_idx ON orders (o_custkey)",
    "CREATE INDEX ps_suppkey_idx ON partsupp (ps_suppkey)",
    "CREATE INDEX c_nationkey_idx ON customer (c_nationkey)",
    "CREATE INDEX s_nationkey_idx ON supplier (s_nationkey)",
];

/// Create the TPC-D schema (tables + indexes) in `db`.
pub fn create_schema(db: &Database) -> DbResult<()> {
    for ddl in TPCD_DDL {
        db.execute(ddl)?;
    }
    for idx in TPCD_INDEXES {
        db.execute(idx)?;
    }
    Ok(())
}

/// Row conversions used by both the direct loader and the SAP loader.
pub fn region_row(r: &Region) -> Vec<Value> {
    vec![Value::Int(r.regionkey), Value::str(&r.name), Value::str(&r.comment)]
}

pub fn nation_row(n: &Nation) -> Vec<Value> {
    vec![
        Value::Int(n.nationkey),
        Value::str(&n.name),
        Value::Int(n.regionkey),
        Value::str(&n.comment),
    ]
}

pub fn supplier_row(s: &Supplier) -> Vec<Value> {
    vec![
        Value::Int(s.suppkey),
        Value::str(&s.name),
        Value::str(&s.address),
        Value::Int(s.nationkey),
        Value::str(&s.phone),
        Value::Decimal(s.acctbal),
        Value::str(&s.comment),
    ]
}

pub fn part_row(p: &Part) -> Vec<Value> {
    vec![
        Value::Int(p.partkey),
        Value::str(&p.name),
        Value::str(&p.mfgr),
        Value::str(&p.brand),
        Value::str(&p.type_),
        Value::Int(p.size),
        Value::str(&p.container),
        Value::Decimal(p.retailprice),
        Value::str(&p.comment),
    ]
}

pub fn partsupp_row(ps: &PartSupp) -> Vec<Value> {
    vec![
        Value::Int(ps.partkey),
        Value::Int(ps.suppkey),
        Value::Int(ps.availqty),
        Value::Decimal(ps.supplycost),
        Value::str(&ps.comment),
    ]
}

pub fn customer_row(c: &Customer) -> Vec<Value> {
    vec![
        Value::Int(c.custkey),
        Value::str(&c.name),
        Value::str(&c.address),
        Value::Int(c.nationkey),
        Value::str(&c.phone),
        Value::Decimal(c.acctbal),
        Value::str(&c.mktsegment),
        Value::str(&c.comment),
    ]
}

pub fn order_row(o: &Order) -> Vec<Value> {
    vec![
        Value::Int(o.orderkey),
        Value::Int(o.custkey),
        Value::str(&o.orderstatus),
        Value::Decimal(o.totalprice),
        Value::Date(o.orderdate),
        Value::str(&o.orderpriority),
        Value::str(&o.clerk),
        Value::Int(o.shippriority),
        Value::str(&o.comment),
    ]
}

pub fn lineitem_row(l: &LineItem) -> Vec<Value> {
    vec![
        Value::Int(l.orderkey),
        Value::Int(l.partkey),
        Value::Int(l.suppkey),
        Value::Int(l.linenumber),
        Value::Int(l.quantity),
        Value::Decimal(l.extendedprice),
        Value::Decimal(l.discount),
        Value::Decimal(l.tax),
        Value::str(&l.returnflag),
        Value::str(&l.linestatus),
        Value::Date(l.shipdate),
        Value::Date(l.commitdate),
        Value::Date(l.receiptdate),
        Value::str(&l.shipinstruct),
        Value::str(&l.shipmode),
        Value::str(&l.comment),
    ]
}

/// Load a complete TPC-D database (the "original TPC-D DB" baseline) into
/// `db` through the engine's bulk interface, one table at a time (rows are
/// converted as they are stored), then ANALYZE everything.
pub fn load(db: &Database, gen: &DbGen) -> DbResult<()> {
    create_schema(db)?;
    db.load_rows("region", gen.regions().iter().map(region_row))?;
    db.load_rows("nation", gen.nations().iter().map(nation_row))?;
    db.load_rows("supplier", gen.suppliers().iter().map(supplier_row))?;
    db.load_rows("part", gen.parts().iter().map(part_row))?;
    db.load_rows("partsupp", gen.partsupps().iter().map(partsupp_row))?;
    db.load_rows("customer", gen.customers().iter().map(customer_row))?;
    let (orders, lineitems) = gen.orders_and_lineitems();
    db.load_rows("orders", orders.iter().map(order_row))?;
    db.load_rows("lineitem", lineitems.iter().map(lineitem_row))?;
    db.execute("ANALYZE")?;
    Ok(())
}

/// Data + index bytes for each table plus totals — Table 2's left half.
pub fn table_sizes(db: &Database) -> DbResult<Vec<(String, u64, u64)>> {
    let mut out = Vec::new();
    for name in
        ["REGION", "NATION", "SUPPLIER", "PART", "PARTSUPP", "CUSTOMER", "ORDERS", "LINEITEM"]
    {
        let t = db.catalog().table(name)?;
        let (data, index) = db.catalog().table_sizes(&t);
        out.push((name.to_string(), data, index));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_creates_and_loads() {
        let db = Database::with_defaults();
        let gen = DbGen::new(0.001);
        load(&db, &gen).unwrap();
        let n: i64 =
            db.query("SELECT COUNT(*) FROM lineitem").unwrap().scalar().unwrap().as_int().unwrap();
        assert!(n > 1000, "lineitems loaded, got {n}");
        let r = db.query("SELECT COUNT(*) FROM nation").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Int(25));
    }

    #[test]
    fn sizes_reported() {
        let db = Database::with_defaults();
        load(&db, &DbGen::new(0.001)).unwrap();
        let sizes = table_sizes(&db).unwrap();
        assert_eq!(sizes.len(), 8);
        let li = sizes.iter().find(|(n, _, _)| n == "LINEITEM").unwrap();
        assert!(li.1 > 100_000, "lineitem data bytes: {}", li.1);
        assert!(li.2 > 10_000, "lineitem index bytes: {}", li.2);
        // LINEITEM is the biggest table.
        assert!(sizes.iter().all(|(_, d, _)| *d <= li.1));
    }
}
