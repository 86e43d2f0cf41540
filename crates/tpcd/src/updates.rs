//! TPC-D update functions UF1 (insert new orders) and UF2 (delete them),
//! implemented through the engine's SQL DML path for the isolated-RDBMS
//! baseline. (The SAP configurations run these through the batch-input
//! facility in the `r3` crate instead.)

use crate::dbgen::DbGen;
use crate::schema::{lineitem_row, order_row};
use rdbms::error::DbResult;
use rdbms::Database;

/// UF1 as one transaction: insert the update stream's orders and
/// lineitems (direct inserts — the RDBMS bulk path, no application-level
/// checking), each under an exclusive point lock on its primary key. The
/// throughput test's update stream runs this concurrently with query
/// streams.
pub fn uf1(db: &Database, gen: &DbGen, stream: u64) -> DbResult<u64> {
    let (orders, lineitems) = gen.update_stream(stream);
    let mut txn = db.begin();
    let mut n = 0;
    for o in &orders {
        txn.insert_row("orders", &order_row(o))?;
        n += 1;
    }
    for l in &lineitems {
        txn.insert_row("lineitem", &lineitem_row(l))?;
        n += 1;
    }
    txn.commit()?;
    Ok(n)
}

/// UF2 as one transaction: delete the same orders and their lineitems by
/// key range.
pub fn uf2(db: &Database, gen: &DbGen, stream: u64) -> DbResult<u64> {
    let (orders, _) = gen.update_stream(stream);
    let lo = orders.iter().map(|o| o.orderkey).min().unwrap_or(0);
    let hi = orders.iter().map(|o| o.orderkey).max().unwrap_or(-1);
    let mut txn = db.begin();
    let d1 = txn
        .execute(&format!("DELETE FROM lineitem WHERE l_orderkey BETWEEN {lo} AND {hi}"))?
        .count()?;
    let d2 = txn
        .execute(&format!("DELETE FROM orders WHERE o_orderkey BETWEEN {lo} AND {hi}"))?
        .count()?;
    txn.commit()?;
    Ok(d1 + d2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::load;

    #[test]
    fn uf1_then_uf2_is_identity() {
        let db = Database::with_defaults();
        let gen = DbGen::new(0.001);
        load(&db, &gen).unwrap();
        let before_orders: i64 =
            db.query("SELECT COUNT(*) FROM orders").unwrap().scalar().unwrap().as_int().unwrap();
        let inserted = uf1(&db, &gen, 1).unwrap();
        assert!(inserted > 0);
        let mid: i64 =
            db.query("SELECT COUNT(*) FROM orders").unwrap().scalar().unwrap().as_int().unwrap();
        assert!(mid > before_orders);
        let deleted = uf2(&db, &gen, 1).unwrap();
        assert_eq!(deleted, inserted);
        let after: i64 =
            db.query("SELECT COUNT(*) FROM orders").unwrap().scalar().unwrap().as_int().unwrap();
        assert_eq!(after, before_orders);
        // Locks were all released on commit.
        assert!(db.lock_manager().snapshot_locks().is_empty());
    }
}
