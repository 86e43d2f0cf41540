//! The batch-input facility (paper §2.4, §3.4.2).
//!
//! Batch input "simulates an interactive entry of data": records read from
//! an external file are pushed through the *full application logic*, so
//! every record is individually validated before being inserted a tuple at
//! a time — SAP "does not exploit the bulk loading interface of the RDBMS".
//! That is why the paper's Table 3 shows a month-long load.
//!
//! The consistency checks implemented per record (each metered as
//! check-units plus its real database probes):
//!
//! * field-format validation against the data dictionary (type, width,
//!   NOT NULL of key fields);
//! * referential checks through SELECT SINGLE (customer exists for an
//!   order; part, supplier and info record exist for an item; country
//!   exists for a master record) — these benefit from table buffering;
//! * duplicate-key probe (the document number must be free);
//! * number-range bookkeeping (the NRIV-style counter table is read and
//!   updated per document);
//! * finally the tuple-at-a-time inserts into every affected SAP table.

use crate::opensql::{Cond, SelectSpec};
use crate::schema::{self, key16, MANDT};
use crate::sqltrace::SqlOp;
use crate::system::R3System;
use rdbms::error::{DbError, DbResult};
use rdbms::schema::Row;
use rdbms::types::Value;
use rdbms::Txn;
use tpcd::records::{Customer, LineItem, Order, Part, PartSupp, Supplier};
use trace::meter::{Counter, MeterSnapshot};

/// How many check-units one record of each type costs on top of its real
/// database probes (dialog simulation, screen logic, authority checks, ...).
fn base_checks(table_rows: usize) -> u64 {
    2 + table_rows as u64
}

impl R3System {
    fn check(&self, units: u64) {
        self.meter().add(Counter::CheckUnits, units);
    }

    /// Validate a row against the dictionary (formats, widths, key NOT
    /// NULL) — one check unit plus errors on violation.
    fn validate_row(&self, table: &str, row: &[Value]) -> DbResult<()> {
        let lt = self.dict.table(table)?;
        self.check(1);
        if row.len() != lt.columns.len() {
            return Err(DbError::execution(format!(
                "batch input: {table} row arity {} != {}",
                row.len(),
                lt.columns.len()
            )));
        }
        for (v, col) in row.iter().zip(&lt.columns) {
            if v.is_null() {
                if !col.nullable {
                    return Err(DbError::constraint(format!(
                        "batch input: {table}.{} is a key field and may not be initial",
                        col.name
                    )));
                }
                continue;
            }
            v.coerce_to(&col.ty).map_err(|e| {
                DbError::execution(format!("batch input: {table}.{}: {e}", col.name))
            })?;
        }
        Ok(())
    }

    /// SELECT SINGLE existence probe (buffer-aware), in the LUW.
    fn must_exist(&self, luw: &mut Txn<'_>, table: &str, conds: Vec<Cond>) -> DbResult<()> {
        self.check(1);
        let mut spec = SelectSpec::from_table(table).single();
        spec.conds = conds;
        let r = self.open_select_in(luw, &spec)?;
        if r.rows.is_empty() {
            return Err(DbError::constraint(format!(
                "batch input: referenced {table} record does not exist"
            )));
        }
        Ok(())
    }

    fn must_not_exist(&self, luw: &mut Txn<'_>, table: &str, conds: Vec<Cond>) -> DbResult<()> {
        self.check(1);
        let mut spec = SelectSpec::from_table(table).single();
        spec.conds = conds;
        let r = self.open_select_in(luw, &spec)?;
        if !r.rows.is_empty() {
            return Err(DbError::constraint(format!(
                "batch input: {table} document already exists"
            )));
        }
        Ok(())
    }

    /// Number-range bookkeeping: read + update the interval counter.
    /// Serialized, as SAP serializes number-range intervals, and — as SAP's
    /// number-range server does — in a short transaction of its own, so the
    /// LUWs that draw numbers never wait on each other's NRIV row.
    fn allocate_number(&self, object: &str) -> DbResult<()> {
        let _guard = self.number_range_lock.lock();
        self.check(1);
        // The NRIV table is created lazily (single-threaded setup phase).
        {
            let created = self.db.catalog().try_table("NRIV").is_some();
            if !created {
                let _ = self.db.execute(
                    "CREATE TABLE NRIV (MANDT CHAR(3) NOT NULL, OBJECT CHAR(10) NOT NULL, \
                     NRLEVEL INTEGER, PRIMARY KEY (MANDT, OBJECT))",
                );
            }
        }
        self.db.autocommit(|nr| {
            let existing = self.db_select(
                nr,
                "SELECT NRLEVEL FROM NRIV WHERE MANDT = ? AND OBJECT = ?",
                &[Value::str(MANDT), Value::str(object)],
            )?;
            if existing.rows.is_empty() {
                let row = [Value::str(MANDT), Value::str(object), Value::Int(1)];
                return self.crossing(
                    SqlOp::Insert,
                    || "INSERT NRIV".into(),
                    &[],
                    || nr.insert_row("NRIV", &row),
                    |_| 1,
                );
            }
            let n = existing.rows[0][0].as_int()? + 1;
            let sql = format!(
                "UPDATE NRIV SET NRLEVEL = {n} WHERE MANDT = '{MANDT}' AND OBJECT = '{object}'"
            );
            self.crossing(SqlOp::Exec, || sql.clone(), &[], || nr.execute(&sql).map(drop), |_| 1)
        })
    }

    // ------------------------------------------------------------------
    // Per-record-type transactions: each record is one LUW
    // ------------------------------------------------------------------

    /// One master record as one LUW: checks, the number (drawn in its own
    /// short transaction), the inserts, COMMIT WORK. `refs` are the records
    /// it references.
    fn post_master(
        &self,
        object: &str,
        rows: &[(&str, Row)],
        refs: &[(&str, &str, Value)],
    ) -> DbResult<()> {
        let mut luw = self.db.begin();
        self.check(base_checks(rows.len()));
        for (table, field, value) in refs {
            self.must_exist(&mut luw, table, vec![Cond::eq(field, value.clone())])?;
        }
        for (t, row) in rows {
            self.validate_row(t, row)?;
        }
        self.allocate_number(object)?;
        for (t, row) in rows {
            self.open_insert(&mut luw, t, row)?;
        }
        self.commit_work(luw)
    }

    pub fn batch_input_supplier(&self, s: &Supplier) -> DbResult<()> {
        let refs = [("T005", "LAND1", key16(s.nationkey))];
        self.post_master("KRED", &schema::supplier_rows(s), &refs)
    }

    pub fn batch_input_customer(&self, c: &Customer) -> DbResult<()> {
        let refs = [("T005", "LAND1", key16(c.nationkey))];
        self.post_master("DEBI", &schema::customer_rows(c), &refs)
    }

    pub fn batch_input_part(&self, p: &Part) -> DbResult<()> {
        self.post_master("MATL", &schema::part_rows(p), &[])
    }

    pub fn batch_input_partsupp(&self, ps: &PartSupp) -> DbResult<()> {
        let refs = [("MARA", "MATNR", key16(ps.partkey)), ("LFA1", "LIFNR", key16(ps.suppkey))];
        self.post_master("INFO", &schema::partsupp_rows(ps), &refs)
    }

    /// Orders and their lineitems "can only be loaded jointly" (§3.4.2):
    /// one document, one LUW.
    pub fn batch_input_order(&self, o: &Order, lineitems: &[&LineItem]) -> DbResult<()> {
        let mut luw = self.db.begin();
        let order_rows = schema::order_rows(o);
        self.check(base_checks(order_rows.len()));
        self.must_exist(&mut luw, "KNA1", vec![Cond::eq("KUNNR", key16(o.custkey))])?;
        self.must_not_exist(&mut luw, "VBAK", vec![Cond::eq("VBELN", key16(o.orderkey))])?;
        self.allocate_number("VBELN")?;
        for (t, row) in &order_rows {
            self.validate_row(t, row)?;
        }
        // Items: per-item checks, then insert; KONV rows of the whole
        // document bundle into one cluster write under Release 2.2.
        let konv = self.dict.table("KONV")?;
        let mut konv_rows: Vec<Row> = Vec::new();
        for l in lineitems {
            let rows = schema::lineitem_rows(l);
            self.check(base_checks(rows.len()));
            self.must_exist(&mut luw, "MARA", vec![Cond::eq("MATNR", key16(l.partkey))])?;
            self.must_exist(&mut luw, "LFA1", vec![Cond::eq("LIFNR", key16(l.suppkey))])?;
            // The item must reference an existing purchasing relationship.
            let infnr = schema::infnr(l.partkey, l.suppkey);
            self.must_exist(&mut luw, "EINA", vec![Cond::eq("INFNR", infnr)])?;
            for (t, row) in &rows {
                self.validate_row(t, row)?;
            }
            for (t, row) in rows {
                if t == "KONV" && konv.kind.is_encapsulated() {
                    konv_rows.push(row);
                } else {
                    self.open_insert(&mut luw, t, &row)?;
                }
            }
        }
        for (t, row) in &order_rows {
            self.open_insert(&mut luw, t, row)?;
        }
        if !konv_rows.is_empty() {
            self.crossing(
                SqlOp::Insert,
                || "INSERT KONV (cluster batch)".into(),
                &[],
                || self.insert_cluster_rows(&mut luw, &konv, &konv_rows),
                |_| konv_rows.len() as u64,
            )?;
        }
        self.commit_work(luw)
    }

    /// Delete one order document with its items (UF2 through the
    /// application logic — also checked tuple-at-a-time), as one LUW.
    pub fn batch_delete_order(&self, orderkey: i64) -> DbResult<()> {
        let mut luw = self.db.begin();
        self.check(3);
        self.must_exist(&mut luw, "VBAK", vec![Cond::eq("VBELN", key16(orderkey))])?;
        // Item long texts first (their keys come from the items).
        let items = self.open_select_in(
            &mut luw,
            &SelectSpec::from_table("VBAP")
                .fields(&["POSNR"])
                .cond(Cond::eq("VBELN", key16(orderkey))),
        )?;
        for row in &items.rows {
            let posnr = row[0].as_str()?;
            self.open_delete(
                &mut luw,
                "STXL",
                &[
                    Cond::eq("TDOBJECT", Value::str("VBBP")),
                    Cond::eq("TDNAME", Value::Str(format!("{orderkey:016}{posnr}"))),
                ],
            )?;
        }
        self.open_delete(&mut luw, "VBAP", &[Cond::eq("VBELN", key16(orderkey))])?;
        self.open_delete(&mut luw, "VBEP", &[Cond::eq("VBELN", key16(orderkey))])?;
        // Under Release 2.2 this deletes the cluster document.
        self.open_delete(&mut luw, "KONV", &[Cond::eq("KNUMV", key16(orderkey))])?;
        self.open_delete(
            &mut luw,
            "STXL",
            &[
                Cond::eq("TDOBJECT", Value::str("VBBK")),
                Cond::eq("TDNAME", Value::Str(format!("{orderkey:016}"))),
            ],
        )?;
        self.open_delete(&mut luw, "VBAK", &[Cond::eq("VBELN", key16(orderkey))])?;
        self.commit_work(luw)
    }
}

/// Per-table timing of a batch-input load.
pub struct LoadTiming {
    pub table: String,
    pub seconds: f64,
    pub records: u64,
    /// The metered work behind `seconds` (all workers together).
    pub work: MeterSnapshot,
}

/// A full batch-input load of the TPC-D population, as `workers` parallel
/// batch-input processes would post it (the paper ran two). Returns
/// per-table simulated elapsed seconds: the records' metered work divided
/// by the worker count, as wall-clock elapsed time would be. The records
/// run one after another on the calling thread, so the work — and every
/// number derived from it — is the same on every run.
pub fn batch_input_load(
    sys: &R3System,
    gen: &tpcd::DbGen,
    workers: usize,
) -> DbResult<Vec<LoadTiming>> {
    assert!(workers >= 1);
    let cal = sys.db.calibration();
    let mut out = Vec::new();

    // REGION and NATION were "typed in interactively" in the paper; load
    // them through the logical path without timing them.
    for n in gen.nations() {
        sys.insert_record(&schema::nation_rows(&n))?;
    }
    for r in gen.regions() {
        sys.insert_record(&schema::region_rows(&r))?;
    }

    macro_rules! timed {
        ($name:expr, $items:expr, $f:expr) => {{
            let items = $items;
            let before = sys.snapshot();
            items.iter().try_for_each(|item| $f(sys, item))?;
            let work = sys.snapshot().since(&before);
            out.push(LoadTiming {
                table: $name.to_string(),
                seconds: cal.seconds(&work) / workers as f64,
                records: items.len() as u64,
                work,
            });
        }};
    }

    timed!("SUPPLIER", gen.suppliers(), |s: &R3System, r: &Supplier| s.batch_input_supplier(r));
    timed!("PART", gen.parts(), |s: &R3System, r: &Part| s.batch_input_part(r));
    timed!("PARTSUPP", gen.partsupps(), |s: &R3System, r: &PartSupp| s.batch_input_partsupp(r));
    timed!("CUSTOMER", gen.customers(), |s: &R3System, r: &Customer| s.batch_input_customer(r));

    // ORDER + LINEITEM jointly.
    let (orders, lineitems) = gen.orders_and_lineitems();
    let docs: Vec<(Order, Vec<LineItem>)> = {
        let mut docs = Vec::with_capacity(orders.len());
        let mut idx = 0usize;
        for o in orders {
            let mut items = Vec::new();
            while idx < lineitems.len() && lineitems[idx].orderkey == o.orderkey {
                items.push(lineitems[idx].clone());
                idx += 1;
            }
            docs.push((o, items));
        }
        docs
    };
    timed!("ORDER+LINEITEM", docs, |s: &R3System, (o, items): &(Order, Vec<LineItem>)| {
        let refs: Vec<&LineItem> = items.iter().collect();
        s.batch_input_order(o, &refs)
    });

    sys.db.execute("ANALYZE")?;
    Ok(out)
}

/// UF1 via batch input (the SAP-side update function of Tables 4/5).
pub fn batch_uf1(sys: &R3System, gen: &tpcd::DbGen, stream: u64) -> DbResult<u64> {
    let (orders, lineitems) = gen.update_stream(stream);
    let mut idx = 0usize;
    let mut n = 0u64;
    for o in &orders {
        let mut items: Vec<&LineItem> = Vec::new();
        while idx < lineitems.len() && lineitems[idx].orderkey == o.orderkey {
            items.push(&lineitems[idx]);
            idx += 1;
        }
        sys.batch_input_order(o, &items)?;
        n += 1 + items.len() as u64;
    }
    Ok(n)
}

/// UF2 via batch input.
pub fn batch_uf2(sys: &R3System, gen: &tpcd::DbGen, stream: u64) -> DbResult<u64> {
    let (orders, _) = gen.update_stream(stream);
    for o in &orders {
        sys.batch_delete_order(o.orderkey)?;
    }
    Ok(orders.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Release;
    use tpcd::DbGen;
    use trace::meter::Counter;

    #[test]
    fn batch_load_small() {
        let sys = R3System::install_default(Release::R22).unwrap();
        let gen = DbGen::new(0.0005);
        let timings = batch_input_load(&sys, &gen, 1).unwrap();
        assert_eq!(timings.len(), 5);
        // Consistency-check work dominates and was metered.
        assert!(sys.meter().get(Counter::CheckUnits) > 1000);
        // ORDER+LINEITEM is by far the slowest (paper: 25 of ~30 days).
        let order_t = timings.iter().find(|t| t.table == "ORDER+LINEITEM").unwrap();
        for t in &timings {
            if t.table != "ORDER+LINEITEM" {
                assert!(
                    order_t.seconds > t.seconds,
                    "{} ({}) should be under ORDER+LINEITEM ({})",
                    t.table,
                    t.seconds,
                    order_t.seconds
                );
            }
        }
        // The data is actually there and consistent.
        let vbak: i64 = sys
            .db
            .query("SELECT COUNT(*) FROM VBAK WHERE MANDT = '301'")
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(vbak, gen.n_orders());
    }

    #[test]
    fn two_workers_halve_elapsed_time() {
        let gen = DbGen::new(0.0005);
        let sys1 = R3System::install_default(Release::R22).unwrap();
        let t1 = batch_input_load(&sys1, &gen, 1).unwrap();
        let sys2 = R3System::install_default(Release::R22).unwrap();
        let t2 = batch_input_load(&sys2, &gen, 2).unwrap();
        let total1: f64 = t1.iter().map(|t| t.seconds).sum();
        let total2: f64 = t2.iter().map(|t| t.seconds).sum();
        let ratio = total1 / total2;
        assert!(
            (1.4..=2.8).contains(&ratio),
            "two workers should roughly halve elapsed time, got {ratio:.2}"
        );
    }

    #[test]
    fn batch_input_load_is_deterministic() {
        let gen = DbGen::new(0.001);
        let run = || {
            let sys = R3System::install_default(Release::R22).unwrap();
            let timings = batch_input_load(&sys, &gen, 2).unwrap();
            (sys.snapshot(), timings.iter().map(|t| t.work).collect::<Vec<_>>())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bad_references_rejected() {
        let sys = R3System::install_default(Release::R22).unwrap();
        let gen = DbGen::new(0.0005);
        // No customers loaded yet: an order must fail its existence check.
        let (orders, lineitems) = gen.orders_and_lineitems();
        let items: Vec<&LineItem> = lineitems.iter().take(1).collect();
        let err = sys.batch_input_order(&orders[0], &items);
        assert!(err.is_err(), "order without customer must be rejected");
    }

    #[test]
    fn duplicate_order_rejected() {
        let sys = R3System::install_default(Release::R22).unwrap();
        let gen = DbGen::new(0.0005);
        batch_input_load(&sys, &gen, 1).unwrap();
        let (orders, lineitems) = gen.orders_and_lineitems();
        let items: Vec<&LineItem> =
            lineitems.iter().filter(|l| l.orderkey == orders[0].orderkey).collect();
        let err = sys.batch_input_order(&orders[0], &items);
        assert!(err.is_err(), "duplicate document number must be rejected");
    }

    #[test]
    fn uf1_uf2_round_trip() {
        for release in [Release::R22, Release::R30] {
            let sys = R3System::install_default(release).unwrap();
            let gen = DbGen::new(0.0005);
            sys.load_tpcd(&gen).unwrap();
            let count = |sql: &str| -> i64 {
                sys.db.query(sql).unwrap().scalar().unwrap().as_int().unwrap()
            };
            let before = count("SELECT COUNT(*) FROM VBAP");
            batch_uf1(&sys, &gen, 1).unwrap();
            assert!(count("SELECT COUNT(*) FROM VBAP") > before, "{release:?}: UF1 inserted");
            batch_uf2(&sys, &gen, 1).unwrap();
            assert_eq!(
                count("SELECT COUNT(*) FROM VBAP"),
                before,
                "{release:?}: UF2 restored the population"
            );
        }
    }
}
