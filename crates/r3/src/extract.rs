//! EIS-style data-warehouse extraction (paper §2.5 and §5, Table 9).
//!
//! To build a data warehouse, the data must leave SAP through its query
//! interfaces: Open SQL reports reconstruct the *original* TPC-D tables
//! from the partitioned SAP schema and write them out as ASCII. The cost
//! of these reports is the paper's Table 9 — comparable to running the
//! whole Open SQL power test once.

use crate::opensql::{Cond, SelectSpec};
use crate::system::R3System;
use crate::Release;
use rdbms::error::DbResult;
use rdbms::schema::Row;
use rdbms::types::Value;
use std::fmt::Write as _;
use trace::meter::{Counter, MeterSnapshot};

/// Result of extracting one TPC-D table.
pub struct ExtractResult {
    pub table: String,
    pub rows: u64,
    pub ascii_bytes: u64,
    pub seconds: f64,
    /// The metered work behind `seconds`.
    pub work: MeterSnapshot,
}

fn ascii_line(out: &mut String, fields: &[&Value]) {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        let _ = write!(out, "{f}");
    }
    out.push('\n');
}

impl R3System {
    fn stxl_comment(&self, object: &str, name: &str) -> DbResult<Value> {
        let r = self.open_select(
            &SelectSpec::from_table("STXL")
                .fields(&["TDLINE"])
                .cond(Cond::eq("TDOBJECT", Value::str(object)))
                .cond(Cond::eq("TDNAME", Value::str(name)))
                .cond(Cond::eq("TDID", Value::str("0001")))
                .single(),
        )?;
        Ok(r.rows.first().map(|row| row[0].clone()).unwrap_or(Value::Null))
    }

    fn field(&self, result: &rdbms::QueryResult, row: &Row, name: &str) -> Value {
        let idx = result.schema.resolve(None, name).expect("extract field");
        self.meter().bump(Counter::AppTuples);
        row[idx].clone()
    }
}

/// Extract one TPC-D table through Open SQL; returns rows and ASCII bytes.
pub fn extract_table(sys: &R3System, table: &str) -> DbResult<ExtractResult> {
    let before = sys.snapshot();
    let mut out = String::new();
    let mut rows = 0u64;
    match table {
        "REGION" => {
            let r = sys.open_select(&SelectSpec::from_table("T005U"))?;
            for row in &r.rows {
                let regio = sys.field(&r, row, "REGIO");
                let name = sys.field(&r, row, "BEZEI");
                let comment = sys.stxl_comment("REGIO", regio.as_str()?)?;
                ascii_line(&mut out, &[&regio, &name, &comment]);
                rows += 1;
            }
        }
        "NATION" => {
            let r = sys.open_select(&SelectSpec::from_table("T005"))?;
            for row in &r.rows {
                let land1 = sys.field(&r, row, "LAND1");
                let regio = sys.field(&r, row, "REGIO");
                let names = sys.open_select(
                    &SelectSpec::from_table("T005T")
                        .fields(&["LANDX"])
                        .cond(Cond::eq("SPRAS", Value::str("E")))
                        .cond(Cond::eq("LAND1", land1.clone()))
                        .single(),
                )?;
                let name = names.rows.first().map(|r| r[0].clone()).unwrap_or(Value::Null);
                let comment = sys.stxl_comment("LAND", land1.as_str()?)?;
                ascii_line(&mut out, &[&land1, &name, &regio, &comment]);
                rows += 1;
            }
        }
        "SUPPLIER" => {
            let r = sys.open_select(&SelectSpec::from_table("LFA1"))?;
            for row in &r.rows {
                let lifnr = sys.field(&r, row, "LIFNR");
                let comment = sys.stxl_comment("LFA1", lifnr.as_str()?)?;
                ascii_line(
                    &mut out,
                    &[
                        &lifnr,
                        &sys.field(&r, row, "NAME1"),
                        &sys.field(&r, row, "STRAS"),
                        &sys.field(&r, row, "LAND1"),
                        &sys.field(&r, row, "TELF1"),
                        &sys.field(&r, row, "SALDO"),
                        &comment,
                    ],
                );
                rows += 1;
            }
        }
        "PART" => {
            let r = sys.open_select(&SelectSpec::from_table("MARA"))?;
            for row in &r.rows {
                let matnr = sys.field(&r, row, "MATNR");
                let name = sys
                    .open_select(
                        &SelectSpec::from_table("MAKT")
                            .fields(&["MAKTX"])
                            .cond(Cond::eq("MATNR", matnr.clone()))
                            .cond(Cond::eq("SPRAS", Value::str("E")))
                            .single(),
                    )?
                    .rows
                    .first()
                    .map(|r| r[0].clone())
                    .unwrap_or(Value::Null);
                // Retail price: through the pool table A004 to KONP.
                let a004 = sys.open_select(
                    &SelectSpec::from_table("A004")
                        .cond(Cond::eq("KAPPL", Value::str("V")))
                        .cond(Cond::eq("KSCHL", Value::str("PR00")))
                        .cond(Cond::eq("MATNR", matnr.clone()))
                        .single(),
                )?;
                let price = match a004.rows.first() {
                    Some(arow) => {
                        let knumh_idx = a004.schema.resolve(None, "KNUMH")?;
                        sys.open_select(
                            &SelectSpec::from_table("KONP")
                                .fields(&["KBETR"])
                                .cond(Cond::eq("KNUMH", arow[knumh_idx].clone()))
                                .single(),
                        )?
                        .rows
                        .first()
                        .map(|r| r[0].clone())
                        .unwrap_or(Value::Null)
                    }
                    None => Value::Null,
                };
                let comment = sys.stxl_comment("MATERIAL", matnr.as_str()?)?;
                ascii_line(
                    &mut out,
                    &[
                        &matnr,
                        &name,
                        &sys.field(&r, row, "MFRNR"),
                        &sys.field(&r, row, "MATKL"),
                        &sys.field(&r, row, "MTART"),
                        &sys.field(&r, row, "GROES"),
                        &sys.field(&r, row, "MAGRV"),
                        &price,
                        &comment,
                    ],
                );
                rows += 1;
            }
        }
        "PARTSUPP" => {
            let r = sys.open_select(&SelectSpec::from_table("EINA"))?;
            for row in &r.rows {
                let infnr = sys.field(&r, row, "INFNR");
                let eine = sys.open_select(
                    &SelectSpec::from_table("EINE")
                        .fields(&["NETPR", "BSTMA"])
                        .cond(Cond::eq("INFNR", infnr.clone()))
                        .single(),
                )?;
                let (cost, qty) = match eine.rows.first() {
                    Some(e) => (e[0].clone(), e[1].clone()),
                    None => (Value::Null, Value::Null),
                };
                let comment = sys.stxl_comment("INFO", infnr.as_str()?.trim_end())?;
                ascii_line(
                    &mut out,
                    &[
                        &sys.field(&r, row, "MATNR"),
                        &sys.field(&r, row, "LIFNR"),
                        &qty,
                        &cost,
                        &comment,
                    ],
                );
                rows += 1;
            }
        }
        "CUSTOMER" => {
            let r = sys.open_select(&SelectSpec::from_table("KNA1"))?;
            for row in &r.rows {
                let kunnr = sys.field(&r, row, "KUNNR");
                let comment = sys.stxl_comment("KNA1", kunnr.as_str()?)?;
                ascii_line(
                    &mut out,
                    &[
                        &kunnr,
                        &sys.field(&r, row, "NAME1"),
                        &sys.field(&r, row, "STRAS"),
                        &sys.field(&r, row, "LAND1"),
                        &sys.field(&r, row, "TELF1"),
                        &sys.field(&r, row, "SALDO"),
                        &sys.field(&r, row, "KDGRP"),
                        &comment,
                    ],
                );
                rows += 1;
            }
        }
        "ORDER" => {
            let r = sys.open_select(&SelectSpec::from_table("VBAK"))?;
            for row in &r.rows {
                let vbeln = sys.field(&r, row, "VBELN");
                let comment = sys.stxl_comment("VBBK", vbeln.as_str()?)?;
                ascii_line(
                    &mut out,
                    &[
                        &vbeln,
                        &sys.field(&r, row, "KUNNR"),
                        &sys.field(&r, row, "VBTYP"),
                        &sys.field(&r, row, "NETWR"),
                        &sys.field(&r, row, "AUDAT"),
                        &sys.field(&r, row, "PRIOK"),
                        &sys.field(&r, row, "ERNAM"),
                        &sys.field(&r, row, "SPRIO"),
                        &comment,
                    ],
                );
                rows += 1;
            }
        }
        "LINEITEM" => {
            // Per-document reconstruction: items + schedule lines +
            // pricing conditions + text — the n-way reassembly that makes
            // extraction "extremely complex reports" (§5).
            let orders =
                sys.open_select(&SelectSpec::from_table("VBAK").fields(&["VBELN", "KNUMV"]))?;
            for orow in &orders.rows {
                let vbeln = orow[0].clone();
                let knumv = orow[1].clone();
                let (items, eteps, konv) = lineitem_parts(sys, &vbeln, &knumv)?;
                let posnr_idx = items.schema.resolve(None, "POSNR")?;
                for irow in &items.rows {
                    let posnr = irow[posnr_idx].clone();
                    let etep = find_by(sys, &eteps, "POSNR", &posnr);
                    let disc = find_konv(sys, &konv, &posnr, "DISC");
                    let tax = find_konv(sys, &konv, &posnr, "TAX");
                    let comment = sys
                        .stxl_comment("VBBP", &format!("{}{}", vbeln.as_str()?, posnr.as_str()?))?;
                    let mut fields: Vec<Value> = vec![
                        vbeln.clone(),
                        sys.field(&items, irow, "MATNR"),
                        sys.field(&items, irow, "LIFNR"),
                        posnr.clone(),
                        sys.field(&items, irow, "KWMENG"),
                        sys.field(&items, irow, "NETWR"),
                        disc,
                        tax,
                        sys.field(&items, irow, "RFLAG"),
                        sys.field(&items, irow, "LSTAT"),
                    ];
                    if let Some(e) = etep {
                        fields.push(sys.field(&eteps, &e, "EDATU"));
                        fields.push(sys.field(&eteps, &e, "WADAT"));
                        fields.push(sys.field(&eteps, &e, "LDDAT"));
                        fields.push(sys.field(&eteps, &e, "VSART"));
                        fields.push(sys.field(&eteps, &e, "LIFSP"));
                    }
                    fields.push(comment);
                    let refs: Vec<&Value> = fields.iter().collect();
                    ascii_line(&mut out, &refs);
                    rows += 1;
                }
            }
        }
        other => return Err(rdbms::DbError::analysis(format!("unknown TPC-D table '{other}'"))),
    }
    let work = sys.snapshot().since(&before);
    Ok(ExtractResult {
        table: table.to_string(),
        rows,
        ascii_bytes: out.len() as u64,
        seconds: sys.db.calibration().seconds(&work),
        work,
    })
}

type Parts = (rdbms::QueryResult, rdbms::QueryResult, rdbms::QueryResult);

fn lineitem_parts(sys: &R3System, vbeln: &Value, knumv: &Value) -> DbResult<Parts> {
    let items = match sys.release {
        // The reconstruction logic is identical across releases; what
        // differs is how KONV is physically read (cluster vs transparent),
        // which open_select handles through the dictionary.
        Release::R30 | Release::R22 => sys.open_select(
            &SelectSpec::from_table("VBAP")
                .fields(&["POSNR", "MATNR", "LIFNR", "KWMENG", "NETWR", "RFLAG", "LSTAT"])
                .cond(Cond::eq("VBELN", vbeln.clone())),
        )?,
    };
    let eteps = sys.open_select(
        &SelectSpec::from_table("VBEP")
            .fields(&["POSNR", "EDATU", "WADAT", "LDDAT", "VSART", "LIFSP"])
            .cond(Cond::eq("VBELN", vbeln.clone())),
    )?;
    let konv = sys.open_select(
        &SelectSpec::from_table("KONV")
            .fields(&["KPOSN", "KSCHL", "KBETR"])
            .cond(Cond::eq("KNUMV", knumv.clone())),
    )?;
    Ok((items, eteps, konv))
}

fn find_by(sys: &R3System, result: &rdbms::QueryResult, col: &str, key: &Value) -> Option<Row> {
    let idx = result.schema.resolve(None, col).ok()?;
    for row in &result.rows {
        sys.meter().bump(Counter::AppTuples);
        if row[idx].group_eq(key) {
            return Some(row.clone());
        }
    }
    None
}

fn find_konv(sys: &R3System, konv: &rdbms::QueryResult, posnr: &Value, kschl: &str) -> Value {
    let kposn = konv.schema.resolve(None, "KPOSN").expect("KPOSN");
    let ks = konv.schema.resolve(None, "KSCHL").expect("KSCHL");
    let kbetr = konv.schema.resolve(None, "KBETR").expect("KBETR");
    for row in &konv.rows {
        sys.meter().bump(Counter::AppTuples);
        if row[kposn].group_eq(posnr) && row[ks].group_eq(&Value::str(kschl)) {
            return row[kbetr].clone();
        }
    }
    Value::Null
}

/// Extract all eight TPC-D tables (the paper's Table 9 run).
pub fn extract_warehouse(sys: &R3System) -> DbResult<Vec<ExtractResult>> {
    ["REGION", "NATION", "SUPPLIER", "PART", "PARTSUPP", "CUSTOMER", "ORDER", "LINEITEM"]
        .iter()
        .map(|t| extract_table(sys, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcd::DbGen;

    #[test]
    fn extraction_reconstructs_all_tables() {
        let sys = R3System::install_default(Release::R30).unwrap();
        let gen = DbGen::new(0.0005);
        sys.load_tpcd(&gen).unwrap();
        let results = extract_warehouse(&sys).unwrap();
        assert_eq!(results.len(), 8);
        let by_name = |n: &str| results.iter().find(|r| r.table == n).unwrap();
        assert_eq!(by_name("REGION").rows, 5);
        assert_eq!(by_name("NATION").rows, 25);
        assert_eq!(by_name("PART").rows, gen.n_parts() as u64);
        assert_eq!(by_name("CUSTOMER").rows, gen.n_customers() as u64);
        assert_eq!(by_name("ORDER").rows, gen.n_orders() as u64);
        let (_, lineitems) = gen.orders_and_lineitems();
        assert_eq!(by_name("LINEITEM").rows, lineitems.len() as u64);
        // LINEITEM dominates the cost, as in Table 9.
        let li = by_name("LINEITEM");
        for r in &results {
            if r.table != "LINEITEM" {
                assert!(li.seconds >= r.seconds, "{} vs LINEITEM", r.table);
            }
        }
        assert!(li.ascii_bytes > 1000);
    }

    #[test]
    fn extraction_works_on_22_with_cluster_konv() {
        let sys = R3System::install_default(Release::R22).unwrap();
        let gen = DbGen::new(0.0005);
        sys.load_tpcd(&gen).unwrap();
        let li = extract_table(&sys, "LINEITEM").unwrap();
        let (_, lineitems) = gen.orders_and_lineitems();
        assert_eq!(li.rows, lineitems.len() as u64);
    }
}
