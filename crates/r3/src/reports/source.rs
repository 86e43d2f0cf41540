//! Release/interface-aware row sources for the TPC-D report programs.
//!
//! A report needs "logical TPC-D rows" (a line item with its discount, its
//! order's date, its customer's nation, ...). How those rows are obtained
//! differs per configuration — and that difference *is* the paper's result:
//!
//! * **Open SQL, Release 3.0** — one pushed-down join (the new join
//!   construct), shipped to the application server in a single cursor;
//! * **Open SQL, Release 2.2** — a driver SELECT over the primary table and
//!   nested (cursor-cached) SELECT SINGLEs per row for every other table:
//!   the paper's §2.3 nested-loop program, with the interface crossed for
//!   every tuple;
//! * **Native SQL, Release 2.2** — one `EXEC SQL` join over everything
//!   *except* the encapsulated KONV cluster, whose conditions are fetched
//!   through nested Open SQL reads per document;
//! * **Native SQL, Release 3.0** — one `EXEC SQL` join over everything
//!   (only used by detail-level fetches; whole-query push-down lives in
//!   [`super::native30`]).
//!
//! Repeated master-data lookups are memoized in application-server internal
//! tables, the standard ABAP practice the paper notes in §2.3
//! ("materialize the inner relation ... and avoid repeated calls").

#![allow(clippy::type_complexity)] // row sources return wide domain tuples by design

use crate::opensql::{literal, Cond, SelectSpec, TableExpr};
use crate::schema::{key16, parse_key, MANDT};
use crate::system::R3System;
use crate::Release;
use rdbms::error::DbResult;
use rdbms::schema::Row;
use rdbms::types::{Date, Decimal, Value};
use rdbms::QueryResult;
use std::collections::HashMap;
use trace::meter::Counter;

use super::SapInterface;

/// A denormalized "logical TPC-D line item" row as a report sees it.
#[derive(Debug, Clone)]
pub struct Detail {
    pub orderkey: i64,
    pub partkey: i64,
    pub suppkey: i64,
    pub line: i64,
    pub qty: Decimal,
    pub extprice: Decimal,
    /// Discount / tax as fractions (KBETR / 1000).
    pub disc: Decimal,
    pub tax: Decimal,
    pub rf: String,
    pub ls: String,
    pub ship: Date,
    pub commitd: Date,
    pub receipt: Date,
    pub mode: String,
    pub instr: String,
    // order fields
    pub custkey: i64,
    pub orderdate: Date,
    pub opriority: String,
    pub shippriority: i64,
    pub o_total: Decimal,
    // customer fields
    pub c_nation: i64,
    pub c_segment: String,
    pub c_name: String,
    pub c_acctbal: Decimal,
    pub c_address: String,
    pub c_phone: String,
    // part fields
    pub p_brand: String,
    pub p_type: String,
    pub p_size: i64,
    pub p_container: String,
    pub p_name: String,
    // supplier fields
    pub s_nation: i64,
}

impl Default for Detail {
    fn default() -> Self {
        Detail {
            orderkey: 0,
            partkey: 0,
            suppkey: 0,
            line: 0,
            qty: Decimal::zero(),
            extprice: Decimal::zero(),
            disc: Decimal::zero(),
            tax: Decimal::zero(),
            rf: String::new(),
            ls: String::new(),
            ship: Date::from_days(0),
            commitd: Date::from_days(0),
            receipt: Date::from_days(0),
            mode: String::new(),
            instr: String::new(),
            custkey: 0,
            orderdate: Date::from_days(0),
            opriority: String::new(),
            shippriority: 0,
            o_total: Decimal::zero(),
            c_nation: -1,
            c_segment: String::new(),
            c_name: String::new(),
            c_acctbal: Decimal::zero(),
            c_address: String::new(),
            c_phone: String::new(),
            p_brand: String::new(),
            p_type: String::new(),
            p_size: 0,
            p_container: String::new(),
            p_name: String::new(),
            s_nation: -1,
        }
    }
}

/// What to fetch and which predicates can be handed to the database.
/// Condition field names are the unqualified SAP column names of the
/// table they belong to.
#[derive(Debug, Clone, Default)]
pub struct DetailSpec {
    pub vbap_conds: Vec<Cond>,
    pub with_dates: bool,
    pub vbep_conds: Vec<Cond>,
    pub with_order: bool,
    pub vbak_conds: Vec<Cond>,
    pub with_customer: bool,
    pub kna1_conds: Vec<Cond>,
    pub with_part: bool,
    pub mara_conds: Vec<Cond>,
    /// LIKE pattern on the part name (MAKT.MAKTX); implies joining MAKT.
    pub part_name_like: Option<String>,
    pub with_supplier: bool,
    pub with_konv: bool,
}

impl DetailSpec {
    fn needs_vbak(&self) -> bool {
        self.with_order || self.with_customer || self.with_konv || !self.vbak_conds.is_empty()
    }

    fn needs_vbep(&self) -> bool {
        self.with_dates || !self.vbep_conds.is_empty()
    }

    fn needs_makt(&self) -> bool {
        self.part_name_like.is_some()
    }
}

/// The source façade.
pub struct Src<'a> {
    pub sys: &'a R3System,
    pub iface: SapInterface,
}

impl<'a> Src<'a> {
    pub fn new(sys: &'a R3System, iface: SapInterface) -> Self {
        Src { sys, iface }
    }

    fn is22(&self) -> bool {
        self.sys.release == Release::R22
    }

    fn meter_app(&self, n: u64) {
        self.sys.meter().add(Counter::AppTuples, n);
    }

    // ------------------------------------------------------------------
    // KONV document reads (the nested SELECT of §2.3 / Table 4 analysis)
    // ------------------------------------------------------------------

    /// Fetch the pricing conditions of one document: KPOSN -> (disc, tax)
    /// fractions. One interface crossing per document; cluster decode under
    /// Release 2.2.
    pub fn konv_document(&self, orderkey: i64) -> DbResult<HashMap<i64, (Decimal, Decimal)>> {
        let r = self.sys.open_select(
            &SelectSpec::from_table("KONV")
                .fields(&["KPOSN", "KSCHL", "KBETR"])
                .cond(Cond::eq("KNUMV", key16(orderkey))),
        )?;
        let mut out: HashMap<i64, (Decimal, Decimal)> = HashMap::new();
        let thousand = Decimal::from_int(1000);
        for row in &r.rows {
            self.meter_app(1);
            let kposn = parse_key(&row[0]);
            let rate = row[2].as_decimal()?.div(thousand)?;
            let entry = out.entry(kposn).or_insert((Decimal::zero(), Decimal::zero()));
            match row[1].as_str()?.trim_end() {
                "DISC" => entry.0 = rate,
                "TAX" => entry.1 = rate,
                _ => {}
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // The line-item detail fetch
    // ------------------------------------------------------------------

    pub fn detail(&self, spec: &DetailSpec) -> DbResult<Vec<Detail>> {
        match (self.iface, self.is22()) {
            (SapInterface::Open, false) => self.detail_open30(spec),
            (SapInterface::Open, true) => self.detail_open22(spec),
            (SapInterface::Native, _) => self.detail_native(spec),
        }
    }

    /// Open SQL 3.0: one pushed-down join.
    fn detail_open30(&self, spec: &DetailSpec) -> DbResult<Vec<Detail>> {
        let mut from = TableExpr::table_as("VBAP", "V");
        let mut fields: Vec<String> = [
            "V.VBELN", "V.POSNR", "V.MATNR", "V.LIFNR", "V.KWMENG", "V.NETWR", "V.RFLAG", "V.LSTAT",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if spec.needs_vbep() {
            from = from.join_as("VBEP", "E", &[("V.VBELN", "E.VBELN"), ("V.POSNR", "E.POSNR")]);
            fields.extend(
                ["E.EDATU", "E.WADAT", "E.LDDAT", "E.VSART", "E.LIFSP"]
                    .iter()
                    .map(|s| s.to_string()),
            );
        }
        if spec.needs_vbak() {
            from = from.join_as("VBAK", "A", &[("V.VBELN", "A.VBELN")]);
            fields.extend(
                ["A.KUNNR", "A.AUDAT", "A.PRIOK", "A.SPRIO", "A.NETWR"]
                    .iter()
                    .map(|s| s.to_string()),
            );
        }
        if spec.with_customer {
            from = from.join_as("KNA1", "C", &[("A.KUNNR", "C.KUNNR")]);
            fields.extend(
                ["C.LAND1", "C.KDGRP", "C.NAME1", "C.SALDO", "C.STRAS", "C.TELF1"]
                    .iter()
                    .map(|s| s.to_string()),
            );
        }
        if spec.with_part {
            from = from.join_as("MARA", "M", &[("V.MATNR", "M.MATNR")]);
            fields
                .extend(["M.MATKL", "M.MTART", "M.GROES", "M.MAGRV"].iter().map(|s| s.to_string()));
        }
        if spec.needs_makt() {
            from = from.join_as("MAKT", "MK", &[("V.MATNR", "MK.MATNR")]);
            fields.push("MK.MAKTX".to_string());
        }
        if spec.with_supplier {
            from = from.join_as("LFA1", "S", &[("V.LIFNR", "S.LIFNR")]);
            fields.push("S.LAND1".to_string());
        }
        if spec.with_konv {
            from = from
                .join_as("KONV", "KD", &[("A.KNUMV", "KD.KNUMV"), ("V.POSNR", "KD.KPOSN")])
                .join_as("KONV", "KT", &[("A.KNUMV", "KT.KNUMV"), ("V.POSNR", "KT.KPOSN")]);
            fields.push("KD.KBETR".to_string());
            fields.push("KT.KBETR".to_string());
        }
        let field_refs: Vec<&str> = fields.iter().map(|s| s.as_str()).collect();
        let mut select = SelectSpec::from_expr(from).fields(&field_refs);
        for c in &spec.vbap_conds {
            select = select.cond(Cond::new(&format!("V.{}", c.field), c.op, c.value.clone()));
        }
        for c in &spec.vbep_conds {
            select = select.cond(Cond::new(&format!("E.{}", c.field), c.op, c.value.clone()));
        }
        for c in &spec.vbak_conds {
            select = select.cond(Cond::new(&format!("A.{}", c.field), c.op, c.value.clone()));
        }
        for c in &spec.kna1_conds {
            select = select.cond(Cond::new(&format!("C.{}", c.field), c.op, c.value.clone()));
        }
        for c in &spec.mara_conds {
            select = select.cond(Cond::new(&format!("M.{}", c.field), c.op, c.value.clone()));
        }
        if let Some(pat) = &spec.part_name_like {
            select =
                select.cond(Cond::new("MK.MAKTX", crate::opensql::CmpOp::Like, Value::str(pat)));
        }
        if spec.needs_makt() {
            select = select.cond(Cond::eq("MK.SPRAS", Value::str("E")));
        }
        if spec.with_konv {
            select = select.cond(Cond::eq("KD.KSCHL", Value::str("DISC")));
            select = select.cond(Cond::eq("KT.KSCHL", Value::str("TAX")));
        }
        let r = self.sys.open_select(&select)?;
        self.parse_flat(&r, spec)
    }

    /// Native SQL (3.0: full join incl. KONV; 2.2: join sans KONV + nested
    /// KONV document reads).
    fn detail_native(&self, spec: &DetailSpec) -> DbResult<Vec<Detail>> {
        let konv_in_sql = spec.with_konv && !self.is22();
        let mut from = vec!["VBAP V".to_string()];
        let mut fields: Vec<String> = [
            "V.VBELN", "V.POSNR", "V.MATNR", "V.LIFNR", "V.KWMENG", "V.NETWR", "V.RFLAG", "V.LSTAT",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut joins: Vec<String> = Vec::new();
        if spec.needs_vbep() {
            from.push("VBEP E".to_string());
            joins.push("E.VBELN = V.VBELN AND E.POSNR = V.POSNR".to_string());
            fields.extend(
                ["E.EDATU", "E.WADAT", "E.LDDAT", "E.VSART", "E.LIFSP"]
                    .iter()
                    .map(|s| s.to_string()),
            );
        }
        if spec.needs_vbak() {
            from.push("VBAK A".to_string());
            joins.push("A.VBELN = V.VBELN".to_string());
            fields.extend(
                ["A.KUNNR", "A.AUDAT", "A.PRIOK", "A.SPRIO", "A.NETWR"]
                    .iter()
                    .map(|s| s.to_string()),
            );
        }
        if spec.with_customer {
            from.push("KNA1 C".to_string());
            joins.push("C.KUNNR = A.KUNNR".to_string());
            fields.extend(
                ["C.LAND1", "C.KDGRP", "C.NAME1", "C.SALDO", "C.STRAS", "C.TELF1"]
                    .iter()
                    .map(|s| s.to_string()),
            );
        }
        if spec.with_part {
            from.push("MARA M".to_string());
            joins.push("M.MATNR = V.MATNR".to_string());
            fields
                .extend(["M.MATKL", "M.MTART", "M.GROES", "M.MAGRV"].iter().map(|s| s.to_string()));
        }
        if spec.needs_makt() {
            from.push("MAKT MK".to_string());
            joins.push("MK.MATNR = V.MATNR AND MK.SPRAS = 'E'".to_string());
            fields.push("MK.MAKTX".to_string());
        }
        if spec.with_supplier {
            from.push("LFA1 S".to_string());
            joins.push("S.LIFNR = V.LIFNR".to_string());
            fields.push("S.LAND1".to_string());
        }
        if konv_in_sql {
            from.push("KONV KD".to_string());
            from.push("KONV KT".to_string());
            joins.push(
                "KD.KNUMV = A.KNUMV AND KD.KPOSN = V.POSNR AND KD.KSCHL = 'DISC'".to_string(),
            );
            joins
                .push("KT.KNUMV = A.KNUMV AND KT.KPOSN = V.POSNR AND KT.KSCHL = 'TAX'".to_string());
            fields.push("KD.KBETR".to_string());
            fields.push("KT.KBETR".to_string());
        }
        let mut sql = format!("SELECT {} FROM {}", fields.join(", "), from.join(", "));
        // Client predicates — Native SQL must write them itself (§4.1).
        let aliases: Vec<&str> = from.iter().map(|f| f.rsplit(' ').next().unwrap()).collect();
        let mandts: Vec<String> =
            aliases.iter().map(|a| format!("{a}.MANDT = '{MANDT}'")).collect();
        sql.push_str(&format!(" WHERE {}", mandts.join(" AND ")));
        for j in &joins {
            sql.push_str(&format!(" AND {j}"));
        }
        for (alias, conds) in [
            ("V", &spec.vbap_conds),
            ("E", &spec.vbep_conds),
            ("A", &spec.vbak_conds),
            ("C", &spec.kna1_conds),
            ("M", &spec.mara_conds),
        ] {
            for c in conds.iter() {
                sql.push_str(&format!(
                    " AND {alias}.{} {} {}",
                    c.field,
                    cmp_sql(c.op),
                    literal(&c.value)
                ));
            }
        }
        if let Some(pat) = &spec.part_name_like {
            sql.push_str(&format!(" AND MK.MAKTX LIKE '{pat}'"));
        }
        let r = self.sys.native_query(&sql)?;
        let mut details = self.parse_flat_common(&r, spec, konv_in_sql)?;
        if spec.with_konv && !konv_in_sql {
            // Release 2.2: nested Open SQL reads of the cluster per document.
            self.attach_konv(&mut details)?;
        }
        Ok(details)
    }

    /// Open SQL 2.2: driver select over VBAP plus nested SELECT SINGLEs per
    /// row, with master data memoized in internal tables.
    fn detail_open22(&self, spec: &DetailSpec) -> DbResult<Vec<Detail>> {
        let mut driver = SelectSpec::from_table("VBAP")
            .fields(&["VBELN", "POSNR", "MATNR", "LIFNR", "KWMENG", "NETWR", "RFLAG", "LSTAT"]);
        for c in &spec.vbap_conds {
            driver = driver.cond(c.clone());
        }
        let rows = self.sys.open_select(&driver)?;
        let mut out: Vec<Detail> = Vec::new();
        // Application-server memo tables.
        let mut vbak_memo: HashMap<i64, Option<Row>> = HashMap::new();
        let mut kna1_memo: HashMap<i64, Option<Row>> = HashMap::new();
        let mut mara_memo: HashMap<i64, Option<Row>> = HashMap::new();
        let mut makt_memo: HashMap<i64, Option<String>> = HashMap::new();
        let mut lfa1_memo: HashMap<i64, Option<i64>> = HashMap::new();
        let mut konv_memo: HashMap<i64, HashMap<i64, (Decimal, Decimal)>> = HashMap::new();

        'row: for row in &rows.rows {
            self.meter_app(1);
            let mut d = Detail {
                orderkey: parse_key(&row[0]),
                line: parse_key(&row[1]),
                partkey: parse_key(&row[2]),
                suppkey: parse_key(&row[3]),
                qty: row[4].as_decimal()?,
                extprice: row[5].as_decimal()?,
                rf: row[6].to_string(),
                ls: row[7].to_string(),
                ..Detail::default()
            };
            if spec.needs_vbep() {
                // Nested SELECT (cursor-cached): one crossing per line item.
                let e = self.sys.open_select(
                    &SelectSpec::from_table("VBEP")
                        .fields(&["EDATU", "WADAT", "LDDAT", "VSART", "LIFSP"])
                        .cond(Cond::eq("VBELN", key16(d.orderkey)))
                        .cond(Cond::eq("POSNR", row[1].clone()))
                        .single(),
                )?;
                let Some(erow) = e.rows.first() else { continue };
                if !conds_pass(&e, erow, &spec.vbep_conds) {
                    continue;
                }
                d.ship = erow[0].as_date()?;
                d.commitd = erow[1].as_date()?;
                d.receipt = erow[2].as_date()?;
                d.mode = erow[3].to_string();
                d.instr = erow[4].to_string();
            }
            if spec.needs_vbak() {
                let entry = match vbak_memo.get(&d.orderkey) {
                    Some(v) => {
                        self.meter_app(1);
                        v.clone()
                    }
                    None => {
                        let a = self.sys.open_select(
                            &SelectSpec::from_table("VBAK")
                                .fields(&["KUNNR", "AUDAT", "PRIOK", "SPRIO", "NETWR"])
                                .cond(Cond::eq("VBELN", key16(d.orderkey)))
                                .single(),
                        )?;
                        let v = match a.rows.first() {
                            Some(arow) if conds_pass(&a, arow, &spec.vbak_conds) => {
                                Some(arow.clone())
                            }
                            _ => None,
                        };
                        vbak_memo.insert(d.orderkey, v.clone());
                        v
                    }
                };
                let Some(arow) = entry else { continue };
                d.custkey = parse_key(&arow[0]);
                d.orderdate = arow[1].as_date()?;
                d.opriority = arow[2].to_string();
                d.shippriority = arow[3].as_int()?;
                d.o_total = arow[4].as_decimal()?;
            }
            if spec.with_customer {
                let entry = match kna1_memo.get(&d.custkey) {
                    Some(v) => {
                        self.meter_app(1);
                        v.clone()
                    }
                    None => {
                        let c = self.sys.open_select(
                            &SelectSpec::from_table("KNA1")
                                .fields(&["LAND1", "KDGRP", "NAME1", "SALDO", "STRAS", "TELF1"])
                                .cond(Cond::eq("KUNNR", key16(d.custkey)))
                                .single(),
                        )?;
                        let v = match c.rows.first() {
                            Some(crow) if conds_pass(&c, crow, &spec.kna1_conds) => {
                                Some(crow.clone())
                            }
                            _ => None,
                        };
                        kna1_memo.insert(d.custkey, v.clone());
                        v
                    }
                };
                let Some(crow) = entry else { continue };
                d.c_nation = parse_key(&crow[0]);
                d.c_segment = crow[1].to_string();
                d.c_name = crow[2].to_string();
                d.c_acctbal = crow[3].as_decimal()?;
                d.c_address = crow[4].to_string();
                d.c_phone = crow[5].to_string();
            }
            if spec.with_part {
                let entry = match mara_memo.get(&d.partkey) {
                    Some(v) => {
                        self.meter_app(1);
                        v.clone()
                    }
                    None => {
                        let m = self.sys.open_select(
                            &SelectSpec::from_table("MARA")
                                .fields(&["MATKL", "MTART", "GROES", "MAGRV"])
                                .cond(Cond::eq("MATNR", key16(d.partkey)))
                                .single(),
                        )?;
                        let v = match m.rows.first() {
                            Some(mrow) if conds_pass(&m, mrow, &spec.mara_conds) => {
                                Some(mrow.clone())
                            }
                            _ => None,
                        };
                        mara_memo.insert(d.partkey, v.clone());
                        v
                    }
                };
                let Some(mrow) = entry else { continue };
                d.p_brand = mrow[0].to_string();
                d.p_type = mrow[1].to_string();
                d.p_size = mrow[2].as_int()?;
                d.p_container = mrow[3].to_string();
            }
            if spec.needs_makt() {
                let entry = match makt_memo.get(&d.partkey) {
                    Some(v) => {
                        self.meter_app(1);
                        v.clone()
                    }
                    None => {
                        let m = self.sys.open_select(
                            &SelectSpec::from_table("MAKT")
                                .fields(&["MAKTX"])
                                .cond(Cond::eq("MATNR", key16(d.partkey)))
                                .cond(Cond::eq("SPRAS", Value::str("E")))
                                .single(),
                        )?;
                        let pattern = spec.part_name_like.as_deref().unwrap_or("%");
                        let v = m.rows.first().and_then(|r| {
                            let name = r[0].to_string();
                            if rdbms::exec::expr::like_match(&name, pattern) {
                                Some(name)
                            } else {
                                None
                            }
                        });
                        makt_memo.insert(d.partkey, v.clone());
                        v
                    }
                };
                let Some(name) = entry else { continue 'row };
                d.p_name = name;
            }
            if spec.with_supplier {
                let entry = match lfa1_memo.get(&d.suppkey) {
                    Some(v) => {
                        self.meter_app(1);
                        *v
                    }
                    None => {
                        let s = self.sys.open_select(
                            &SelectSpec::from_table("LFA1")
                                .fields(&["LAND1"])
                                .cond(Cond::eq("LIFNR", key16(d.suppkey)))
                                .single(),
                        )?;
                        let v = s.rows.first().map(|r| parse_key(&r[0]));
                        lfa1_memo.insert(d.suppkey, v);
                        v
                    }
                };
                let Some(nation) = entry else { continue };
                d.s_nation = nation;
            }
            if spec.with_konv {
                if let std::collections::hash_map::Entry::Vacant(e) = konv_memo.entry(d.orderkey) {
                    let doc = self.konv_document(d.orderkey)?;
                    e.insert(doc);
                }
                self.meter_app(1);
                if let Some((disc, tax)) = konv_memo[&d.orderkey].get(&d.line) {
                    d.disc = *disc;
                    d.tax = *tax;
                }
            }
            out.push(d);
        }
        Ok(out)
    }

    fn parse_flat(&self, r: &QueryResult, spec: &DetailSpec) -> DbResult<Vec<Detail>> {
        self.parse_flat_common(r, spec, spec.with_konv)
    }

    /// Parse the flat (joined) result of the open30/native paths. Column
    /// order matches the construction order of the field lists.
    fn parse_flat_common(
        &self,
        r: &QueryResult,
        spec: &DetailSpec,
        konv_in_result: bool,
    ) -> DbResult<Vec<Detail>> {
        let thousand = Decimal::from_int(1000);
        let mut out = Vec::with_capacity(r.rows.len());
        for row in &r.rows {
            self.meter_app(1);
            let mut i = 0usize;
            let mut next = || {
                let v = row[i].clone();
                i += 1;
                v
            };
            let mut d = Detail {
                orderkey: parse_key(&next()),
                line: parse_key(&next()),
                partkey: parse_key(&next()),
                suppkey: parse_key(&next()),
                qty: next().as_decimal()?,
                extprice: next().as_decimal()?,
                rf: next().to_string(),
                ls: next().to_string(),
                ..Detail::default()
            };
            if spec.needs_vbep() {
                d.ship = next().as_date()?;
                d.commitd = next().as_date()?;
                d.receipt = next().as_date()?;
                d.mode = next().to_string();
                d.instr = next().to_string();
            }
            if spec.needs_vbak() {
                d.custkey = parse_key(&next());
                d.orderdate = next().as_date()?;
                d.opriority = next().to_string();
                d.shippriority = next().as_int()?;
                d.o_total = next().as_decimal()?;
            }
            if spec.with_customer {
                d.c_nation = parse_key(&next());
                d.c_segment = next().to_string();
                d.c_name = next().to_string();
                d.c_acctbal = next().as_decimal()?;
                d.c_address = next().to_string();
                d.c_phone = next().to_string();
            }
            if spec.with_part {
                d.p_brand = next().to_string();
                d.p_type = next().to_string();
                d.p_size = next().as_int()?;
                d.p_container = next().to_string();
            }
            if spec.needs_makt() {
                d.p_name = next().to_string();
            }
            if spec.with_supplier {
                d.s_nation = parse_key(&next());
            }
            if konv_in_result {
                d.disc = next().as_decimal()?.div(thousand)?;
                d.tax = next().as_decimal()?.div(thousand)?;
            }
            out.push(d);
        }
        Ok(out)
    }

    /// Attach discount/tax via nested per-document KONV reads (2.2 Native).
    fn attach_konv(&self, details: &mut [Detail]) -> DbResult<()> {
        let mut memo: HashMap<i64, HashMap<i64, (Decimal, Decimal)>> = HashMap::new();
        for d in details.iter_mut() {
            if let std::collections::hash_map::Entry::Vacant(e) = memo.entry(d.orderkey) {
                let doc = self.konv_document(d.orderkey)?;
                e.insert(doc);
            }
            self.meter_app(1);
            if let Some((disc, tax)) = memo[&d.orderkey].get(&d.line) {
                d.disc = *disc;
                d.tax = *tax;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Order-level fetch (Q4, Q13)
    // ------------------------------------------------------------------

    /// Orders with pushed VBAK predicates:
    /// (orderkey, custkey, orderdate, priority, totalprice).
    pub fn orders(&self, vbak_conds: &[Cond]) -> DbResult<Vec<(i64, i64, Date, String, Decimal)>> {
        let fields = ["VBELN", "KUNNR", "AUDAT", "PRIOK", "NETWR"];
        let r = match self.iface {
            SapInterface::Open => {
                let mut s = SelectSpec::from_table("VBAK").fields(&fields);
                for c in vbak_conds {
                    s = s.cond(c.clone());
                }
                self.sys.open_select(&s)?
            }
            SapInterface::Native => {
                let mut sql =
                    format!("SELECT {} FROM VBAK WHERE MANDT = '{MANDT}'", fields.join(", "));
                for c in vbak_conds {
                    sql.push_str(&format!(
                        " AND {} {} {}",
                        c.field,
                        cmp_sql(c.op),
                        literal(&c.value)
                    ));
                }
                self.sys.native_query(&sql)?
            }
        };
        let mut out = Vec::with_capacity(r.rows.len());
        for row in &r.rows {
            self.meter_app(1);
            out.push((
                parse_key(&row[0]),
                parse_key(&row[1]),
                row[2].as_date()?,
                row[3].to_string(),
                row[4].as_decimal()?,
            ));
        }
        Ok(out)
    }

    /// Schedule lines of one order: (posnr, commitdate, receiptdate).
    pub fn order_schedule(&self, orderkey: i64) -> DbResult<Vec<(i64, Date, Date)>> {
        let r = self.sys.open_select(
            &SelectSpec::from_table("VBEP")
                .fields(&["POSNR", "WADAT", "LDDAT"])
                .cond(Cond::eq("VBELN", key16(orderkey))),
        )?;
        let mut out = Vec::with_capacity(r.rows.len());
        for row in &r.rows {
            self.meter_app(1);
            out.push((parse_key(&row[0]), row[1].as_date()?, row[2].as_date()?));
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Purchasing (PARTSUPP) fetch (Q2, Q11, Q16)
    // ------------------------------------------------------------------

    /// Purchasing info records: (partkey, suppkey, cost, availqty,
    /// supplier_nation). `supplier_nation` is -1 unless `with_supplier`.
    pub fn partsupps(
        &self,
        with_supplier: bool,
        lfa1_conds: &[Cond],
    ) -> DbResult<Vec<(i64, i64, Decimal, i64, i64)>> {
        match (self.iface, self.is22()) {
            (SapInterface::Open, false) => {
                let mut from = TableExpr::table_as("EINA", "I").join_as(
                    "EINE",
                    "P",
                    &[("I.INFNR", "P.INFNR")],
                );
                let mut fields = vec!["I.MATNR", "I.LIFNR", "P.NETPR", "P.BSTMA"];
                if with_supplier {
                    from = from.join_as("LFA1", "S", &[("I.LIFNR", "S.LIFNR")]);
                    fields.push("S.LAND1");
                }
                let mut s = SelectSpec::from_expr(from).fields(&fields);
                for c in lfa1_conds {
                    s = s.cond(Cond::new(&format!("S.{}", c.field), c.op, c.value.clone()));
                }
                let r = self.sys.open_select(&s)?;
                self.parse_partsupp(&r, with_supplier)
            }
            (SapInterface::Native, _) => {
                let mut fields = vec!["I.MATNR", "I.LIFNR", "P.NETPR", "P.BSTMA"];
                let mut from = vec!["EINA I", "EINE P"];
                if with_supplier {
                    fields.push("S.LAND1");
                    from.push("LFA1 S");
                }
                let mut sql = format!(
                    "SELECT {} FROM {} WHERE I.MANDT = '{MANDT}' AND P.MANDT = '{MANDT}' \
                     AND P.INFNR = I.INFNR",
                    fields.join(", "),
                    from.join(", ")
                );
                if with_supplier {
                    sql.push_str(&format!(" AND S.MANDT = '{MANDT}' AND S.LIFNR = I.LIFNR"));
                    for c in lfa1_conds {
                        sql.push_str(&format!(
                            " AND S.{} {} {}",
                            c.field,
                            cmp_sql(c.op),
                            literal(&c.value)
                        ));
                    }
                }
                let r = self.sys.native_query(&sql)?;
                self.parse_partsupp(&r, with_supplier)
            }
            (SapInterface::Open, true) => {
                // Nested loops: EINA driver, EINE per row, LFA1 memoized.
                let driver = self.sys.open_select(
                    &SelectSpec::from_table("EINA").fields(&["INFNR", "MATNR", "LIFNR"]),
                )?;
                let mut lfa1_memo: HashMap<i64, Option<i64>> = HashMap::new();
                let mut out = Vec::new();
                for row in &driver.rows {
                    self.meter_app(1);
                    let infnr = row[0].clone();
                    let partkey = parse_key(&row[1]);
                    let suppkey = parse_key(&row[2]);
                    let e = self.sys.open_select(
                        &SelectSpec::from_table("EINE")
                            .fields(&["NETPR", "BSTMA"])
                            .cond(Cond::eq("INFNR", infnr))
                            .single(),
                    )?;
                    let Some(erow) = e.rows.first() else { continue };
                    let mut nation = -1i64;
                    if with_supplier {
                        let entry = match lfa1_memo.get(&suppkey) {
                            Some(v) => {
                                self.meter_app(1);
                                *v
                            }
                            None => {
                                let s = self.sys.open_select(
                                    &SelectSpec::from_table("LFA1")
                                        .fields(&["LAND1"])
                                        .cond(Cond::eq("LIFNR", key16(suppkey)))
                                        .single(),
                                )?;
                                let v = match s.rows.first() {
                                    Some(srow) if conds_pass(&s, srow, lfa1_conds) => {
                                        Some(parse_key(&srow[0]))
                                    }
                                    _ => None,
                                };
                                lfa1_memo.insert(suppkey, v);
                                v
                            }
                        };
                        match entry {
                            Some(n) => nation = n,
                            None => continue,
                        }
                    }
                    out.push((partkey, suppkey, erow[0].as_decimal()?, erow[1].as_int()?, nation));
                }
                Ok(out)
            }
        }
    }

    fn parse_partsupp(
        &self,
        r: &QueryResult,
        with_supplier: bool,
    ) -> DbResult<Vec<(i64, i64, Decimal, i64, i64)>> {
        let mut out = Vec::with_capacity(r.rows.len());
        for row in &r.rows {
            self.meter_app(1);
            out.push((
                parse_key(&row[0]),
                parse_key(&row[1]),
                row[2].as_decimal()?,
                row[3].as_int()?,
                if with_supplier { parse_key(&row[4]) } else { -1 },
            ));
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Master data (small tables; reports buffer these in internal tables)
    // ------------------------------------------------------------------

    /// (nationkey, name, regionkey).
    pub fn nations(&self) -> DbResult<Vec<(i64, String, i64)>> {
        let t005 =
            self.sys.open_select(&SelectSpec::from_table("T005").fields(&["LAND1", "REGIO"]))?;
        let t005t = self.sys.open_select(
            &SelectSpec::from_table("T005T")
                .fields(&["LAND1", "LANDX"])
                .cond(Cond::eq("SPRAS", Value::str("E"))),
        )?;
        let names: HashMap<i64, String> =
            t005t.rows.iter().map(|r| (parse_key(&r[0]), r[1].to_string())).collect();
        let mut out = Vec::new();
        for row in &t005.rows {
            self.meter_app(1);
            let key = parse_key(&row[0]);
            out.push((key, names.get(&key).cloned().unwrap_or_default(), parse_key(&row[1])));
        }
        Ok(out)
    }

    /// (regionkey, name).
    pub fn regions(&self) -> DbResult<Vec<(i64, String)>> {
        let r = self.sys.open_select(
            &SelectSpec::from_table("T005U")
                .fields(&["REGIO", "BEZEI"])
                .cond(Cond::eq("SPRAS", Value::str("E"))),
        )?;
        Ok(r.rows.iter().map(|row| (parse_key(&row[0]), row[1].to_string())).collect())
    }

    /// Suppliers: (suppkey, name, address, nationkey, phone, acctbal).
    pub fn suppliers(
        &self,
        lfa1_conds: &[Cond],
    ) -> DbResult<Vec<(i64, String, String, i64, String, Decimal)>> {
        let mut s = SelectSpec::from_table("LFA1")
            .fields(&["LIFNR", "NAME1", "STRAS", "LAND1", "TELF1", "SALDO"]);
        for c in lfa1_conds {
            s = s.cond(c.clone());
        }
        let r = self.sys.open_select(&s)?;
        let mut out = Vec::with_capacity(r.rows.len());
        for row in &r.rows {
            self.meter_app(1);
            out.push((
                parse_key(&row[0]),
                row[1].to_string(),
                row[2].to_string(),
                parse_key(&row[3]),
                row[4].to_string(),
                row[5].as_decimal()?,
            ));
        }
        Ok(out)
    }

    /// Parts with optional MARA predicates and name (from MAKT):
    /// (partkey, brand, type, size, container, name, mfgr).
    #[allow(clippy::type_complexity)]
    pub fn parts(
        &self,
        mara_conds: &[Cond],
        with_name: bool,
    ) -> DbResult<Vec<(i64, String, String, i64, String, String, String)>> {
        let mut s = SelectSpec::from_table("MARA")
            .fields(&["MATNR", "MATKL", "MTART", "GROES", "MAGRV", "MFRNR"]);
        for c in mara_conds {
            s = s.cond(c.clone());
        }
        let r = self.sys.open_select(&s)?;
        let mut names: HashMap<i64, String> = HashMap::new();
        if with_name {
            let m = self.sys.open_select(
                &SelectSpec::from_table("MAKT")
                    .fields(&["MATNR", "MAKTX"])
                    .cond(Cond::eq("SPRAS", Value::str("E"))),
            )?;
            names = m.rows.iter().map(|row| (parse_key(&row[0]), row[1].to_string())).collect();
        }
        let mut out = Vec::with_capacity(r.rows.len());
        for row in &r.rows {
            self.meter_app(1);
            let key = parse_key(&row[0]);
            out.push((
                key,
                row[1].to_string(),
                row[2].to_string(),
                row[3].as_int()?,
                row[4].to_string(),
                names.get(&key).cloned().unwrap_or_default(),
                row[5].to_string(),
            ));
        }
        Ok(out)
    }
}

/// Evaluate conjunctive conditions against a fetched row (application-side
/// residual filtering in nested-loop programs).
pub fn conds_pass(result: &QueryResult, row: &Row, conds: &[Cond]) -> bool {
    for c in conds {
        let Ok(idx) = result.schema.resolve(None, &c.field) else {
            return false;
        };
        if !c.op.eval_pub(&row[idx], &c.value) {
            return false;
        }
    }
    true
}

fn cmp_sql(op: crate::opensql::CmpOp) -> &'static str {
    use crate::opensql::CmpOp::*;
    match op {
        Eq => "=",
        Ne => "<>",
        Lt => "<",
        Le => "<=",
        Gt => ">",
        Ge => ">=",
        Like => "LIKE",
    }
}
