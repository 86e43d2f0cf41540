//! The ABAP report programs for TPC-D queries — used for Open SQL (both
//! releases) and for Native SQL under Release 2.2 when the query needs the
//! encapsulated KONV cluster.
//!
//! Each program fetches its rows through [`super::source::Src`] — which
//! pushes as much as the configuration allows — and then finishes the work
//! in the application server: nested-loop combination, EXTRACT/SORT/LOOP
//! grouping with its spill cost, complex aggregate arithmetic, manual
//! unnesting of the TPC-D subqueries (the paper's §3.4.4: "in Open SQL, we
//! explicitly unnested the sub-queries").

use super::source::{DetailSpec, Src};
use super::SapInterface;
use crate::opensql::{CmpOp, Cond, SelectSpec};
use crate::report::{app_aggregate, app_aggregate_scalar, app_sort, AppAgg};
use crate::schema::key16;
use crate::system::R3System;
use rdbms::error::{DbError, DbResult};
use rdbms::exec::expr::BExpr;
use rdbms::schema::Row;
use rdbms::sql::ast::{AggFunc, BinOp};
use rdbms::types::{Date, Decimal, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use tpcd::QueryParams;
use trace::meter::Counter;

// ---------------------------------------------------------------------------
// Small expression builders for application-side aggregation
// ---------------------------------------------------------------------------

fn col(i: usize) -> BExpr {
    BExpr::Column(i)
}

fn num(i: i64) -> BExpr {
    BExpr::Literal(Value::Int(i))
}

fn bin(l: BExpr, op: BinOp, r: BExpr) -> BExpr {
    BExpr::Binary { left: l.boxed(), op, right: r.boxed() }
}

/// `ext * (1 - disc)` over row columns.
fn revenue(ext: usize, disc: usize) -> BExpr {
    bin(col(ext), BinOp::Mul, bin(num(1), BinOp::Sub, col(disc)))
}

/// `ext * (1 - disc) * (1 + tax)`.
fn charge(ext: usize, disc: usize, tax: usize) -> BExpr {
    bin(revenue(ext, disc), BinOp::Mul, bin(num(1), BinOp::Add, col(tax)))
}

fn date_of(s: &str) -> Date {
    Date::parse(s).expect("valid parameter date")
}

fn dval(d: Date) -> Value {
    Value::Date(d)
}

// ---------------------------------------------------------------------------

/// Run the report program for query `n`.
pub fn run(sys: &R3System, iface: SapInterface, n: usize, p: &QueryParams) -> DbResult<Vec<Row>> {
    let src = Src::new(sys, iface);
    match n {
        1 => q1(&src, p),
        2 => q2(&src, p),
        3 => q3(&src, p),
        4 => q4(&src, p),
        5 => q5(&src, p),
        6 => q6(&src, p),
        7 => q7(&src, p),
        8 => q8(&src, p),
        9 => q9(&src, p),
        10 => q10(&src, p),
        11 => q11(&src, p),
        12 => q12(&src, p),
        13 => q13(&src, p),
        14 => q14(&src, p),
        15 => q15(&src, p),
        16 => q16(&src, p),
        17 => q17(&src, p),
        other => Err(DbError::analysis(format!("no report for Q{other}"))),
    }
}

fn q1(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let cutoff = date_of("1998-12-01").add_days(-(p.q1_delta as i32));
    let det = src.detail(&DetailSpec {
        with_dates: true,
        vbep_conds: vec![Cond::new("EDATU", CmpOp::Le, dval(cutoff))],
        with_konv: true,
        ..Default::default()
    })?;
    // [rf, ls, qty, ext, disc, tax]
    let rows: Vec<Row> = det
        .iter()
        .map(|d| {
            vec![
                Value::str(&d.rf),
                Value::str(&d.ls),
                Value::Decimal(d.qty),
                Value::Decimal(d.extprice),
                Value::Decimal(d.disc),
                Value::Decimal(d.tax),
            ]
        })
        .collect();
    app_aggregate(
        src.sys.meter(),
        &rows,
        &AppAgg {
            group_cols: vec![0, 1],
            aggs: vec![
                (AggFunc::Sum, col(2)),
                (AggFunc::Sum, col(3)),
                (AggFunc::Sum, revenue(3, 4)),
                (AggFunc::Sum, charge(3, 4, 5)),
                (AggFunc::Avg, col(2)),
                (AggFunc::Avg, col(3)),
                (AggFunc::Avg, col(4)),
                (AggFunc::Count, col(2)),
            ],
            having: None,
        },
    )
}

fn q2(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    // Manual unnesting of the MIN-cost subquery (§3.4.4).
    let regions = src.regions()?;
    let region_key = regions
        .iter()
        .find(|(_, name)| name == &p.q2_region)
        .map(|(k, _)| *k)
        .ok_or_else(|| DbError::execution(format!("no region {}", p.q2_region)))?;
    let nations = src.nations()?;
    let nation_name: HashMap<i64, &str> =
        nations.iter().map(|(k, n, _)| (*k, n.as_str())).collect();
    let in_region: HashSet<i64> =
        nations.iter().filter(|(_, _, r)| *r == region_key).map(|(k, _, _)| *k).collect();
    // Suppliers of the region, with their output fields.
    let suppliers = src.suppliers(&[])?;
    let supp: HashMap<i64, _> = suppliers
        .iter()
        .filter(|(_, _, _, nation, _, _)| in_region.contains(nation))
        .map(|s| (s.0, s))
        .collect();
    // All purchasing records; min cost per part among region suppliers.
    let ps = src.partsupps(false, &[])?;
    let mut min_cost: HashMap<i64, Decimal> = HashMap::new();
    for (pk, sk, cost, _, _) in &ps {
        src.sys.meter().bump(Counter::AppTuples);
        if supp.contains_key(sk) {
            let e = min_cost.entry(*pk).or_insert(*cost);
            if *cost < *e {
                *e = *cost;
            }
        }
    }
    // Candidate parts (size and type predicates pushed).
    let parts = src.parts(
        &[
            Cond::eq("GROES", Value::Int(p.q2_size)),
            Cond::new("MTART", CmpOp::Like, Value::Str(format!("%{}", p.q2_type))),
        ],
        false,
    )?;
    let mut out: Vec<Row> = Vec::new();
    for part in &parts {
        let Some(min) = min_cost.get(&part.0) else { continue };
        for (pk, sk, cost, _, _) in &ps {
            if *pk != part.0 || cost != min {
                continue;
            }
            src.sys.meter().bump(Counter::AppTuples);
            let Some((_, name, addr, nation, phone, acctbal)) = supp.get(sk) else {
                continue;
            };
            out.push(vec![
                Value::Decimal(*acctbal),
                Value::str(name),
                Value::str(*nation_name.get(nation).unwrap_or(&"")),
                Value::Int(part.0),
                Value::str(&part.6), // mfgr
                Value::str(addr),
                Value::str(phone),
            ]);
        }
    }
    app_sort(src.sys.meter(), &mut out, &[(0, true), (2, false), (1, false), (3, false)]);
    out.truncate(100);
    Ok(out)
}

fn q3(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let d = date_of(&p.q3_date);
    let det = src.detail(&DetailSpec {
        with_customer: true,
        kna1_conds: vec![Cond::eq("KDGRP", Value::str(&p.q3_segment))],
        with_order: true,
        vbak_conds: vec![Cond::new("AUDAT", CmpOp::Lt, dval(d))],
        with_dates: true,
        vbep_conds: vec![Cond::new("EDATU", CmpOp::Gt, dval(d))],
        with_konv: true,
        ..Default::default()
    })?;
    let rows: Vec<Row> = det
        .iter()
        .map(|x| {
            vec![
                Value::Int(x.orderkey),
                Value::Date(x.orderdate),
                Value::Int(x.shippriority),
                Value::Decimal(x.extprice),
                Value::Decimal(x.disc),
            ]
        })
        .collect();
    let grouped = app_aggregate(
        src.sys.meter(),
        &rows,
        &AppAgg {
            group_cols: vec![0, 1, 2],
            aggs: vec![(AggFunc::Sum, revenue(3, 4))],
            having: None,
        },
    )?;
    // [okey, odate, sprio, rev] -> [okey, rev, odate, sprio]
    let mut out: Vec<Row> = grouped
        .into_iter()
        .map(|r| vec![r[0].clone(), r[3].clone(), r[1].clone(), r[2].clone()])
        .collect();
    app_sort(src.sys.meter(), &mut out, &[(1, true), (2, false)]);
    out.truncate(10);
    Ok(out)
}

fn q4(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let d = date_of(&p.q4_date);
    let orders = src.orders(&[
        Cond::new("AUDAT", CmpOp::Ge, dval(d)),
        Cond::new("AUDAT", CmpOp::Lt, dval(d.add_months(3))),
    ])?;
    let mut counts: BTreeMap<String, i64> = BTreeMap::new();
    for (orderkey, _, _, priority, _) in &orders {
        // Nested SELECT per order: does any line have commit < receipt?
        let schedule = src.order_schedule(*orderkey)?;
        src.sys.meter().bump(Counter::AppTuples);
        if schedule.iter().any(|(_, commit, receipt)| commit < receipt) {
            *counts.entry(priority.trim_end().to_string()).or_insert(0) += 1;
        }
    }
    Ok(counts.into_iter().map(|(prio, n)| vec![Value::Str(prio), Value::Int(n)]).collect())
}

fn q5(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let d = date_of(&p.q5_date);
    let det = src.detail(&DetailSpec {
        with_customer: true,
        with_supplier: true,
        with_order: true,
        vbak_conds: vec![
            Cond::new("AUDAT", CmpOp::Ge, dval(d)),
            Cond::new("AUDAT", CmpOp::Lt, dval(d.add_years(1))),
        ],
        with_konv: true,
        ..Default::default()
    })?;
    let regions = src.regions()?;
    let rkey = regions.iter().find(|(_, n)| n == &p.q5_region).map(|(k, _)| *k).unwrap_or(-1);
    let nations = src.nations()?;
    let nation_name: HashMap<i64, &str> =
        nations.iter().map(|(k, n, _)| (*k, n.as_str())).collect();
    let nation_region: HashMap<i64, i64> = nations.iter().map(|(k, _, r)| (*k, *r)).collect();
    let rows: Vec<Row> = det
        .iter()
        .filter(|x| {
            src.sys.meter().bump(Counter::AppTuples);
            x.c_nation == x.s_nation && nation_region.get(&x.s_nation) == Some(&rkey)
        })
        .map(|x| {
            vec![
                Value::str(*nation_name.get(&x.s_nation).unwrap_or(&"")),
                Value::Decimal(x.extprice),
                Value::Decimal(x.disc),
            ]
        })
        .collect();
    let grouped = app_aggregate(
        src.sys.meter(),
        &rows,
        &AppAgg { group_cols: vec![0], aggs: vec![(AggFunc::Sum, revenue(1, 2))], having: None },
    )?;
    let mut out = grouped;
    app_sort(src.sys.meter(), &mut out, &[(1, true)]);
    Ok(out)
}

fn q6(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let d = date_of(&p.q6_date);
    let det = src.detail(&DetailSpec {
        vbap_conds: vec![Cond::new("KWMENG", CmpOp::Lt, Value::Int(p.q6_quantity))],
        with_dates: true,
        vbep_conds: vec![
            Cond::new("EDATU", CmpOp::Ge, dval(d)),
            Cond::new("EDATU", CmpOp::Lt, dval(d.add_years(1))),
        ],
        with_konv: true,
        ..Default::default()
    })?;
    let center = Decimal::parse(&p.q6_discount).expect("valid discount");
    let hundredth = Decimal::parse("0.01").expect("valid");
    let lo = center.sub(hundredth);
    let hi = center.add(hundredth);
    let rows: Vec<Row> = det
        .iter()
        .filter(|x| {
            src.sys.meter().bump(Counter::AppTuples);
            x.disc >= lo && x.disc <= hi
        })
        .map(|x| vec![Value::Decimal(x.extprice), Value::Decimal(x.disc)])
        .collect();
    let total = app_aggregate_scalar(
        src.sys.meter(),
        &rows,
        &[(AggFunc::Sum, bin(col(0), BinOp::Mul, col(1)))],
    )?;
    Ok(vec![total])
}

fn q7(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let det = src.detail(&DetailSpec {
        with_customer: true,
        with_supplier: true,
        with_order: true,
        with_dates: true,
        vbep_conds: vec![
            Cond::new("EDATU", CmpOp::Ge, dval(date_of("1995-01-01"))),
            Cond::new("EDATU", CmpOp::Le, dval(date_of("1996-12-31"))),
        ],
        with_konv: true,
        ..Default::default()
    })?;
    let nations = src.nations()?;
    let nation_name: HashMap<i64, &str> =
        nations.iter().map(|(k, n, _)| (*k, n.as_str())).collect();
    let n1 = p.q7_nation1.as_str();
    let n2 = p.q7_nation2.as_str();
    let rows: Vec<Row> = det
        .iter()
        .filter_map(|x| {
            src.sys.meter().bump(Counter::AppTuples);
            let sn = *nation_name.get(&x.s_nation)?;
            let cn = *nation_name.get(&x.c_nation)?;
            if (sn == n1 && cn == n2) || (sn == n2 && cn == n1) {
                Some(vec![
                    Value::str(sn),
                    Value::str(cn),
                    Value::Int(x.ship.year() as i64),
                    Value::Decimal(x.extprice),
                    Value::Decimal(x.disc),
                ])
            } else {
                None
            }
        })
        .collect();
    app_aggregate(
        src.sys.meter(),
        &rows,
        &AppAgg {
            group_cols: vec![0, 1, 2],
            aggs: vec![(AggFunc::Sum, revenue(3, 4))],
            having: None,
        },
    )
}

fn q8(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let det = src.detail(&DetailSpec {
        with_part: true,
        mara_conds: vec![Cond::eq("MTART", Value::str(&p.q8_type))],
        with_customer: true,
        with_supplier: true,
        with_order: true,
        vbak_conds: vec![
            Cond::new("AUDAT", CmpOp::Ge, dval(date_of("1995-01-01"))),
            Cond::new("AUDAT", CmpOp::Le, dval(date_of("1996-12-31"))),
        ],
        with_konv: true,
        ..Default::default()
    })?;
    let regions = src.regions()?;
    let rkey = regions.iter().find(|(_, n)| n == &p.q8_region).map(|(k, _)| *k).unwrap_or(-1);
    let nations = src.nations()?;
    let nation_name: HashMap<i64, &str> =
        nations.iter().map(|(k, n, _)| (*k, n.as_str())).collect();
    let nation_region: HashMap<i64, i64> = nations.iter().map(|(k, _, r)| (*k, *r)).collect();
    let one = Decimal::from_int(1);
    // [year, volume, brazil_volume]
    let rows: Vec<Row> = det
        .iter()
        .filter(|x| {
            src.sys.meter().bump(Counter::AppTuples);
            nation_region.get(&x.c_nation) == Some(&rkey)
        })
        .map(|x| {
            let vol = x.extprice.mul(one.sub(x.disc));
            let brazil = if nation_name.get(&x.s_nation) == Some(&p.q8_nation.as_str()) {
                vol
            } else {
                Decimal::zero()
            };
            vec![Value::Int(x.orderdate.year() as i64), Value::Decimal(vol), Value::Decimal(brazil)]
        })
        .collect();
    let grouped = app_aggregate(
        src.sys.meter(),
        &rows,
        &AppAgg {
            group_cols: vec![0],
            aggs: vec![(AggFunc::Sum, col(2)), (AggFunc::Sum, col(1))],
            having: None,
        },
    )?;
    grouped
        .into_iter()
        .map(|r| {
            let share = r[1].as_decimal()?.div(r[2].as_decimal()?)?;
            Ok(vec![r[0].clone(), Value::Decimal(share)])
        })
        .collect()
}

fn q9(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let det = src.detail(&DetailSpec {
        part_name_like: Some(format!("%{}%", p.q9_color)),
        with_supplier: true,
        with_order: true,
        with_konv: true,
        ..Default::default()
    })?;
    let ps = src.partsupps(false, &[])?;
    let cost: HashMap<(i64, i64), Decimal> =
        ps.iter().map(|(pk, sk, c, _, _)| ((*pk, *sk), *c)).collect();
    let nations = src.nations()?;
    let nation_name: HashMap<i64, &str> =
        nations.iter().map(|(k, n, _)| (*k, n.as_str())).collect();
    let one = Decimal::from_int(1);
    let rows: Vec<Row> = det
        .iter()
        .map(|x| {
            src.sys.meter().bump(Counter::AppTuples);
            let supply = cost.get(&(x.partkey, x.suppkey)).copied().unwrap_or(Decimal::zero());
            let amount = x.extprice.mul(one.sub(x.disc)).sub(supply.mul(x.qty));
            vec![
                Value::str(*nation_name.get(&x.s_nation).unwrap_or(&"")),
                Value::Int(x.orderdate.year() as i64),
                Value::Decimal(amount),
            ]
        })
        .collect();
    let grouped = app_aggregate(
        src.sys.meter(),
        &rows,
        &AppAgg { group_cols: vec![0, 1], aggs: vec![(AggFunc::Sum, col(2))], having: None },
    )?;
    let mut out = grouped;
    app_sort(src.sys.meter(), &mut out, &[(0, false), (1, true)]);
    Ok(out)
}

fn q10(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let d = date_of(&p.q10_date);
    let det = src.detail(&DetailSpec {
        vbap_conds: vec![Cond::eq("RFLAG", Value::str("R"))],
        with_customer: true,
        with_order: true,
        vbak_conds: vec![
            Cond::new("AUDAT", CmpOp::Ge, dval(d)),
            Cond::new("AUDAT", CmpOp::Lt, dval(d.add_months(3))),
        ],
        with_konv: true,
        ..Default::default()
    })?;
    let nations = src.nations()?;
    let nation_name: HashMap<i64, &str> =
        nations.iter().map(|(k, n, _)| (*k, n.as_str())).collect();
    let rows: Vec<Row> = det
        .iter()
        .map(|x| {
            vec![
                Value::Int(x.custkey),
                Value::str(&x.c_name),
                Value::Decimal(x.c_acctbal),
                Value::str(&x.c_phone),
                Value::str(*nation_name.get(&x.c_nation).unwrap_or(&"")),
                Value::str(&x.c_address),
                Value::Decimal(x.extprice),
                Value::Decimal(x.disc),
            ]
        })
        .collect();
    let grouped = app_aggregate(
        src.sys.meter(),
        &rows,
        &AppAgg {
            group_cols: vec![0, 1, 2, 3, 4, 5],
            aggs: vec![(AggFunc::Sum, revenue(6, 7))],
            having: None,
        },
    )?;
    // -> [custkey, name, revenue, acctbal, nation, address, phone]
    let mut out: Vec<Row> = grouped
        .into_iter()
        .map(|r| {
            vec![
                r[0].clone(),
                r[1].clone(),
                r[6].clone(),
                r[2].clone(),
                r[4].clone(),
                r[5].clone(),
                r[3].clone(),
            ]
        })
        .collect();
    app_sort(src.sys.meter(), &mut out, &[(2, true)]);
    out.truncate(20);
    Ok(out)
}

fn q11(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let nations = src.nations()?;
    let nation_key = nations
        .iter()
        .find(|(_, n, _)| n == &p.q11_nation)
        .map(|(k, _, _)| *k)
        .ok_or_else(|| DbError::execution(format!("no nation {}", p.q11_nation)))?;
    let ps = src.partsupps(true, &[Cond::eq("LAND1", key16(nation_key))])?;
    let rows: Vec<Row> = ps
        .iter()
        .map(|(pk, _, cost, qty, _)| {
            vec![Value::Int(*pk), Value::Decimal(cost.mul(Decimal::from_int(*qty)))]
        })
        .collect();
    let grouped = app_aggregate(
        src.sys.meter(),
        &rows,
        &AppAgg { group_cols: vec![0], aggs: vec![(AggFunc::Sum, col(1))], having: None },
    )?;
    // Manual unnesting of the HAVING subquery: one pass for the total.
    let mut total = Decimal::zero();
    for r in &grouped {
        src.sys.meter().bump(Counter::AppTuples);
        total = total.add(r[1].as_decimal()?);
    }
    let fraction = Decimal::parse(&p.q11_fraction).expect("valid fraction");
    let threshold = total.mul(fraction);
    let mut out: Vec<Row> = grouped
        .into_iter()
        .filter(|r| r[1].as_decimal().map(|v| v > threshold).unwrap_or(false))
        .collect();
    app_sort(src.sys.meter(), &mut out, &[(1, true)]);
    Ok(out)
}

fn q12(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let d = date_of(&p.q12_date);
    let det = src.detail(&DetailSpec {
        with_order: true,
        with_dates: true,
        vbep_conds: vec![
            Cond::new("LDDAT", CmpOp::Ge, dval(d)),
            Cond::new("LDDAT", CmpOp::Lt, dval(d.add_years(1))),
        ],
        ..Default::default()
    })?;
    let m1 = p.q12_mode1.as_str();
    let m2 = p.q12_mode2.as_str();
    let rows: Vec<Row> = det
        .iter()
        .filter(|x| {
            src.sys.meter().bump(Counter::AppTuples);
            let mode = x.mode.trim_end();
            (mode == m1 || mode == m2) && x.commitd < x.receipt && x.ship < x.commitd
        })
        .map(|x| {
            let prio = x.opriority.trim_end();
            let high = (prio == "1-URGENT" || prio == "2-HIGH") as i64;
            vec![Value::str(x.mode.trim_end()), Value::Int(high), Value::Int(1 - high)]
        })
        .collect();
    app_aggregate(
        src.sys.meter(),
        &rows,
        &AppAgg {
            group_cols: vec![0],
            aggs: vec![(AggFunc::Sum, col(1)), (AggFunc::Sum, col(2))],
            having: None,
        },
    )
}

fn q13(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let orders = src.orders(&[
        Cond::eq("KUNNR", key16(p.q13_custkey)),
        Cond::new("AUDAT", CmpOp::Ge, dval(date_of(&p.q13_date))),
    ])?;
    let rows: Vec<Row> = orders
        .iter()
        .map(|(_, _, _, prio, total)| vec![Value::str(prio.trim_end()), Value::Decimal(*total)])
        .collect();
    app_aggregate(
        src.sys.meter(),
        &rows,
        &AppAgg {
            group_cols: vec![0],
            aggs: vec![(AggFunc::Count, col(1)), (AggFunc::Sum, col(1))],
            having: None,
        },
    )
}

fn q14(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let d = date_of(&p.q14_date);
    let det = src.detail(&DetailSpec {
        with_part: true,
        with_dates: true,
        vbep_conds: vec![
            Cond::new("EDATU", CmpOp::Ge, dval(d)),
            Cond::new("EDATU", CmpOp::Lt, dval(d.add_months(1))),
        ],
        with_konv: true,
        ..Default::default()
    })?;
    let one = Decimal::from_int(1);
    let rows: Vec<Row> = det
        .iter()
        .map(|x| {
            src.sys.meter().bump(Counter::AppTuples);
            let vol = x.extprice.mul(one.sub(x.disc));
            let promo =
                if x.p_type.trim_end().starts_with("PROMO") { vol } else { Decimal::zero() };
            vec![Value::Decimal(vol), Value::Decimal(promo)]
        })
        .collect();
    let sums = app_aggregate_scalar(
        src.sys.meter(),
        &rows,
        &[(AggFunc::Sum, col(1)), (AggFunc::Sum, col(0))],
    )?;
    let promo = match &sums[0] {
        Value::Null => Decimal::zero(),
        v => v.as_decimal()?,
    };
    let total = match &sums[1] {
        Value::Null => return Ok(vec![vec![Value::Null]]),
        v => v.as_decimal()?,
    };
    let pct = promo.mul(Decimal::from_int(100)).div(total)?;
    Ok(vec![vec![Value::Decimal(pct)]])
}

fn q15(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    let d = date_of(&p.q15_date);
    let det = src.detail(&DetailSpec {
        with_dates: true,
        vbep_conds: vec![
            Cond::new("EDATU", CmpOp::Ge, dval(d)),
            Cond::new("EDATU", CmpOp::Lt, dval(d.add_months(3))),
        ],
        with_konv: true,
        ..Default::default()
    })?;
    let rows: Vec<Row> = det
        .iter()
        .map(|x| vec![Value::Int(x.suppkey), Value::Decimal(x.extprice), Value::Decimal(x.disc)])
        .collect();
    let grouped = app_aggregate(
        src.sys.meter(),
        &rows,
        &AppAgg { group_cols: vec![0], aggs: vec![(AggFunc::Sum, revenue(1, 2))], having: None },
    )?;
    // Manual unnesting of MAX(total_revenue).
    let mut max: Option<Decimal> = None;
    for r in &grouped {
        src.sys.meter().bump(Counter::AppTuples);
        let v = r[1].as_decimal()?;
        if max.map(|m| v > m).unwrap_or(true) {
            max = Some(v);
        }
    }
    let Some(max) = max else { return Ok(Vec::new()) };
    let suppliers = src.suppliers(&[])?;
    let by_key: HashMap<i64, _> = suppliers.iter().map(|s| (s.0, s)).collect();
    let mut out: Vec<Row> = Vec::new();
    for r in &grouped {
        if r[1].as_decimal()? == max {
            let k = r[0].as_int()?;
            if let Some((_, name, addr, _, phone, _)) = by_key.get(&k) {
                out.push(vec![
                    Value::Int(k),
                    Value::str(name),
                    Value::str(addr),
                    Value::str(phone),
                    r[1].clone(),
                ]);
            }
        }
    }
    app_sort(src.sys.meter(), &mut out, &[(0, false)]);
    Ok(out)
}

fn q16(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    // Manual unnesting of the NOT IN subquery: build the complaints set.
    let complaints_result = src.sys.open_select(
        &SelectSpec::from_table("STXL")
            .fields(&["TDNAME"])
            .cond(Cond::eq("TDOBJECT", Value::str("LFA1")))
            .cond(Cond::new("TDLINE", CmpOp::Like, Value::str("%Customer%Complaints%"))),
    )?;
    let complaints: HashSet<i64> =
        complaints_result.rows.iter().map(|r| crate::schema::parse_key(&r[0])).collect();
    let parts = src.parts(&[], false)?;
    let sizes: HashSet<i64> = p.q16_sizes.iter().copied().collect();
    let keep: HashMap<i64, _> = parts
        .iter()
        .filter(|part| {
            src.sys.meter().bump(Counter::AppTuples);
            part.1.trim_end() != p.q16_brand
                && !part.2.trim_end().starts_with(&p.q16_type)
                && sizes.contains(&part.3)
        })
        .map(|part| (part.0, part))
        .collect();
    let ps = src.partsupps(false, &[])?;
    let mut groups: BTreeMap<(String, String, i64), HashSet<i64>> = BTreeMap::new();
    for (pk, sk, _, _, _) in &ps {
        src.sys.meter().bump(Counter::AppTuples);
        let Some(part) = keep.get(pk) else { continue };
        if complaints.contains(sk) {
            continue;
        }
        groups
            .entry((part.1.trim_end().to_string(), part.2.trim_end().to_string(), part.3))
            .or_default()
            .insert(*sk);
    }
    let mut out: Vec<Row> = groups
        .into_iter()
        .map(|((brand, typ, size), supps)| {
            vec![
                Value::Str(brand),
                Value::Str(typ),
                Value::Int(size),
                Value::Int(supps.len() as i64),
            ]
        })
        .collect();
    app_sort(src.sys.meter(), &mut out, &[(3, true), (0, false), (1, false), (2, false)]);
    Ok(out)
}

fn q17(src: &Src, p: &QueryParams) -> DbResult<Vec<Row>> {
    // Manual unnesting of the correlated AVG subquery: fetch the qualifying
    // parts' line items (join pushed in 3.0; VBAP-driven nested loops in
    // 2.2), group per part in the application server, then apply the
    // 0.2*avg(quantity) filter in a second pass.
    let det = src.detail(&DetailSpec {
        with_part: true,
        mara_conds: vec![
            Cond::eq("MATKL", Value::str(&p.q17_brand)),
            Cond::eq("MAGRV", Value::str(&p.q17_container)),
        ],
        ..Default::default()
    })?;
    let mut per_part: HashMap<i64, (Decimal, i64)> = HashMap::new();
    for x in &det {
        src.sys.meter().bump(Counter::AppTuples);
        let e = per_part.entry(x.partkey).or_insert((Decimal::zero(), 0));
        e.0 = e.0.add(x.qty);
        e.1 += 1;
    }
    let fifth = Decimal::parse("0.2").expect("valid");
    let mut total = Decimal::zero();
    let mut any = false;
    for x in &det {
        src.sys.meter().bump(Counter::AppTuples);
        let (sum_qty, n) = per_part[&x.partkey];
        let threshold = fifth.mul(sum_qty.div(Decimal::from_int(n))?);
        if x.qty < threshold {
            total = total.add(x.extprice);
            any = true;
        }
    }
    // SQL semantics: SUM over an empty input is NULL, not zero.
    if !any {
        return Ok(vec![vec![Value::Null]]);
    }
    let avg_yearly = total.div(Decimal::from_int(7))?;
    Ok(vec![vec![Value::Decimal(avg_yearly)]])
}
