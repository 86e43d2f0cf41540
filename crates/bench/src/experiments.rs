//! The experiment harness: regenerates every table of the paper.
//!
//! Each `table*` function sets up the systems it needs at the requested
//! scale factor, runs the measurement, and returns an [`ExpTable`] with
//! measured simulated times next to the paper's published numbers. The
//! absolute values differ (the paper ran SF 0.2 on 1996 hardware; we run a
//! reduced SF against the deterministic cost clock) — the *shape* is the
//! reproduction target.

use crate::paper;
use r3::batch_input::batch_input_load;
use r3::extract::extract_warehouse;
use r3::opensql::{CmpOp, Cond, SelectSpec};
use r3::report::Extract;
use r3::reports::{run_sap_power_test, SapInterface};
use r3::{R3System, Release};
use rdbms::error::DbResult;
use rdbms::types::Value;
use rdbms::Database;
use tpcd::{DbGen, QueryParams};
use trace::meter::{fmt_duration, MeterSnapshot};

/// A rendered experiment result.
#[derive(Debug)]
pub struct ExpTable {
    pub id: String,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub notes: Vec<String>,
    /// The metered work behind the table's simulated-seconds cells, one
    /// labelled snapshot per measurement. Rendered under the table, so a
    /// counter that moves shows even when its seconds round the same.
    pub work: Vec<(String, MeterSnapshot)>,
}

impl serde_json::ToJson for ExpTable {
    fn to_json(&self) -> serde_json::Json {
        use serde_json::Json;
        Json::object()
            .field("id", self.id.clone())
            .field("title", self.title.clone())
            .field("headers", self.headers.clone())
            .field("rows", Json::Array(self.rows.iter().map(|r| Json::from(r.clone())).collect()))
            .field("notes", self.notes.clone())
            .field("work", Json::Array(self.work.iter().map(|(l, w)| work_json(l, w)).collect()))
    }
}

impl ExpTable {
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        for (label, w) in &self.work {
            let json = serde_json::to_string(&w.to_json()).expect("a snapshot serializes");
            out.push_str(&format!("  work {label}: {json}\n"));
        }
        out
    }
}

fn work_json(label: &str, work: &MeterSnapshot) -> serde_json::Json {
    serde_json::Json::object().field("label", label).field("work", work.to_json())
}

fn dur(seconds: f64) -> String {
    fmt_duration(seconds)
}

fn ratio(a: f64, b: f64) -> String {
    if b <= 0.0 {
        "-".into()
    } else {
        format!("{:.1}x", a / b)
    }
}

// ---------------------------------------------------------------------------
// Table 1 — the SAP-table mapping
// ---------------------------------------------------------------------------

pub fn table1() -> DbResult<ExpTable> {
    let dict22 = r3::schema::build_dict(Release::R22);
    let mapping: [(&str, &str, &str); 17] = [
        ("T005", "Country: general info", "NATION"),
        ("T005T", "Country: names", "NATION"),
        ("T005U", "Regions", "REGION"),
        ("MARA", "Parts: general info", "PART"),
        ("MAKT", "Parts: description", "PART"),
        ("A004", "Parts: terms", "PART"),
        ("KONP", "Terms: positions", "PART"),
        ("LFA1", "Supplier: general info", "SUPPLIER"),
        ("EINA", "Part-Supplier: general info", "PARTSUPP"),
        ("EINE", "Part-Supplier: terms", "PARTSUPP"),
        ("AUSP", "Properties", "PART, SUPP, PARTS"),
        ("KNA1", "Customer: general info", "CUSTOMER"),
        ("VBAK", "Order: general info", "ORDER"),
        ("VBAP", "Lineitem: position", "LINEITEM"),
        ("VBEP", "Lineitem: terms", "LINEITEM"),
        ("KONV", "Pricing terms", "LINEITEM"),
        ("STXL", "Text of comments", "all"),
    ];
    let mut rows = Vec::new();
    for (table, desc, orig) in mapping {
        let lt = dict22.table(table)?;
        let kind = match &lt.kind {
            r3::dict::TableKind::Transparent => "transparent".to_string(),
            r3::dict::TableKind::Pool { container } => format!("pool ({container})"),
            r3::dict::TableKind::Cluster { container, .. } => format!("cluster ({container})"),
        };
        rows.push(vec![table.to_string(), desc.to_string(), orig.to_string(), kind]);
    }
    Ok(ExpTable {
        id: "Table 1".into(),
        title: "SAP tables used in the TPC-D benchmark".into(),
        headers: vec![
            "SAP Table".into(),
            "Description".into(),
            "Orig. TPC-D".into(),
            "kind (2.2)".into(),
        ],
        rows,
        notes: vec!["KONV becomes transparent after the 3.0 conversion".into()],
        work: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// Table 2 — database sizes
// ---------------------------------------------------------------------------

/// The SAP tables contributing to each original TPC-D table's storage.
const SAP_GROUPS: [(&str, &[&str]); 8] = [
    ("REGION", &["T005U"]),
    ("NATION", &["T005", "T005T"]),
    ("SUPPLIER", &["LFA1"]),
    ("PART", &["MARA", "MAKT", "A004", "KONP", "AUSP"]),
    ("PARTSUPP", &["EINA", "EINE"]),
    ("CUSTOMER", &["KNA1"]),
    ("ORDERS", &["VBAK"]),
    ("LINEITEM", &["VBAP", "VBEP", "KONV"]),
];

pub fn table2(sf: f64) -> DbResult<ExpTable> {
    let gen = DbGen::new(sf);
    let tpcd_db = Database::with_defaults();
    tpcd::schema::load(&tpcd_db, &gen)?;
    let tpcd_sizes = tpcd::schema::table_sizes(&tpcd_db)?;

    let sys = R3System::install_default(Release::R22)?;
    sys.load_tpcd(&gen)?;

    let mut rows = Vec::new();
    let mut totals = (0u64, 0u64, 0u64, 0u64);
    for (tpc_table, sap_tables) in SAP_GROUPS {
        let (td, ti) = tpcd_sizes
            .iter()
            .find(|(n, _, _)| n == tpc_table)
            .map(|(_, d, i)| (*d, *i))
            .unwrap_or((0, 0));
        let mut sd = 0u64;
        let mut si = 0u64;
        for t in sap_tables {
            let (d, i) = sys.logical_table_sizes(t)?;
            sd += d;
            si += i;
        }
        let paper = paper::TABLE2.iter().find(|(n, ..)| *n == tpc_table).unwrap();
        rows.push(vec![
            tpc_table.to_string(),
            format!("{}", td / 1024),
            format!("{}", ti / 1024),
            format!("{}", sd / 1024),
            format!("{}", si / 1024),
            ratio(sd as f64, td as f64),
            ratio((paper.3 as f64) * 1024.0, (paper.1 as f64) * 1024.0),
        ]);
        totals.0 += td;
        totals.1 += ti;
        totals.2 += sd;
        totals.3 += si;
    }
    // Long texts (STXL) hold every comment field; the paper folds them into
    // the per-table numbers, we report them once.
    let (stxl_d, stxl_i) = sys.logical_table_sizes("STXL")?;
    totals.2 += stxl_d;
    totals.3 += stxl_i;
    rows.push(vec![
        "STXL (all texts)".into(),
        "-".into(),
        "-".into(),
        format!("{}", stxl_d / 1024),
        format!("{}", stxl_i / 1024),
        "-".into(),
        "-".into(),
    ]);
    rows.push(vec![
        "Total".into(),
        format!("{}", totals.0 / 1024),
        format!("{}", totals.1 / 1024),
        format!("{}", totals.2 / 1024),
        format!("{}", totals.3 / 1024),
        ratio(totals.2 as f64, totals.0 as f64),
        "10.4x".into(),
    ]);
    Ok(ExpTable {
        id: "Table 2".into(),
        title: format!("DB sizes in KB, original TPC-D DB vs SAP DB 2.2 (SF={sf})"),
        headers: vec![
            "Table".into(),
            "TPCD data".into(),
            "TPCD idx".into(),
            "SAP data".into(),
            "SAP idx".into(),
            "inflation".into(),
            "paper".into(),
        ],
        rows,
        notes: vec![
            "paper column: SAP/TPCD data inflation at SF 0.2".into(),
            format!(
                "index inflation measured: {} (paper: 8.2x)",
                ratio(totals.3 as f64, totals.1 as f64)
            ),
        ],
        work: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// Table 3 — batch-input loading
// ---------------------------------------------------------------------------

pub fn table3(sf: f64) -> DbResult<ExpTable> {
    let gen = DbGen::new(sf);
    let sys = R3System::install_default(Release::R22)?;
    let timings = batch_input_load(&sys, &gen, 2)?;
    let mut rows = Vec::new();
    let mut total = 0.0;
    for t in &timings {
        let paper =
            paper::TABLE3.iter().find(|(n, _)| *n == t.table).map(|(_, s)| *s).unwrap_or(0.0);
        rows.push(vec![t.table.clone(), format!("{}", t.records), dur(t.seconds), dur(paper)]);
        total += t.seconds;
    }
    rows.push(vec!["Total".into(), "-".into(), dur(total), format!("~{}", dur(30.0 * 86400.0))]);
    Ok(ExpTable {
        id: "Table 3".into(),
        title: format!("Loading the SAP database, 2 parallel batch-input processes (SF={sf})"),
        headers: vec!["Table".into(), "records".into(), "measured".into(), "paper (SF=0.2)".into()],
        rows,
        notes: vec![
            "ORDER+LINEITEM dominates in both; per-record consistency checks drive the cost".into(),
        ],
        work: timings.iter().map(|t| (t.table.clone(), t.work)).collect(),
    })
}

// ---------------------------------------------------------------------------
// Tables 4 and 5 — the power tests
// ---------------------------------------------------------------------------

fn power_table(
    id: &str,
    release: Release,
    sf: f64,
    paper_ref: &[(&str, f64, f64, f64); 19],
) -> DbResult<ExpTable> {
    let gen = DbGen::new(sf);
    let params = QueryParams::for_scale(sf);

    // The paper gave the RDBMS a 10 MB buffer at SF 0.2; scale the pool
    // with SF so database-to-buffer proportions (and hence I/O behaviour)
    // match the original environment.
    let pool_bytes = ((10.0 * 1024.0 * 1024.0) * (sf / 0.2)).max(32.0 * 8192.0) as usize;
    let config = rdbms::DbConfig {
        pager: rdbms::storage::PagerConfig::with_pool_bytes(pool_bytes),
        ..rdbms::DbConfig::default()
    };

    // Isolated RDBMS baseline.
    let db = Database::new(config.clone());
    tpcd::schema::load(&db, &gen)?;
    if release == Release::R30 {
        // The paper's 3.0E configuration dropped the shipdate index.
        db.execute("DROP INDEX l_shipdate_idx")?;
    }
    db.meter().reset();
    let rdbms_result = tpcd::run_power_test(&db, &gen, &params)?;

    // SAP system; Native then Open on the same installation.
    let sys = R3System::install(release, config)?;
    sys.load_tpcd(&gen)?;
    if release == Release::R30 {
        sys.db.execute("DROP INDEX VBEP_EDATU")?;
    }
    sys.meter().reset();
    let native = run_sap_power_test(&sys, SapInterface::Native, &gen, &params)?;
    let open = run_sap_power_test(&sys, SapInterface::Open, &gen, &params)?;

    let mut rows = Vec::new();
    let mut work = Vec::new();
    let mut totals = [0.0f64; 6]; // measured r/n/o, paper r/n/o (queries only)
    let mut all_totals = [0.0f64; 6];
    for (i, step) in rdbms_result.steps.iter().enumerate() {
        let (pname, pr, pn, po) = paper_ref[i];
        debug_assert_eq!(pname, step.step);
        let n = &native[i];
        let o = &open[i];
        rows.push(vec![
            step.step.clone(),
            dur(step.seconds),
            dur(n.1),
            dur(o.1),
            dur(pr),
            dur(pn),
            dur(po),
        ]);
        work.push((format!("{} RDBMS", step.step), step.work));
        work.push((format!("{} Native", step.step), n.2));
        work.push((format!("{} Open", step.step), o.2));
        if step.step.starts_with('Q') {
            totals[0] += step.seconds;
            totals[1] += n.1;
            totals[2] += o.1;
            totals[3] += pr;
            totals[4] += pn;
            totals[5] += po;
        }
        all_totals[0] += step.seconds;
        all_totals[1] += n.1;
        all_totals[2] += o.1;
        all_totals[3] += pr;
        all_totals[4] += pn;
        all_totals[5] += po;
    }
    rows.push(vec![
        "Total (quer.)".into(),
        dur(totals[0]),
        dur(totals[1]),
        dur(totals[2]),
        dur(totals[3]),
        dur(totals[4]),
        dur(totals[5]),
    ]);
    rows.push(vec![
        "Total (all)".into(),
        dur(all_totals[0]),
        dur(all_totals[1]),
        dur(all_totals[2]),
        dur(all_totals[3]),
        dur(all_totals[4]),
        dur(all_totals[5]),
    ]);
    Ok(ExpTable {
        id: id.into(),
        title: format!("TPC-D power test, SAP R/3 {release} (SF={sf})"),
        headers: vec![
            "Step".into(),
            "RDBMS".into(),
            "Native".into(),
            "Open".into(),
            "paper RDBMS".into(),
            "paper Native".into(),
            "paper Open".into(),
        ],
        rows,
        notes: vec![
            format!(
                "measured Native/RDBMS = {}, paper = {}",
                ratio(totals[1], totals[0]),
                ratio(totals[4], totals[3])
            ),
            format!(
                "measured Open/RDBMS = {}, paper = {}",
                ratio(totals[2], totals[0]),
                ratio(totals[5], totals[3])
            ),
        ],
        work,
    })
}

pub fn table4(sf: f64) -> DbResult<ExpTable> {
    power_table("Table 4", Release::R22, sf, &paper::TABLE4)
}

pub fn table5(sf: f64) -> DbResult<ExpTable> {
    power_table("Table 5", Release::R30, sf, &paper::TABLE5)
}

// ---------------------------------------------------------------------------
// Table 6 — plan choice under parameter blindness
// ---------------------------------------------------------------------------

pub fn table6(sf: f64) -> DbResult<ExpTable> {
    let gen = DbGen::new(sf);
    let sys = R3System::install_default(Release::R30)?;
    sys.load_tpcd(&gen)?;
    // The experiment's index on quantity.
    sys.db.execute("CREATE INDEX VBAP_KWMENG ON VBAP (KWMENG)")?;
    sys.db.execute("ANALYZE VBAP")?;
    let cal = sys.db.calibration();

    // The work of one run of the query, Native or Open, from a cold pool.
    let measure = |bound: i64, open: bool| -> DbResult<MeterSnapshot> {
        sys.db.pager().flush_all();
        let before = sys.snapshot();
        if open {
            let cond = Cond::new("KWMENG", CmpOp::Lt, Value::Int(bound));
            sys.open_select(&SelectSpec::from_table("VBAP").fields(&["KWMENG"]).cond(cond))?;
        } else {
            sys.native_query(&format!(
                "SELECT KWMENG FROM VBAP WHERE KWMENG < {bound} AND MANDT = '301'"
            ))?;
        }
        Ok(sys.snapshot().since(&before))
    };
    let work = vec![
        ("high Native".to_string(), measure(0, false)?),
        ("low Native".to_string(), measure(9999, false)?),
        ("high Open".to_string(), measure(0, true)?),
        ("low Open".to_string(), measure(9999, true)?),
    ];
    let [native_high, native_low, open_high, open_low] =
        [0, 1, 2, 3].map(|i| cal.seconds(&work[i].1));

    let rows = vec![
        vec![
            "high (0 result tuples)".into(),
            dur(native_high),
            dur(open_high),
            dur(paper::TABLE6[0].1),
            dur(paper::TABLE6[0].2),
        ],
        vec![
            "low (all tuples)".into(),
            dur(native_low),
            dur(open_low),
            dur(paper::TABLE6[1].1),
            dur(paper::TABLE6[1].2),
        ],
    ];
    Ok(ExpTable {
        id: "Table 6".into(),
        title: format!("One-table query, index on KWMENG available (SF={sf})"),
        headers: vec![
            "selectivity".into(),
            "Native".into(),
            "Open".into(),
            "paper Native".into(),
            "paper Open".into(),
        ],
        rows,
        notes: vec![
            format!(
                "Open/Native at low selectivity: measured {}, paper {}",
                ratio(open_low, native_low),
                ratio(paper::TABLE6[1].2, paper::TABLE6[1].1)
            ),
            "Open SQL's parameterized translation hides the constant; the optimizer blindly picks the index".into(),
        ],
        work,
    })
}

// ---------------------------------------------------------------------------
// Table 7 — complex aggregation placement
// ---------------------------------------------------------------------------

pub fn table7(sf: f64) -> DbResult<ExpTable> {
    let gen = DbGen::new(sf);
    let sys = R3System::install_default(Release::R30)?;
    sys.load_tpcd(&gen)?;
    let cal = sys.db.calibration();

    // Native SQL (Figure 4, left): push the whole aggregation down.
    sys.db.pager().flush_all();
    let before = sys.snapshot();
    let native_rows = sys.native_query(
        "SELECT KPOSN, AVG(KAWRT * (1 + KBETR / 1000)) \
         FROM KONV WHERE MANDT = '301' AND STUNR = '040' AND ZAEHK = '01' \
           AND KSCHL = 'DISC' \
         GROUP BY KPOSN ORDER BY KPOSN",
    )?;
    let native_work = sys.snapshot().since(&before);
    let native_s = cal.seconds(&native_work);

    // Open SQL (Figure 4, right): fetch and EXTRACT/SORT/LOOP in the app
    // server, because the aggregate expression cannot be pushed.
    sys.db.pager().flush_all();
    let before = sys.snapshot();
    let fetched = sys.open_select(
        &SelectSpec::from_table("KONV")
            .fields(&["KPOSN", "KBETR", "KAWRT"])
            .cond(Cond::eq("STUNR", Value::str("040")))
            .cond(Cond::eq("ZAEHK", Value::str("01")))
            .cond(Cond::eq("KSCHL", Value::str("DISC")))
            .order(&[("KPOSN", false)]),
    )?;
    let meter = sys.meter();
    let mut extract = Extract::new();
    let thousand = rdbms::Decimal::from_int(1000);
    let one = rdbms::Decimal::from_int(1);
    for row in &fetched.rows {
        let charge = row[2].as_decimal()?.mul(one.add(row[1].as_decimal()?.div(thousand)?));
        extract.extract(meter, vec![row[0].clone()], vec![Value::Decimal(charge)]);
    }
    extract.sort(meter);
    let mut open_groups = 0usize;
    extract.loop_groups(meter, |_, lines| {
        let mut sum = rdbms::Decimal::zero();
        for (_, l) in lines {
            sum = sum.add(l[0].as_decimal()?);
        }
        let _avg = sum.div(rdbms::Decimal::from_int(lines.len() as i64))?;
        open_groups += 1;
        Ok(())
    })?;
    let open_work = sys.snapshot().since(&before);
    let open_s = cal.seconds(&open_work);

    Ok(ExpTable {
        id: "Table 7".into(),
        title: format!("Grouping with a complex aggregation (SF={sf})"),
        headers: vec!["".into(), "Native".into(), "Open".into()],
        rows: vec![
            vec!["measured".into(), dur(native_s), dur(open_s)],
            vec!["paper".into(), dur(paper::TABLE7.0), dur(paper::TABLE7.1)],
            vec![
                "Open/Native".into(),
                ratio(open_s, native_s),
                ratio(paper::TABLE7.1, paper::TABLE7.0),
            ],
        ],
        notes: vec![format!(
            "groups: native={}, open={}; open ships every tuple and spills its sort",
            native_rows.rows.len(),
            open_groups
        )],
        work: vec![("Native".into(), native_work), ("Open".into(), open_work)],
    })
}

// ---------------------------------------------------------------------------
// Table 8 — caching effectiveness
// ---------------------------------------------------------------------------

pub fn table8(sf: f64) -> DbResult<ExpTable> {
    let gen = DbGen::new(sf);
    let sys = R3System::install_default(Release::R30)?;
    sys.load_tpcd(&gen)?;
    let cal = sys.db.calibration();

    // The Figure 5 report: for every VBAP row, one SELECT SINGLE on MARA.
    let run_report = |with_lookup: bool| -> DbResult<MeterSnapshot> {
        sys.db.pager().flush_all();
        let before = sys.snapshot();
        let items = sys.open_select(&SelectSpec::from_table("VBAP").fields(&["MATNR"]))?;
        if with_lookup {
            for row in &items.rows {
                let _ = sys.open_select(
                    &SelectSpec::from_table("MARA")
                        .cond(Cond::eq("MATNR", row[0].clone()))
                        .single(),
                )?;
            }
        }
        Ok(sys.snapshot().since(&before))
    };

    // Cache sizes scaled from the paper's 2 MB / 20 MB at SF 0.2.
    let scale = sf / 0.2;
    let small = ((2 << 20) as f64 * scale) as usize;
    let big = ((20 << 20) as f64 * scale) as usize;

    let vbap_work = run_report(false)?;
    let vbap_only = cal.seconds(&vbap_work);
    let mut work = vec![("VBAP only".to_string(), vbap_work)];
    let mut rows = Vec::new();
    for (label, capacity, paper_idx) in [
        ("No Caching", 0usize, 0usize),
        ("small cache (2 MB @SF .2)", small, 1),
        ("large cache (20 MB @SF .2)", big, 2),
    ] {
        sys.buffer.clear();
        sys.buffer.set_capacity_bytes(capacity);
        if capacity > 0 {
            sys.buffer.enable("MARA");
        } else {
            sys.buffer.disable("MARA");
        }
        let report = run_report(true)?;
        let total = cal.seconds(&report);
        let mara_cost = (total - vbap_only).max(0.0);
        let (_, phit, psec) = paper::TABLE8[paper_idx];
        rows.push(vec![
            label.to_string(),
            format!("{:.0}%", report.cache_hit_ratio() * 100.0),
            dur(mara_cost),
            format!("{:.0}%", phit * 100.0),
            dur(psec),
        ]);
        work.push((label.to_string(), report));
    }
    Ok(ExpTable {
        id: "Table 8".into(),
        title: format!("Effectiveness of caching MARA, {} small queries (SF={sf})", {
            let v: i64 = sys.db.query("SELECT COUNT(*) FROM VBAP")?.scalar()?.as_int()?;
            v
        }),
        headers: vec![
            "config".into(),
            "hit ratio".into(),
            "MARA query cost".into(),
            "paper hits".into(),
            "paper cost".into(),
        ],
        rows,
        notes: vec![
            "MARA cost = report cost minus the VBAP-only pass (the paper's footnote method)".into(),
        ],
        work,
    })
}

// ---------------------------------------------------------------------------
// Table 9 — warehouse extraction
// ---------------------------------------------------------------------------

pub fn table9(sf: f64) -> DbResult<ExpTable> {
    let gen = DbGen::new(sf);
    let sys = R3System::install_default(Release::R30)?;
    sys.load_tpcd(&gen)?;
    sys.meter().reset();
    let results = extract_warehouse(&sys)?;
    let mut rows = Vec::new();
    let mut total = 0.0;
    for r in &results {
        let paper =
            paper::TABLE9.iter().find(|(n, _)| *n == r.table).map(|(_, s)| *s).unwrap_or(0.0);
        rows.push(vec![
            r.table.clone(),
            format!("{}", r.rows),
            format!("{} KB", r.ascii_bytes / 1024),
            dur(r.seconds),
            dur(paper),
        ]);
        total += r.seconds;
    }
    rows.push(vec!["total".into(), "-".into(), "-".into(), dur(total), dur(paper::TABLE9[8].1)]);
    Ok(ExpTable {
        id: "Table 9".into(),
        title: format!("Constructing a data warehouse: Open SQL extraction (SF={sf})"),
        headers: vec![
            "Table".into(),
            "rows".into(),
            "ASCII".into(),
            "measured".into(),
            "paper".into(),
        ],
        rows,
        notes: vec![
            "LINEITEM dominates; total is comparable to one Open SQL power test (paper's point)"
                .into(),
        ],
        work: results.iter().map(|r| (r.table.clone(), r.work)).collect(),
    })
}

// ---------------------------------------------------------------------------
// Throughput — the multi-stream TPC-D test (our extension; the paper
// measures only the single-stream power test)
// ---------------------------------------------------------------------------

/// Which systems a throughput experiment should cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThroughputSystem {
    Isolated,
    /// Isolated RDBMS driven through the extended (Parse/Bind/Execute)
    /// path: shared plan cache, parameterized plans, row-level locks.
    IsolatedExtended,
    Native,
    Open,
}

impl ThroughputSystem {
    pub const ALL: [ThroughputSystem; 4] = [
        ThroughputSystem::Isolated,
        ThroughputSystem::IsolatedExtended,
        ThroughputSystem::Native,
        ThroughputSystem::Open,
    ];
}

/// Run the throughput test once per explicit config on one configuration,
/// loading the database once and reusing it across the whole matrix.
pub fn run_throughput_matrix(
    system: ThroughputSystem,
    sf: f64,
    configs: &[tpcd::ThroughputConfig],
    mut progress: impl FnMut(&tpcd::ThroughputResult),
) -> DbResult<Vec<tpcd::ThroughputResult>> {
    let gen = DbGen::new(sf);
    let params = QueryParams::for_scale(sf);
    let run_all = |workload: &dyn tpcd::StreamWorkload,
                   progress: &mut dyn FnMut(&tpcd::ThroughputResult)|
     -> DbResult<Vec<tpcd::ThroughputResult>> {
        let mut results = Vec::new();
        for config in configs {
            let r = tpcd::run_throughput_test(workload, &params, sf, config)?;
            progress(&r);
            results.push(r);
        }
        Ok(results)
    };
    match system {
        ThroughputSystem::Isolated => {
            let db = Database::with_defaults();
            tpcd::schema::load(&db, &gen)?;
            run_all(&tpcd::IsolatedWorkload { db: &db, gen: &gen }, &mut progress)
        }
        ThroughputSystem::IsolatedExtended => {
            let db = Database::with_defaults();
            tpcd::schema::load(&db, &gen)?;
            run_all(&tpcd::ExtendedIsolatedWorkload::new(&db, &gen), &mut progress)
        }
        ThroughputSystem::Native | ThroughputSystem::Open => {
            let iface = match system {
                ThroughputSystem::Native => SapInterface::Native,
                _ => SapInterface::Open,
            };
            let sys = R3System::install_default(Release::R30)?;
            sys.load_tpcd(&gen)?;
            run_all(&r3::throughput::SapWorkload { sys: &sys, iface, gen: &gen }, &mut progress)
        }
    }
}

/// The throughput experiment: each configuration at 1, 2 and 4 query
/// streams, once per lock model (the table-granular baseline vs. the engine's
/// hierarchical granularity), reporting elapsed simulated time, lock-wait
/// totals, and QthD. Each configuration loads its database once and
/// reuses it across the matrix (the update stream's UF1/UF2 pairs leave
/// the data unchanged), so rerunning the experiment reproduces every
/// number.
pub fn throughput_table(sf: f64) -> DbResult<ExpTable> {
    let mut configs = Vec::new();
    for query_streams in [1, 2, 4] {
        for lock_model in [tpcd::LockModel::Table, tpcd::LockModel::Hierarchical] {
            configs.push(tpcd::ThroughputConfig {
                query_streams,
                seed: 42,
                lock_model,
                ..Default::default()
            });
        }
    }
    let mut rows = Vec::new();
    for system in ThroughputSystem::ALL {
        let progress = |r: &tpcd::ThroughputResult| {
            eprintln!(
                "  {} streams={} locks={}: QthD {:.2}",
                r.configuration, r.query_streams, r.lock_model, r.qthd
            )
        };
        for r in run_throughput_matrix(system, sf, &configs, progress)? {
            rows.push(vec![
                r.configuration.clone(),
                format!("{}", r.query_streams),
                r.lock_model.clone(),
                dur(r.elapsed_seconds),
                dur(r.streams.iter().map(|s| s.busy_seconds).sum()),
                dur(r.total_lock_wait()),
                format!("{:.2}", r.qthd),
            ]);
        }
    }
    Ok(ExpTable {
        id: "Throughput".into(),
        title: format!("TPC-D throughput test: query streams + update stream (SF={sf})"),
        headers: vec![
            "configuration".into(),
            "streams".into(),
            "locks".into(),
            "elapsed".into(),
            "busy".into(),
            "lock wait".into(),
            "QthD".into(),
        ],
        rows,
        notes: vec![
            "not in the paper: extends the three-way comparison to the multi-user regime".into(),
            "update stream runs UF1/UF2 pairs in transactions (batch input on SAP)".into(),
        ],
        work: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// Figures — architecture diagrams (Figures 1 and 2 of the paper)
// ---------------------------------------------------------------------------

pub fn figures() -> String {
    let mut s = String::new();
    s.push_str(
        "== Figure 1 — Three-tier client/server architecture ==\n\
         presentation 1   presentation 2   presentation 3  ...\n\
              |                |                |           LAN\n\
         application server 1      application server 2    ...\n\
              |                         |                   LAN\n\
              +------------+------------+\n\
                           |\n\
               relational database system\n\
                   (back-end server)\n\
         (implemented by: r3::R3System over rdbms::Database)\n\n",
    );
    s.push_str(
        "== Figure 2 — Database interface of ABAP/4 ==\n\
         Native SQL (EXEC SQL)             Open SQL (SAP-SQL)\n\
              |                                 |\n\
              |                    data dictionary + database interface\n\
              |                                 |  (MANDT injection,\n\
              |                                 |   '?' translation,\n\
              |                                 |   pool/cluster decode,\n\
              |                                 |   local buffers)\n\
              +------------- SQL ---------------+\n\
                           |\n\
               relational database system\n\
         (implemented by: r3::nativesql / r3::opensql / r3::buffer)\n\n",
    );
    s.push_str(
        "Figures 3-5 are the report listings of sections 4.1-4.3; their\n\
         executable equivalents drive the Table 6, 7 and 8 experiments\n\
         (see crates/bench/src/experiments.rs).\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SF: f64 = 0.001;

    #[test]
    fn table1_lists_all_17() {
        let t = table1().unwrap();
        assert_eq!(t.rows.len(), 17);
        assert!(t.render().contains("cluster (KOCLU)"));
    }

    #[test]
    fn table2_shows_inflation() {
        let t = table2(TEST_SF).unwrap();
        let total = t.rows.last().unwrap();
        let infl: f64 = total[5].trim_end_matches('x').parse().unwrap();
        assert!(infl > 4.0, "data inflation {infl} should be substantial");
    }

    #[test]
    fn table6_shape_holds() {
        let t = table6(0.002).unwrap();
        // Low selectivity: Open (blind index plan) must be much slower
        // than Native (scan).
        let native_low = &t.rows[1][1];
        let open_low = &t.rows[1][2];
        let parse = |s: &str| -> f64 {
            // crude parse of fmt_duration output
            let mut total = 0.0;
            for part in s.split_whitespace() {
                if let Some(v) = part.strip_suffix('h') {
                    total += v.parse::<f64>().unwrap_or(0.0) * 3600.0;
                } else if let Some(v) = part.strip_suffix('m') {
                    total += v.parse::<f64>().unwrap_or(0.0) * 60.0;
                } else if let Some(v) = part.strip_suffix('s') {
                    total += v.parse::<f64>().unwrap_or(0.0);
                }
            }
            total
        };
        assert!(
            parse(open_low) > 3.0 * parse(native_low),
            "blind plan must be several times slower: open={open_low} native={native_low}"
        );
    }

    #[test]
    fn table7_shape_holds() {
        let t = table7(0.002).unwrap();
        let r: f64 = t.rows[2][1].trim_end_matches('x').parse().unwrap();
        assert!(r > 1.5, "app-side aggregation should cost noticeably more, got {r}x");
    }

    #[test]
    fn figures_render() {
        let f = figures();
        assert!(f.contains("Figure 1"));
        assert!(f.contains("Figure 2"));
    }
}
