//! The paper's motivating workload: a company running its business on SAP
//! R/3. Orders are entered through the checked application logic (batch
//! input), a sales clerk repeatedly looks up part master data (application
//! server buffering), and management asks a decision-support question
//! through Open SQL.
//!
//! ```text
//! cargo run --release --example sap_order_entry
//! ```

use r3::opensql::{CmpOp, Cond, SelectSpec};
use r3::{R3System, Release};
use rdbms::sql::ast::AggFunc;
use rdbms::types::Value;
use tpcd::DbGen;
use trace::meter::fmt_duration;

fn main() {
    let sys = R3System::install_default(Release::R30).expect("install R/3 3.0E");
    let gen = DbGen::new(0.002);
    sys.load_tpcd(&gen).expect("initial data load");
    println!("TPC-D Inc. is live on SAP R/3 3.0E (client {}).\n", r3::schema::MANDT);

    // --- 1. Enter new orders through batch input -------------------------
    let (orders, lineitems) = gen.update_stream(1);
    let mut idx = 0;
    let before = sys.snapshot();
    for order in &orders {
        let mut items = Vec::new();
        while idx < lineitems.len() && lineitems[idx].orderkey == order.orderkey {
            items.push(&lineitems[idx]);
            idx += 1;
        }
        sys.batch_input_order(order, &items).expect("order entry");
    }
    let work = sys.snapshot().since(&before);
    println!(
        "entered {} orders through the application logic: {} consistency-check units, {}",
        orders.len(),
        work.check_units(),
        fmt_duration(sys.db.calibration().seconds(&work))
    );

    // The checks are real: an order for an unknown customer is rejected.
    let mut bogus = orders[0].clone();
    bogus.orderkey += 1_000_000;
    bogus.custkey = 999_999_999;
    let err = sys.batch_input_order(&bogus, &[]);
    println!("order for unknown customer rejected: {}\n", err.unwrap_err());

    // --- 2. A sales clerk looks parts up, with and without buffering -----
    let lookups: Vec<Value> =
        (1..=gen.n_parts()).cycle().take(2000).map(r3::schema::key16).collect();
    let run_lookups = |label: &str| {
        let before = sys.snapshot();
        for key in &lookups {
            sys.open_select(
                &SelectSpec::from_table("MARA").cond(Cond::eq("MATNR", key.clone())).single(),
            )
            .expect("SELECT SINGLE MARA");
        }
        let work = sys.snapshot().since(&before);
        println!(
            "{label}: {} for 2000 lookups ({} DB crossings, {:.0}% buffer hits)",
            fmt_duration(sys.db.calibration().seconds(&work)),
            work.ipc_crossings(),
            work.cache_hit_ratio() * 100.0
        );
    };
    run_lookups("part lookups, no buffering     ");
    sys.buffer.set_capacity_bytes(20 << 20);
    sys.buffer.enable("MARA");
    run_lookups("part lookups, MARA buffered    ");
    run_lookups("part lookups, warm buffer      ");

    // --- 3. Management asks a question through Open SQL ------------------
    let report = sys
        .open_select(
            &SelectSpec::from_table("VBAK")
                .group(&["PRIOK"])
                .agg(AggFunc::Count, None)
                .agg(AggFunc::Sum, Some("NETWR"))
                .cond(Cond::new("AUDAT", CmpOp::Ge, Value::date(1995, 1, 1))),
        )
        .expect("Open SQL report");
    println!("\norder volume by priority since 1995 (Open SQL, pushed-down aggregation):");
    for row in &report.rows {
        println!("  {:<16} {:>6} orders, total {}", row[0], row[1], row[2]);
    }
}
