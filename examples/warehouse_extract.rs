//! Build a data warehouse from a running SAP R/3 system (the paper's
//! Section 5): extract the eight original TPC-D tables through Open SQL
//! reports, load them into a separate warehouse database, and show that
//! the warehouse answers the decision-support query far faster — at the
//! price of the extraction cost.
//!
//! ```text
//! cargo run --release --example warehouse_extract
//! ```

use r3::extract::extract_warehouse;
use r3::reports::{run_report, SapInterface};
use r3::{R3System, Release};
use rdbms::Database;
use tpcd::{DbGen, QueryParams};
use trace::meter::fmt_duration;

fn main() {
    let sf = 0.002;
    let gen = DbGen::new(sf);
    let params = QueryParams::for_scale(sf);

    let sys = R3System::install_default(Release::R30).expect("install");
    sys.load_tpcd(&gen).expect("load");
    println!("operational SAP R/3 system loaded (SF={sf}).\n");

    // --- What does Q5 cost against the operational SAP database? ---------
    sys.meter().reset();
    let op = run_report(&sys, SapInterface::Open, 5, &params).expect("Q5 on SAP");
    println!("Q5 on the operational SAP database (Open SQL): {}", fmt_duration(op.seconds));

    // --- Extract the warehouse (Table 9) ---------------------------------
    println!("\nextracting the warehouse through Open SQL reports:");
    sys.meter().reset();
    let extraction = extract_warehouse(&sys).expect("extract");
    let mut total = 0.0;
    for r in &extraction {
        println!(
            "  {:<9} {:>8} rows  {:>8} KB  {}",
            r.table,
            r.rows,
            r.ascii_bytes / 1024,
            fmt_duration(r.seconds)
        );
        total += r.seconds;
    }
    println!("  extraction total: {}", fmt_duration(total));

    // --- Load the warehouse and re-ask the question ----------------------
    // (The extraction produced ASCII; a warehouse load reads it back. We
    // load from the generator, which is byte-identical data.)
    let warehouse = Database::with_defaults();
    tpcd::schema::load(&warehouse, &gen).expect("warehouse load");
    warehouse.meter().reset();
    let before = warehouse.snapshot();
    let q5 = tpcd::run_query(&warehouse, 5, &params).expect("Q5 on warehouse");
    let wh_work = warehouse.snapshot().since(&before);
    let wh_s = warehouse.calibration().seconds(&wh_work);
    println!(
        "\nQ5 on the warehouse: {} ({} rows) — {:.0}x faster than the operational system",
        fmt_duration(wh_s),
        q5.rows.len(),
        op.seconds / wh_s.max(1e-9)
    );
    println!(
        "\nThe paper's conclusion: the warehouse pays off only if the queries\n\
         issued against it outweigh the extraction cost of {} (comparable to\n\
         one full Open SQL power test).",
        fmt_duration(total)
    );
}
