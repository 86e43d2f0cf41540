//! Run one TPC-D query in every configuration of the paper's study and
//! compare: isolated RDBMS, then SAP R/3 Releases 2.2G and 3.0E through
//! Native SQL and Open SQL.
//!
//! ```text
//! cargo run --release --example three_tier_tpcd [-- <query number>]
//! ```

use r3::reports::{run_report, SapInterface};
use r3::{R3System, Release};
use rdbms::Database;
use tpcd::{DbGen, QueryParams};
use trace::meter::fmt_duration;

fn main() {
    let query: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(3);
    assert!((1..=17).contains(&query), "TPC-D has queries 1..=17");
    let sf = 0.002;
    let gen = DbGen::new(sf);
    let params = QueryParams::for_scale(sf);

    println!("TPC-D Q{query} ({}) at SF={sf}\n", tpcd::queries::query_name(query));

    // --- Configuration 1: the isolated RDBMS on the original schema -----
    let db = Database::with_defaults();
    tpcd::schema::load(&db, &gen).expect("load TPC-D");
    db.meter().reset();
    let before = db.snapshot();
    let result = tpcd::run_query(&db, query, &params).expect("query");
    let work = db.snapshot().since(&before);
    let rdbms_s = db.calibration().seconds(&work);
    println!(
        "isolated RDBMS          : {:>10}   ({} rows)",
        fmt_duration(rdbms_s),
        result.rows.len()
    );

    // --- Configurations 2-5: SAP R/3 ------------------------------------
    for release in [Release::R22, Release::R30] {
        let sys = R3System::install_default(release).expect("install R/3");
        sys.load_tpcd(&gen).expect("load SAP");
        sys.meter().reset();
        for iface in [SapInterface::Native, SapInterface::Open] {
            let r = run_report(&sys, iface, query, &params).expect("report");
            println!(
                "SAP R/3 {release} {iface:<11}: {:>10}   ({} rows, {} interface crossings)",
                fmt_duration(r.seconds),
                r.rows,
                r.work.ipc_crossings()
            );
        }
    }

    println!(
        "\nThe paper's point: the same business question costs dramatically\n\
         different amounts depending on where the query processing happens —\n\
         and none of the SAP configurations match the isolated-DBMS numbers\n\
         that database vendors publish."
    );
}
