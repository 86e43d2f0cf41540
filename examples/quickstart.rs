//! Quickstart: spin up the relational engine, load a small TPC-D database,
//! and run two benchmark queries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rdbms::Database;
use tpcd::{DbGen, QueryParams};

fn main() {
    // 1. A fresh database engine (10 MB buffer pool, like the paper's
    //    default SAP installation).
    let db = Database::with_defaults();

    // 2. Generate and load TPC-D at a small scale factor. The generator is
    //    seeded: the same SF always produces the same database.
    let gen = DbGen::new(0.002);
    println!(
        "loading TPC-D SF={}: {} parts, {} customers, {} orders ...",
        gen.sf,
        gen.n_parts(),
        gen.n_customers(),
        gen.n_orders()
    );
    tpcd::schema::load(&db, &gen).expect("load");

    // 3. Plain SQL works against the engine.
    let n = db.query("SELECT COUNT(*) FROM lineitem").expect("count").scalar().expect("one value");
    println!("lineitem rows: {n}");

    // 4. Run TPC-D Q1 (pricing summary) and Q6 (forecasting revenue).
    let params = QueryParams::for_scale(gen.sf);
    let q1 = tpcd::run_query(&db, 1, &params).expect("Q1");
    println!("\nQ1 — pricing summary ({} groups):", q1.rows.len());
    println!("  rf ls        sum_qty       sum_charge   count");
    for row in &q1.rows {
        println!("  {}  {}  {:>12}  {:>15}  {:>6}", row[0], row[1], row[2], row[5], row[9]);
    }

    let q6 = tpcd::run_query(&db, 6, &params).expect("Q6");
    println!("\nQ6 — forecast revenue change: {}", q6.rows[0][0]);

    // 5. EXPLAIN shows the optimizer's choices.
    let plan = db.explain("SELECT COUNT(*) FROM orders WHERE o_orderkey = 42").expect("explain");
    println!("\nplan for a key lookup:\n{plan}");

    // 6. The deterministic cost clock metered everything we just did.
    let work = db.snapshot();
    let seconds = db.calibration().seconds(&work);
    println!("metered work: {work}");
    println!(
        "simulated time on the paper's 1996 hardware: {}",
        trace::meter::fmt_duration(seconds)
    );
}
