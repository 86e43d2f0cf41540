//! Column pruning changes no answer: each of the 17 TPC-D queries returns,
//! from its column-pruned plan, exactly the rows the same plan returns with
//! every scan decoding all columns (`Planner::keep_all_columns`) — on the
//! loaded database, after UF1 has inserted its orders, and after UF2 has
//! deleted them again; the `--ignored` long mode does the same at SF 0.005
//! on two generator seeds. (The engine-level cases — correlated subqueries,
//! `SELECT *`, `UPDATE ... WHERE` — are in `rdbms/tests/row_path.rs`.)

use rdbms::exec::expr::ExecCtx;
use rdbms::sql::ast::Statement;
use rdbms::sql::parse_statement;
use rdbms::{Database, Row};
use tpcd::dbgen::DbGen;
use tpcd::queries::{self, QueryParams};
use tpcd::schema::load;
use tpcd::updates;

/// Run query `n` both ways; returns the number of rows compared.
fn compare_query(db: &Database, n: usize, params: &QueryParams) -> usize {
    let mut compared = 0;
    for sql in queries::sql(n, params) {
        let Statement::Select(q) = parse_statement(&sql).unwrap() else {
            db.execute(&sql).unwrap(); // Q15's CREATE VIEW / DROP VIEW
            continue;
        };
        let planner = || db.planner();
        let pruned = planner().plan_query(&q).unwrap();
        let all = planner().keep_all_columns().plan_query(&q).unwrap();
        assert_eq!(pruned.plan.describe(), all.plan.describe(), "Q{n}: same plan shape");
        let run = |plan: &rdbms::exec::plan::Plan| -> Vec<Row> {
            plan.execute(&ExecCtx::new(&[], db.meter())).unwrap()
        };
        let (got, want) = (run(&pruned.plan), run(&all.plan));
        assert_eq!(got.len(), want.len(), "Q{n}: row count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(format!("{g:?}"), format!("{w:?}"), "Q{n} row {i}");
        }
        compared += got.len();
    }
    compared
}

/// All 17 queries both ways on `gen`'s population: loaded, after UF1,
/// and after UF2.
fn compare_rounds(gen: DbGen) {
    let db = Database::with_defaults();
    load(&db, &gen).unwrap();
    let params = QueryParams::for_scale(gen.sf);

    let round = |label: &str| -> Vec<usize> {
        let rows: Vec<usize> = (1..=17).map(|n| compare_query(&db, n, &params)).collect();
        let answered = rows.iter().filter(|&&r| r > 0).count();
        assert!(answered >= 12, "{label}: only {answered} of 17 queries returned rows: {rows:?}");
        rows
    };
    let loaded = round("loaded");
    assert!(updates::uf1(&db, &gen, 1).unwrap() > 0);
    round("after UF1");
    assert!(updates::uf2(&db, &gen, 1).unwrap() > 0);
    // UF1 + UF2 is the identity on the data, so on the answers too.
    assert_eq!(round("after UF2"), loaded);
}

#[test]
fn pruned_tpcd_plans_return_what_unpruned_plans_return() {
    compare_rounds(DbGen::new(0.002));
}

/// The same at SF 0.005, on the default population and on a second one
/// (`cargo test --release -p tpcd --test pruned_plans -- --ignored`).
#[test]
#[ignore]
fn pruned_tpcd_plans_return_what_unpruned_plans_return_long() {
    compare_rounds(DbGen::new(0.005));
    compare_rounds(DbGen::with_seed(0.005, 7));
}
