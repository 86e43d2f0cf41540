//! Microbenchmarks of the rdbms engine's building blocks.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rdbms::index::BTree;
use rdbms::storage::codec::{decode_row, encode_key, encode_row};
use rdbms::storage::{Pager, PagerConfig, Rid};
use rdbms::types::{Decimal, Value};
use rdbms::Database;
use trace::meter::CostMeter;

fn bench_codec(c: &mut Criterion) {
    let row = vec![
        Value::Int(42),
        Value::str("a lineitem comment of moderate length here"),
        Value::Decimal(Decimal::parse("90154.50").unwrap()),
        Value::date(1995, 6, 17),
        Value::Bool(true),
    ];
    c.bench_function("codec/encode_row", |b| b.iter(|| encode_row(black_box(&row))));
    let bytes = encode_row(&row);
    c.bench_function("codec/decode_row", |b| b.iter(|| decode_row(black_box(&bytes)).unwrap()));
    c.bench_function("codec/encode_key_composite", |b| {
        b.iter(|| encode_key(black_box(&[Value::Int(123456), Value::str("0000000000000042")])))
    });
}

fn bench_btree(c: &mut Criterion) {
    let pager = Pager::new(PagerConfig::default(), CostMeter::new());
    let mut tree = BTree::new(pager, false).unwrap();
    for i in 0..100_000i64 {
        tree.insert(&encode_key(&[Value::Int(i)]), Rid::new(i as u32, 0)).unwrap();
    }
    c.bench_function("btree/point_lookup_100k", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 7919) % 100_000;
            tree.search_exact(&encode_key(&[Value::Int(i)])).unwrap()
        })
    });
    c.bench_function("btree/range_scan_100", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 997) % 99_000;
            let lo = encode_key(&[Value::Int(i)]);
            let hi = encode_key(&[Value::Int(i + 100)]);
            tree.range_scan(std::ops::Bound::Included(&lo), std::ops::Bound::Excluded(&hi)).unwrap()
        })
    });
}

fn bench_sql(c: &mut Criterion) {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE t (k INTEGER NOT NULL, g INTEGER, v DECIMAL(12,2), PRIMARY KEY (k))")
        .unwrap();
    for batch in 0..50 {
        let values: Vec<String> = (0..200)
            .map(|i| {
                let k = batch * 200 + i;
                format!("({k}, {}, {}.50)", k % 25, k % 1000)
            })
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
    }
    db.execute("ANALYZE t").unwrap();

    c.bench_function("sql/parse_tpcd_q1", |b| {
        let sql = tpcd::queries::sql(1, &tpcd::QueryParams::default())[0].clone();
        b.iter(|| rdbms::sql::parse_statement(black_box(&sql)).unwrap())
    });
    c.bench_function("sql/point_query_via_pk", |b| {
        let mut k = 0;
        b.iter(|| {
            k = (k + 7919) % 10_000;
            db.query(&format!("SELECT v FROM t WHERE k = {k}")).unwrap()
        })
    });
    c.bench_function("sql/group_by_10k_rows", |b| {
        b.iter(|| db.query("SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g ORDER BY g").unwrap())
    });
    let prepared = db.prepare("SELECT v FROM t WHERE k = ?").unwrap();
    c.bench_function("sql/prepared_reexecution", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 10_000;
            db.execute_prepared(&prepared, &[Value::Int(k)]).unwrap()
        })
    });
}

fn bench_expr(c: &mut Criterion) {
    c.bench_function("expr/like_contains", |b| {
        b.iter(|| {
            rdbms::exec::expr::like_match(
                black_box("forest chartreuse goldenrod green ivory"),
                black_box("%green%"),
            )
        })
    });
    let a = Decimal::parse("901.00").unwrap();
    let d = Decimal::parse("0.05").unwrap();
    let t = Decimal::parse("0.08").unwrap();
    let one = Decimal::from_int(1);
    c.bench_function("expr/tpcd_charge_arith", |b| {
        b.iter(|| black_box(a).mul(one.sub(black_box(d))).mul(one.add(black_box(t))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_codec, bench_btree, bench_sql, bench_expr
}
criterion_main!(benches);
