//! Batch boundaries: every operator gives the same rows whichever way its
//! input is cut into batches. Tables of B−1, B, B+1 and 2B+1 rows (B is
//! `BATCH_ROWS`; a wide column puts ~20 rows on a heap page, so scans cut
//! them again) go through filter, project, sort, grouped, scalar and empty
//! aggregates, DISTINCT, LIMIT and inner and left-outer joins. Keys equal
//! across representations (`Int` and `Decimal`, trailing blanks) meet in
//! grouping, DISTINCT, COUNT(DISTINCT), one- and two-key hash joins and
//! `IN`/`NOT IN` subqueries. Each result is checked against a model of
//! the query and against the same query planned with hash joins off; each
//! batch the plan hands out is checked too, then copied and handed back
//! (`Cursor::recycle`) as a streaming consumer would.
//!
//! Recycled rows are refilled in place, so a row that leaves a node with
//! a slot not rewritten shows an earlier row's value. The recycling cases
//! (`recycled_rows_never_leak_a_stale_value`) hunt for that: long strings
//! alternating with NULLs under a filter alternating accept and reject, a
//! wide scan into a narrower projection into an aggregate, hash joins
//! whose probe rows alternate matched and unmatched (inner and left outer,
//! keys matching twice), a filter holding a subquery and `LIMIT` — each
//! against a model and against the plan that keeps every column
//! (`Planner::keep_all_columns`).

use proptest::prelude::*;
use rdbms::exec::plan::{Plan, BATCH_ROWS};
use rdbms::exec::ExecCtx;
use rdbms::planner::PlannerConfig;
use rdbms::sql::ast::Statement;
use rdbms::sql::parse_statement;
use rdbms::storage::PagerConfig;
use rdbms::types::{Decimal, Value};
use rdbms::{Database, DbConfig, Row};
use std::cmp::Ordering;

const SIZES: [usize; 4] = [BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1, 2 * BATCH_ROWS + 1];

/// SplitMix64: the case's data from its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// One row of `t`: the group key is `ki` as an INTEGER when `f = 1` and
/// the same number as a DECIMAL otherwise; `s` has trailing-blank twins.
struct T {
    id: i64,
    f: bool,
    ki: i64,
    s: &'static str,
    v: Option<i64>,
}

/// One row of `u`: `k` joins `t.id`, some values miss and some repeat.
struct U {
    uid: i64,
    k: i64,
    w: i64,
}

impl T {
    fn key(&self) -> Value {
        if self.f {
            Value::Int(self.ki)
        } else {
            Value::Decimal(Decimal::parse(&format!("{}.00", self.ki)).unwrap())
        }
    }
}

fn int(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

fn sql_int(v: Option<i64>) -> String {
    v.map_or("NULL".to_string(), |v| v.to_string())
}

fn load(n: usize, m: usize, seed: u64) -> (Database, Vec<T>, Vec<U>) {
    let mut rng = Rng(seed);
    let db = Database::with_defaults();
    db.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, f INTEGER, ki INTEGER, kd DECIMAL(10,2), \
         s VARCHAR(8), v INTEGER, pad VARCHAR(400), PRIMARY KEY (id))",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE u (uid INTEGER NOT NULL, k INTEGER, w INTEGER, pad VARCHAR(400), \
         PRIMARY KEY (uid))",
    )
    .unwrap();
    let pad = "x".repeat(300);
    let t: Vec<T> = (0..n as i64)
        .map(|id| T {
            id,
            f: rng.below(2) == 1,
            ki: rng.below(4) as i64,
            s: ["A", "A  ", "B", "B ", "c"][rng.below(5) as usize],
            v: (rng.below(8) != 0).then(|| rng.below(100) as i64 - 50),
        })
        .collect();
    for r in &t {
        db.execute(&format!(
            "INSERT INTO t VALUES ({}, {}, {}, {}.00, '{}', {}, '{pad}')",
            r.id,
            i64::from(r.f),
            r.ki,
            r.ki,
            r.s,
            sql_int(r.v)
        ))
        .unwrap();
    }
    let u: Vec<U> = (0..m as i64)
        .map(|uid| U {
            uid,
            k: rng.below(n as u64 + n as u64 / 4 + 1) as i64,
            w: rng.below(10) as i64,
        })
        .collect();
    for r in &u {
        db.execute(&format!("INSERT INTO u VALUES ({}, {}, {}, '{pad}')", r.uid, r.k, r.w))
            .unwrap();
    }
    db.execute("ANALYZE t").unwrap();
    db.execute("ANALYZE u").unwrap();
    (db, t, u)
}

fn total(a: &[Value], b: &[Value]) -> Ordering {
    a.iter().zip(b).map(|(x, y)| x.total_cmp(y)).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
}

fn debug(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

fn sorted(rows: &[Row]) -> Vec<String> {
    let mut rows = rows.to_vec();
    rows.sort_by(|a, b| total(a, b));
    debug(&rows)
}

/// COUNT(*), SUM, MIN, MAX and AVG of `vals` as the engine computes them.
fn fold(vals: &[Option<i64>]) -> Row {
    let seen: Vec<i64> = vals.iter().flatten().copied().collect();
    let sum = (!seen.is_empty()).then(|| seen.iter().sum::<i64>());
    let avg = sum.map_or(Value::Null, |s| {
        Value::Decimal(Decimal::from_int(s).div(Decimal::from_int(seen.len() as i64)).unwrap())
    });
    let (min, max) = (seen.iter().min().copied(), seen.iter().max().copied());
    vec![Value::Int(vals.len() as i64), int(sum), int(min), int(max), avg]
}

/// Grouped aggregation as the engine defines it: groups under
/// `total_cmp` equality, keyed by their first row's value, in key order,
/// each group's values folded by `fold`.
fn group_by<V>(rows: impl Iterator<Item = (Value, V)>, fold: impl Fn(&[V]) -> Row) -> Vec<Row> {
    let mut groups: Vec<(Value, Vec<V>)> = Vec::new();
    for (key, v) in rows {
        match groups.iter_mut().find(|(k, _)| k.total_cmp(&key).is_eq()) {
            Some((_, vals)) => vals.push(v),
            None => groups.push((key, vec![v])),
        }
    }
    groups.sort_by(|a, b| a.0.total_cmp(&b.0));
    groups.into_iter().map(|(k, vals)| [vec![k], fold(&vals)].concat()).collect()
}

/// COUNT(DISTINCT) of `vals` under `total_cmp` equality.
fn count_distinct(vals: &[Value]) -> Value {
    Value::Int(distinct(vals.iter().cloned()).len() as i64)
}

/// First occurrences in input order.
fn distinct(vals: impl Iterator<Item = Value>) -> Vec<Row> {
    let mut out: Vec<Row> = Vec::new();
    for v in vals {
        if !out.iter().any(|r| r[0].total_cmp(&v).is_eq()) {
            out.push(vec![v]);
        }
    }
    out
}

/// The rows of `sql` from its plan's cursor, checking each batch.
fn pull(db: &Database, sql: &str, params: &[Value], joins: bool) -> Vec<Row> {
    let prepared = db.prepare(sql).unwrap();
    pull_plan(db, &prepared.plan, sql, params, joins)
}

/// The rows of `plan`, each batch checked, copied out and handed back.
fn pull_plan(db: &Database, plan: &Plan, sql: &str, params: &[Value], joins: bool) -> Vec<Row> {
    let ctx = ExecCtx::new(params, db.meter());
    let mut cursor = plan.open();
    let mut rows = Vec::new();
    while let Some(batch) = cursor.next(&ctx).unwrap() {
        assert!(!batch.is_empty(), "empty batch from {sql}");
        // A join closes a batch between two rows of its driving side only.
        assert!(joins || batch.len() <= BATCH_ROWS, "batch of {} from {sql}", batch.len());
        rows.extend(batch.iter().cloned());
        cursor.recycle(batch);
    }
    assert!(cursor.next(&ctx).unwrap().is_none(), "rows after the end of {sql}");
    rows
}

fn run_case(n: usize, m: usize, limit: usize, seed: u64) {
    let (db, t, u) = load(n, m, seed);
    let matches = |id: i64| u.iter().filter(move |x| x.k == id);
    let join: Vec<Row> = t
        .iter()
        .flat_map(|r| {
            matches(r.id).map(|x| vec![Value::Int(r.id), Value::Int(x.uid), Value::Int(x.w)])
        })
        .collect();
    let outer: Vec<Row> = t
        .iter()
        .flat_map(|r| {
            let hits: Vec<Row> =
                matches(r.id).map(|x| vec![Value::Int(r.id), Value::Int(x.uid)]).collect();
            if hits.is_empty() {
                vec![vec![Value::Int(r.id), Value::Null]]
            } else {
                hits
            }
        })
        .collect();
    let by_id: Vec<Row> = {
        let mut rows: Vec<&T> = t.iter().collect();
        rows.sort_by(|a, b| int(a.v).total_cmp(&int(b.v)).then(a.id.cmp(&b.id)));
        rows.iter().map(|r| vec![Value::Int(r.id), int(r.v)]).collect()
    };
    let ki_of = |id: i64| t[id as usize].ki;
    // Keys equal across representations: `kd` is `ki` as a DECIMAL, and
    // `s` has trailing-blank twins.
    let same_s = |a: &T, b: &T| a.s.trim_end() == b.s.trim_end();
    let pairs = |on: &dyn Fn(&T, &T) -> bool| -> Vec<Row> {
        t.iter()
            .flat_map(|a| t.iter().filter(move |b| on(a, b)).map(move |b| vec![a.id, b.id]))
            .map(|r| r.into_iter().map(Value::Int).collect())
            .collect()
    };
    // `x NOT IN (SELECT v FROM t WHERE id < 8)`: false on a match, else
    // UNKNOWN if a `v` there is NULL.
    let sub: Vec<Option<i64>> = t.iter().take(8).map(|r| r.v).collect();
    let not_in = |x: i64| match (sub.contains(&Some(x)), sub.contains(&None)) {
        (true, _) => Value::Bool(false),
        (false, true) => Value::Null,
        (false, false) => Value::Bool(true),
    };
    let cases: Vec<(String, Vec<Row>, bool)> = vec![
        (
            "SELECT id, v + 1 FROM t WHERE v > 0".into(),
            t.iter()
                .filter(|r| r.v.is_some_and(|v| v > 0))
                .map(|r| vec![Value::Int(r.id), int(r.v.map(|v| v + 1))])
                .collect(),
            true,
        ),
        (
            "SELECT CASE WHEN f = 1 THEN ki ELSE kd END, COUNT(*), SUM(v), MIN(v), MAX(v), \
             AVG(v) FROM t GROUP BY CASE WHEN f = 1 THEN ki ELSE kd END"
                .into(),
            group_by(t.iter().map(|r| (r.key(), r.v)), fold),
            true,
        ),
        (
            "SELECT s, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY s".into(),
            group_by(t.iter().map(|r| (Value::str(r.s), r.v)), fold),
            true,
        ),
        (
            "SELECT id, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY id".into(),
            group_by(t.iter().map(|r| (Value::Int(r.id), r.v)), fold),
            true,
        ),
        (
            "SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t".into(),
            vec![fold(&t.iter().map(|r| r.v).collect::<Vec<_>>())],
            true,
        ),
        (
            "SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t WHERE v > 1000".into(),
            vec![fold(&[])],
            true,
        ),
        ("SELECT s, COUNT(*), SUM(v) FROM t WHERE v > 1000 GROUP BY s".into(), vec![], true),
        ("SELECT DISTINCT s FROM t".into(), distinct(t.iter().map(|r| Value::str(r.s))), true),
        (
            "SELECT DISTINCT CASE WHEN f = 1 THEN ki ELSE kd END FROM t".into(),
            distinct(t.iter().map(T::key)),
            true,
        ),
        ("SELECT id, v FROM t ORDER BY v, id".into(), by_id, true),
        (
            format!("SELECT id FROM t ORDER BY id DESC LIMIT {limit}"),
            t.iter().rev().take(limit).map(|r| vec![Value::Int(r.id)]).collect(),
            true,
        ),
        ("SELECT t.id, u.uid, u.w FROM t JOIN u ON t.id = u.k".into(), join.clone(), false),
        ("SELECT t.id, u.uid FROM t LEFT OUTER JOIN u ON t.id = u.k".into(), outer, false),
        (
            "SELECT t.ki, COUNT(*), SUM(u.w), MIN(u.w), MAX(u.w), AVG(u.w) FROM t JOIN u \
             ON t.id = u.k GROUP BY t.ki"
                .into(),
            group_by(
                join.iter()
                    .map(|r| (Value::Int(ki_of(r[0].as_int().unwrap())), r[2].as_int().ok())),
                fold,
            ),
            true,
        ),
        (
            "SELECT u.uid, COUNT(*), SUM(t.v), MIN(t.v), MAX(t.v), AVG(t.v) FROM t JOIN u \
             ON t.id = u.k GROUP BY u.uid"
                .into(),
            group_by(
                join.iter().map(|r| (r[1].clone(), t[r[0].as_int().unwrap() as usize].v)),
                fold,
            ),
            true,
        ),
        (
            "SELECT t.id, u.uid FROM t JOIN u ON t.kd = u.w".into(),
            t.iter()
                .flat_map(|r| u.iter().filter(move |x| x.w == r.ki).map(move |x| (r.id, x.uid)))
                .map(|(id, uid)| vec![Value::Int(id), Value::Int(uid)])
                .collect(),
            false,
        ),
        (
            "SELECT a.id, b.id FROM t a JOIN t b ON a.kd = b.ki AND a.s = b.s".into(),
            pairs(&|a, b| a.ki == b.ki && same_s(a, b)),
            false,
        ),
        (
            "SELECT a.id, b.id FROM t a JOIN t b ON a.s = b.s AND a.id <= b.id".into(),
            pairs(&|a, b| same_s(a, b) && a.id <= b.id),
            false,
        ),
        (
            "SELECT COUNT(DISTINCT CASE WHEN f = 1 THEN ki ELSE kd END) FROM t".into(),
            vec![vec![count_distinct(&t.iter().map(T::key).collect::<Vec<_>>())]],
            true,
        ),
        (
            "SELECT s, COUNT(DISTINCT CASE WHEN f = 1 THEN ki ELSE kd END) FROM t GROUP BY s"
                .into(),
            group_by(t.iter().map(|r| (Value::str(r.s), r.key())), |keys| {
                vec![count_distinct(keys)]
            }),
            true,
        ),
        (
            "SELECT id FROM t WHERE s IN (SELECT s FROM t WHERE v > 0)".into(),
            t.iter()
                .filter(|r| t.iter().any(|x| x.v.is_some_and(|v| v > 0) && same_s(r, x)))
                .map(|r| vec![Value::Int(r.id)])
                .collect(),
            true,
        ),
        (
            "SELECT id, kd NOT IN (SELECT v FROM t WHERE id < 8) FROM t".into(),
            t.iter().map(|r| vec![Value::Int(r.id), not_in(r.ki)]).collect(),
            true,
        ),
    ];
    for (sql, want, ordered) in &cases {
        let joins = sql.contains("JOIN");
        let mut results = Vec::new();
        for hash in [true, false] {
            db.set_planner_config(PlannerConfig { enable_hash_join: hash, ..db.planner_config() });
            let plan = db.explain(sql).unwrap();
            assert_eq!(plan.contains("HashJoin"), hash && joins, "{sql}\n{plan}");
            let got = pull(&db, sql, &[], joins);
            assert_eq!(debug(&got), debug(&db.query(sql).unwrap().rows), "cursor vs query: {sql}");
            let (g, w) =
                if *ordered { (debug(&got), debug(want)) } else { (sorted(&got), sorted(want)) };
            assert_eq!(g, w, "hash={hash} n={n} m={m} seed={seed} {sql}\n{plan}");
            if hash && sql.contains("LEFT OUTER") {
                // The build side's unmatched rows come last, in its order.
                let first_null = got.iter().position(|r| r[1].is_null()).unwrap_or(got.len());
                let tail: Vec<&Row> = got[first_null..].iter().collect();
                assert!(tail.iter().all(|r| r[1].is_null()), "interleaved NULL rows\n{plan}");
                assert!(tail.windows(2).all(|w| total(w[0], w[1]).is_lt()), "{plan}");
            }
            results.push(if *ordered { debug(&got) } else { sorted(&got) });
        }
        assert_eq!(results[0], results[1], "hash join on vs off: {sql}");
    }
    // Parameter markers get the rule-based index plan whatever the range
    // (the paper's blind plans): an index scan's fetches in batches.
    let (lo, hi) = (seed % 3, n as u64 - seed / 3 % 3);
    let sql = "SELECT id, v FROM t WHERE id >= ? AND id < ? AND v IS NOT NULL";
    let params = [Value::Int(lo as i64), Value::Int(hi as i64)];
    let prepared = db.prepare(sql).unwrap();
    assert!(prepared.plan_description.contains("IndexScan"), "{}", prepared.plan_description);
    let got = pull(&db, sql, &params, false);
    let want: Vec<Row> = t[lo as usize..hi as usize]
        .iter()
        .filter(|r| r.v.is_some())
        .map(|r| vec![Value::Int(r.id), int(r.v)])
        .collect();
    assert_eq!(debug(&got), debug(&want), "n={n} seed={seed} {sql} {params:?}");
    assert_eq!(debug(&got), debug(&db.execute_prepared(&prepared, &params).unwrap().rows));
}

/// One row of `r`: `a` alternates (a filter on it accepts every other
/// row), `s` is a long string two rows in three and NULL the third, and
/// every fifth row repeats the previous row's join key `k`.
struct R {
    id: i64,
    a: i64,
    k: i64,
    s: Option<String>,
    v: i64,
}

/// One row of `q`: even rows share a key two by two, most of them keys
/// of `r`; odd rows match nothing; `s` as in `r`, shifted.
struct Q {
    qid: i64,
    k: i64,
    s: Option<String>,
    w: i64,
}

fn long(i: usize, tag: &str) -> Option<String> {
    (i % 3 != 1).then(|| format!("{tag}{i:04}{}", "-".repeat(20 + i * 37 % 150)))
}

fn text(s: &Option<String>) -> Value {
    s.as_deref().map_or(Value::Null, Value::str)
}

fn load_recycling(n: usize, m: usize) -> (Database, Vec<R>, Vec<Q>) {
    let db = Database::with_defaults();
    db.execute(
        "CREATE TABLE r (id INTEGER NOT NULL, a INTEGER, k INTEGER, s VARCHAR(200), v INTEGER, \
         pad VARCHAR(300), PRIMARY KEY (id))",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE q (qid INTEGER NOT NULL, k INTEGER, s VARCHAR(200), w INTEGER, \
         pad VARCHAR(300), PRIMARY KEY (qid))",
    )
    .unwrap();
    let pad = "p".repeat(200);
    let sql_text = |s: &Option<String>| s.as_ref().map_or("NULL".to_string(), |s| format!("'{s}'"));
    let r: Vec<R> = (0..n)
        .map(|i| R {
            id: i as i64,
            a: (i % 2) as i64,
            k: if i % 5 == 4 { i as i64 - 1 } else { i as i64 },
            s: long(i, "r"),
            v: (i * 7 % 11) as i64 - 5,
        })
        .collect();
    for x in &r {
        db.execute(&format!(
            "INSERT INTO r VALUES ({}, {}, {}, {}, {}, '{pad}')",
            x.id,
            x.a,
            x.k,
            sql_text(&x.s),
            x.v
        ))
        .unwrap();
    }
    let q: Vec<Q> = (0..m)
        .map(|j| Q {
            qid: j as i64,
            k: if j % 2 == 0 { (j / 4) as i64 } else { -1 - j as i64 },
            s: long(j + 1, "q"),
            w: (j * 5 % 7) as i64 - 3,
        })
        .collect();
    for x in &q {
        db.execute(&format!(
            "INSERT INTO q VALUES ({}, {}, {}, {}, '{pad}')",
            x.qid,
            x.k,
            sql_text(&x.s),
            x.w
        ))
        .unwrap();
    }
    db.execute("ANALYZE r").unwrap();
    db.execute("ANALYZE q").unwrap();
    (db, r, q)
}

/// `sql` through a streaming, recycling consumer, with hash joins on and
/// off, pruned and with every column kept: each against `want`.
fn check_recycled(db: &Database, sql: &str, want: &[Row], ordered: bool, case: &str) {
    let Statement::Select(stmt) = parse_statement(sql).unwrap() else { panic!("{sql}") };
    let joins = sql.contains("JOIN");
    let want = if ordered { debug(want) } else { sorted(want) };
    for hash in [true, false] {
        db.set_planner_config(PlannerConfig { enable_hash_join: hash, ..db.planner_config() });
        let pruned = db.planner().plan_query(&stmt).unwrap().plan;
        let all = db.planner().keep_all_columns().plan_query(&stmt).unwrap().plan;
        assert_eq!(pruned.describe().contains("HashJoin"), hash && joins, "{sql}\n{pruned:?}");
        for (plan, columns) in [(&pruned, "pruned"), (&all, "all columns")] {
            let got = pull_plan(db, plan, sql, &[], joins);
            let got = if ordered { debug(&got) } else { sorted(&got) };
            assert_eq!(got, want, "{case}: hash={hash} {columns} {sql}\n{plan:?}");
        }
    }
}

fn run_recycling_case(n: usize, m: usize, limit: usize) {
    let (db, r, q) = load_recycling(n, m);
    let join = |left_outer: bool| -> Vec<Row> {
        r.iter()
            .flat_map(|x| {
                let hits: Vec<Row> = q
                    .iter()
                    .filter(|y| y.k == x.k)
                    .map(|y| vec![Value::Int(x.id), text(&x.s), Value::Int(y.qid), text(&y.s)])
                    .collect();
                match hits.is_empty() && left_outer {
                    true => vec![vec![Value::Int(x.id), text(&x.s), Value::Null, Value::Null]],
                    false => hits,
                }
            })
            .collect()
    };
    let groups: Vec<Row> = [0, 1]
        .into_iter()
        .filter_map(|a| {
            let rows: Vec<&R> = r.iter().filter(|x| x.a == a).collect();
            let texts: Vec<&str> = rows.iter().filter_map(|x| x.s.as_deref()).collect();
            let (min, max) = (texts.iter().min(), texts.iter().max());
            (!rows.is_empty()).then(|| {
                vec![
                    Value::Int(a),
                    Value::Int(rows.len() as i64),
                    Value::Int(texts.len() as i64),
                    min.map_or(Value::Null, |s| Value::str(*s)),
                    max.map_or(Value::Null, |s| Value::str(*s)),
                    Value::Int(rows.iter().map(|x| x.id + x.v).sum()),
                ]
            })
        })
        .collect();
    let positive: Vec<i64> = q.iter().filter(|y| y.w > 0).map(|y| y.k).collect();
    let cases: Vec<(&str, String, Vec<Row>, bool)> = vec![
        (
            "long strings and NULLs under an alternating filter",
            "SELECT x, t, u FROM (SELECT id AS x, s AS t, v AS u, a AS y FROM r) d WHERE y = 1"
                .into(),
            r.iter()
                .filter(|x| x.a == 1)
                .map(|x| vec![Value::Int(x.id), text(&x.s), Value::Int(x.v)])
                .collect(),
            true,
        ),
        (
            "a wide scan into a narrower projection into an aggregate",
            "SELECT y, COUNT(*), COUNT(t), MIN(t), MAX(t), SUM(z) FROM \
             (SELECT a AS y, s AS t, id + v AS z FROM r) d GROUP BY y"
                .into(),
            groups,
            true,
        ),
        (
            "a hash join whose probe rows alternate matched and unmatched",
            "SELECT r.id, r.s, q.qid, q.s FROM r JOIN q ON r.k = q.k".into(),
            join(false),
            false,
        ),
        (
            "a left outer join",
            "SELECT r.id, r.s, q.qid, q.s FROM r LEFT OUTER JOIN q ON r.k = q.k".into(),
            join(true),
            false,
        ),
        (
            "keys matching twice",
            "SELECT a.id, a.s, b.id, b.s FROM r a JOIN r b ON a.k = b.k".into(),
            r.iter()
                .flat_map(|x| r.iter().filter(move |y| y.k == x.k).map(move |y| (x, y)))
                .map(|(x, y)| vec![Value::Int(x.id), text(&x.s), Value::Int(y.id), text(&y.s)])
                .collect(),
            false,
        ),
        (
            "a filter holding a subquery",
            "SELECT x, t FROM (SELECT id AS x, s AS t, k AS y FROM r) d \
             WHERE y IN (SELECT k FROM q WHERE w > 0)"
                .into(),
            r.iter()
                .filter(|x| positive.contains(&x.k))
                .map(|x| vec![Value::Int(x.id), text(&x.s)])
                .collect(),
            true,
        ),
        (
            "LIMIT",
            format!("SELECT x, t FROM (SELECT id AS x, s AS t, a AS y FROM r) d LIMIT {limit}"),
            r.iter().take(limit).map(|x| vec![Value::Int(x.id), text(&x.s)]).collect(),
            true,
        ),
    ];
    for (case, sql, want, ordered) in &cases {
        check_recycled(&db, sql, want, *ordered, &format!("{case} (n={n} m={m})"));
    }
}

/// `LIMIT` drains its input: stopping at the first row would change
/// what the query meters, which is a behaviour change of its own.
#[test]
fn limit_meters_what_its_input_meters() {
    // Ten pages of rows against an eight-page pool: every scan misses.
    let fresh = || {
        let db = Database::new(DbConfig {
            pager: PagerConfig::with_pool_bytes(64 * 1024),
            ..DbConfig::default()
        });
        db.execute(
            "CREATE TABLE w (id INTEGER NOT NULL, v INTEGER, pad VARCHAR(400), PRIMARY KEY (id))",
        )
        .unwrap();
        let pad = "y".repeat(300);
        for id in 0..240 {
            db.execute(&format!("INSERT INTO w VALUES ({id}, {}, '{pad}')", id % 7)).unwrap();
        }
        db.execute("ANALYZE w").unwrap();
        db
    };
    for sql in [
        "SELECT id, v FROM w WHERE v > 2",
        "SELECT id FROM w WHERE id >= 100 AND id < 200",
        "SELECT v, COUNT(*) FROM w GROUP BY v",
    ] {
        let work = |sql: &str| {
            let db = fresh();
            let before = db.snapshot();
            let rows = db.query(sql).unwrap().rows.len();
            (rows, db.snapshot().since(&before))
        };
        let (all, unlimited) = work(sql);
        let (one, limited) = work(&format!("{sql} LIMIT 1"));
        assert!((all, one) > (1, 0), "{sql}: {all} rows, {one} with LIMIT 1");
        assert!(unlimited.pages_read() > 0, "{sql} read no page");
        let counters = |w: &trace::meter::MeterSnapshot| {
            (w.db_tuples(), w.seq_page_reads(), w.rand_page_reads(), w.index_node_reads())
        };
        assert_eq!(counters(&limited), counters(&unlimited), "{sql}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn operators_agree_across_batch_boundaries(
        (n, m) in (0usize..4, 0usize..4),
        (limit, seed) in (0usize..3, any::<u64>()),
    ) {
        run_case(SIZES[n], SIZES[m], BATCH_ROWS - 1 + limit, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The same at 1 000 cases (`cargo test --release -p rdbms --test
    /// batch_props -- --ignored`).
    #[test]
    #[ignore]
    fn operators_agree_across_batch_boundaries_long(
        (n, m) in (0usize..4, 0usize..4),
        (limit, seed) in (0usize..3, any::<u64>()),
    ) {
        run_case(SIZES[n], SIZES[m], BATCH_ROWS - 1 + limit, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recycled_rows_never_leak_a_stale_value(
        (n, m) in (0usize..4, 0usize..4),
        limit in 0usize..2 * BATCH_ROWS + 3,
    ) {
        run_recycling_case(SIZES[n], SIZES[m], limit);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The same at 200 cases (`cargo test --release -p rdbms --test
    /// batch_props -- --ignored`).
    #[test]
    #[ignore]
    fn recycled_rows_never_leak_a_stale_value_long(
        (n, m) in (0usize..4, 0usize..4),
        limit in 0usize..2 * BATCH_ROWS + 3,
    ) {
        run_recycling_case(SIZES[n], SIZES[m], limit);
    }
}
