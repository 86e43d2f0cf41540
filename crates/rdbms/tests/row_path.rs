//! Differential tests for the copy-free row path: every shortcut the
//! executor takes between page bytes and result rows is checked against
//! the long way round.
//!
//! * masked decode + filter == full decode + filter (random rows and
//!   predicates: NULLs, trailing blanks, all six value tags; truncated
//!   input errors under every mask);
//! * a join predicate evaluated over the (left, right) pair == the same
//!   predicate over the concatenated row, and whole joins (Inner and
//!   LeftOuter, NULL keys, nested-loop and hash) == a model that builds
//!   every combined row;
//! * a column-pruned plan returns exactly what the same plan returns with
//!   every scan decoding all columns (`Planner::keep_all_columns`), for
//!   correlated subqueries at two depths, `SELECT *`, derived tables,
//!   DISTINCT, outer joins; and `UPDATE ... WHERE` writes back full rows;
//! * the in-place LIKE matcher == the textbook recursive one.
//!
//! The 17 TPC-D queries and UF1/UF2 run through the same pruned-vs-all
//! comparison in `crates/tpcd/tests/pruned_plans.rs` (the queries live in
//! that crate).

use proptest::prelude::*;
use rdbms::exec::expr::{like_match, BExpr, BoundSubquery, ExecCtx, SubqueryKind};
use rdbms::exec::plan::Plan;
use rdbms::planner::{prune_columns, PlannerConfig};
use rdbms::sql::ast::{BinOp, JoinKind, Statement};
use rdbms::sql::parse_statement;
use rdbms::storage::codec::{decode_columns, decode_row, encode_row};
use rdbms::types::{Date, Decimal, Value};
use rdbms::{CostMeter, Database, Row};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Generators (a tiny deterministic RNG: the proptest shim has no recursive
// strategies, so expression trees are grown from a drawn seed)
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Column types of the generated rows, by position (then repeating).
const TYPES: usize = 6;

fn value_of_type(ty: usize, rng: &mut Rng) -> Value {
    if rng.below(5) == 0 {
        return Value::Null;
    }
    const WORDS: [&str; 5] = ["", "a", "ab", "green", "BRASS"];
    match ty % TYPES {
        0 => Value::Int(rng.below(7) as i64 - 3),
        1 => Value::Decimal(Decimal::new(rng.below(700) as i128 - 350, (rng.below(3)) as u8)),
        2 | 5 => {
            let mut s = WORDS[rng.below(WORDS.len() as u64) as usize].to_string();
            s.push_str(&" ".repeat(rng.below(3) as usize)); // CHAR padding
            Value::Str(s)
        }
        3 => Value::Date(Date::from_days(9000 + rng.below(5) as i32)),
        _ => Value::Bool(rng.below(2) == 0),
    }
}

fn row_of(width: usize, rng: &mut Rng) -> Row {
    (0..width).map(|i| value_of_type(i, rng)).collect()
}

/// A random predicate over `width` typed columns. Operands mostly agree in
/// type; now and then they do not, so the error path is compared too.
fn predicate(width: usize, depth: u32, rng: &mut Rng) -> BExpr {
    let col = |rng: &mut Rng| rng.below(width as u64) as usize;
    let operand = |c: usize, rng: &mut Rng| -> BExpr {
        match rng.below(8) {
            0 => BExpr::Column(col(rng)), // another column, maybe of another type
            1 => BExpr::Literal(value_of_type(c + 1, rng)),
            _ => BExpr::Literal(value_of_type(c, rng)),
        }
    };
    if depth > 0 && rng.below(3) > 0 {
        let left = predicate(width, depth - 1, rng).boxed();
        return match rng.below(3) {
            0 => BExpr::Not(left),
            1 => BExpr::Binary {
                left,
                op: BinOp::And,
                right: predicate(width, depth - 1, rng).boxed(),
            },
            _ => BExpr::Binary {
                left,
                op: BinOp::Or,
                right: predicate(width, depth - 1, rng).boxed(),
            },
        };
    }
    let c = col(rng);
    match rng.below(6) {
        0 => BExpr::IsNull { expr: BExpr::Column(c).boxed(), negated: rng.below(2) == 0 },
        1 => BExpr::Between {
            expr: BExpr::Column(c).boxed(),
            low: operand(c, rng).boxed(),
            high: operand(c, rng).boxed(),
            negated: rng.below(2) == 0,
        },
        2 => BExpr::InList {
            expr: BExpr::Column(c).boxed(),
            list: (0..1 + rng.below(3)).map(|_| operand(c, rng)).collect(),
            negated: rng.below(2) == 0,
        },
        3 => BExpr::Like {
            expr: BExpr::Column((2 + 3 * rng.below(2) as usize) % width).boxed(),
            pattern: BExpr::Literal(Value::str(
                ["%", "a%", "%e%", "_b", "gr__n", "BRASS"][rng.below(6) as usize],
            ))
            .boxed(),
            negated: rng.below(2) == 0,
        },
        _ => {
            let ops = [BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq];
            BExpr::Binary {
                left: BExpr::Column(c).boxed(),
                op: ops[rng.below(6) as usize],
                right: operand(c, rng).boxed(),
            }
        }
    }
}

/// Rows compared position by position, variant by variant (`Value`'s own
/// `==` equates `Int(3)` with `Decimal(3.0)` and blank-padded strings).
fn assert_same_rows(got: &[Row], want: &[Row], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(format!("{g:?}"), format!("{w:?}"), "row {i} of {what}");
    }
    assert_eq!(got.len(), want.len(), "row count of {what}");
}

// ---------------------------------------------------------------------------
// Codec + filter
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn masked_decode_then_filter_equals_full_decode_then_filter(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let width = 1 + rng.below(9) as usize;
        let stored = row_of(width, &mut rng);
        let bytes = encode_row(&stored);
        let pred = predicate(width, 2, &mut rng);
        // What the plan above the scan reads, besides the filter.
        let above: Vec<bool> = (0..width).map(|_| rng.below(2) == 0).collect();

        let meter = CostMeter::default();
        let ctx = ExecCtx::new(&[], &meter);

        // The long way: decode everything, then filter.
        let full = decode_row(&bytes).unwrap();
        let expected = pred.eval_bool(&full, &ctx);

        // The scan's way: keep what the filter or the plan above reads,
        // decode what the filter reads into a row left over from another
        // tuple, filter with the predicate rebound to the kept columns, and
        // decode the rest of them only for a survivor.
        let mut first = vec![false; width];
        pred.mark_columns(&mut first);
        let keep: Vec<bool> = above.iter().zip(&first).map(|(a, f)| *a || *f).collect();
        let mut kept = 0;
        let map: Vec<Option<usize>> = keep
            .iter()
            .map(|&k| {
                kept += usize::from(k);
                k.then_some(kept - 1)
            })
            .collect();
        let mut compact_pred = pred.clone();
        compact_pred.rebind(0, &map).unwrap();
        let mut row = row_of(1 + rng.below(9) as usize, &mut rng);
        decode_columns(&bytes, &keep, &first, &mut row).unwrap();
        prop_assert_eq!(row.len(), kept);
        let got = compact_pred.eval_bool(&row, &ctx);
        prop_assert_eq!(format!("{got:?}"), format!("{expected:?}"), "pred {:?} on {:?}", pred, full);

        if let Ok(Some(true)) = got {
            let rest: Vec<bool> = above.iter().zip(&first).map(|(a, f)| *a && !*f).collect();
            decode_columns(&bytes, &keep, &rest, &mut row).unwrap();
            let want: Vec<&Value> = (0..width).filter(|&i| keep[i]).map(|i| &full[i]).collect();
            prop_assert_eq!(format!("{row:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn truncated_rows_error_under_every_mask(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let width = 1 + rng.below(9) as usize;
        let bytes = encode_row(&row_of(width, &mut rng));
        let mask: Vec<bool> = (0..width).map(|_| rng.below(2) == 0).collect();
        let cut = rng.below(bytes.len() as u64) as usize;
        let mut row = Row::new();
        prop_assert!(decode_row(&bytes[..cut]).is_err());
        prop_assert!(decode_columns(&bytes[..cut], &mask, &[], &mut row).is_err());
        prop_assert!(decode_columns(&bytes[..cut], &[], &mask, &mut row).is_err());
        prop_assert!(decode_columns(&bytes[..cut], &vec![false; width], &[], &mut row).is_err());
    }

    // -----------------------------------------------------------------------
    // Pair evaluation
    // -----------------------------------------------------------------------

    #[test]
    fn pair_evaluation_equals_combined_row_evaluation(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (lw, rw) = (rng.below(5) as usize, rng.below(5) as usize);
        if lw + rw == 0 {
            return;
        }
        let combined = row_of(lw + rw, &mut rng);
        let (left, right) = combined.split_at(lw);
        let pred = predicate(lw + rw, 2, &mut rng);
        let meter = CostMeter::default();
        let ctx = ExecCtx::new(&[], &meter);
        let pair = pred.eval_bool_pair(left, right, &ctx);
        let whole = pred.eval_bool(&combined, &ctx);
        prop_assert_eq!(format!("{pair:?}"), format!("{whole:?}"));
    }

    // -----------------------------------------------------------------------
    // LIKE
    // -----------------------------------------------------------------------

    #[test]
    fn like_matches_like_the_recursive_definition(s in "[ab%_ ]{0,8}", p in "[ab%_ ]{0,7}") {
        fn rec(s: &[char], p: &[char]) -> bool {
            match p.split_first() {
                None => s.is_empty(),
                Some(('%', rest)) => (0..=s.len()).any(|i| rec(&s[i..], rest)),
                Some((c, rest)) => s.split_first().is_some_and(|(d, tail)| {
                    (*c == '_' || c == d) && rec(tail, rest)
                }),
            }
        }
        let sc: Vec<char> = s.chars().collect();
        let pc: Vec<char> = p.trim_end().chars().collect();
        prop_assert_eq!(like_match(&s, &p), rec(&sc, &pc), "{:?} LIKE {:?}", s, p);
    }
}

#[test]
fn like_handles_multibyte_characters() {
    assert!(like_match("größe", "gr__e"));
    assert!(like_match("größe", "%ß%"));
    assert!(!like_match("größe", "gr_e"));
}

// ---------------------------------------------------------------------------
// Whole joins against a model that builds every combined row
// ---------------------------------------------------------------------------

fn rows_of(db: &Database, sql: &str) -> Vec<Row> {
    db.execute(sql).unwrap().rows().unwrap().rows
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(a.len().cmp(&b.len()))
    });
    rows
}

#[test]
fn joins_match_the_combined_row_model() {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE l (k INTEGER, a INTEGER, tag CHAR(8))").unwrap();
    db.execute("CREATE TABLE r (k INTEGER, b INTEGER, note VARCHAR(10))").unwrap();
    let mut rng = Rng(7);
    let lit = |v: &Value| match v {
        Value::Null => "NULL".to_string(),
        Value::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    };
    for (table, n) in [("l", 40), ("r", 30)] {
        for _ in 0..n {
            // Few distinct keys, one in five NULL: every left row meets
            // several right rows, some meet none, NULL keys meet nothing.
            let row = [
                value_of_type(0, &mut rng),
                value_of_type(0, &mut rng),
                value_of_type(2, &mut rng),
            ];
            db.execute(&format!(
                "INSERT INTO {table} VALUES ({}, {}, {})",
                lit(&row[0]),
                lit(&row[1]),
                lit(&row[2])
            ))
            .unwrap();
        }
    }
    let left = rows_of(&db, "SELECT * FROM l");
    let right = rows_of(&db, "SELECT * FROM r");

    // ON l.k = r.k AND l.a <= r.b, bound over the combined row by hand.
    let on = BExpr::Binary {
        left: BExpr::Binary {
            left: BExpr::Column(0).boxed(),
            op: BinOp::Eq,
            right: BExpr::Column(3).boxed(),
        }
        .boxed(),
        op: BinOp::And,
        right: BExpr::Binary {
            left: BExpr::Column(1).boxed(),
            op: BinOp::LtEq,
            right: BExpr::Column(4).boxed(),
        }
        .boxed(),
    };
    let meter = CostMeter::default();
    let ctx = ExecCtx::new(&[], &meter);
    let model = |outer: bool| -> Vec<Row> {
        let mut out = Vec::new();
        for l in &left {
            let mut matched = false;
            for r in &right {
                let combined: Row = l.iter().chain(r).cloned().collect();
                if on.eval_bool(&combined, &ctx).unwrap() == Some(true) {
                    matched = true;
                    out.push(combined);
                }
            }
            if outer && !matched {
                out.push(l.iter().cloned().chain(std::iter::repeat_n(Value::Null, 3)).collect());
            }
        }
        sorted(out)
    };

    for hash in [true, false] {
        db.set_planner_config(PlannerConfig { enable_hash_join: hash, ..db.planner_config() });
        for (sql, outer) in [
            ("SELECT l.k, l.a, l.tag, r.k, r.b, r.note FROM l JOIN r ON l.k = r.k AND l.a <= r.b", false),
            (
                "SELECT l.k, l.a, l.tag, r.k, r.b, r.note FROM l LEFT OUTER JOIN r \
                 ON l.k = r.k AND l.a <= r.b",
                true,
            ),
            // The implicit form goes through the join-ordering path.
            ("SELECT l.k, l.a, l.tag, r.k, r.b, r.note FROM l, r WHERE l.k = r.k AND l.a <= r.b", false),
        ] {
            let plan = db.prepare(sql).unwrap().plan_description;
            assert_eq!(plan.contains("HashJoin"), hash, "{sql}: {plan}");
            let before = db.snapshot();
            let got = sorted(rows_of(&db, sql));
            // The switch's simulated work: both scans, then each row built
            // or probed once, or each of the 40 x 30 pairs tested once.
            let tuples = db.snapshot().since(&before).db_tuples();
            assert_eq!(tuples, 40 + 30 + if hash { 40 + 30 } else { 40 * 30 }, "{sql}");
            let want = model(outer);
            assert!(want.len() > 5, "the model must produce matches to compare");
            assert_same_rows(&got, &want, &format!("hash={hash} {sql}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Pruned plans against the same plans with every scan decoding everything
// ---------------------------------------------------------------------------

fn plan_both_ways(db: &Database, sql: &str) -> (Plan, Plan) {
    let Statement::Select(q) = parse_statement(sql).unwrap() else { panic!("not a SELECT: {sql}") };
    let pruned = db.planner().plan_query(&q).unwrap();
    let all = db.planner().keep_all_columns().plan_query(&q).unwrap();
    assert_eq!(
        pruned.plan.describe(),
        all.plan.describe(),
        "pruning must not change the plan shape"
    );
    (pruned.plan, all.plan)
}

/// Number of stored columns the scans of the top-level tree leave out, so
/// a test can tell that pruning happened at all. On the way it checks that
/// every scan's rows are as wide as its `needed` has `true`s (each scan
/// that can run on its own, without an enclosing row, is executed), and
/// that every join's `right_width` is its right input's width.
fn skipped_columns(plan: &Plan, ctx: &ExecCtx) -> usize {
    match plan {
        Plan::SeqScan { needed, .. } | Plan::IndexScan { needed, .. } => {
            let width = needed.iter().filter(|n| **n).count();
            assert_eq!(plan.width(), width);
            if let Ok(rows) = plan.execute(ctx) {
                for row in rows {
                    assert_eq!(row.len(), width, "a row of {}", plan.describe());
                }
            }
            needed.len() - width
        }
        Plan::Values { .. } | Plan::MonitorScan { .. } => 0,
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Distinct { input }
        | Plan::Limit { input, .. } => skipped_columns(input, ctx),
        Plan::NLJoin { left, right, right_width, .. }
        | Plan::HashJoin { left, right, right_width, .. } => {
            assert_eq!(*right_width, right.width(), "{}", plan.describe());
            skipped_columns(left, ctx) + skipped_columns(right, ctx)
        }
    }
}

fn assert_pruned_equals_all(db: &Database, sql: &str, expect_pruning: bool) {
    assert_pruned_equals_all_bound(db, sql, &[], expect_pruning)
}

fn assert_pruned_equals_all_bound(
    db: &Database,
    sql: &str,
    params: &[Value],
    expect_pruning: bool,
) {
    let (pruned, all) = plan_both_ways(db, sql);
    let ctx = ExecCtx::new(params, db.meter());
    let got = pruned.execute(&ctx).unwrap();
    let ctx = ExecCtx::new(params, db.meter());
    let want = all.execute(&ctx).unwrap();
    assert!(!want.is_empty(), "vacuous comparison: {sql}");
    assert_same_rows(&got, &want, sql);
    let ctx = ExecCtx::new(params, db.meter());
    assert_eq!(skipped_columns(&all, &ctx), 0);
    assert_eq!(skipped_columns(&pruned, &ctx) > 0, expect_pruning, "{sql}\n{}", pruned.describe());
}

fn orders_db() -> Database {
    let db = Database::with_defaults();
    db.execute(
        "CREATE TABLE cust (c_id INTEGER NOT NULL, c_name VARCHAR(20), c_nation CHAR(8), \
         c_bal DECIMAL(12,2), c_note VARCHAR(40), PRIMARY KEY (c_id))",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE ord (o_id INTEGER NOT NULL, o_cust INTEGER, o_total DECIMAL(12,2), \
         o_date DATE, o_prio CHAR(6), o_clerk VARCHAR(12), o_note VARCHAR(40), PRIMARY KEY (o_id))",
    )
    .unwrap();
    db.execute("CREATE INDEX ord_cust ON ord (o_cust)").unwrap();
    for c in 0..12 {
        db.execute(&format!(
            "INSERT INTO cust VALUES ({c}, 'name{c}', '{}', {}.50, {})",
            ["PERU", "CHINA", "FRANCE"][c % 3],
            c * 100,
            if c % 4 == 0 { "NULL".to_string() } else { format!("'note {c}'") },
        ))
        .unwrap();
    }
    for o in 0..600 {
        db.execute(&format!(
            "INSERT INTO ord VALUES ({o}, {}, {}.25, DATE '1995-0{}-1{}', '{}', 'clerk{}', {})",
            if o % 13 == 0 { "NULL".to_string() } else { (o % 10).to_string() },
            o * 7 % 50,
            1 + o % 9,
            o % 9,
            ["HIGH", "LOW"][o % 2],
            o % 4,
            if o % 5 == 0 { "NULL".to_string() } else { format!("'about order {o}'") },
        ))
        .unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db
}

#[test]
fn pruned_plans_return_what_unpruned_plans_return() {
    let db = orders_db();
    for hash in [true, false] {
        db.set_planner_config(PlannerConfig { enable_hash_join: hash, ..db.planner_config() });
        // Plain projection of a few columns; filter on another.
        assert_pruned_equals_all(
            &db,
            "SELECT o_id, o_total FROM ord WHERE o_prio = 'HIGH' ORDER BY o_id",
            true,
        );
        // SELECT * needs everything: nothing may be skipped.
        assert_pruned_equals_all(&db, "SELECT * FROM ord WHERE o_total > 10", false);
        assert_pruned_equals_all(
            &db,
            "SELECT * FROM cust, ord WHERE c_id = o_cust AND c_nation = 'PERU'",
            false,
        );
        // Qualified wildcard: one side whole, the other pruned to its key.
        assert_pruned_equals_all(
            &db,
            "SELECT cust.* FROM cust, ord WHERE c_id = o_cust AND o_prio = 'LOW'",
            true,
        );
        // Join + aggregate.
        assert_pruned_equals_all(
            &db,
            "SELECT c_nation, COUNT(*), SUM(o_total) FROM cust, ord WHERE c_id = o_cust \
             GROUP BY c_nation ORDER BY c_nation",
            true,
        );
        // COUNT(*) alone reads no column at all.
        assert_pruned_equals_all(&db, "SELECT COUNT(*) FROM ord", true);
        // Correlated scalar subquery: the outer scan must keep the columns
        // the inner plan reaches back for (c_id), and only those.
        assert_pruned_equals_all(
            &db,
            "SELECT c_name FROM cust WHERE c_bal < (SELECT SUM(o_total) FROM ord WHERE o_cust = c_id) \
             ORDER BY c_name",
            true,
        );
        // Correlated EXISTS over SELECT *: no inner column is needed.
        assert_pruned_equals_all(
            &db,
            "SELECT c_id FROM cust WHERE EXISTS (SELECT * FROM ord WHERE o_cust = c_id AND o_prio = 'HIGH') \
             ORDER BY c_id",
            true,
        );
        // Two levels: the innermost query reads a column of the outermost row.
        assert_pruned_equals_all(
            &db,
            "SELECT c_id, c_name FROM cust WHERE c_id IN \
               (SELECT o_cust FROM ord o1 WHERE o1.o_total > \
                  (SELECT AVG(o2.o_total) FROM ord o2 WHERE o2.o_cust = c_id AND o2.o_prio = o1.o_prio)) \
             ORDER BY c_id",
            true,
        );
        // Subquery in the select list.
        assert_pruned_equals_all(
            &db,
            "SELECT c_id, (SELECT MAX(o_date) FROM ord WHERE o_cust = c_id) FROM cust ORDER BY c_id",
            true,
        );
        // Derived table of which the outer query reads one column.
        assert_pruned_equals_all(
            &db,
            "SELECT t.o_id FROM (SELECT o_id, o_note, o_clerk FROM ord WHERE o_total > 5) AS t ORDER BY t.o_id",
            true,
        );
        // DISTINCT compares whole (projected) rows.
        assert_pruned_equals_all(
            &db,
            "SELECT DISTINCT o_prio, o_clerk FROM ord ORDER BY o_prio, o_clerk",
            true,
        );
        // Outer join: the NULL-extended side and NULL keys.
        assert_pruned_equals_all(
            &db,
            "SELECT c_id, o_id FROM cust LEFT OUTER JOIN ord ON c_id = o_cust AND o_total > 40 ORDER BY c_id, o_id",
            true,
        );
        // HAVING + ORDER BY on an aggregate.
        assert_pruned_equals_all(
            &db,
            "SELECT o_cust, COUNT(*) AS n FROM ord GROUP BY o_cust HAVING COUNT(*) > 2 ORDER BY n DESC, o_cust",
            true,
        );
    }
}

#[test]
fn index_scans_are_pruned_too() {
    let db = orders_db();
    // A bound the optimizer cannot see makes it take the index (§4.1).
    let sql = "SELECT o_total FROM ord WHERE o_id BETWEEN ? AND ? AND o_prio = 'LOW'";
    let (pruned, _) = plan_both_ways(&db, sql);
    assert!(pruned.describe().contains("IndexScan"), "{}", pruned.describe());
    assert_pruned_equals_all_bound(&db, sql, &[Value::Int(10), Value::Int(40)], true);
}

#[test]
fn update_where_writes_back_full_rows() {
    let db = orders_db();
    let before = rows_of(&db, "SELECT * FROM ord ORDER BY o_id");
    // A scan-located update (o_prio has no index) whose filter reads two
    // columns and whose correlated subquery reads a third.
    let n = db
        .execute(
            "UPDATE ord SET o_total = o_total + 1 WHERE o_prio = 'HIGH' AND o_date < DATE '1995-06-01' \
             AND EXISTS (SELECT * FROM cust WHERE c_id = o_cust AND c_nation = 'PERU')",
        )
        .unwrap()
        .count()
        .unwrap();
    assert!(n > 0, "the update must touch rows");
    let after = rows_of(&db, "SELECT * FROM ord ORDER BY o_id");
    assert_eq!(before.len(), after.len());
    let mut changed = 0;
    for (b, a) in before.iter().zip(&after) {
        for (i, (x, y)) in b.iter().zip(a).enumerate() {
            if i == 2 && x != y {
                changed += 1;
                let plus_one = rdbms::exec::expr::arith(x, BinOp::Add, &Value::Int(1)).unwrap();
                assert_eq!(
                    format!("{y:?}"),
                    format!(
                        "{:?}",
                        plus_one
                            .coerce_to(&rdbms::DataType::Decimal { precision: 12, scale: 2 })
                            .unwrap()
                    )
                );
            } else {
                assert_eq!(
                    format!("{x:?}"),
                    format!("{y:?}"),
                    "column {i} of order {:?} must be untouched",
                    b[0]
                );
            }
        }
    }
    assert_eq!(changed, n as usize);
    // And the index still finds every row by its (unchanged) key.
    for o in [0, 17, 599] {
        assert_eq!(rows_of(&db, &format!("SELECT o_id FROM ord WHERE o_id = {o}")).len(), 1);
    }
}

/// Every way the needed-column pass rebinds a reference, against the same
/// plans with every scan decoding all columns.
#[test]
fn every_rebinding_case_returns_what_unpruned_plans_return() {
    let db = orders_db();
    for hash in [true, false] {
        db.set_planner_config(PlannerConfig { enable_hash_join: hash, ..db.planner_config() });
        // A correlated subquery two levels deep above a join: only the
        // innermost level reads `o_clerk` of the joined row, and `c_nation`
        // sits past columns of `cust` the plan drops.
        let sql = "SELECT c_id, o_id FROM cust, ord WHERE c_id = o_cust AND o_total >= \
                     (SELECT MIN(o1.o_total) FROM ord o1 WHERE o1.o_cust = c_id AND o1.o_id IN \
                        (SELECT o2.o_id FROM ord o2 WHERE o2.o_clerk = ord.o_clerk \
                           AND o2.o_prio <> c_nation)) \
                   ORDER BY c_id, o_id";
        let (pruned, _) = plan_both_ways(&db, sql);
        let join = if hash { "HashJoin" } else { "NLJoin" };
        assert!(pruned.describe().contains(join), "{}", pruned.describe());
        assert_pruned_equals_all(&db, sql, true);
        // A LEFT OUTER JOIN whose right side needs no column: unmatched
        // rows are NULL-extended to the right side's new width, zero.
        let sql = "SELECT c_id, c_name FROM cust LEFT OUTER JOIN ord ON c_bal > 800 \
                   ORDER BY c_id, c_name";
        let (pruned, _) = plan_both_ways(&db, sql);
        let right_width = |plan: &Plan| -> Option<usize> {
            let mut plan = plan;
            loop {
                match plan {
                    Plan::NLJoin { right_width, .. } | Plan::HashJoin { right_width, .. } => {
                        return Some(*right_width)
                    }
                    Plan::Filter { input, .. }
                    | Plan::Project { input, .. }
                    | Plan::Sort { input, .. }
                    | Plan::Aggregate { input, .. }
                    | Plan::Distinct { input }
                    | Plan::Limit { input, .. } => plan = input,
                    _ => return None,
                }
            }
        };
        assert_eq!(right_width(&pruned), Some(0), "{}", pruned.describe());
        assert_pruned_equals_all(&db, sql, true);
        // An unread `Project` output that holds a subquery still runs it,
        // with its correlation value; an unread one that does not is
        // computed over a NULL literal.
        assert_pruned_equals_all(
            &db,
            "SELECT t.c_id FROM (SELECT c_id, c_bal * 2 AS b2, \
                (SELECT COUNT(*) FROM ord WHERE o_cust = c_id AND o_prio <> c_nation) AS n \
              FROM cust) AS t ORDER BY t.c_id",
            true,
        );
        // The left operand of an IN subquery moves with its row (`o_cust`
        // from 1 to 0), inside a filter that holds the subquery.
        assert_pruned_equals_all(
            &db,
            "SELECT o_total, o_date FROM ord WHERE o_cust IN \
               (SELECT c_id FROM cust WHERE c_nation = 'PERU') ORDER BY o_total, o_date",
            true,
        );
        // DISTINCT over a join.
        assert_pruned_equals_all(
            &db,
            "SELECT DISTINCT c_nation, o_prio FROM cust, ord WHERE c_id = o_cust \
             ORDER BY c_nation, o_prio",
            true,
        );
        // SELECT * over a join, inner and outer.
        assert_pruned_equals_all(&db, "SELECT * FROM cust, ord WHERE c_id = o_cust", false);
        assert_pruned_equals_all(
            &db,
            "SELECT * FROM cust LEFT OUTER JOIN ord ON c_id = o_cust AND o_total > 40",
            false,
        );
    }
}

/// A correlated nested-loop join inner reads the left row through `Outer`
/// references, which move with the left row's columns. The planner builds
/// no such join from SQL, so the plan is built by hand and the pass run on
/// it directly.
#[test]
fn a_correlated_join_inner_is_rebound_with_the_left_row() {
    let db = orders_db();
    let col = |i: usize| BExpr::Column(i).boxed();
    let outer = |index: usize| BExpr::Outer { depth: 1, index }.boxed();
    let plan = || {
        let table = |name: &str| db.catalog().table(name).unwrap();
        // cust: c_id, c_name, c_nation, c_bal, c_note;
        // ord: o_id, o_cust, o_total, o_date, o_prio, o_clerk, o_note.
        let left = Plan::SeqScan { table: table("CUST"), filter: None, needed: vec![true; 5] };
        let filter = BExpr::Binary {
            left: BExpr::Binary { left: col(1), op: BinOp::Eq, right: outer(0) }.boxed(),
            op: BinOp::And,
            right: BExpr::Binary { left: col(2), op: BinOp::Gt, right: outer(3) }.boxed(),
        };
        let right =
            Plan::SeqScan { table: table("ORD"), filter: Some(filter), needed: vec![true; 7] };
        let join = Plan::NLJoin {
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::LeftOuter,
            on: None,
            right_correlated: true,
            right_width: 7,
        };
        // c_nation, o_total, o_date
        Plan::Project {
            input: Box::new(join),
            exprs: vec![BExpr::Column(2), BExpr::Column(7), BExpr::Column(8)],
        }
    };
    let all = plan();
    let mut pruned = plan();
    prune_columns(&mut pruned, vec![true; 3]).unwrap();
    let Plan::Project { input, .. } = &pruned else { unreachable!() };
    let Plan::NLJoin { left, right_width, .. } = input.as_ref() else { unreachable!() };
    // c_id, c_nation and c_bal on the left; c_bal moved from 3 to 2.
    assert_eq!((left.width(), *right_width), (3, 3));
    let ctx = ExecCtx::new(&[], db.meter());
    let got = pruned.execute(&ctx).unwrap();
    let want = all.execute(&ExecCtx::new(&[], db.meter())).unwrap();
    assert!(want.iter().any(|r| r[1].is_null()) && want.iter().any(|r| !r[1].is_null()));
    assert_same_rows(&got, &want, "correlated NLJoin LeftOuter");
    assert!(skipped_columns(&pruned, &ctx) > 0);
}

/// The pass rewrites subquery plans in place, so one plan shared by two
/// expressions would be rebound twice; planning fails instead.
#[test]
fn a_shared_subquery_plan_fails_the_pass() {
    let db = orders_db();
    let table = |name: &str| db.catalog().table(name).unwrap();
    // (SELECT o_total FROM ord WHERE o_id = c_bal), twice over cust.
    let filter = BExpr::Binary {
        left: BExpr::Column(0).boxed(),
        op: BinOp::Eq,
        right: BExpr::Outer { depth: 1, index: 3 }.boxed(),
    };
    let sub = Plan::Project {
        input: Box::new(Plan::SeqScan {
            table: table("ORD"),
            filter: Some(filter),
            needed: vec![true; 7],
        }),
        exprs: vec![BExpr::Column(2)],
    };
    let sq = Arc::new(BoundSubquery {
        plan: sub,
        kind: SubqueryKind::Scalar,
        correlated: true,
        cache_id: 0,
    });
    let mut plan = Plan::Project {
        input: Box::new(Plan::SeqScan {
            table: table("CUST"),
            filter: None,
            needed: vec![true; 5],
        }),
        exprs: vec![BExpr::Subquery(Arc::clone(&sq)), BExpr::Subquery(sq)],
    };
    let err = prune_columns(&mut plan, vec![true; 2]).unwrap_err();
    assert!(err.to_string().contains("shared"), "{err}");
}
