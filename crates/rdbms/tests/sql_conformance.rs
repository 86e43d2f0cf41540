//! SQL conformance suite: many small, targeted behaviours of the engine,
//! each with a hand-computed expected answer.

use rdbms::types::Value;
use rdbms::{Database, DbError, ExecOutcome};

fn db() -> Database {
    Database::with_defaults()
}

fn setup(db: &Database) {
    db.execute(
        "CREATE TABLE emp (id INTEGER NOT NULL, dept VARCHAR(10), salary DECIMAL(10,2), \
         hired DATE, boss INTEGER, PRIMARY KEY (id))",
    )
    .unwrap();
    for (id, dept, salary, hired, boss) in [
        (1, "'ENG'", "1000.00", "DATE '1990-01-15'", "NULL"),
        (2, "'ENG'", "800.00", "DATE '1991-06-01'", "1"),
        (3, "'SALES'", "900.50", "DATE '1992-03-10'", "1"),
        (4, "'SALES'", "700.00", "DATE '1993-11-30'", "3"),
        (5, "NULL", "600.00", "DATE '1994-07-04'", "3"),
    ] {
        db.execute(&format!("INSERT INTO emp VALUES ({id}, {dept}, {salary}, {hired}, {boss})"))
            .unwrap();
    }
    db.execute("ANALYZE emp").unwrap();
}

fn ints(db: &Database, sql: &str) -> Vec<i64> {
    db.query(sql).unwrap().rows.iter().map(|r| r[0].as_int().unwrap()).collect()
}

#[test]
fn where_null_comparisons_filter_out() {
    let d = db();
    setup(&d);
    // dept = 'ENG' excludes the NULL-dept row; so does dept <> 'ENG'.
    assert_eq!(ints(&d, "SELECT id FROM emp WHERE dept = 'ENG' ORDER BY id"), vec![1, 2]);
    assert_eq!(ints(&d, "SELECT id FROM emp WHERE dept <> 'ENG' ORDER BY id"), vec![3, 4]);
    assert_eq!(ints(&d, "SELECT id FROM emp WHERE dept IS NULL"), vec![5]);
    assert_eq!(ints(&d, "SELECT id FROM emp WHERE dept IS NOT NULL ORDER BY id"), vec![1, 2, 3, 4]);
}

#[test]
fn group_by_groups_nulls_together() {
    let d = db();
    setup(&d);
    let r = d.query("SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept").unwrap();
    assert_eq!(r.rows.len(), 3, "ENG, SALES, and the NULL group");
    // NULLs sort first under total order.
    assert!(r.rows[0][0].is_null());
    assert_eq!(r.rows[0][1], Value::Int(1));
}

#[test]
fn count_ignores_nulls_count_star_does_not() {
    let d = db();
    setup(&d);
    let r = d.query("SELECT COUNT(*), COUNT(dept), COUNT(boss) FROM emp").unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(5), Value::Int(4), Value::Int(4)]);
}

#[test]
fn avg_and_sum_skip_nulls() {
    let d = db();
    setup(&d);
    let r = d.query("SELECT AVG(boss), SUM(boss) FROM emp").unwrap();
    // bosses: 1, 1, 3, 3 -> sum 8, avg 2
    assert_eq!(r.rows[0][1], Value::Int(8));
    assert_eq!(r.rows[0][0].as_decimal().unwrap().to_f64(), 2.0);
}

#[test]
fn min_max_on_strings_and_dates() {
    let d = db();
    setup(&d);
    let r = d.query("SELECT MIN(dept), MAX(dept), MIN(hired), MAX(hired) FROM emp").unwrap();
    assert_eq!(r.rows[0][0], Value::str("ENG"));
    assert_eq!(r.rows[0][1], Value::str("SALES"));
    assert_eq!(r.rows[0][2], Value::date(1990, 1, 15));
    assert_eq!(r.rows[0][3], Value::date(1994, 7, 4));
}

#[test]
fn having_filters_on_aggregates() {
    let d = db();
    setup(&d);
    let r = d
        .query(
            "SELECT dept, SUM(salary) FROM emp WHERE dept IS NOT NULL \
             GROUP BY dept HAVING SUM(salary) > 1700 ORDER BY dept",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::str("ENG"));
}

#[test]
fn between_and_not_between() {
    let d = db();
    setup(&d);
    assert_eq!(
        ints(&d, "SELECT id FROM emp WHERE salary BETWEEN 700 AND 900 ORDER BY id"),
        vec![2, 4]
    );
    assert_eq!(
        ints(&d, "SELECT id FROM emp WHERE salary NOT BETWEEN 700 AND 900 ORDER BY id"),
        vec![1, 3, 5]
    );
}

#[test]
fn in_list_and_like() {
    let d = db();
    setup(&d);
    assert_eq!(ints(&d, "SELECT id FROM emp WHERE id IN (2, 4, 99) ORDER BY id"), vec![2, 4]);
    assert_eq!(ints(&d, "SELECT id FROM emp WHERE dept LIKE 'S%' ORDER BY id"), vec![3, 4]);
    assert_eq!(
        ints(&d, "SELECT id FROM emp WHERE dept NOT LIKE 'S%' ORDER BY id"),
        vec![1, 2],
        "NOT LIKE on NULL dept is UNKNOWN, row filtered"
    );
}

#[test]
fn case_without_else_yields_null() {
    let d = db();
    setup(&d);
    let r = d.query("SELECT SUM(CASE WHEN dept = 'ENG' THEN salary END) FROM emp").unwrap();
    assert_eq!(r.rows[0][0].as_decimal().unwrap().to_f64(), 1800.0);
}

#[test]
fn self_join() {
    let d = db();
    setup(&d);
    let r = d
        .query(
            "SELECT e.id, b.id FROM emp e, emp b \
             WHERE e.boss = b.id ORDER BY e.id",
        )
        .unwrap();
    let pairs: Vec<(i64, i64)> =
        r.rows.iter().map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap())).collect();
    assert_eq!(pairs, vec![(2, 1), (3, 1), (4, 3), (5, 3)]);
}

#[test]
fn correlated_subquery_salary_above_dept_average() {
    let d = db();
    setup(&d);
    let r = ints(
        &d,
        "SELECT id FROM emp e WHERE salary > \
         (SELECT AVG(salary) FROM emp i WHERE i.dept = e.dept) ORDER BY id",
    );
    // ENG avg 900 -> id 1; SALES avg 800.25 -> id 3. NULL dept never matches.
    assert_eq!(r, vec![1, 3]);
}

#[test]
fn scalar_subquery_empty_is_null() {
    let d = db();
    setup(&d);
    let r = d.query("SELECT (SELECT salary FROM emp WHERE id = 99) FROM emp WHERE id = 1").unwrap();
    assert!(r.rows[0][0].is_null());
}

#[test]
fn scalar_subquery_multiple_rows_errors() {
    let d = db();
    setup(&d);
    let err = d.query("SELECT id FROM emp WHERE salary = (SELECT salary FROM emp)");
    assert!(matches!(err, Err(DbError::Execution(_))));
}

#[test]
fn exists_and_not_exists() {
    let d = db();
    setup(&d);
    assert_eq!(
        ints(
            &d,
            "SELECT id FROM emp e WHERE EXISTS \
             (SELECT 1 FROM emp s WHERE s.boss = e.id) ORDER BY id"
        ),
        vec![1, 3],
        "employees who are bosses"
    );
    assert_eq!(
        ints(
            &d,
            "SELECT id FROM emp e WHERE NOT EXISTS \
             (SELECT 1 FROM emp s WHERE s.boss = e.id) ORDER BY id"
        ),
        vec![2, 4, 5]
    );
}

#[test]
fn distinct_counts() {
    let d = db();
    setup(&d);
    let r = d.query("SELECT COUNT(DISTINCT dept), COUNT(DISTINCT boss) FROM emp").unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(2), Value::Int(2)]);
}

#[test]
fn order_by_desc_with_nulls_first_ascending() {
    let d = db();
    setup(&d);
    let r = d.query("SELECT dept FROM emp ORDER BY dept").unwrap();
    assert!(r.rows[0][0].is_null(), "NULL sorts first ascending");
    let r = d.query("SELECT dept FROM emp ORDER BY dept DESC").unwrap();
    assert!(r.rows[4][0].is_null(), "NULL sorts last descending");
}

#[test]
fn limit_and_limit_zero() {
    let d = db();
    setup(&d);
    assert_eq!(ints(&d, "SELECT id FROM emp ORDER BY id LIMIT 2"), vec![1, 2]);
    assert!(ints(&d, "SELECT id FROM emp LIMIT 0").is_empty());
}

#[test]
fn date_arithmetic_in_predicates() {
    let d = db();
    setup(&d);
    assert_eq!(
        ints(
            &d,
            "SELECT id FROM emp WHERE hired < DATE '1992-01-01' + INTERVAL '1' YEAR ORDER BY id"
        ),
        vec![1, 2, 3]
    );
    let r = d
        .query("SELECT EXTRACT(YEAR FROM hired), EXTRACT(MONTH FROM hired) FROM emp WHERE id = 4")
        .unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(1993), Value::Int(11)]);
}

#[test]
fn integer_division_is_exact_decimal() {
    let d = db();
    let r = d.query("SELECT 1 / 4, 10 / 2").unwrap();
    assert_eq!(r.rows[0][0].as_decimal().unwrap().to_f64(), 0.25);
    assert_eq!(r.rows[0][1].as_decimal().unwrap().to_f64(), 5.0);
}

#[test]
fn division_by_zero_is_an_error() {
    let d = db();
    assert!(matches!(d.query("SELECT 1 / 0"), Err(DbError::Execution(_))));
}

#[test]
fn view_over_aggregate_is_queryable_and_joinable() {
    let d = db();
    setup(&d);
    d.execute(
        "CREATE VIEW dept_pay AS SELECT dept, SUM(salary) AS total FROM emp \
         WHERE dept IS NOT NULL GROUP BY dept",
    )
    .unwrap();
    let r = d
        .query(
            "SELECT e.id FROM emp e, dept_pay p \
             WHERE e.dept = p.dept AND p.total > 1700 ORDER BY e.id",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2, "both ENG employees");
}

#[test]
fn derived_table_with_aggregate() {
    let d = db();
    setup(&d);
    let r = d
        .query(
            "SELECT MAX(total) FROM \
             (SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept) AS t",
        )
        .unwrap();
    assert_eq!(r.rows[0][0].as_decimal().unwrap().to_f64(), 1800.0);
}

#[test]
fn insert_duplicate_pkey_is_atomic() {
    let d = db();
    setup(&d);
    let err = d.execute("INSERT INTO emp VALUES (1, 'X', 1, DATE '2000-01-01', NULL)");
    assert!(matches!(err, Err(DbError::Constraint(_))));
    // The failed insert left nothing behind.
    assert_eq!(ints(&d, "SELECT COUNT(*) FROM emp"), vec![5]);
    assert_eq!(ints(&d, "SELECT id FROM emp WHERE id = 1"), vec![1]);
}

#[test]
fn update_moves_index_entries() {
    let d = db();
    setup(&d);
    d.execute("UPDATE emp SET id = 100 WHERE id = 5").unwrap();
    assert!(ints(&d, "SELECT id FROM emp WHERE id = 5").is_empty());
    assert_eq!(ints(&d, "SELECT id FROM emp WHERE id = 100"), vec![100]);
}

#[test]
fn multi_key_order_by_mixed_directions() {
    let d = db();
    setup(&d);
    let r =
        d.query("SELECT dept, id FROM emp WHERE dept IS NOT NULL ORDER BY dept, id DESC").unwrap();
    let got: Vec<(String, i64)> =
        r.rows.iter().map(|row| (row[0].to_string(), row[1].as_int().unwrap())).collect();
    assert_eq!(
        got,
        vec![("ENG".into(), 2), ("ENG".into(), 1), ("SALES".into(), 4), ("SALES".into(), 3)]
    );
}

#[test]
fn char_padding_is_invisible_in_comparisons_and_output() {
    let d = db();
    d.execute("CREATE TABLE c (k CHAR(10) NOT NULL, PRIMARY KEY (k))").unwrap();
    d.execute("INSERT INTO c VALUES ('abc')").unwrap();
    let r = d.query("SELECT k FROM c WHERE k = 'abc'").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0].to_string(), "abc", "display trims the padding");
    // A duplicate differing only in blanks is still a duplicate.
    let err = d.execute("INSERT INTO c VALUES ('abc   ')");
    assert!(matches!(err, Err(DbError::Constraint(_))));
}

#[test]
fn aggregates_in_where_are_rejected() {
    let d = db();
    setup(&d);
    assert!(d.query("SELECT id FROM emp WHERE SUM(salary) > 10").is_err());
}

#[test]
fn unknown_function_is_an_analysis_error() {
    let d = db();
    setup(&d);
    assert!(matches!(d.query("SELECT FROBNICATE(dept) FROM emp"), Err(DbError::Analysis(_))));
}

#[test]
fn substr_and_string_functions() {
    let d = db();
    let r = d
        .query(
            "SELECT SUBSTR('PROMO BURNISHED', 1, 5), UPPER('abc'), LOWER('ABC'), LENGTH('abcd  ')",
        )
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![Value::str("PROMO"), Value::str("ABC"), Value::str("abc"), Value::Int(4)]
    );
}

#[test]
fn three_way_join_with_filters_on_each() {
    let d = db();
    d.execute("CREATE TABLE a (x INTEGER, tag VARCHAR(4))").unwrap();
    d.execute("CREATE TABLE b (x INTEGER, y INTEGER)").unwrap();
    d.execute("CREATE TABLE c (y INTEGER, name VARCHAR(4))").unwrap();
    d.execute("INSERT INTO a VALUES (1,'p'),(2,'q'),(3,'p')").unwrap();
    d.execute("INSERT INTO b VALUES (1,10),(2,20),(3,30),(3,10)").unwrap();
    d.execute("INSERT INTO c VALUES (10,'m'),(20,'n'),(30,'m')").unwrap();
    let r = d
        .query(
            "SELECT a.x, c.y FROM a, b, c \
             WHERE a.x = b.x AND b.y = c.y AND a.tag = 'p' AND c.name = 'm' \
             ORDER BY a.x, c.y",
        )
        .unwrap();
    let got: Vec<(i64, i64)> =
        r.rows.iter().map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap())).collect();
    assert_eq!(got, vec![(1, 10), (3, 10), (3, 30)]);
}

#[test]
fn aggregates_differing_only_in_a_literal_keep_their_own_slots() {
    let d = db();
    d.execute("CREATE TABLE t (b INTEGER)").unwrap();
    d.execute("INSERT INTO t VALUES (10)").unwrap();
    // `1` and `1.0` are equal under SQL `=` but give different result
    // types; `'x'` and `'x '` compare equal but are different strings.
    let r = d.query("SELECT SUM(b + 1), SUM(b + 1.0) FROM t").unwrap();
    assert!(r.rows[0][0].identical(&Value::Int(11)), "{:?}", r.rows[0]);
    assert!(r.rows[0][1].identical(&Value::decimal(110, 1)), "{:?}", r.rows[0]);
    let r = d.query("SELECT MAX('x'), MAX('x ') FROM t").unwrap();
    assert!(r.rows[0][0].identical(&Value::str("x")), "{:?}", r.rows[0]);
    assert!(r.rows[0][1].identical(&Value::str("x ")), "{:?}", r.rows[0]);
}

fn error_text(db: &Database, sql: &str) -> String {
    match db.query(sql) {
        Ok(r) => panic!("{sql} returned {:?}", r.rows),
        Err(e) => e.to_string(),
    }
}

#[test]
fn between_and_in_raise_the_comparison_error() {
    let d = db();
    d.execute("CREATE TABLE t (k INTEGER, s VARCHAR(10))").unwrap();
    d.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
    let cmp = error_text(&d, "SELECT k FROM t WHERE s >= 1 AND s <= 2");
    assert_eq!(cmp, error_text(&d, "SELECT k FROM t WHERE s = 1"));
    assert!(cmp.contains("cannot compare STRING with INTEGER"), "{cmp}");
    let flipped = error_text(&d, "SELECT k FROM t WHERE k = 'a'");
    assert!(flipped.contains("cannot compare INTEGER with STRING"), "{flipped}");
    for (sql, want) in [
        ("SELECT k FROM t WHERE s BETWEEN 1 AND 2", &cmp),
        ("SELECT k FROM t WHERE s NOT BETWEEN 1 AND 2", &cmp),
        ("SELECT s BETWEEN 1 AND 2 FROM t", &cmp),
        ("SELECT k FROM t WHERE s IN (1, 2)", &cmp),
        ("SELECT k FROM t WHERE s NOT IN (1, 2)", &cmp),
        ("SELECT s IN (1, 2) FROM t", &cmp),
        ("SELECT k FROM t WHERE k NOT IN ('a')", &flipped),
        ("SELECT k FROM t WHERE k IN (SELECT s FROM t)", &flipped),
        ("SELECT k FROM t WHERE k NOT IN (SELECT s FROM t)", &flipped),
    ] {
        assert_eq!(&error_text(&d, sql), want, "{sql}");
    }
    // As `v >= low AND v <= high` and `v = x OR v = y` would: a first
    // comparison that settles the answer skips the second.
    assert_eq!(ints(&d, "SELECT k FROM t WHERE k BETWEEN 2 AND 'z'"), Vec::<i64>::new());
    assert_eq!(ints(&d, "SELECT k FROM t WHERE k IN (1, 'a')"), vec![1]);
    assert_eq!(error_text(&d, "SELECT k FROM t WHERE k IN (2, 'a')"), flipped);
    // `high` is not evaluated when `v >= low` is false.
    for sql in [
        "SELECT k FROM t WHERE k BETWEEN 2 AND 1 / 0",
        "SELECT k FROM t WHERE k >= 2 AND k <= 1 / 0",
    ] {
        assert_eq!(ints(&d, sql), Vec::<i64>::new(), "{sql}");
    }
    // A subquery's set has no order: a probe that matches a member is not
    // checked against the others, one that matches none is.
    d.execute("CREATE TABLE u (v INTEGER)").unwrap();
    d.execute("INSERT INTO u VALUES (1)").unwrap();
    d.execute("INSERT INTO u VALUES (2)").unwrap();
    let mixed = |hit| {
        format!(
            "SELECT k FROM t WHERE k IN (SELECT CASE WHEN v = 1 THEN {hit} ELSE 'a' END FROM u)"
        )
    };
    assert_eq!(ints(&d, &mixed(1)), vec![1]);
    assert_eq!(error_text(&d, &mixed(3)), flipped);
    // NULL is still UNKNOWN, not an error.
    assert_eq!(ints(&d, "SELECT k FROM t WHERE NULL BETWEEN 1 AND 2"), Vec::<i64>::new());
    assert_eq!(ints(&d, "SELECT k FROM t WHERE k NOT IN (2, NULL)"), Vec::<i64>::new());
}

#[test]
fn folding_literals_moves_no_error() {
    let d = db();
    d.execute("CREATE TABLE t (k INTEGER, s VARCHAR(10))").unwrap();
    d.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
    // A failing literal subtree fails only where it is evaluated.
    assert_eq!(ints(&d, "SELECT CASE WHEN k = 2 THEN 1 / 0 ELSE 7 END FROM t"), vec![7]);
    assert_eq!(ints(&d, "SELECT 1 / 0 FROM t WHERE k = 5"), Vec::<i64>::new());
    assert_eq!(ints(&d, "SELECT k FROM t WHERE k = 5 AND 1 / 0 = 1"), Vec::<i64>::new());
    assert!(error_text(&d, "SELECT 1 / 0 FROM t").contains("division by zero"));
    assert!(error_text(&d, "SELECT k FROM t WHERE 1 / 0 = 1").contains("division by zero"));
    let update = d.execute("UPDATE t SET k = 1 / 0 WHERE k = 5").unwrap();
    assert!(matches!(update, ExecOutcome::Count(0)));
    // Folded literals give the values they gave unfolded.
    let r = d
        .query("SELECT k * (2 + 3), k + 1.50 * 2, DATE '1994-01-01' + INTERVAL '1' YEAR FROM t")
        .unwrap();
    assert!(r.rows[0][0].identical(&Value::Int(5)), "{:?}", r.rows[0]);
    assert!(r.rows[0][1].identical(&Value::decimal(400, 2)), "{:?}", r.rows[0]);
    assert_eq!(r.rows[0][2], Value::date(1995, 1, 1));
    d.execute("UPDATE t SET k = k + 2 * 3 WHERE k < 10 - 5").unwrap();
    assert_eq!(ints(&d, "SELECT k FROM t"), vec![7]);
}
