//! The 17 TPC-D queries as SQL text, with substitution parameters.
//!
//! Texts follow TPC-D Standard Specification 1.0 (the TPC-H texts of the
//! same query numbers are direct descendants). Q13: the paper does not
//! reprint the query texts, and the TPC-D 1.0 Q13 text is not otherwise
//! reproducible here; consistent with its sub-10-second runtimes in the
//! paper's Tables 4/5 we model it as a highly selective, index-supported
//! single-customer report (documented in DESIGN.md).

/// Substitution parameters with the TPC-D validation defaults.
#[derive(Debug, Clone)]
pub struct QueryParams {
    /// Q1: DELTA days.
    pub q1_delta: u32,
    /// Q2: size, type suffix, region.
    pub q2_size: i64,
    pub q2_type: String,
    pub q2_region: String,
    /// Q3: segment, date.
    pub q3_segment: String,
    pub q3_date: String,
    /// Q4: start date.
    pub q4_date: String,
    /// Q5: region, start date.
    pub q5_region: String,
    pub q5_date: String,
    /// Q6: date, discount center, quantity.
    pub q6_date: String,
    pub q6_discount: String,
    pub q6_quantity: i64,
    /// Q7: two nations.
    pub q7_nation1: String,
    pub q7_nation2: String,
    /// Q8: nation, region, type.
    pub q8_nation: String,
    pub q8_region: String,
    pub q8_type: String,
    /// Q9: color fragment.
    pub q9_color: String,
    /// Q10: start date.
    pub q10_date: String,
    /// Q11: nation, fraction.
    pub q11_nation: String,
    pub q11_fraction: String,
    /// Q12: two ship modes, start date.
    pub q12_mode1: String,
    pub q12_mode2: String,
    pub q12_date: String,
    /// Q13 (substituted): customer key and cutoff date.
    pub q13_custkey: i64,
    pub q13_date: String,
    /// Q14: start date.
    pub q14_date: String,
    /// Q15: start date.
    pub q15_date: String,
    /// Q16: brand, type prefix, eight sizes.
    pub q16_brand: String,
    pub q16_type: String,
    pub q16_sizes: [i64; 8],
    /// Q17: brand, container.
    pub q17_brand: String,
    pub q17_container: String,
}

impl Default for QueryParams {
    fn default() -> Self {
        QueryParams {
            q1_delta: 90,
            q2_size: 15,
            q2_type: "BRASS".into(),
            q2_region: "EUROPE".into(),
            q3_segment: "BUILDING".into(),
            q3_date: "1995-03-15".into(),
            q4_date: "1993-07-01".into(),
            q5_region: "ASIA".into(),
            q5_date: "1994-01-01".into(),
            q6_date: "1994-01-01".into(),
            q6_discount: "0.06".into(),
            q6_quantity: 24,
            q7_nation1: "FRANCE".into(),
            q7_nation2: "GERMANY".into(),
            q8_nation: "BRAZIL".into(),
            q8_region: "AMERICA".into(),
            q8_type: "ECONOMY ANODIZED STEEL".into(),
            q9_color: "green".into(),
            q10_date: "1993-10-01".into(),
            q11_nation: "GERMANY".into(),
            // Spec: 0.0001 / SF; callers rescale for their SF.
            q11_fraction: "0.0001".into(),
            q12_mode1: "MAIL".into(),
            q12_mode2: "SHIP".into(),
            q12_date: "1994-01-01".into(),
            q13_custkey: 13,
            q13_date: "1995-01-01".into(),
            q14_date: "1995-09-01".into(),
            q15_date: "1996-01-01".into(),
            q16_brand: "Brand#45".into(),
            q16_type: "MEDIUM POLISHED".into(),
            q16_sizes: [49, 14, 23, 45, 19, 3, 36, 9],
            q17_brand: "Brand#23".into(),
            q17_container: "MED BOX".into(),
        }
    }
}

impl QueryParams {
    /// Scale-dependent parameters (Q11's fraction is 0.0001/SF).
    pub fn for_scale(sf: f64) -> Self {
        QueryParams {
            q11_fraction: format!("{:.10}", 0.0001 / sf.max(1e-6)),
            ..QueryParams::default()
        }
    }
}

/// The SQL statements for query `n` (1..=17). Most queries are a single
/// SELECT; Q15 is CREATE VIEW / SELECT / DROP VIEW. The *last* statement
/// produces the reported result rows.
pub fn sql(n: usize, p: &QueryParams) -> Vec<String> {
    match n {
        1 => vec![format!(
            "SELECT l_returnflag, l_linestatus, \
                SUM(l_quantity) AS sum_qty, \
                SUM(l_extendedprice) AS sum_base_price, \
                SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
                SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
                AVG(l_quantity) AS avg_qty, \
                AVG(l_extendedprice) AS avg_price, \
                AVG(l_discount) AS avg_disc, \
                COUNT(*) AS count_order \
             FROM lineitem \
             WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '{}' DAY \
             GROUP BY l_returnflag, l_linestatus \
             ORDER BY l_returnflag, l_linestatus",
            p.q1_delta
        )],
        2 => vec![format!(
            "SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment \
             FROM part, supplier, partsupp, nation, region \
             WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey \
               AND p_size = {} AND p_type LIKE '%{}' \
               AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
               AND r_name = '{}' \
               AND ps_supplycost = (SELECT MIN(ps_supplycost) \
                    FROM partsupp, supplier, nation, region \
                    WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey \
                      AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
                      AND r_name = '{}') \
             ORDER BY s_acctbal DESC, n_name, s_name, p_partkey \
             LIMIT 100",
            p.q2_size, p.q2_type, p.q2_region, p.q2_region
        )],
        3 => vec![format!(
            "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
                o_orderdate, o_shippriority \
             FROM customer, orders, lineitem \
             WHERE c_mktsegment = '{}' AND c_custkey = o_custkey AND l_orderkey = o_orderkey \
               AND o_orderdate < DATE '{}' AND l_shipdate > DATE '{}' \
             GROUP BY l_orderkey, o_orderdate, o_shippriority \
             ORDER BY revenue DESC, o_orderdate \
             LIMIT 10",
            p.q3_segment, p.q3_date, p.q3_date
        )],
        4 => vec![format!(
            "SELECT o_orderpriority, COUNT(*) AS order_count \
             FROM orders \
             WHERE o_orderdate >= DATE '{}' \
               AND o_orderdate < DATE '{}' + INTERVAL '3' MONTH \
               AND EXISTS (SELECT * FROM lineitem \
                    WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate) \
             GROUP BY o_orderpriority \
             ORDER BY o_orderpriority",
            p.q4_date, p.q4_date
        )],
        5 => vec![format!(
            "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
             FROM customer, orders, lineitem, supplier, nation, region \
             WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
               AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
               AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
               AND r_name = '{}' \
               AND o_orderdate >= DATE '{}' \
               AND o_orderdate < DATE '{}' + INTERVAL '1' YEAR \
             GROUP BY n_name \
             ORDER BY revenue DESC",
            p.q5_region, p.q5_date, p.q5_date
        )],
        6 => vec![format!(
            "SELECT SUM(l_extendedprice * l_discount) AS revenue \
             FROM lineitem \
             WHERE l_shipdate >= DATE '{}' AND l_shipdate < DATE '{}' + INTERVAL '1' YEAR \
               AND l_discount BETWEEN {} - 0.01 AND {} + 0.01 \
               AND l_quantity < {}",
            p.q6_date, p.q6_date, p.q6_discount, p.q6_discount, p.q6_quantity
        )],
        7 => vec![format!(
            "SELECT supp_nation, cust_nation, l_year, SUM(volume) AS revenue \
             FROM (SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, \
                     EXTRACT(YEAR FROM l_shipdate) AS l_year, \
                     l_extendedprice * (1 - l_discount) AS volume \
                   FROM supplier, lineitem, orders, customer, nation n1, nation n2 \
                   WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey \
                     AND c_custkey = o_custkey \
                     AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey \
                     AND ((n1.n_name = '{}' AND n2.n_name = '{}') \
                       OR (n1.n_name = '{}' AND n2.n_name = '{}')) \
                     AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' \
                  ) AS shipping \
             GROUP BY supp_nation, cust_nation, l_year \
             ORDER BY supp_nation, cust_nation, l_year",
            p.q7_nation1, p.q7_nation2, p.q7_nation2, p.q7_nation1
        )],
        8 => vec![format!(
            "SELECT o_year, \
                SUM(CASE WHEN nation = '{}' THEN volume ELSE 0 END) / SUM(volume) AS mkt_share \
             FROM (SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year, \
                     l_extendedprice * (1 - l_discount) AS volume, \
                     n2.n_name AS nation \
                   FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region \
                   WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey \
                     AND l_orderkey = o_orderkey AND o_custkey = c_custkey \
                     AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey \
                     AND r_name = '{}' AND s_nationkey = n2.n_nationkey \
                     AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' \
                     AND p_type = '{}' \
                  ) AS all_nations \
             GROUP BY o_year \
             ORDER BY o_year",
            p.q8_nation, p.q8_region, p.q8_type
        )],
        9 => vec![format!(
            "SELECT nation, o_year, SUM(amount) AS sum_profit \
             FROM (SELECT n_name AS nation, EXTRACT(YEAR FROM o_orderdate) AS o_year, \
                     l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity AS amount \
                   FROM part, supplier, lineitem, partsupp, orders, nation \
                   WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey \
                     AND ps_partkey = l_partkey AND p_partkey = l_partkey \
                     AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey \
                     AND p_name LIKE '%{}%' \
                  ) AS profit \
             GROUP BY nation, o_year \
             ORDER BY nation, o_year DESC",
            p.q9_color
        )],
        10 => vec![format!(
            "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
                c_acctbal, n_name, c_address, c_phone, c_comment \
             FROM customer, orders, lineitem, nation \
             WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
               AND o_orderdate >= DATE '{}' \
               AND o_orderdate < DATE '{}' + INTERVAL '3' MONTH \
               AND l_returnflag = 'R' AND c_nationkey = n_nationkey \
             GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment \
             ORDER BY revenue DESC \
             LIMIT 20",
            p.q10_date, p.q10_date
        )],
        11 => vec![format!(
            "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS part_value \
             FROM partsupp, supplier, nation \
             WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = '{}' \
             GROUP BY ps_partkey \
             HAVING SUM(ps_supplycost * ps_availqty) > \
               (SELECT SUM(ps_supplycost * ps_availqty) * {} \
                FROM partsupp, supplier, nation \
                WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = '{}') \
             ORDER BY part_value DESC",
            p.q11_nation, p.q11_fraction, p.q11_nation
        )],
        12 => vec![format!(
            "SELECT l_shipmode, \
                SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH' \
                    THEN 1 ELSE 0 END) AS high_line_count, \
                SUM(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH' \
                    THEN 1 ELSE 0 END) AS low_line_count \
             FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND l_shipmode IN ('{}', '{}') \
               AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate \
               AND l_receiptdate >= DATE '{}' \
               AND l_receiptdate < DATE '{}' + INTERVAL '1' YEAR \
             GROUP BY l_shipmode \
             ORDER BY l_shipmode",
            p.q12_mode1, p.q12_mode2, p.q12_date, p.q12_date
        )],
        13 => vec![format!(
            "SELECT o_orderpriority, COUNT(*) AS order_count, SUM(o_totalprice) AS total \
             FROM orders \
             WHERE o_custkey = {} AND o_orderdate >= DATE '{}' \
             GROUP BY o_orderpriority \
             ORDER BY o_orderpriority",
            p.q13_custkey, p.q13_date
        )],
        14 => vec![format!(
            "SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%' \
                    THEN l_extendedprice * (1 - l_discount) ELSE 0 END) \
                / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue \
             FROM lineitem, part \
             WHERE l_partkey = p_partkey \
               AND l_shipdate >= DATE '{}' \
               AND l_shipdate < DATE '{}' + INTERVAL '1' MONTH",
            p.q14_date, p.q14_date
        )],
        15 => vec![
            format!(
                "CREATE VIEW revenue0 AS \
                 SELECT l_suppkey AS supplier_no, \
                        SUM(l_extendedprice * (1 - l_discount)) AS total_revenue \
                 FROM lineitem \
                 WHERE l_shipdate >= DATE '{}' \
                   AND l_shipdate < DATE '{}' + INTERVAL '3' MONTH \
                 GROUP BY l_suppkey",
                p.q15_date, p.q15_date
            ),
            "SELECT s_suppkey, s_name, s_address, s_phone, total_revenue \
             FROM supplier, revenue0 \
             WHERE s_suppkey = supplier_no \
               AND total_revenue = (SELECT MAX(total_revenue) FROM revenue0) \
             ORDER BY s_suppkey"
                .to_string(),
            "DROP VIEW revenue0".to_string(),
        ],
        16 => vec![format!(
            "SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) AS supplier_cnt \
             FROM partsupp, part \
             WHERE p_partkey = ps_partkey AND p_brand <> '{}' \
               AND p_type NOT LIKE '{}%' \
               AND p_size IN ({}, {}, {}, {}, {}, {}, {}, {}) \
               AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier \
                    WHERE s_comment LIKE '%Customer%Complaints%') \
             GROUP BY p_brand, p_type, p_size \
             ORDER BY supplier_cnt DESC, p_brand, p_type, p_size",
            p.q16_brand,
            p.q16_type,
            p.q16_sizes[0],
            p.q16_sizes[1],
            p.q16_sizes[2],
            p.q16_sizes[3],
            p.q16_sizes[4],
            p.q16_sizes[5],
            p.q16_sizes[6],
            p.q16_sizes[7],
        )],
        17 => vec![format!(
            "SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly \
             FROM lineitem, part \
             WHERE p_partkey = l_partkey AND p_brand = '{}' AND p_container = '{}' \
               AND l_quantity < (SELECT 0.2 * AVG(l_quantity) FROM lineitem \
                    WHERE l_partkey = p_partkey)",
            p.q17_brand, p.q17_container
        )],
        other => panic!("TPC-D has queries 1..=17, asked for {other}"),
    }
}

/// Short description per query, used in reports.
pub fn query_name(n: usize) -> &'static str {
    match n {
        1 => "Pricing summary report",
        2 => "Minimum cost supplier",
        3 => "Shipping priority",
        4 => "Order priority checking",
        5 => "Local supplier volume",
        6 => "Forecasting revenue change",
        7 => "Volume shipping",
        8 => "National market share",
        9 => "Product type profit",
        10 => "Returned item reporting",
        11 => "Important stock identification",
        12 => "Shipping modes and order priority",
        13 => "Customer order lookup (substituted text)",
        14 => "Promotion effect",
        15 => "Top supplier",
        16 => "Parts/supplier relationship",
        17 => "Small-quantity-order revenue",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_have_text() {
        let p = QueryParams::default();
        for n in 1..=17 {
            let stmts = sql(n, &p);
            assert!(!stmts.is_empty());
            assert!(stmts.iter().all(|s| !s.trim().is_empty()));
        }
        assert_eq!(sql(15, &p).len(), 3, "Q15 is view/select/drop");
    }

    #[test]
    fn all_queries_parse() {
        let p = QueryParams::default();
        for n in 1..=17 {
            for stmt in sql(n, &p) {
                rdbms::sql::parse_statement(&stmt)
                    .unwrap_or_else(|e| panic!("Q{n} failed to parse: {e}\n{stmt}"));
            }
        }
    }

    /// The SELECT of each query (Q15's middle statement) as its id.
    fn select_ids(p: &QueryParams) -> Vec<rdbms::sql::StatementId> {
        (1..=17)
            .map(|n| {
                let select = sql(n, p).into_iter().find(|s| s.starts_with("SELECT")).unwrap();
                rdbms::sql::parse_statement(&select).unwrap().into_id()
            })
            .collect()
    }

    #[test]
    fn each_query_has_its_own_id_across_predicate_constants() {
        let ids = select_ids(&QueryParams::default());
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 17, "no two queries share an id: {ids:?}");

        // Another substitution of every predicate-position parameter. (Q1's
        // interval, the LIKE patterns and Q11's fraction are not predicate
        // operands: changing them makes another statement.)
        let other = QueryParams {
            q2_size: 20,
            q2_region: "ASIA".into(),
            q3_segment: "MACHINERY".into(),
            q3_date: "1995-03-20".into(),
            q4_date: "1994-02-01".into(),
            q5_region: "EUROPE".into(),
            q5_date: "1995-01-01".into(),
            q6_date: "1995-01-01".into(),
            q6_discount: "0.04".into(),
            q6_quantity: 25,
            q7_nation1: "JAPAN".into(),
            q7_nation2: "CHINA".into(),
            q8_nation: "PERU".into(),
            q8_region: "AMERICA".into(),
            q8_type: "SMALL PLATED COPPER".into(),
            q10_date: "1994-03-01".into(),
            q11_nation: "FRANCE".into(),
            q12_mode1: "AIR".into(),
            q12_mode2: "RAIL".into(),
            q12_date: "1995-01-01".into(),
            q13_custkey: 7,
            q13_date: "1996-06-01".into(),
            q14_date: "1996-02-01".into(),
            q15_date: "1997-01-01".into(),
            q16_brand: "Brand#12".into(),
            q16_sizes: [1, 2, 3, 4, 5, 6, 7, 8],
            q17_brand: "Brand#55".into(),
            q17_container: "LG CASE".into(),
            ..QueryParams::default()
        };
        assert_eq!(select_ids(&other), ids, "predicate constants are not part of the id");
    }

    #[test]
    fn scale_adjusts_q11_fraction() {
        let p = QueryParams::for_scale(0.01);
        assert_eq!(p.q11_fraction, "0.0100000000");
    }
}
