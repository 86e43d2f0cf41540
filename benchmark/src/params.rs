//! Query parameters that fit a small population. TPC-D's validation
//! parameters name nations, regions, segments and part types that a
//! population of four suppliers and a few dozen parts does not hold: below
//! SF 0.01 Q2, Q3, Q5, Q7, Q8, Q11, Q13 and Q17 return nothing (or a lone
//! NULL) for most seeds, and an empty answer checks nothing. Those eight
//! take the offending parameters from a witness row of the generated data:
//! a row the query must return, or aggregate over. Dates keep their
//! validation values (a date range near the edge of the population makes a
//! query several times cheaper, and the cost must not depend on the seed);
//! the other nine queries keep all of theirs. A seed whose population
//! leaves any query without an answering row takes the next seed's
//! population: one seed in 40 at SF 0.0002, none in 40 at SF 0.002.

use rdbms::types::Date;
use tpcd::records::LineItem;
use tpcd::{DbGen, QueryParams};

/// The population for `seed` (or the first seed after it that will do),
/// and query parameters under which each of the 17 queries returns rows.
pub fn population(sf: f64, seed: u64) -> (DbGen, QueryParams) {
    (seed..)
        .find_map(|s| {
            let gen = DbGen::with_seed(sf, s);
            query_params(&gen).map(|params| (gen, params))
        })
        .expect("some seed's population answers every query")
}

/// `None` when some query has no row to return from this population.
fn query_params(gen: &DbGen) -> Option<QueryParams> {
    let (regions, nations) = (gen.regions(), gen.nations());
    let (suppliers, customers, parts) = (gen.suppliers(), gen.customers(), gen.parts());
    let partsupps = gen.partsupps();
    let (orders, lineitems) = gen.orders_and_lineitems();
    // Keys are dense and start at 1 (nations and regions at 0).
    let nation = |key: i64| &nations[key as usize];
    let region_name = |nationkey: i64| regions[nation(nationkey).regionkey as usize].name.clone();
    let supplier_nation = |suppkey: i64| suppliers[suppkey as usize - 1].nationkey;
    let part = |partkey: i64| &parts[partkey as usize - 1];
    let order = |orderkey: i64| &orders[orderkey as usize - 1];
    let customer = |orderkey: i64| &customers[order(orderkey).custkey as usize - 1];
    let line = |fits: &dyn Fn(&LineItem) -> bool| lineitems.iter().find(|l| fits(l));
    let p = QueryParams::default();
    // `d` lies in the `months` from the validation date `from`.
    let within = |d: Date, from: &str, months: i32| {
        let start = Date::parse(from).expect("validation dates parse");
        d >= start && d < start.add_months(months)
    };
    let in_1995_96 = |d: Date| within(d, "1995-01-01", 24);

    // The nine queries that keep their validation parameters each need one
    // row answering to them (Q1 takes any line at all).
    let late = |l: &LineItem| l.commitdate < l.receiptdate;
    line(&|l| late(l) && within(order(l.orderkey).orderdate, &p.q4_date, 3))?;
    line(&|l| {
        within(l.shipdate, &p.q6_date, 12)
            && (l.discount.to_f64() - 0.06).abs() < 0.0101
            && l.quantity < p.q6_quantity
    })?;
    line(&|l| part(l.partkey).name.contains(&p.q9_color))?;
    line(&|l| l.returnflag == "R" && within(order(l.orderkey).orderdate, &p.q10_date, 3))?;
    line(&|l| {
        (l.shipmode == p.q12_mode1 || l.shipmode == p.q12_mode2)
            && l.shipdate < l.commitdate
            && late(l)
            && within(l.receiptdate, &p.q12_date, 12)
    })?;
    line(&|l| within(l.shipdate, &p.q14_date, 1))?;
    line(&|l| within(l.shipdate, &p.q15_date, 3))?;
    parts.iter().find(|part| {
        part.brand != p.q16_brand
            && !part.type_.starts_with(&p.q16_type)
            && p.q16_sizes.contains(&part.size)
    })?;

    // Q2: the first part with one of its suppliers; the cheapest supplier
    // of that part in that supplier's region is a row.
    let q2 = &partsupps[0];
    // Q3: an order placed before, and a line of it shipped after, the date.
    let q3_date = Date::parse(&p.q3_date).expect("validation dates parse");
    let q3 = line(&|l| order(l.orderkey).orderdate < q3_date && l.shipdate > q3_date)?;
    // Q5: a line whose supplier sits in its customer's nation, ordered in
    // the validation year if there is one.
    let home = |l: &LineItem| supplier_nation(l.suppkey) == customer(l.orderkey).nationkey;
    let q5 = line(&|l| home(l) && within(order(l.orderkey).orderdate, &p.q5_date, 12))
        .or_else(|| line(&home))?;
    // Q7: a line shipped in 1995-96, between two nations if there is one.
    let q7 = line(&|l| in_1995_96(l.shipdate) && !home(l))
        .or_else(|| line(&|l| in_1995_96(l.shipdate)))?;
    // Q8: a line ordered in 1995-96.
    let q8 = line(&|l| in_1995_96(order(l.orderkey).orderdate))?;
    // Q11: the first supplier's nation. The most valuable part is worth at
    // least the mean over that nation's stock positions, so it passes 0.9
    // of the mean. (The specification's 0.0001 / SF is about three times
    // the mean; a nation with one supplier may hold no such part.)
    let q11_nation = suppliers[0].nationkey;
    let positions = partsupps.iter().filter(|ps| supplier_nation(ps.suppkey) == q11_nation).count();
    // Q13: the customer of an order placed since the cutoff date.
    let q13_date = Date::parse(&p.q13_date).expect("validation dates parse");
    let q13 = orders.iter().find(|o| o.orderdate >= q13_date)?;
    // Q17: a line of less than a fifth of its part's mean quantity.
    let mut quantity = vec![(0i64, 0i64); parts.len()];
    for l in &lineitems {
        let q = &mut quantity[l.partkey as usize - 1];
        *q = (q.0 + l.quantity, q.1 + 1);
    }
    let q17 = line(&|l| {
        let (sum, lines) = quantity[l.partkey as usize - 1];
        5 * l.quantity * lines < sum
    })?;

    let year_of = |d: Date| Date::from_ymd(d.year(), 1, 1).expect("valid date").to_string();
    Some(QueryParams {
        q2_size: part(q2.partkey).size,
        q2_type: part(q2.partkey).type_.rsplit(' ').next().expect("three words").to_string(),
        q2_region: region_name(supplier_nation(q2.suppkey)),
        q3_segment: customer(q3.orderkey).mktsegment.clone(),
        q5_region: region_name(customer(q5.orderkey).nationkey),
        q5_date: year_of(order(q5.orderkey).orderdate),
        q7_nation1: nation(supplier_nation(q7.suppkey)).name.clone(),
        q7_nation2: nation(customer(q7.orderkey).nationkey).name.clone(),
        q8_nation: nation(supplier_nation(q8.suppkey)).name.clone(),
        q8_region: region_name(customer(q8.orderkey).nationkey),
        q8_type: part(q8.partkey).type_.clone(),
        q11_nation: nation(q11_nation).name.clone(),
        q11_fraction: format!("{:.10}", 0.9 / positions as f64),
        q13_custkey: q13.custkey,
        q17_brand: part(q17.partkey).brand.clone(),
        q17_container: part(q17.partkey).container.clone(),
        ..p
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbms::{Database, Value};

    #[test]
    fn every_query_returns_rows_on_a_small_population() {
        for seed in [1, 2, 3] {
            let (gen, params) = population(0.0002, seed);
            let db = Database::with_defaults();
            tpcd::schema::load(&db, &gen).unwrap();
            for n in 1..=17 {
                let rows = tpcd::run_query(&db, n, &params).unwrap().rows;
                assert!(!rows.is_empty(), "seed {seed}: Q{n} returns no rows");
                let lone_null = rows.len() == 1 && matches!(rows[0].last(), Some(Value::Null));
                assert!(!lone_null, "seed {seed}: Q{n} returns a lone NULL");
            }
        }
    }

    #[test]
    fn a_population_that_leaves_a_query_empty_gives_way_to_the_next_seed() {
        // 150 orders, 15 customers, 20 parts: many seeds lack some witness.
        let skipped = (0..50).filter(|&seed| population(0.0001, seed).0.seed != seed).count();
        assert!(skipped > 0, "no seed in 50 lacks a witness: the fallback is untested");
        assert_eq!(population(0.0001, 7).0.seed, population(0.0001, 7).0.seed);
    }
}
