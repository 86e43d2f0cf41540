//! Index-assisted row location for DML (DELETE/UPDATE ... WHERE key = ...).

use crate::catalog::Table;
use crate::error::DbResult;
use crate::lock::KeyRange;
use crate::planner::sarg::{extract_sargs, match_index, IndexAccess, Sarg};
use crate::sql::ast::{BinOp, Expr};
use crate::storage::codec::encode_key;
use crate::storage::Rid;
use crate::types::Value;
use std::ops::Bound;

/// If the filter is sargable against the table's *primary-key* index with
/// literal bounds, return the key range a DML statement must lock.
/// Bounds are widened to inclusive (exclusive endpoints are covered too),
/// which is conservative for locking. `None` means the statement cannot
/// be row-locked and needs a table lock.
pub fn pk_lock_range(table: &Table, filter: &Expr) -> Option<KeyRange> {
    if table.primary_key.is_empty() {
        return None;
    }
    let access = match_index(&table.primary_key, &literal_sargs(table, filter))?;
    // A NULL key never matches; fall back to coarse locking rather than
    // inventing a range for an empty result.
    let (lo, hi) = literal_bounds(&access)?;
    Some(KeyRange::span(lo.as_ref().map(|b| &b.key[..]), hi.as_ref().map(|b| &b.key[..])))
}

/// If the filter is sargable against one of the table's indexes with
/// literal bounds, return the candidate RIDs the index holds in that range
/// (callers re-check the full predicate). `None` means "no index helps —
/// scan".
pub fn dml_index_probe(table: &Table, filter: &Expr) -> DbResult<Option<Vec<Rid>>> {
    let sargs = literal_sargs(table, filter);
    for index in table.indexes.read().iter() {
        let Some(access) = match_index(&index.columns, &sargs) else {
            continue;
        };
        let Some((lo, hi)) = literal_bounds(&access) else {
            return Ok(Some(Vec::new())); // NULL key never matches
        };
        return Ok(Some(index.tree.lock().range_rids(bound(&lo), bound(&hi))?));
    }
    Ok(None)
}

/// The sargs of a DML filter whose compared value is a literal (DML
/// locates rows by literal constants only; it has no parameters).
fn literal_sargs(table: &Table, filter: &Expr) -> Vec<Sarg> {
    let conjuncts = filter.clone().split_conjuncts();
    let resolve = |q: Option<&str>, n: &str| table.schema.try_resolve(q, n);
    let constantish = |e: &Expr| match e {
        Expr::Literal(_) => Some(false),
        _ => None,
    };
    extract_sargs(&conjuncts, &resolve, &constantish)
}

/// One end of an index range over literal values.
struct KeyBound {
    key: Vec<u8>,
    inclusive: bool,
}

/// The lower and upper key bounds of an index access over
/// [`literal_sargs`]: the equality prefix, then the range column's literal
/// if that side has one; `None` for an unbounded side. Returns `None` when
/// a bound value is NULL.
fn literal_bounds(access: &IndexAccess) -> Option<(Option<KeyBound>, Option<KeyBound>)> {
    let lit = |s: &Sarg| match &s.rhs {
        Expr::Literal(v) => v.clone(),
        _ => unreachable!("literal_sargs admits literals only"),
    };
    let eq: Vec<Value> = access.eq_sargs.iter().map(lit).collect();
    let side = |range: &Option<Sarg>, inclusive_op: BinOp| {
        let mut vals = eq.clone();
        let mut inclusive = true;
        match range {
            Some(s) => {
                vals.push(lit(s));
                inclusive = s.op == inclusive_op;
            }
            None if eq.is_empty() => return Some(None),
            None => {}
        }
        if vals.iter().any(Value::is_null) {
            return None;
        }
        Some(Some(KeyBound { key: encode_key(&vals), inclusive }))
    };
    Some((side(&access.lower, BinOp::GtEq)?, side(&access.upper, BinOp::LtEq)?))
}

fn bound(b: &Option<KeyBound>) -> Bound<&[u8]> {
    match b {
        None => Bound::Unbounded,
        Some(b) if b.inclusive => Bound::Included(&b.key),
        Some(b) => Bound::Excluded(&b.key),
    }
}

#[cfg(test)]
mod tests {
    use crate::Database;

    #[test]
    fn delete_by_key_uses_index_not_scan() {
        let db = Database::with_defaults();
        db.execute("CREATE TABLE t (k INTEGER NOT NULL, v INTEGER, PRIMARY KEY (k))").unwrap();
        let values: Vec<String> = (0..5000).map(|i| format!("({i}, {})", i % 10)).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
        db.meter().reset();
        let n = db.execute("DELETE FROM t WHERE k = 42").unwrap().count().unwrap();
        assert_eq!(n, 1);
        let work = db.snapshot();
        // A scan would touch ~5000 tuples; the probe touches a handful.
        assert!(work.db_tuples() < 50, "index-assisted delete, got {} tuples", work.db_tuples());

        // Range delete via the same machinery.
        let n = db.execute("DELETE FROM t WHERE k BETWEEN 100 AND 199").unwrap().count().unwrap();
        assert_eq!(n, 100);

        // Non-sargable predicate still works (falls back to a scan).
        let n = db.execute("DELETE FROM t WHERE v = 3").unwrap().count().unwrap();
        assert!(n > 100);
    }
}
