//! Selectivity estimation from catalog statistics, System-R style.

use crate::catalog::{ColumnStats, TableStats};
use crate::sql::ast::{BinOp, Expr};
use crate::types::Value;

/// Equality selectivity when statistics are missing.
pub const DEFAULT_EQ_SEL: f64 = 0.005;
/// Selectivity of a range predicate whose constant is unknown.
pub const DEFAULT_RANGE_SEL: f64 = 0.05;
/// Selectivity of a LIKE predicate.
pub const LIKE_SEL: f64 = 0.05;

/// Convert a value to a point on the number line for interpolation.
pub fn value_to_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Decimal(d) => Some(d.to_f64()),
        Value::Date(d) => Some(d.days() as f64),
        Value::Bool(b) => Some(*b as i64 as f64),
        // First bytes of the (trimmed) string as a crude position.
        Value::Str(s) => {
            let mut x = 0f64;
            for (i, b) in s.trim_end().bytes().take(6).enumerate() {
                x += b as f64 / 256f64.powi(i as i32 + 1);
            }
            Some(x)
        }
        Value::Null => None,
    }
}

/// Selectivity of `col op literal` using column stats.
pub fn cmp_selectivity(op: BinOp, lit: &Value, stats: Option<&ColumnStats>) -> f64 {
    let Some(st) = stats else {
        return default_for(op);
    };
    match op {
        BinOp::Eq => {
            if st.n_distinct > 0 {
                1.0 / st.n_distinct as f64
            } else {
                DEFAULT_EQ_SEL
            }
        }
        BinOp::NotEq => {
            if st.n_distinct > 0 {
                1.0 - 1.0 / st.n_distinct as f64
            } else {
                1.0 - DEFAULT_EQ_SEL
            }
        }
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let (Some(min), Some(max), Some(v)) = (
                st.min.as_ref().and_then(value_to_f64),
                st.max.as_ref().and_then(value_to_f64),
                value_to_f64(lit),
            ) else {
                return default_for(op);
            };
            if max <= min {
                return default_for(op);
            }
            let frac = ((v - min) / (max - min)).clamp(0.0, 1.0);
            match op {
                BinOp::Lt | BinOp::LtEq => frac.max(1e-9),
                _ => (1.0 - frac).max(1e-9),
            }
        }
        _ => 0.25,
    }
}

pub fn default_for(op: BinOp) -> f64 {
    match op {
        BinOp::Eq => DEFAULT_EQ_SEL,
        BinOp::NotEq => 1.0 - DEFAULT_EQ_SEL,
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => DEFAULT_RANGE_SEL,
        _ => 0.25,
    }
}

/// Estimate the selectivity of one single-table conjunct. `resolve` maps a
/// (qualifier, name) pair to the column ordinal if it belongs to the table.
pub fn conjunct_selectivity(
    conjunct: &Expr,
    stats: &TableStats,
    resolve: &dyn Fn(Option<&str>, &str) -> Option<usize>,
) -> f64 {
    let col_stats = |e: &Expr| -> Option<&ColumnStats> {
        if let Expr::Column { qualifier, name } = e {
            let idx = resolve(qualifier.as_deref(), name)?;
            if stats.analyzed {
                return stats.columns.get(idx);
            }
        }
        None
    };
    match conjunct {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            // column vs literal (either order)
            if let Expr::Literal(v) = right.as_ref() {
                return cmp_selectivity(*op, v, col_stats(left));
            }
            if let Expr::Literal(v) = left.as_ref() {
                return cmp_selectivity(flip(*op), v, col_stats(right));
            }
            // Parameter or expression: unknown constant.
            default_for(*op)
        }
        Expr::Binary { left, op: BinOp::And, right } => {
            conjunct_selectivity(left, stats, resolve) * conjunct_selectivity(right, stats, resolve)
        }
        Expr::Binary { left, op: BinOp::Or, right } => {
            let a = conjunct_selectivity(left, stats, resolve);
            let b = conjunct_selectivity(right, stats, resolve);
            (a + b - a * b).min(1.0)
        }
        Expr::Between { expr, low, high, negated } => {
            let sel = match (low.as_ref(), high.as_ref()) {
                (Expr::Literal(lo), Expr::Literal(hi)) => {
                    let st = col_stats(expr);
                    let a = cmp_selectivity(BinOp::GtEq, lo, st);
                    let b = cmp_selectivity(BinOp::LtEq, hi, st);
                    (a + b - 1.0).clamp(1e-9, 1.0)
                }
                _ => DEFAULT_RANGE_SEL,
            };
            if *negated {
                1.0 - sel
            } else {
                sel
            }
        }
        Expr::InList { expr, list, negated } => {
            let st = col_stats(expr);
            let eq = match st {
                Some(s) if s.n_distinct > 0 => 1.0 / s.n_distinct as f64,
                _ => DEFAULT_EQ_SEL,
            };
            let sel = (eq * list.len() as f64).min(1.0);
            if *negated {
                1.0 - sel
            } else {
                sel
            }
        }
        Expr::Like { negated, .. } => {
            if *negated {
                1.0 - LIKE_SEL
            } else {
                LIKE_SEL
            }
        }
        Expr::IsNull { negated, .. } => {
            if *negated {
                0.95
            } else {
                0.05
            }
        }
        _ => 0.25,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnStats;

    fn stats_0_100() -> ColumnStats {
        ColumnStats {
            n_distinct: 100,
            min: Some(Value::Int(0)),
            max: Some(Value::Int(100)),
            null_count: 0,
        }
    }

    #[test]
    fn equality_uses_ndv() {
        let s = cmp_selectivity(BinOp::Eq, &Value::Int(5), Some(&stats_0_100()));
        assert!((s - 0.01).abs() < 1e-12);
    }

    #[test]
    fn range_interpolates() {
        let s = cmp_selectivity(BinOp::Lt, &Value::Int(25), Some(&stats_0_100()));
        assert!((s - 0.25).abs() < 1e-9);
        let s = cmp_selectivity(BinOp::Gt, &Value::Int(25), Some(&stats_0_100()));
        assert!((s - 0.75).abs() < 1e-9);
        // Out-of-range literal clamps.
        let s = cmp_selectivity(BinOp::Lt, &Value::Int(-5), Some(&stats_0_100()));
        assert!(s <= 1e-6);
    }

    #[test]
    fn missing_stats_fall_back_to_defaults() {
        assert_eq!(cmp_selectivity(BinOp::Eq, &Value::Int(5), None), DEFAULT_EQ_SEL);
        assert_eq!(cmp_selectivity(BinOp::Lt, &Value::Int(5), None), DEFAULT_RANGE_SEL);
    }

    #[test]
    fn string_position_is_monotone() {
        let a = value_to_f64(&Value::str("APPLE")).unwrap();
        let b = value_to_f64(&Value::str("BANANA")).unwrap();
        assert!(a < b);
    }
}
