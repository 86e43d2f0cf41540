//! SQL value types: integers, fixed-point decimals, strings, dates, booleans.
//!
//! The engine uses a small, TPC-D-sufficient type system. Decimals are exact
//! fixed-point numbers (i128 mantissa + scale) because TPC-D money arithmetic
//! (`l_extendedprice * (1 - l_discount) * (1 + l_tax)`) must be deterministic
//! across runs for answer validation.

use crate::error::{DbError, DbResult};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A SQL data type. `Char(n)` is blank-padded fixed width (SAP R/3 keys are
/// CHAR(16) in the paper, a major source of the 10x space inflation);
/// `VarChar(n)` is variable width with a maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Decimal { precision: u8, scale: u8 },
    Char(u16),
    VarChar(u16),
    Date,
    Bool,
}

impl DataType {
    /// Byte width used for storage-size accounting (Table 2 of the paper).
    /// Fixed types report their exact width; `VarChar` reports its maximum
    /// only for planning — actual rows are accounted at their real length.
    pub fn fixed_width(&self) -> Option<usize> {
        match self {
            DataType::Int => Some(4),
            DataType::Decimal { .. } => Some(8),
            DataType::Char(n) => Some(*n as usize),
            DataType::VarChar(_) => None,
            DataType::Date => Some(4),
            DataType::Bool => Some(1),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INTEGER"),
            DataType::Decimal { precision, scale } => {
                write!(f, "DECIMAL({precision},{scale})")
            }
            DataType::Char(n) => write!(f, "CHAR({n})"),
            DataType::VarChar(n) => write!(f, "VARCHAR({n})"),
            DataType::Date => write!(f, "DATE"),
            DataType::Bool => write!(f, "BOOLEAN"),
        }
    }
}

// ---------------------------------------------------------------------------
// Decimal
// ---------------------------------------------------------------------------

/// Exact fixed-point decimal: `mantissa * 10^-scale`.
#[derive(Debug, Clone, Copy)]
pub struct Decimal {
    mantissa: i128,
    scale: u8,
}

const POW10: [i128; 20] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
    1_000_000_000_000,
    10_000_000_000_000,
    100_000_000_000_000,
    1_000_000_000_000_000,
    10_000_000_000_000_000,
    100_000_000_000_000_000,
    1_000_000_000_000_000_000,
    10_000_000_000_000_000_000,
];

#[allow(clippy::should_implement_trait)] // by-value helpers named like the ops traits; call sites predate them
impl Decimal {
    pub const MAX_SCALE: u8 = 12;

    pub fn new(mantissa: i128, scale: u8) -> Self {
        debug_assert!(scale <= Self::MAX_SCALE + 6, "scale {scale} out of range");
        Decimal { mantissa, scale }
    }

    pub fn from_int(v: i64) -> Self {
        Decimal { mantissa: v as i128, scale: 0 }
    }

    pub fn mantissa(&self) -> i128 {
        self.mantissa
    }

    pub fn scale(&self) -> u8 {
        self.scale
    }

    pub fn zero() -> Self {
        Decimal { mantissa: 0, scale: 0 }
    }

    pub fn is_zero(&self) -> bool {
        self.mantissa == 0
    }

    /// Rescale to `scale`, truncating toward zero when reducing scale.
    pub fn rescale(&self, scale: u8) -> Self {
        match scale.cmp(&self.scale) {
            Ordering::Equal => *self,
            Ordering::Greater => {
                Decimal { mantissa: self.mantissa * POW10[(scale - self.scale) as usize], scale }
            }
            Ordering::Less => {
                Decimal { mantissa: self.mantissa / POW10[(self.scale - scale) as usize], scale }
            }
        }
    }

    fn align(a: Decimal, b: Decimal) -> (i128, i128, u8) {
        let scale = a.scale.max(b.scale);
        (a.rescale(scale).mantissa, b.rescale(scale).mantissa, scale)
    }

    pub fn add(self, other: Decimal) -> Decimal {
        let (a, b, s) = Self::align(self, other);
        Decimal { mantissa: a + b, scale: s }
    }

    pub fn sub(self, other: Decimal) -> Decimal {
        let (a, b, s) = Self::align(self, other);
        Decimal { mantissa: a - b, scale: s }
    }

    /// Multiplication keeps combined scale, clamped to `MAX_SCALE` to keep
    /// chained TPC-D expressions (price * (1-disc) * (1+tax)) in range.
    pub fn mul(self, other: Decimal) -> Decimal {
        let raw =
            Decimal { mantissa: self.mantissa * other.mantissa, scale: self.scale + other.scale };
        if raw.scale > Self::MAX_SCALE {
            raw.rescale(Self::MAX_SCALE)
        } else {
            raw
        }
    }

    /// Division at `MAX_SCALE` precision, truncating.
    pub fn div(self, other: Decimal) -> DbResult<Decimal> {
        if other.mantissa == 0 {
            return Err(DbError::execution("division by zero"));
        }
        let a = self.rescale(Self::MAX_SCALE);
        // (a.m * 10^b.scale) / b.m has scale MAX_SCALE
        let num = a.mantissa * POW10[other.scale as usize];
        Ok(Decimal { mantissa: num / other.mantissa, scale: Self::MAX_SCALE })
    }

    pub fn neg(self) -> Decimal {
        Decimal { mantissa: -self.mantissa, scale: self.scale }
    }

    pub fn to_f64(&self) -> f64 {
        self.mantissa as f64 / POW10[self.scale as usize] as f64
    }

    /// Truncate to integer part.
    pub fn trunc_i64(&self) -> i64 {
        (self.mantissa / POW10[self.scale as usize]) as i64
    }

    /// Parse `[-]digits[.digits]`.
    pub fn parse(s: &str) -> DbResult<Decimal> {
        let s = s.trim();
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        let (int_part, frac_part) = match digits.split_once('.') {
            Some((i, f)) => (i, f),
            None => (digits, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(DbError::parse(format!("invalid decimal literal '{s}'")));
        }
        if frac_part.len() > Self::MAX_SCALE as usize {
            return Err(DbError::parse(format!(
                "decimal literal '{s}' exceeds max scale {}",
                Self::MAX_SCALE
            )));
        }
        let mut mantissa: i128 = 0;
        for c in int_part.chars().chain(frac_part.chars()) {
            let d = c
                .to_digit(10)
                .ok_or_else(|| DbError::parse(format!("invalid decimal literal '{s}'")))?;
            mantissa = mantissa * 10 + d as i128;
        }
        if neg {
            mantissa = -mantissa;
        }
        Ok(Decimal { mantissa, scale: frac_part.len() as u8 })
    }
}

impl PartialEq for Decimal {
    fn eq(&self, other: &Self) -> bool {
        let (a, b, _) = Decimal::align(*self, *other);
        a == b
    }
}

impl Eq for Decimal {}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b, _) = Decimal::align(*self, *other);
        a.cmp(&b)
    }
}

impl Hash for Decimal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the canonical (trailing-zero-free) representation so that
        // equal decimals of different scales hash identically.
        let mut m = self.mantissa;
        let mut s = self.scale;
        while s > 0 && m % 10 == 0 {
            m /= 10;
            s -= 1;
        }
        m.hash(state);
        s.hash(state);
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.mantissa);
        }
        let neg = self.mantissa < 0;
        let abs = self.mantissa.unsigned_abs();
        let div = POW10[self.scale as usize] as u128;
        let int = abs / div;
        let frac = abs % div;
        write!(
            f,
            "{}{}.{:0width$}",
            if neg { "-" } else { "" },
            int,
            frac,
            width = self.scale as usize
        )
    }
}

// ---------------------------------------------------------------------------
// Date
// ---------------------------------------------------------------------------

/// A calendar date stored as days since 1970-01-01 (may be negative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    days: i32,
}

impl Date {
    pub fn from_days(days: i32) -> Self {
        Date { days }
    }

    pub fn days(&self) -> i32 {
        self.days
    }

    fn is_leap(year: i32) -> bool {
        (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
    }

    fn days_in_month(year: i32, month: u32) -> u32 {
        match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 => {
                if Self::is_leap(year) {
                    29
                } else {
                    28
                }
            }
            _ => 0,
        }
    }

    /// Construct from a calendar date; validates the components.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> DbResult<Self> {
        if !(1..=12).contains(&month) || day == 0 || day > Self::days_in_month(year, month) {
            return Err(DbError::parse(format!("invalid date {year:04}-{month:02}-{day:02}")));
        }
        // Days from civil algorithm (Howard Hinnant's days_from_civil).
        let y = if month <= 2 { year - 1 } else { year } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let mp = ((month as i64) + 9) % 12;
        let doy = (153 * mp + 2) / 5 + day as i64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        let days = era * 146_097 + doe - 719_468;
        Ok(Date { days: days as i32 })
    }

    /// Decompose into (year, month, day) — civil_from_days.
    pub fn ymd(&self) -> (i32, u32, u32) {
        let z = self.days as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        let year = if m <= 2 { y + 1 } else { y } as i32;
        (year, m, d)
    }

    pub fn year(&self) -> i32 {
        self.ymd().0
    }

    pub fn month(&self) -> u32 {
        self.ymd().1
    }

    pub fn day(&self) -> u32 {
        self.ymd().2
    }

    pub fn add_days(&self, n: i32) -> Date {
        Date { days: self.days + n }
    }

    /// Add `n` months, clamping the day to the target month's length
    /// (SQL-standard interval-month semantics).
    pub fn add_months(&self, n: i32) -> Date {
        let (y, m, d) = self.ymd();
        let total = y * 12 + (m as i32 - 1) + n;
        let ny = total.div_euclid(12);
        let nm = (total.rem_euclid(12) + 1) as u32;
        let nd = d.min(Self::days_in_month(ny, nm));
        Date::from_ymd(ny, nm, nd).expect("clamped date is valid")
    }

    pub fn add_years(&self, n: i32) -> Date {
        self.add_months(n * 12)
    }

    /// Parse `yyyy-mm-dd`.
    pub fn parse(s: &str) -> DbResult<Self> {
        let parts: Vec<&str> = s.trim().split('-').collect();
        if parts.len() != 3 {
            return Err(DbError::parse(format!("invalid date literal '{s}'")));
        }
        let year: i32 =
            parts[0].parse().map_err(|_| DbError::parse(format!("invalid date literal '{s}'")))?;
        let month: u32 =
            parts[1].parse().map_err(|_| DbError::parse(format!("invalid date literal '{s}'")))?;
        let day: u32 =
            parts[2].parse().map_err(|_| DbError::parse(format!("invalid date literal '{s}'")))?;
        Date::from_ymd(year, month, day)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

/// A runtime SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Decimal(Decimal),
    Str(String),
    Date(Date),
    Bool(bool),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INTEGER",
            Value::Decimal(_) => "DECIMAL",
            Value::Str(_) => "STRING",
            Value::Date(_) => "DATE",
            Value::Bool(_) => "BOOLEAN",
        }
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn decimal(mantissa: i128, scale: u8) -> Value {
        Value::Decimal(Decimal::new(mantissa, scale))
    }

    pub fn date(y: i32, m: u32, d: u32) -> Value {
        Value::Date(Date::from_ymd(y, m, d).expect("valid literal date"))
    }

    /// Identity as written, unlike SQL `=` (which equates `3` with `3.0`
    /// and `'x'` with `'x '`): the same variant and the same representation.
    pub fn identical(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Decimal(a), Value::Decimal(b)) => {
                (a.mantissa, a.scale) == (b.mantissa, b.scale)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (a, b) => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
        }
    }

    /// A hash that follows [`Value::identical`] (`Hash` follows SQL `=`).
    pub fn hash_exact<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Decimal(d) => (d.mantissa, d.scale).hash(state),
            Value::Str(s) => s.hash(state),
            other => other.hash(state),
        }
    }

    pub fn as_int(&self) -> DbResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Decimal(d) => Ok(d.trunc_i64()),
            other => {
                Err(DbError::execution(format!("expected INTEGER, found {}", other.type_name())))
            }
        }
    }

    pub fn as_decimal(&self) -> DbResult<Decimal> {
        match self {
            Value::Int(v) => Ok(Decimal::from_int(*v)),
            Value::Decimal(d) => Ok(*d),
            other => {
                Err(DbError::execution(format!("expected numeric, found {}", other.type_name())))
            }
        }
    }

    pub fn as_str(&self) -> DbResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => {
                Err(DbError::execution(format!("expected STRING, found {}", other.type_name())))
            }
        }
    }

    pub fn as_date(&self) -> DbResult<Date> {
        match self {
            Value::Date(d) => Ok(*d),
            other => Err(DbError::execution(format!("expected DATE, found {}", other.type_name()))),
        }
    }

    /// SQL three-valued comparison: `None` if either side is NULL or the
    /// types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Decimal(a), Value::Decimal(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Decimal(b)) => Some(Decimal::from_int(*a).cmp(b)),
            (Value::Decimal(a), Value::Int(b)) => Some(a.cmp(&Decimal::from_int(*b))),
            (Value::Str(a), Value::Str(b)) => {
                // CHAR comparison ignores trailing blanks (SQL padded
                // semantics); this also makes CHAR(16) SAP keys compare
                // equal to their un-padded TPC-D counterparts.
                Some(a.trim_end().cmp(b.trim_end()))
            }
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Equality for grouping/hash keys: NULLs group together (SQL GROUP BY
    /// semantics), trailing-blank-insensitive for strings.
    pub fn group_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Null, _) | (_, Value::Null) => false,
            _ => self.sql_cmp(other) == Some(Ordering::Equal),
        }
    }

    /// Total order used for ORDER BY and B+-tree keys: NULLs sort first,
    /// cross-type comparisons fall back to a type ranking so sorting never
    /// panics on heterogeneous data.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Decimal(_) => 2,
                Value::Date(_) => 3,
                Value::Str(_) => 4,
            }
        }
        if let Some(ord) = self.sql_cmp(other) {
            return ord;
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Byte size of this value for storage accounting.
    pub fn storage_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 4,
            Value::Decimal(_) => 8,
            Value::Str(s) => s.len() + 2,
            Value::Date(_) => 4,
            Value::Bool(_) => 1,
        }
    }

    /// Cast to a target column type, blank-padding CHAR and checking
    /// VARCHAR length. Used on INSERT.
    pub fn coerce_to(&self, ty: &DataType) -> DbResult<Value> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(v), DataType::Int) => Ok(Value::Int(*v)),
            (Value::Int(v), DataType::Decimal { scale, .. }) => {
                Ok(Value::Decimal(Decimal::from_int(*v).rescale(*scale)))
            }
            (Value::Decimal(d), DataType::Decimal { scale, .. }) => {
                Ok(Value::Decimal(d.rescale(*scale)))
            }
            (Value::Decimal(d), DataType::Int) => Ok(Value::Int(d.trunc_i64())),
            (Value::Str(s), DataType::Char(n)) => {
                let n = *n as usize;
                if s.len() > n {
                    // CHAR semantics: truncate overlong values only if the
                    // excess is blank, else error.
                    if s[n..].trim().is_empty() {
                        Ok(Value::Str(s[..n].to_string()))
                    } else {
                        Err(DbError::execution(format!("value '{s}' too long for CHAR({n})")))
                    }
                } else {
                    Ok(Value::Str(format!("{s:<n$}")))
                }
            }
            (Value::Str(s), DataType::VarChar(n)) => {
                if s.len() > *n as usize {
                    Err(DbError::execution(format!("value too long for VARCHAR({n})")))
                } else {
                    Ok(Value::Str(s.clone()))
                }
            }
            (Value::Date(d), DataType::Date) => Ok(Value::Date(*d)),
            (Value::Str(s), DataType::Date) => Ok(Value::Date(Date::parse(s)?)),
            (Value::Bool(b), DataType::Bool) => Ok(Value::Bool(*b)),
            (v, t) => Err(DbError::execution(format!("cannot coerce {} to {t}", v.type_name()))),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ => self.sql_cmp(other) == Some(Ordering::Equal),
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(v) => {
                // Numerics hash via canonical decimal so Int(3) == Decimal(3.0)
                2u8.hash(state);
                Decimal::from_int(*v).hash(state);
            }
            Value::Decimal(d) => {
                2u8.hash(state);
                d.hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.trim_end().hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
            Value::Bool(b) => {
                5u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Decimal(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{}", s.trim_end()),
            Value::Date(d) => write!(f, "{d}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_parse_and_display_round_trip() {
        for s in ["0", "1", "-1", "3.14", "-0.05", "123456.789012"] {
            let d = Decimal::parse(s).unwrap();
            assert_eq!(d.to_string(), s, "round trip of {s}");
        }
    }

    #[test]
    fn decimal_parse_rejects_garbage() {
        assert!(Decimal::parse("").is_err());
        assert!(Decimal::parse("abc").is_err());
        assert!(Decimal::parse("1.2.3").is_err());
        assert!(Decimal::parse("-").is_err());
    }

    #[test]
    fn decimal_arithmetic() {
        let a = Decimal::parse("10.50").unwrap();
        let b = Decimal::parse("0.05").unwrap();
        assert_eq!(a.add(b).to_string(), "10.55");
        assert_eq!(a.sub(b).to_string(), "10.45");
        assert_eq!(a.mul(b).to_string(), "0.5250");
        assert_eq!(a.div(b).unwrap().trunc_i64(), 210);
    }

    #[test]
    fn decimal_tpcd_expression_is_exact() {
        // extendedprice * (1 - discount) * (1 + tax)
        let price = Decimal::parse("901.00").unwrap();
        let disc = Decimal::parse("0.05").unwrap();
        let tax = Decimal::parse("0.02").unwrap();
        let one = Decimal::from_int(1);
        let v = price.mul(one.sub(disc)).mul(one.add(tax));
        assert_eq!(v.to_string(), "873.069000");
    }

    #[test]
    fn decimal_div_by_zero_errors() {
        assert!(Decimal::from_int(1).div(Decimal::zero()).is_err());
    }

    #[test]
    fn decimal_equality_across_scales() {
        let a = Decimal::parse("1.50").unwrap();
        let b = Decimal::parse("1.5000").unwrap();
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn date_round_trip() {
        for (y, m, d) in [(1970, 1, 1), (1992, 2, 29), (1998, 12, 1), (1900, 3, 1), (2000, 2, 29)] {
            let date = Date::from_ymd(y, m, d).unwrap();
            assert_eq!(date.ymd(), (y, m, d));
            assert_eq!(Date::parse(&date.to_string()).unwrap(), date);
        }
    }

    #[test]
    fn date_rejects_invalid() {
        assert!(Date::from_ymd(1999, 2, 29).is_err());
        assert!(Date::from_ymd(1999, 13, 1).is_err());
        assert!(Date::from_ymd(1999, 0, 1).is_err());
        assert!(Date::from_ymd(1999, 4, 31).is_err());
        assert!(Date::parse("1999/01/01").is_err());
    }

    #[test]
    fn date_epoch_is_day_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).unwrap().days(), 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).unwrap().days(), 1);
        assert_eq!(Date::from_ymd(1969, 12, 31).unwrap().days(), -1);
    }

    #[test]
    fn date_interval_arithmetic() {
        let d = Date::from_ymd(1998, 12, 1).unwrap();
        assert_eq!(d.add_days(-90).to_string(), "1998-09-02");
        assert_eq!(d.add_months(3).to_string(), "1999-03-01");
        assert_eq!(d.add_years(1).to_string(), "1999-12-01");
        // Month-end clamping
        let jan31 = Date::from_ymd(1999, 1, 31).unwrap();
        assert_eq!(jan31.add_months(1).to_string(), "1999-02-28");
    }

    #[test]
    fn value_cmp_char_padding_insensitive() {
        let a = Value::str("ASIA            ");
        let b = Value::str("ASIA");
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Equal));
        assert_eq!(a, b);
    }

    #[test]
    fn value_null_semantics() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert!(Value::Null.group_eq(&Value::Null));
        assert!(!Value::Null.group_eq(&Value::Int(1)));
        // total_cmp: NULL sorts first
        assert_eq!(Value::Null.total_cmp(&Value::Int(1)), Ordering::Less);
    }

    #[test]
    fn value_numeric_cross_type_cmp() {
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Decimal(Decimal::parse("3.00").unwrap())),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Decimal(Decimal::parse("3.01").unwrap())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn coerce_char_pads_and_checks() {
        let v = Value::str("AB").coerce_to(&DataType::Char(4)).unwrap();
        assert_eq!(v, Value::str("AB  "));
        if let Value::Str(s) = &v {
            assert_eq!(s.len(), 4);
        }
        assert!(Value::str("ABCDE").coerce_to(&DataType::Char(4)).is_err());
        assert!(Value::str("AB   ").coerce_to(&DataType::Char(4)).is_ok());
    }

    #[test]
    fn coerce_numeric_rescales() {
        let v = Value::Int(7).coerce_to(&DataType::Decimal { precision: 10, scale: 2 }).unwrap();
        assert_eq!(v.to_string(), "7.00");
        let w = Value::Decimal(Decimal::parse("7.999").unwrap())
            .coerce_to(&DataType::Decimal { precision: 10, scale: 2 })
            .unwrap();
        assert_eq!(w.to_string(), "7.99");
    }

    #[test]
    fn coerce_str_to_date() {
        let v = Value::str("1995-03-15").coerce_to(&DataType::Date).unwrap();
        assert_eq!(v, Value::date(1995, 3, 15));
    }

    #[test]
    fn storage_sizes() {
        assert_eq!(Value::Int(1).storage_size(), 4);
        assert_eq!(Value::str("abcd").storage_size(), 6);
        assert_eq!(Value::Null.storage_size(), 1);
    }
}
