//! Property-based tests for the engine's core data structures and
//! invariants: the row codec, the executor's hash, plan-time folding and
//! the numeric kernel, decimals, dates, LIKE, the B+-tree, and SQL.

use proptest::prelude::*;
use rdbms::exec::expr::{arith, BExpr, ExecCtx, FxBuild};
use rdbms::sql::ast::{BinOp, IntervalUnit};
use rdbms::storage::codec::{decode_columns, decode_row, encode_key, encode_row};
use rdbms::types::{Date, Decimal, Value};
use rdbms::{CostMeter, DbError, DbResult};
use std::collections::BTreeMap;
use std::hash::BuildHasher;
use std::ops::Bound;

// ---------------------------------------------------------------------------
// Value generators
// ---------------------------------------------------------------------------

fn arb_decimal() -> impl Strategy<Value = Decimal> {
    (-1_000_000_000_000i128..1_000_000_000_000i128, 0u8..7u8).prop_map(|(m, s)| Decimal::new(m, s))
}

fn arb_date() -> impl Strategy<Value = Date> {
    (-100_000i32..100_000i32).prop_map(Date::from_days)
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        arb_decimal().prop_map(Value::Decimal),
        TEXT.prop_map(Value::Str),
        arb_date().prop_map(Value::Date),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Printable ASCII mixed with two-, three- and four-byte UTF-8 characters.
const TEXT: &str = "[ -~éß€中😀]{0,40}";
const NONEMPTY_TEXT: &str = "[ -~éß€中😀]{1,40}";

/// Key-safe values (the documented key domain: numerics within the
/// scale-6 i128 envelope, strings, dates, bools).
fn arb_key_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1_000_000_000i64..1_000_000_000i64).prop_map(Value::Int),
        (-10_000_000_000i128..10_000_000_000i128, 0u8..5u8)
            .prop_map(|(m, s)| Value::Decimal(Decimal::new(m, s))),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Value::Str),
        arb_date().prop_map(Value::Date),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Null),
    ]
}

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(arb_value(), 0..24)
}

/// Masks of any length up to a little past the widest row, so some are
/// shorter than the row they decode (the missing columns count as `true`).
fn arb_mask() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), 0..28)
}

/// The `keep` masks every corrupt tuple is tried under: `mask`, nothing
/// kept, everything kept (`&[]`).
fn masks(row: &[Value], mask: &[bool]) -> [Vec<bool>; 3] {
    [mask.to_vec(), vec![false; row.len()], Vec::new()]
}

/// Does a mask say `true` for column `i`?
fn on(mask: &[bool], i: usize) -> bool {
    mask.get(i).copied().unwrap_or(true)
}

/// The columns of `row` that `keep` keeps, in order.
fn kept(row: &[Value], keep: &[bool]) -> Vec<Value> {
    (0..row.len()).filter(|&i| on(keep, i)).map(|i| row[i].clone()).collect()
}

/// Byte offset of column `i`'s tag in `encode_row(row)`.
fn tag_offset(row: &[Value], i: usize) -> usize {
    encode_row(&row[..i]).len()
}

/// Decoding into compact positions is `decode_row` filtered by the mask,
/// also into a row left over from another tuple (its strings are reused).
/// (`Debug` tells `Int(3)` from `Decimal(3.0)` and counts trailing blanks;
/// `==` does not.)
fn compact_is_filtered(row: &[Value], keep: &[bool], stale: Vec<Value>) {
    let bytes = encode_row(row);
    let want = format!("{:?}", kept(&decode_row(&bytes).unwrap(), keep));
    for mut out in [Vec::new(), stale] {
        decode_columns(&bytes, keep, &[], &mut out).unwrap();
        assert_eq!(format!("{out:?}"), want, "keep {keep:?}");
    }
}

/// `decode_columns(keep, want)` then `decode_columns(keep, !want)` is the
/// kept part of `decode_row`, and the first call leaves exactly the kept
/// but unwanted columns NULL.
fn masks_compose(row: &[Value], keep: &[bool], want: &[bool]) {
    let bytes = encode_row(row);
    let full = decode_row(&bytes).unwrap();
    assert_eq!(format!("{full:?}"), format!("{row:?}"));
    let mut part = Vec::new();
    decode_columns(&bytes, keep, want, &mut part).unwrap();
    let first: Vec<Value> =
        (0..row.len()).map(|i| if on(want, i) { row[i].clone() } else { Value::Null }).collect();
    assert_eq!(format!("{part:?}"), format!("{:?}", kept(&first, keep)), "{keep:?} {want:?}");
    let rest: Vec<bool> = (0..row.len()).map(|i| !on(want, i)).collect();
    decode_columns(&bytes, keep, &rest, &mut part).unwrap();
    assert_eq!(format!("{part:?}"), format!("{:?}", kept(row, keep)), "{keep:?} {want:?}");
}

fn prefixes_fail(row: &[Value], keep: &[bool], want: &[bool]) {
    let bytes = encode_row(row);
    for cut in 0..bytes.len() {
        assert!(decode_row(&bytes[..cut]).is_err(), "prefix {cut} of {row:?}");
        for k in masks(row, keep) {
            for w in [want, &[]] {
                let mut out = Vec::new();
                let decoded = decode_columns(&bytes[..cut], &k, w, &mut out);
                assert!(decoded.is_err(), "prefix {cut}, {k:?}, {w:?}");
            }
        }
    }
}

fn unknown_tag_fails(row: &[Value], keep: &[bool], want: &[bool], at: usize, tag: u8) {
    if row.is_empty() {
        return;
    }
    let i = at % row.len();
    let mut bytes = encode_row(row);
    bytes[tag_offset(row, i)] = tag;
    assert!(decode_row(&bytes).is_err());
    for k in masks(row, keep) {
        for w in [want, &[]] {
            let decoded = decode_columns(&bytes, &k, w, &mut Vec::new());
            assert!(decoded.is_err(), "tag {tag} at {i}, {k:?}, {w:?}");
        }
    }
}

/// A string whose bytes are not UTF-8 is an error when its column is
/// decoded and goes unchecked when it is dropped or not wanted yet.
fn bad_utf8_fails_when_kept(mut row: Vec<Value>, s: String, at: usize, mask: &[bool], byte: usize) {
    let i = at % (row.len() + 1);
    let len = s.len();
    row.insert(i, Value::Str(s));
    let mut bytes = encode_row(&row);
    // 0xFF never occurs in UTF-8; the string's bytes follow tag and length.
    bytes[tag_offset(&row, i) + 3 + byte % len] = 0xFF;
    assert!(decode_row(&bytes).is_err());
    let mut keep = mask.to_vec();
    keep.resize(keep.len().max(i + 1), true);
    keep[i] = true;
    assert!(decode_columns(&bytes, &keep, &[], &mut Vec::new()).is_err());
    let mut want = vec![true; row.len()];
    want[i] = false;
    let mut part = Vec::new();
    decode_columns(&bytes, &keep, &want, &mut part).unwrap();
    assert!(part[keep[..i].iter().filter(|k| **k).count()].is_null());
    keep[i] = false;
    decode_columns(&bytes, &keep, &[], &mut part).unwrap();
    assert_eq!(part.len(), kept(&row, &keep).len());
}

/// `v` under every other representation of it: an `Int` or a `Decimal`
/// at each scale up to `Decimal::MAX_SCALE`, a string with zero to three
/// trailing blanks. NULL, dates and bools have only themselves.
fn twins(v: &Value) -> Vec<Value> {
    let rescaled = |m: i128, from: u8| {
        (from..=Decimal::MAX_SCALE)
            .map(move |s| Value::Decimal(Decimal::new(m * 10i128.pow(u32::from(s - from)), s)))
    };
    match v {
        Value::Int(n) => rescaled(i128::from(*n), 0).chain([v.clone()]).collect(),
        Value::Decimal(d) => rescaled(d.mantissa(), d.scale()).collect(),
        Value::Str(s) => {
            (0..4).map(|k| Value::Str(format!("{}{}", s.trim_end(), " ".repeat(k)))).collect()
        }
        other => vec![other.clone()],
    }
}

/// Values that are equal hash equal under the executor's hasher: hash
/// joins, grouping, DISTINCT and IN find a key by its hash first.
fn equal_values_hash_equal(v: &Value) {
    let hash = |v: &Value| FxBuild::default().hash_one(v);
    for twin in twins(v) {
        assert!(twin == *v, "{twin:?} is a twin of {v:?}");
        assert_eq!(hash(&twin), hash(v), "{v:?} and {twin:?} hash apart");
    }
}

/// Numerics around zero on both sides, decimals of every scale, strings
/// with and without trailing blanks, NULL and dates.
fn arb_hashed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1_000i64..1_000).prop_map(Value::Int),
        (-1_000_000_000_000i64..1_000_000_000_000).prop_map(Value::Int),
        (-1_000_000i128..1_000_000, 0u8..13).prop_map(|(m, s)| Value::Decimal(Decimal::new(m, s))),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Str),
        TEXT.prop_map(Value::Str),
        Just(Value::Null),
        arb_date().prop_map(Value::Date),
    ]
}

// ---------------------------------------------------------------------------
// Row codec under masks and corruption, and the executor's hash against
// equality. The `_long` variants run the same checks on more cases
// (`cargo test --release -p rdbms --test proptests -- --ignored`).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compact_decode_is_decode_row_filtered(row in arb_row(), keep in arb_mask(),
                                             stale in arb_row()) {
        compact_is_filtered(&row, &keep, stale);
    }

    #[test]
    fn masked_decodes_compose_to_decode_row(row in arb_row(), keep in arb_mask(),
                                            want in arb_mask()) {
        masks_compose(&row, &keep, &want);
    }

    #[test]
    fn every_strict_prefix_is_an_error(row in arb_row(), keep in arb_mask(), want in arb_mask()) {
        prefixes_fail(&row, &keep, &want);
    }

    #[test]
    fn unknown_tags_are_errors(row in arb_row(), keep in arb_mask(), want in arb_mask(),
                               at in any::<usize>(), tag in 6u8..=255) {
        unknown_tag_fails(&row, &keep, &want, at, tag);
    }

    #[test]
    fn invalid_utf8_fails_only_when_kept(row in arb_row(), s in NONEMPTY_TEXT, at in any::<usize>(),
                                         mask in arb_mask(), byte in any::<usize>()) {
        bad_utf8_fails_when_kept(row, s, at, &mask, byte);
    }

    #[test]
    fn equal_values_hash_equal_in_the_executor(v in arb_hashed_value()) {
        equal_values_hash_equal(&v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore]
    fn compact_decode_is_decode_row_filtered_long(row in arb_row(), keep in arb_mask(),
                                                  stale in arb_row()) {
        compact_is_filtered(&row, &keep, stale);
    }

    #[test]
    #[ignore]
    fn masked_decodes_compose_to_decode_row_long(row in arb_row(), keep in arb_mask(),
                                                 want in arb_mask()) {
        masks_compose(&row, &keep, &want);
    }

    #[test]
    #[ignore]
    fn every_strict_prefix_is_an_error_long(row in arb_row(), keep in arb_mask(),
                                            want in arb_mask()) {
        prefixes_fail(&row, &keep, &want);
    }

    #[test]
    #[ignore]
    fn unknown_tags_are_errors_long(row in arb_row(), keep in arb_mask(), want in arb_mask(),
                                    at in any::<usize>(), tag in 6u8..=255) {
        unknown_tag_fails(&row, &keep, &want, at, tag);
    }

    #[test]
    #[ignore]
    fn invalid_utf8_fails_only_when_kept_long(row in arb_row(), s in NONEMPTY_TEXT, at in any::<usize>(),
                                         mask in arb_mask(), byte in any::<usize>()) {
        bad_utf8_fails_when_kept(row, s, at, &mask, byte);
    }

    #[test]
    #[ignore]
    fn equal_values_hash_equal_in_the_executor_long(v in arb_hashed_value()) {
        equal_values_hash_equal(&v);
    }
}

// ---------------------------------------------------------------------------
// Plan-time folding and the numeric kernel against plain evaluation.
// Expression trees are grown from a drawn seed (the proptest shim has no
// recursive strategies).
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

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Columns of the rows expressions are evaluated on.
const WIDTH: usize = 6;

/// A value of every kind, mostly numeric: `Int`s, `Decimal`s of at most
/// three fraction digits written at any scale from their own to
/// `MAX_SCALE` (so `×` hits the clamp), both signs; NULL, dates, strings
/// (trailing blanks too) and booleans. No value exceeds 1 000, none but
/// zero is below 0.001, so two nested arithmetic operators stay within
/// `i64` and `i128` (see [`expr`]).
fn small_value(rng: &mut Rng) -> Value {
    match rng.below(16) {
        0 => Value::Null,
        1..=5 => Value::Int(rng.below(201) as i64 - 100),
        6..=12 => {
            let digits = rng.below(4) as u8;
            let scale = digits + rng.below(u64::from(Decimal::MAX_SCALE - digits) + 1) as u8;
            let m = rng.below(2001) as i128 - 1000;
            Value::Decimal(Decimal::new(m * 10i128.pow(u32::from(scale - digits)), scale))
        }
        13 => Value::Date(Date::from_days(9_000 + rng.below(800) as i32)),
        14 => Value::Str(rng.pick(&["", "a", "ab ", "7"]).to_string()),
        _ => Value::Bool(rng.below(2) == 0),
    }
}

fn leaf(rng: &mut Rng) -> BExpr {
    if rng.below(5) < 2 {
        BExpr::Column(rng.below(WIDTH as u64) as usize)
    } else {
        BExpr::Literal(small_value(rng))
    }
}

/// `1/0`: a literal subtree that fails whenever it is evaluated.
fn failing() -> BExpr {
    BExpr::Binary {
        left: BExpr::Literal(Value::Int(1)).boxed(),
        op: BinOp::Div,
        right: BExpr::Literal(Value::Int(0)).boxed(),
    }
}

/// An arithmetic tree: `+ − × /` and negation over leaves, at most
/// `nest` operators deep (negation does not count: it grows nothing).
/// Two levels over [`small_value`]s keep every `Decimal` mantissa below
/// 10^37 and every `Int` below 10^5, so nothing overflows.
fn arith_expr(rng: &mut Rng, nest: u32) -> BExpr {
    match rng.below(5) {
        0 if nest > 0 => BExpr::Neg(arith_expr(rng, nest).boxed()),
        1..=3 if nest > 0 => BExpr::Binary {
            left: arith_expr(rng, nest - 1).boxed(),
            op: rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]),
            right: arith_expr(rng, nest - 1).boxed(),
        },
        _ => leaf(rng),
    }
}

/// Any expression: arithmetic (at most two operators deep along any path,
/// as in [`arith_expr`]; `CASE` passes values through and does not count),
/// comparisons, `BETWEEN`, `IN`, `AND`/`OR`/`NOT`, `IS NULL`, date
/// intervals and `CASE` with a branch that fails when taken.
fn expr(rng: &mut Rng, depth: u32, nest: u32) -> BExpr {
    if depth == 0 || rng.below(4) == 0 {
        return leaf(rng);
    }
    let sub = |rng: &mut Rng| expr(rng, depth - 1, nest).boxed();
    match rng.below(11) {
        0 | 1 if nest > 0 => BExpr::Binary {
            left: expr(rng, depth - 1, nest - 1).boxed(),
            op: rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]),
            right: expr(rng, depth - 1, nest - 1).boxed(),
        },
        2 => BExpr::Neg(sub(rng)),
        3 => BExpr::Binary {
            left: sub(rng),
            op: rng.pick(&[
                BinOp::Eq,
                BinOp::NotEq,
                BinOp::Lt,
                BinOp::LtEq,
                BinOp::Gt,
                BinOp::GtEq,
            ]),
            right: sub(rng),
        },
        4 => BExpr::Between {
            expr: sub(rng),
            low: sub(rng),
            high: sub(rng),
            negated: rng.below(2) == 0,
        },
        5 => BExpr::InList {
            expr: sub(rng),
            list: (0..1 + rng.below(3)).map(|_| *sub(rng)).collect(),
            negated: rng.below(2) == 0,
        },
        6 => BExpr::Binary {
            left: sub(rng),
            op: rng.pick(&[BinOp::And, BinOp::Or]),
            right: sub(rng),
        },
        7 => match rng.below(2) {
            0 => BExpr::Not(sub(rng)),
            _ => BExpr::IsNull { expr: sub(rng), negated: rng.below(2) == 0 },
        },
        8 => BExpr::IntervalAdd {
            expr: sub(rng),
            amount: rng.below(61) as i32 - 30,
            unit: rng.pick(&[IntervalUnit::Day, IntervalUnit::Month, IntervalUnit::Year]),
        },
        _ => {
            let result = |rng: &mut Rng| match rng.below(4) {
                0 => failing(),
                _ => *sub(rng),
            };
            let branches =
                (0..1 + rng.below(2)).map(|_| (*sub(rng), result(rng))).collect::<Vec<_>>();
            let else_expr = match rng.below(3) {
                0 => None,
                _ => Some(result(rng).boxed()),
            };
            BExpr::Case { branches, else_expr }
        }
    }
}

/// An evaluation's outcome, comparable: the value by `Value::identical`
/// (its `Debug` tells `Int(3)` from `Decimal(3.0)`), an error by its text.
fn outcome(r: DbResult<Value>) -> Result<String, String> {
    match r {
        Ok(v) => {
            if let Value::Decimal(d) = &v {
                assert!(d.scale() <= Decimal::MAX_SCALE, "{v:?} is past the scale clamp");
            }
            Ok(format!("{v:?}"))
        }
        Err(e) => Err(e.to_string()),
    }
}

fn reads_a_column(e: &BExpr) -> bool {
    let mut found = false;
    e.visit(&mut |n| found |= matches!(n, BExpr::Column(_)));
    found
}

/// A folded tree evaluates as the tree did, value for value and error for
/// error, as a value and as a predicate; and a tree that reads no column
/// and evaluates folds to that value.
fn folding_preserves(seed: u64) {
    let mut rng = Rng(seed);
    let row: Vec<Value> = (0..WIDTH).map(|_| small_value(&mut rng)).collect();
    let tree = expr(&mut rng, 4, 2);
    let mut folded = tree.clone();
    let literal = folded.fold_literals();
    assert_eq!(literal, !reads_a_column(&tree), "{tree:?}");
    let meter = CostMeter::default();
    let ctx = ExecCtx::new(&[], &meter);
    let want = outcome(tree.eval(&row, &ctx));
    assert_eq!(outcome(folded.eval(&row, &ctx)), want, "{tree:?}\nfolded {folded:?}\non {row:?}");
    let as_bool = |e: &BExpr| e.eval_bool(&row, &ctx).map_err(|e| e.to_string());
    assert_eq!(as_bool(&folded), as_bool(&tree), "{tree:?}\nfolded {folded:?}\non {row:?}");
    if literal && want.is_ok() {
        assert!(matches!(folded, BExpr::Literal(_)), "{tree:?} folded to {folded:?}");
    }
}

/// The long way round for [`arith_expr`] trees: every node's operands
/// evaluated into `Value`s, then `arith` (NULL in, NULL out).
fn reference(e: &BExpr, row: &[Value]) -> DbResult<Value> {
    Ok(match e {
        BExpr::Column(i) => row[*i].clone(),
        BExpr::Literal(v) => v.clone(),
        BExpr::Neg(x) => match reference(x, row)? {
            Value::Null => Value::Null,
            Value::Int(v) => Value::Int(-v),
            Value::Decimal(d) => Value::Decimal(d.neg()),
            other => {
                return Err(DbError::execution(format!("cannot negate {}", other.type_name())))
            }
        },
        BExpr::Binary { left, op, right } => {
            let (l, r) = (reference(left, row)?, reference(right, row)?);
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            arith(&l, *op, &r)?
        }
        other => panic!("not arithmetic: {other:?}"),
    })
}

/// Arithmetic evaluates as [`reference`] does: the kernel's values, and
/// the general path's errors where a leaf is not numeric.
fn kernel_is_arith(seed: u64) {
    let mut rng = Rng(seed);
    let row: Vec<Value> = (0..WIDTH).map(|_| small_value(&mut rng)).collect();
    let tree = arith_expr(&mut rng, 2);
    let meter = CostMeter::default();
    let ctx = ExecCtx::new(&[], &meter);
    let got = outcome(tree.eval(&row, &ctx));
    assert_eq!(got, outcome(reference(&tree, &row)), "{tree:?}\non {row:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn folding_preserves_evaluation(seed in any::<u64>()) {
        folding_preserves(seed);
    }

    #[test]
    fn numeric_kernel_is_arith(seed in any::<u64>()) {
        kernel_is_arith(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    #[test]
    #[ignore]
    fn folding_preserves_evaluation_long(seed in any::<u64>()) {
        folding_preserves(seed);
    }

    #[test]
    #[ignore]
    fn numeric_kernel_is_arith_long(seed in any::<u64>()) {
        kernel_is_arith(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // -- row codec ---------------------------------------------------------

    #[test]
    fn row_codec_round_trips(row in prop::collection::vec(arb_value(), 0..24)) {
        let bytes = encode_row(&row);
        let back = decode_row(&bytes).unwrap();
        prop_assert_eq!(row.len(), back.len());
        for (a, b) in row.iter().zip(&back) {
            match (a, b) {
                (Value::Null, Value::Null) => {}
                _ => prop_assert!(a == b, "mismatch: {:?} vs {:?}", a, b),
            }
        }
    }

    // -- order-preserving key encoding --------------------------------------

    #[test]
    fn key_encoding_preserves_total_order(a in arb_key_value(), b in arb_key_value()) {
        let ka = encode_key(std::slice::from_ref(&a));
        let kb = encode_key(std::slice::from_ref(&b));
        prop_assert_eq!(ka.cmp(&kb), a.total_cmp(&b),
            "key order mismatch for {:?} vs {:?}", a, b);
    }

    #[test]
    fn composite_key_order_is_lexicographic(
        a in prop::collection::vec(arb_key_value(), 1..4),
        b in prop::collection::vec(arb_key_value(), 1..4),
    ) {
        // Compare element-wise like the executor's sort would.
        let expected = {
            let mut ord = std::cmp::Ordering::Equal;
            for (x, y) in a.iter().zip(b.iter()) {
                ord = x.total_cmp(y);
                if ord != std::cmp::Ordering::Equal {
                    break;
                }
            }
            if ord == std::cmp::Ordering::Equal {
                a.len().cmp(&b.len())
            } else {
                ord
            }
        };
        let ka = encode_key(&a);
        let kb = encode_key(&b);
        prop_assert_eq!(ka.cmp(&kb), expected);
    }

    // -- decimal arithmetic --------------------------------------------------

    #[test]
    fn decimal_add_commutes(a in arb_decimal(), b in arb_decimal()) {
        prop_assert_eq!(a.add(b), b.add(a));
    }

    #[test]
    fn decimal_add_sub_inverse(a in arb_decimal(), b in arb_decimal()) {
        prop_assert_eq!(a.add(b).sub(b), a);
    }

    #[test]
    fn decimal_mul_one_is_identity(a in arb_decimal()) {
        prop_assert_eq!(a.mul(Decimal::from_int(1)), a);
    }

    #[test]
    fn decimal_order_matches_f64(a in arb_decimal(), b in arb_decimal()) {
        // f64 is only approximate; check when comfortably apart.
        let (fa, fb) = (a.to_f64(), b.to_f64());
        if (fa - fb).abs() > 1e-3 {
            prop_assert_eq!(a < b, fa < fb);
        }
    }

    #[test]
    fn decimal_display_parse_round_trip(a in arb_decimal()) {
        let s = a.to_string();
        let back = Decimal::parse(&s).unwrap();
        prop_assert_eq!(a, back);
    }

    // -- dates ----------------------------------------------------------------

    #[test]
    fn date_ymd_round_trip(d in arb_date()) {
        let (y, m, day) = d.ymd();
        let back = Date::from_ymd(y, m, day).unwrap();
        prop_assert_eq!(d, back);
    }

    #[test]
    fn date_add_days_inverse(d in arb_date(), n in -5000i32..5000) {
        prop_assert_eq!(d.add_days(n).add_days(-n), d);
    }

    #[test]
    fn date_add_days_is_monotone(d in arb_date(), n in 1i32..5000) {
        prop_assert!(d.add_days(n) > d);
    }

    // -- LIKE matching ---------------------------------------------------------

    #[test]
    fn like_without_wildcards_is_equality(s in "[a-z]{0,12}", t in "[a-z]{0,12}") {
        prop_assert_eq!(rdbms::exec::expr::like_match(&s, &t), s == t);
    }

    #[test]
    fn like_contains(s in "[a-z]{0,16}", needle in "[a-z]{1,4}") {
        let pattern = format!("%{needle}%");
        prop_assert_eq!(
            rdbms::exec::expr::like_match(&s, &pattern),
            s.contains(&needle)
        );
    }

    #[test]
    fn like_prefix_suffix(s in "[a-z]{0,16}", affix in "[a-z]{1,4}") {
        prop_assert_eq!(
            rdbms::exec::expr::like_match(&s, &format!("{affix}%")),
            s.starts_with(&affix)
        );
        prop_assert_eq!(
            rdbms::exec::expr::like_match(&s, &format!("%{affix}")),
            s.ends_with(&affix)
        );
    }
}

// ---------------------------------------------------------------------------
// B+-tree vs model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(i64),
    Delete(i64),
    Range(i64, i64),
}

fn arb_tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    prop::collection::vec(
        prop_oneof![
            (-500i64..500).prop_map(TreeOp::Insert),
            (-500i64..500).prop_map(TreeOp::Delete),
            ((-500i64..500), (-500i64..500)).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_model(ops in arb_tree_ops()) {
        use trace::meter::CostMeter;
        use rdbms::index::BTree;
        use rdbms::storage::{Pager, PagerConfig, Rid};

        let pager = Pager::new(PagerConfig { pool_pages: 64 }, CostMeter::new());
        let mut tree = BTree::new(pager, false).unwrap();
        let mut model: BTreeMap<i64, Rid> = BTreeMap::new();
        let key_of = |k: i64| encode_key(&[Value::Int(k)]);

        for op in &ops {
            match op {
                TreeOp::Insert(k) => {
                    let rid = Rid::new((*k + 1000) as u32, 0);
                    if !model.contains_key(k) {
                        tree.insert(&key_of(*k), rid).unwrap();
                        model.insert(*k, rid);
                    }
                }
                TreeOp::Delete(k) => {
                    if let Some(rid) = model.remove(k) {
                        let found = tree.delete(&key_of(*k), rid).unwrap();
                        prop_assert!(found, "model had {} but tree delete missed", k);
                    }
                }
                TreeOp::Range(lo, hi) => {
                    let klo = key_of(*lo);
                    let khi = key_of(*hi);
                    let got: Vec<Rid> = tree
                        .range_scan(Bound::Included(&klo), Bound::Included(&khi))
                        .unwrap()
                        .into_iter()
                        .map(|(_, r)| r)
                        .collect();
                    let expected: Vec<Rid> =
                        model.range(*lo..=*hi).map(|(_, r)| *r).collect();
                    prop_assert_eq!(&got, &expected, "range [{}, {}]", lo, hi);
                }
            }
        }
        // Final full scan agrees.
        let all: Vec<Rid> = tree.scan_all().unwrap().into_iter().map(|(_, r)| r).collect();
        let expected: Vec<Rid> = model.values().copied().collect();
        prop_assert_eq!(all, expected);
        prop_assert_eq!(tree.entry_count(), model.len() as u64);
    }
}

// ---------------------------------------------------------------------------
// SQL-level properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ORDER BY returns exactly the sorted multiset; GROUP BY sums equal a
    /// manual recomputation; index scans agree with sequential scans.
    #[test]
    fn sql_sort_group_and_index_agree(
        rows in prop::collection::vec((0i64..50, -100i64..100), 1..120)
    ) {
        let db = rdbms::Database::with_defaults();
        db.execute("CREATE TABLE t (g INTEGER, v INTEGER)").unwrap();
        let values: Vec<String> =
            rows.iter().map(|(g, v)| format!("({g}, {v})")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();

        // ORDER BY.
        let sorted = db.query("SELECT g, v FROM t ORDER BY g, v").unwrap();
        let mut expected = rows.clone();
        expected.sort();
        let got: Vec<(i64, i64)> = sorted
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        prop_assert_eq!(&got, &expected);

        // GROUP BY sums.
        let grouped = db
            .query("SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g ORDER BY g")
            .unwrap();
        let mut sums: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for (g, v) in &rows {
            let e = sums.entry(*g).or_insert((0, 0));
            e.0 += v;
            e.1 += 1;
        }
        prop_assert_eq!(grouped.rows.len(), sums.len());
        for row in &grouped.rows {
            let g = row[0].as_int().unwrap();
            let (sum, count) = sums[&g];
            prop_assert_eq!(row[1].as_int().unwrap(), sum);
            prop_assert_eq!(row[2].as_int().unwrap(), count);
        }

        // Index scan equals sequential scan.
        let probe = rows[0].0;
        let seq = db
            .query(&format!("SELECT v FROM t WHERE g = {probe} ORDER BY v"))
            .unwrap();
        db.execute("CREATE INDEX t_g ON t (g)").unwrap();
        db.execute("ANALYZE t").unwrap();
        let via_index = db
            .query(&format!("SELECT v FROM t WHERE g = {probe} ORDER BY v"))
            .unwrap();
        prop_assert_eq!(seq.rows, via_index.rows);
    }
}
