//! Row <-> bytes codec.
//!
//! Encoding is tag-prefixed, little-endian, and self-describing per value:
//!
//! * `0` NULL
//! * `1` Int: i64
//! * `2` Decimal: i128 mantissa + u8 scale
//! * `3` Str: u16 length + UTF-8 bytes
//! * `4` Date: i32 days
//! * `5` Bool: u8
//!
//! There is also an order-preserving *key* encoding for B+-tree keys, where
//! byte-wise comparison of encoded keys matches `Value::total_cmp` on the
//! originals.

use crate::error::{DbError, DbResult};
use crate::types::{Date, Decimal, Value};

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DEC: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DATE: u8 = 4;
const TAG_BOOL: u8 = 5;

/// Append one value to `out`.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Decimal(d) => {
            out.push(TAG_DEC);
            out.extend_from_slice(&d.mantissa().to_le_bytes());
            out.push(d.scale());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            debug_assert!(s.len() <= u16::MAX as usize);
            out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            out.extend_from_slice(&d.days().to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
    }
}

/// A read position in a byte slice: each read splits its bytes off the
/// front, or returns `None` and moves nothing if too few remain. Rows and
/// log records are decoded with it.
pub(crate) struct Reader<'a>(pub(crate) &'a [u8]);

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk()?;
        self.0 = rest;
        Some(*head)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
}

/// Split the field at the front of `r` into its tag and its payload. Every
/// field is split whether it is then decoded or not, so truncation and
/// unknown tags are errors whatever is wanted.
#[inline]
fn field<'a>(r: &mut Reader<'a>) -> DbResult<(u8, &'a [u8])> {
    let truncated = || DbError::storage("truncated tuple");
    let tag = r.u8().ok_or_else(truncated)?;
    let len = match tag {
        TAG_NULL => 0,
        TAG_INT => 8,
        TAG_DEC => 17,
        TAG_STR => r.u16().ok_or_else(truncated)? as usize,
        TAG_DATE => 4,
        TAG_BOOL => 1,
        other => return Err(DbError::storage(format!("unknown value tag {other}"))),
    };
    let short = if tag == TAG_STR { "truncated string value" } else { "truncated tuple" };
    Ok((tag, r.take(len).ok_or_else(|| DbError::storage(short))?))
}

/// Write the value of a field [`field`] split off (`body` is as long as
/// `tag` says) into `slot`. A string lands in the slot's own `String` when
/// it already holds one, so a row reused across tuples allocates nothing
/// for it. Only a string can fail: its bytes are checked here, so a string
/// that is skipped is never validated or copied.
#[inline]
fn value_into(tag: u8, body: &[u8], slot: &mut Value) -> DbResult<()> {
    *slot = match tag {
        TAG_INT => Value::Int(i64::from_le_bytes(fixed(body))),
        TAG_DEC => Value::Decimal(Decimal::new(i128::from_le_bytes(fixed(body)), body[16])),
        TAG_STR => {
            let s = std::str::from_utf8(body)
                .map_err(|_| DbError::storage("invalid UTF-8 in stored string"))?;
            if let Value::Str(buf) = slot {
                buf.clear();
                buf.push_str(s);
                return Ok(());
            }
            Value::Str(s.to_owned())
        }
        TAG_DATE => Value::Date(Date::from_days(i32::from_le_bytes(fixed(body)))),
        TAG_BOOL => Value::Bool(body[0] != 0),
        _ => Value::Null,
    };
    Ok(())
}

/// The first `N` bytes of a payload [`field`] has found long enough.
fn fixed<const N: usize>(body: &[u8]) -> [u8; N] {
    *body.first_chunk().expect("field length checked")
}

/// Encode a whole row.
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.iter().map(|v| v.storage_size() + 1).sum());
    debug_assert!(row.len() <= u16::MAX as usize);
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        encode_value(&mut out, v);
    }
    out
}

/// Decode a whole row.
pub fn decode_row(bytes: &[u8]) -> DbResult<Vec<Value>> {
    let stored = Reader(bytes).u16().map_or(0, usize::from);
    let mut row = Vec::with_capacity(stored);
    decode_columns(bytes, &[], &[], &mut row).map(|()| row)
}

/// Decode a tuple into a *compact* row: `row` holds only the stored
/// columns `i` with `keep[i]`, in stored order, so kept column `i` is at
/// the number of kept columns before it. Of those, only the ones with
/// `want[i]` are decoded now; the slots of the others are left as they
/// are (a fresh slot is `Value::Null`), so a second call with the same
/// `keep` and the complementary `want` completes a row the first call
/// began. Columns past the end of either mask count as `true`. `row` is
/// grown or cut to the kept width. The whole tuple is walked either way:
/// truncation and unknown tags are errors whatever the masks.
pub fn decode_columns(
    bytes: &[u8],
    keep: &[bool],
    want: &[bool],
    row: &mut Vec<Value>,
) -> DbResult<()> {
    let mut r = Reader(bytes);
    let n = r.u16().ok_or_else(|| DbError::storage("truncated row header"))?;
    let mut slot = 0;
    for i in 0..n as usize {
        let (tag, body) = field(&mut r)?;
        if !keep.get(i).copied().unwrap_or(true) {
            continue;
        }
        if slot == row.len() {
            row.push(Value::Null);
        }
        if want.get(i).copied().unwrap_or(true) {
            value_into(tag, body, &mut row[slot])?;
        }
        slot += 1;
    }
    row.truncate(slot);
    Ok(())
}

// ---------------------------------------------------------------------------
// Order-preserving key encoding (for B+-tree composite keys)
// ---------------------------------------------------------------------------

/// Encode a composite key such that lexicographic byte comparison of the
/// encodings equals `Value::total_cmp` element-wise on the originals.
///
/// * NULL: `0x00`
/// * numeric (Int or Decimal): `0x02` + sign-flipped i128 mantissa at a
///   fixed scale, big-endian
/// * Date: `0x03` + sign-flipped i32 big-endian
/// * Str: `0x04` + trailing-blank-trimmed bytes with `0x00` escaped as
///   `0x00 0xFF` and terminated by `0x00 0x00`
/// * Bool: `0x01` + byte
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 12);
    for v in values {
        match v {
            Value::Null => out.push(0x00),
            Value::Bool(b) => {
                out.push(0x01);
                out.push(*b as u8);
            }
            Value::Int(_) | Value::Decimal(_) => {
                out.push(0x02);
                // Normalize all numerics to scale 6 for comparability; this
                // covers every key column used by the workloads (keys are
                // integers or money with scale <= 2). Values beyond i128/1e6
                // range are not used as index keys.
                let d = v.as_decimal().expect("numeric").rescale(6);
                encode_varnum(&mut out, d.mantissa());
            }
            Value::Date(d) => {
                out.push(0x03);
                let flipped = (d.days() as u32) ^ (1u32 << 31);
                out.extend_from_slice(&flipped.to_be_bytes());
            }
            Value::Str(s) => {
                out.push(0x04);
                for &b in s.trim_end().as_bytes() {
                    if b == 0x00 {
                        out.push(0x00);
                        out.push(0xFF);
                    } else {
                        out.push(b);
                    }
                }
                out.push(0x00);
                out.push(0x00);
            }
        }
    }
    out
}

/// Order-preserving variable-length integer encoding: one prefix byte
/// (`0x80 + len` for non-negatives, `0x80 - len` for negatives) followed by
/// the minimal big-endian two's-complement bytes. Byte-wise comparison of
/// encodings matches numeric comparison, and a 4-byte TPC-D key costs ~4
/// bytes instead of 17 — which is exactly the integer-vs-CHAR(16) index
/// size contrast the paper's Table 2 measures.
fn encode_varnum(out: &mut Vec<u8>, m: i128) {
    let bytes = m.to_be_bytes();
    let mut start = 0usize;
    while start < 15 {
        let b = bytes[start];
        let next = bytes[start + 1];
        if (b == 0x00 && next < 0x80) || (b == 0xFF && next >= 0x80) {
            start += 1;
        } else {
            break;
        }
    }
    let len = (16 - start) as u8;
    if m >= 0 {
        out.push(0x80 + len);
    } else {
        out.push(0x80 - len);
    }
    out.extend_from_slice(&bytes[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Decimal;

    #[test]
    fn varnum_is_order_preserving_and_compact() {
        let vals: Vec<i128> = vec![
            i128::MIN,
            -1_000_000_000_000,
            -65_536,
            -256,
            -255,
            -2,
            -1,
            0,
            1,
            2,
            127,
            128,
            255,
            256,
            1_000_000,
            i128::MAX,
        ];
        let encoded: Vec<Vec<u8>> = vals
            .iter()
            .map(|&m| {
                let mut v = Vec::new();
                encode_varnum(&mut v, m);
                v
            })
            .collect();
        for w in encoded.windows(2) {
            assert!(w[0] < w[1], "ordering broken");
        }
        // Small numbers are small.
        let mut five = Vec::new();
        encode_varnum(&mut five, 5);
        assert_eq!(five.len(), 2);
    }

    fn roundtrip(row: Vec<Value>) {
        let bytes = encode_row(&row);
        let back = decode_row(&bytes).unwrap();
        assert_eq!(row.len(), back.len());
        for (a, b) in row.iter().zip(back.iter()) {
            match (a, b) {
                (Value::Null, Value::Null) => {}
                _ => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn row_round_trip() {
        roundtrip(vec![
            Value::Int(42),
            Value::Null,
            Value::str("hello world"),
            Value::Decimal(Decimal::parse("-12.345").unwrap()),
            Value::date(1996, 1, 2),
            Value::Bool(true),
        ]);
        roundtrip(vec![]);
        roundtrip(vec![Value::str("")]);
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode_row(&[Value::str("hello")]);
        assert!(decode_row(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_row(&[]).is_err());
        assert!(decode_row(&[1, 0, 99]).is_err()); // unknown tag
    }

    #[test]
    fn decode_columns_skips_unwanted_and_composes() {
        let full = vec![
            Value::Int(42),
            Value::str("skipped string"),
            Value::Null,
            Value::date(1996, 1, 2),
            Value::str("kept   "),
        ];
        let bytes = encode_row(&full);
        let keep = [true, false, false, true, true];
        let first = [true, false, false, false, true];
        let mut row = Vec::new();
        decode_columns(&bytes, &keep, &first, &mut row).unwrap();
        assert_eq!(row.len(), 3, "only the kept columns");
        assert_eq!(row[0], Value::Int(42));
        assert!(row[1].is_null(), "kept but not wanted yet");
        assert_eq!(row[2], Value::str("kept   "));
        // The complementary mask completes the row.
        let rest: Vec<bool> = first.iter().map(|w| !w).collect();
        decode_columns(&bytes, &keep, &rest, &mut row).unwrap();
        assert_eq!(row, vec![full[0].clone(), full[3].clone(), full[4].clone()]);
        // A reused row is cut to the kept width, and its strings are rewritten.
        let mut reused = vec![Value::str("a much longer old value"); 6];
        decode_columns(&bytes, &[false, true], &[], &mut reused).unwrap();
        assert_eq!(reused, full[1..].to_vec());
        // Truncation is an error even when the cut column is not kept.
        let mut scratch = Vec::new();
        assert!(decode_columns(&bytes[..bytes.len() - 1], &[false; 5], &[], &mut scratch).is_err());
    }

    #[test]
    fn key_encoding_orders_like_total_cmp() {
        let vals = [
            Value::Null,
            Value::Int(-5),
            Value::Int(0),
            Value::Decimal(Decimal::parse("0.5").unwrap()),
            Value::Int(3),
            Value::Decimal(Decimal::parse("3.14").unwrap()),
            Value::Int(1000),
        ];
        for a in &vals {
            for b in &vals {
                let ka = encode_key(std::slice::from_ref(a));
                let kb = encode_key(std::slice::from_ref(b));
                assert_eq!(ka.cmp(&kb), a.total_cmp(b), "key order mismatch for {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn key_encoding_strings_and_dates() {
        let pairs = [
            (Value::str("APPLE"), Value::str("BANANA")),
            (Value::str("A"), Value::str("AB")),
            (Value::str("ASIA   "), Value::str("ASIA")), // padded equal
            (Value::date(1995, 1, 1), Value::date(1996, 1, 1)),
            (Value::date(1969, 12, 31), Value::date(1970, 1, 1)),
        ];
        for (a, b) in &pairs {
            let ka = encode_key(std::slice::from_ref(a));
            let kb = encode_key(std::slice::from_ref(b));
            assert_eq!(ka.cmp(&kb), a.total_cmp(b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn key_encoding_composite_prefix_property() {
        // (1, "B") < (2, "A")  — first component dominates
        let k1 = encode_key(&[Value::Int(1), Value::str("B")]);
        let k2 = encode_key(&[Value::Int(2), Value::str("A")]);
        assert!(k1 < k2);
        // prefix of composite sorts before its extensions
        let p = encode_key(&[Value::Int(1)]);
        assert!(p < k1);
        assert!(k1.starts_with(&p));
    }

    #[test]
    fn key_encoding_embedded_nul_in_string() {
        let a = Value::Str("a\0b".to_string());
        let b = Value::Str("a".to_string());
        let ka = encode_key(std::slice::from_ref(&a));
        let kb = encode_key(std::slice::from_ref(&b));
        assert_eq!(ka.cmp(&kb), a.total_cmp(&b));
    }
}
