//! Shim providing the `bytes::BufMut` methods this workspace uses:
//! little- and big-endian integer puts onto a `Vec<u8>`.

macro_rules! put_impl {
    ($name:ident, $ty:ty) => {
        fn $name(&mut self, v: $ty) {
            self.put_slice(&v.to_le_bytes());
        }
    };
}

pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    put_impl!(put_u16_le, u16);
    put_impl!(put_u32_le, u32);
    put_impl!(put_u64_le, u64);
    put_impl!(put_i32_le, i32);
    put_impl!(put_i64_le, i64);
    put_impl!(put_i128_le, i128);

    // Big-endian variants (the real crate's unsuffixed methods).
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn puts_append_in_order() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u8(7);
        out.put_u16_le(513);
        out.put_u32_le(70_000);
        out.put_i32_le(-5);
        out.put_i64_le(-1_000_000_007);
        out.put_i128_le(i128::MIN + 1);
        out.put_u32(0x0102_0304);
        out.put_slice(b"xy");
        let mut want = vec![7u8];
        want.extend(513u16.to_le_bytes());
        want.extend(70_000u32.to_le_bytes());
        want.extend((-5i32).to_le_bytes());
        want.extend((-1_000_000_007i64).to_le_bytes());
        want.extend((i128::MIN + 1).to_le_bytes());
        want.extend([1, 2, 3, 4]);
        want.extend(b"xy");
        assert_eq!(out, want);
    }
}
