//! LEB128 variable-length unsigned integers.
//!
//! The record format stores attribute ids, counts, and string lengths as
//! varints: sparse entities mostly carry small ids, so the common case is a
//! single byte.

/// Maximum encoded length of a `u64` varint.
pub const MAX_LEN: usize = 10;

/// Appends the LEB128 encoding of `v` to `out`. Returns the encoded length.
/// Inlinable across crates: the server's wire sink pays it per integer cell.
#[inline]
pub fn encode(mut v: u64, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
    out.len() - start
}

/// The length [`encode`] gives `v`, without encoding it — what sizing a
/// length-prefixed buffer up front needs.
pub fn encoded_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Decodes a LEB128 varint from the front of `buf`.
///
/// Returns `(value, bytes_consumed)`, or `None` if the buffer ends inside a
/// varint or the encoding overflows 64 bits.
#[inline]
pub fn decode(buf: &[u8]) -> Option<(u64, usize)> {
    // Sparse records mostly carry ids, arities and lengths below 128.
    match buf.first() {
        Some(&byte) if byte < 0x80 => Some((u64::from(byte), 1)),
        _ => decode_multibyte(buf),
    }
}

fn decode_multibyte(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    for (i, &byte) in buf.iter().enumerate().take(MAX_LEN) {
        let payload = (byte & 0x7f) as u64;
        // The 10th byte may only contribute the low bit of the high part.
        if i == MAX_LEN - 1 && byte > 1 {
            return None;
        }
        v |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) {
        let mut buf = Vec::new();
        let n = encode(v, &mut buf);
        assert_eq!(n, buf.len());
        let (got, used) = decode(&buf).unwrap();
        assert_eq!(got, v);
        assert_eq!(used, n);
    }

    #[test]
    fn roundtrips_edge_values() {
        for v in [0, 1, 127, 128, 255, 300, 16383, 16384, u32::MAX as u64, u64::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn encoded_lengths() {
        let mut buf = Vec::new();
        assert_eq!(encode(0, &mut buf), 1);
        buf.clear();
        assert_eq!(encode(127, &mut buf), 1);
        buf.clear();
        assert_eq!(encode(128, &mut buf), 2);
        buf.clear();
        assert_eq!(encode(u64::MAX, &mut buf), 10);
        for v in [0, 1, 127, 128, 16383, 16384, (1 << 56) - 1, 1 << 56, 1 << 63, u64::MAX] {
            buf.clear();
            assert_eq!(encoded_len(v), encode(v, &mut buf), "{v}");
        }
    }

    #[test]
    fn decode_truncated_is_none() {
        let mut buf = Vec::new();
        encode(16384, &mut buf);
        assert!(decode(&buf[..1]).is_none());
        assert!(decode(&[]).is_none());
    }

    #[test]
    fn decode_overlong_is_none() {
        // 11 continuation bytes can never terminate within MAX_LEN.
        let buf = [0x80u8; 11];
        assert!(decode(&buf).is_none());
        // A 10th byte with more than the low bit set overflows u64.
        let mut buf = [0x80u8; 10];
        buf[9] = 0x02;
        assert!(decode(&buf).is_none());
    }

    #[test]
    fn decode_ignores_trailing_bytes() {
        let mut buf = Vec::new();
        encode(300, &mut buf);
        buf.extend_from_slice(&[0xde, 0xad]);
        let (v, used) = decode(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(used, 2);
    }
}
