//! RFC 9000 §16 variable-length integer encoding.
//!
//! QUIC encodes integers in 1, 2, 4 or 8 bytes; the two most significant
//! bits of the first byte carry the length exponent. The usable range is
//! 0..=2^62-1.

use crate::error::{WireError, WireResult};
use bytes::{Buf, BufMut};

/// Largest value representable as a QUIC varint (2^62 - 1).
pub const MAX_VARINT: u64 = (1 << 62) - 1;

/// Returns the number of bytes [`write_varint`] will use for `value`.
///
/// Returns `None` if the value exceeds [`MAX_VARINT`].
pub fn varint_len(value: u64) -> Option<usize> {
    match value {
        0..=0x3f => Some(1),
        0x40..=0x3fff => Some(2),
        0x4000..=0x3fff_ffff => Some(4),
        0x4000_0000..=MAX_VARINT => Some(8),
        _ => None,
    }
}

/// Encodes `value` into `buf` using the minimal-length varint encoding.
///
/// # Errors
/// [`WireError::InvalidValue`] if `value > MAX_VARINT`.
pub fn write_varint<B: BufMut>(buf: &mut B, value: u64) -> WireResult<()> {
    match varint_len(value) {
        Some(1) => {
            debug_assert!(value <= 0x3f, "1-byte varint out of range: {value:#x}");
            buf.put_u8(value as u8)
        }
        Some(2) => {
            debug_assert!(value <= 0x3fff, "2-byte varint out of range: {value:#x}");
            buf.put_u16((value as u16) | 0x4000)
        }
        Some(4) => {
            debug_assert!(
                value <= 0x3fff_ffff,
                "4-byte varint out of range: {value:#x}"
            );
            buf.put_u32((value as u32) | 0x8000_0000)
        }
        Some(8) => {
            debug_assert!(
                value <= MAX_VARINT,
                "8-byte varint out of range: {value:#x}"
            );
            buf.put_u64(value | 0xc000_0000_0000_0000)
        }
        _ => return Err(WireError::InvalidValue { what: "varint" }),
    }
    Ok(())
}

/// Decodes a varint from the front of `buf`, advancing it.
///
/// # Errors
/// [`WireError::UnexpectedEnd`] if `buf` does not hold the complete
/// encoding.
pub fn read_varint<B: Buf>(buf: &mut B) -> WireResult<u64> {
    if buf.remaining() < 1 {
        return Err(WireError::UnexpectedEnd { what: "varint" });
    }
    let first = buf.chunk()[0];
    let len = 1usize << (first >> 6);
    if buf.remaining() < len {
        return Err(WireError::UnexpectedEnd { what: "varint" });
    }
    let value = match len {
        1 => u64::from(buf.get_u8() & 0x3f),
        2 => u64::from(buf.get_u16() & 0x3fff),
        4 => u64::from(buf.get_u32() & 0x3fff_ffff),
        8 => buf.get_u64() & 0x3fff_ffff_ffff_ffff,
        _ => unreachable!("len is 1, 2, 4 or 8"),
    };
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(value: u64) -> u64 {
        let mut buf = Vec::new();
        write_varint(&mut buf, value).unwrap();
        let mut slice = &buf[..];
        read_varint(&mut slice).unwrap()
    }

    #[test]
    fn rfc9000_appendix_a1_examples() {
        // The four worked examples from RFC 9000 §A.1.
        let cases: &[(u64, &[u8])] = &[
            (
                151_288_809_941_952_652,
                &[0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c],
            ),
            (494_878_333, &[0x9d, 0x7f, 0x3e, 0x7d]),
            (15_293, &[0x7b, 0xbd]),
            (37, &[0x25]),
        ];
        for (value, encoding) in cases {
            let mut buf = Vec::new();
            write_varint(&mut buf, *value).unwrap();
            assert_eq!(&buf[..], *encoding, "encoding of {value}");
            let mut slice = *encoding;
            assert_eq!(read_varint(&mut slice).unwrap(), *value);
        }
    }

    #[test]
    fn boundaries() {
        for v in [
            0,
            0x3f,
            0x40,
            0x3fff,
            0x4000,
            0x3fff_ffff,
            0x4000_0000,
            MAX_VARINT,
        ] {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn lengths_are_minimal() {
        assert_eq!(varint_len(0), Some(1));
        assert_eq!(varint_len(63), Some(1));
        assert_eq!(varint_len(64), Some(2));
        assert_eq!(varint_len(16383), Some(2));
        assert_eq!(varint_len(16384), Some(4));
        assert_eq!(varint_len(MAX_VARINT), Some(8));
        assert_eq!(varint_len(MAX_VARINT + 1), None);
    }

    #[test]
    fn overflow_rejected() {
        let mut buf = Vec::new();
        assert_eq!(
            write_varint(&mut buf, MAX_VARINT + 1),
            Err(WireError::InvalidValue { what: "varint" })
        );
    }

    #[test]
    fn truncated_input_rejected() {
        // Two-byte encoding with only one byte present.
        let mut slice: &[u8] = &[0x7b];
        assert_eq!(
            read_varint(&mut slice),
            Err(WireError::UnexpectedEnd { what: "varint" })
        );
        let mut empty: &[u8] = &[];
        assert!(read_varint(&mut empty).is_err());
    }

    #[test]
    fn boundary_values_per_length_class() {
        // Lowest and highest value of each length class, checked against
        // the exact wire encoding. A narrowing bug at any class boundary (value as u8 /
        // u16 / u32) would corrupt exactly these values.
        let classes: &[(u64, u64, usize)] = &[
            (0, 0x3f, 1),
            (0x40, 0x3fff, 2),
            (0x4000, 0x3fff_ffff, 4),
            (0x4000_0000, MAX_VARINT, 8),
        ];
        for &(lo, hi, width) in classes {
            for value in [lo, hi] {
                let mut buf = Vec::new();
                write_varint(&mut buf, value).unwrap();
                assert_eq!(buf.len(), width, "minimal width of {value:#x}");
                // Length-exponent bits, then the value in the low bits.
                let mut expected = vec![0u8; width];
                let tagged = value | ((width.trailing_zeros() as u64) << (8 * width as u64 - 2));
                for (i, byte) in expected.iter_mut().enumerate() {
                    *byte = (tagged >> (8 * (width - 1 - i))) as u8;
                }
                assert_eq!(buf, expected, "wire bytes of {value:#x}");
                let mut slice = &buf[..];
                assert_eq!(read_varint(&mut slice).unwrap(), value);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(value in 0..=MAX_VARINT) {
            prop_assert_eq!(roundtrip(value), value);
        }

        #[test]
        fn prop_encoding_is_minimal_length(value in 0..=MAX_VARINT) {
            let mut buf = Vec::new();
            write_varint(&mut buf, value).unwrap();
            prop_assert_eq!(buf.len(), varint_len(value).unwrap());
        }

        #[test]
        fn prop_first_two_bits_encode_length(value in 0..=MAX_VARINT) {
            let mut buf = Vec::new();
            write_varint(&mut buf, value).unwrap();
            let expected_len = 1usize << (buf[0] >> 6);
            prop_assert_eq!(buf.len(), expected_len);
        }

        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..16)) {
            let mut slice = &data[..];
            let _ = read_varint(&mut slice);
        }
    }
}
