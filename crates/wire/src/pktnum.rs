//! Packet-number truncation and reconstruction (RFC 9000 §17.1, §A.2,
//! §A.3).
//!
//! QUIC transmits only the least-significant 1–4 bytes of the 62-bit
//! packet number; the receiver reconstructs the full value from the
//! largest packet number it has processed.

use crate::error::{WireError, WireResult};
use bytes::{Buf, BufMut};

/// Largest legal packet number (2^62 - 1, same bound as varints).
pub const MAX_PACKET_NUMBER: u64 = (1 << 62) - 1;

/// Writes the `len`-byte truncated representation of `pn`.
///
/// # Errors
/// [`WireError::InvalidValue`] if `len` is not in 1..=4.
pub fn write_packet_number<B: BufMut>(buf: &mut B, pn: u64, len: usize) -> WireResult<()> {
    match len {
        1 => buf.put_u8(pn as u8),
        2 => buf.put_u16(pn as u16),
        3 => {
            buf.put_u8((pn >> 16) as u8);
            buf.put_u16(pn as u16);
        }
        4 => buf.put_u32(pn as u32),
        _ => {
            return Err(WireError::InvalidValue {
                what: "packet number length",
            })
        }
    }
    Ok(())
}

/// Reads a truncated packet number of `len` bytes.
///
/// # Errors
/// [`WireError::UnexpectedEnd`] on truncated input,
/// [`WireError::InvalidValue`] for an illegal `len`.
pub fn read_packet_number<B: Buf>(buf: &mut B, len: usize) -> WireResult<u64> {
    if !(1..=4).contains(&len) {
        return Err(WireError::InvalidValue {
            what: "packet number length",
        });
    }
    if buf.remaining() < len {
        return Err(WireError::UnexpectedEnd {
            what: "packet number",
        });
    }
    let mut value = 0u64;
    for _ in 0..len {
        value = (value << 8) | u64::from(buf.get_u8());
    }
    Ok(value)
}

/// Reconstructs the full packet number from a truncated one, per
/// RFC 9000 §A.3.
///
/// `largest_pn` is the largest packet number processed so far in this
/// packet number space (`None` before any packet was received).
pub fn decode_packet_number(truncated: u64, len: usize, largest_pn: Option<u64>) -> u64 {
    let pn_nbits = (len * 8) as u32;
    let expected = largest_pn.map_or(0, |l| l + 1);
    let pn_win = 1u64 << pn_nbits;
    let pn_hwin = pn_win / 2;
    let pn_mask = pn_win - 1;

    let candidate = (expected & !pn_mask) | truncated;
    if candidate + pn_hwin <= expected && candidate + pn_win < (1 << 62) {
        candidate + pn_win
    } else if candidate > expected + pn_hwin && candidate >= pn_win {
        candidate - pn_win
    } else {
        candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rfc9000_a3_example() {
        // RFC 9000 §A.3: largest = 0xa82f30ea, truncated 16-bit 0x9b32
        // decodes to 0xa82f9b32.
        assert_eq!(
            decode_packet_number(0x9b32, 2, Some(0xa82f_30ea)),
            0xa82f_9b32
        );
    }

    #[test]
    fn write_read_all_lengths() {
        for len in 1..=4 {
            let pn = 0x0102_0304u64 & ((1u64 << (len * 8)) - 1);
            let mut buf = Vec::new();
            write_packet_number(&mut buf, pn, len).unwrap();
            assert_eq!(buf.len(), len);
            let mut slice = &buf[..];
            assert_eq!(read_packet_number(&mut slice, len).unwrap(), pn);
        }
    }

    #[test]
    fn illegal_lengths_rejected() {
        let mut buf = Vec::new();
        assert!(write_packet_number(&mut buf, 0, 0).is_err());
        assert!(write_packet_number(&mut buf, 0, 5).is_err());
        let mut slice: &[u8] = &[1, 2, 3, 4, 5];
        assert!(read_packet_number(&mut slice, 5).is_err());
        let mut short: &[u8] = &[1];
        assert!(read_packet_number(&mut short, 2).is_err());
    }

    #[test]
    fn decode_without_history() {
        assert_eq!(decode_packet_number(0, 1, None), 0);
        assert_eq!(decode_packet_number(5, 1, None), 5);
    }

    proptest! {
        #[test]
        fn prop_truncate_then_decode_recovers(
            largest in 0u64..=1_000_000_000,
            delta in 1u64..=1000,
            len in 2usize..=4,
        ) {
            // Sender transmits pn = largest + delta in any length whose
            // half-window (2^15 and up) covers the gap; receiver must
            // recover it exactly.
            let pn = largest + delta;
            let truncated = pn & ((1u64 << (len * 8)) - 1);
            prop_assert_eq!(decode_packet_number(truncated, len, Some(largest)), pn);
        }

        #[test]
        fn prop_wire_roundtrip(pn in 0u64..=u32::MAX as u64, len in 1usize..=4) {
            let masked = pn & ((1u64 << (len * 8)) - 1);
            let mut buf = Vec::new();
            write_packet_number(&mut buf, masked, len).unwrap();
            let mut slice = &buf[..];
            prop_assert_eq!(read_packet_number(&mut slice, len).unwrap(), masked);
            prop_assert!(slice.is_empty());
        }
    }
}
