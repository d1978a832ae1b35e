//! QUIC frames (RFC 9000 §19) — the subset exercised by handshakes and
//! by the flood traffic the paper analyzes.
//!
//! The §6 validity analysis of the paper keys on the frame mix inside
//! backscatter (CRYPTO-bearing Initial/Handshake packets plus keep-alive
//! PINGs), so the codec covers: PADDING, PING, ACK, CRYPTO,
//! NEW_CONNECTION_ID, CONNECTION_CLOSE and HANDSHAKE_DONE.

use crate::cid::ConnectionId;
use crate::error::{WireError, WireResult};
use crate::varint::{read_varint, write_varint};
use bytes::{Buf, BufMut, Bytes};

/// Frame type identifiers (RFC 9000 §19, Table 3).
pub mod frame_type {
    /// PADDING frame.
    pub const PADDING: u64 = 0x00;
    /// PING frame.
    pub const PING: u64 = 0x01;
    /// ACK frame (without ECN counts).
    pub const ACK: u64 = 0x02;
    /// CRYPTO frame.
    pub const CRYPTO: u64 = 0x06;
    /// NEW_TOKEN frame.
    pub const NEW_TOKEN: u64 = 0x07;
    /// NEW_CONNECTION_ID frame.
    pub const NEW_CONNECTION_ID: u64 = 0x18;
    /// CONNECTION_CLOSE frame (transport error).
    pub const CONNECTION_CLOSE: u64 = 0x1c;
    /// HANDSHAKE_DONE frame.
    pub const HANDSHAKE_DONE: u64 = 0x1e;
}

/// One contiguous range of acknowledged packet numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRange {
    /// Smallest packet number in the range.
    pub start: u64,
    /// Largest packet number in the range (inclusive).
    pub end: u64,
}

/// A decoded QUIC frame.
///
/// `D` is how the frame holds its byte strings: [`Bytes`] for the owned
/// frames endpoints build and keep, `&[u8]` for a [`FrameRef`] that
/// borrows them from the packet plaintext it was decoded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<D = Bytes> {
    /// A run of PADDING frames, coalesced (each PADDING frame is a single
    /// zero byte; runs are the norm because Initials are padded to
    /// 1200 bytes).
    Padding {
        /// Number of consecutive padding bytes.
        len: usize,
    },
    /// PING — keep-alive; NGINX sends two after a handshake (Table 1).
    Ping,
    /// ACK without ECN counts. Ranges are ordered descending by packet
    /// number, first range contains `largest`.
    Ack {
        /// Largest acknowledged packet number.
        largest: u64,
        /// ACK delay in the sender's microsecond units (already scaled).
        delay: u64,
        /// Acknowledged ranges, descending; must be non-empty.
        ranges: Vec<AckRange>,
    },
    /// CRYPTO — carries TLS handshake bytes at `offset`.
    Crypto {
        /// Offset of this chunk in the CRYPTO stream.
        offset: u64,
        /// The handshake bytes.
        data: D,
    },
    /// NEW_TOKEN — a server-issued token the client may present in a
    /// *future* connection's Initial (RFC 9000 §19.7). This is the
    /// session-resumption hook the paper's §6 points to for
    /// alleviating the RETRY round-trip penalty.
    NewToken {
        /// The opaque token (non-empty).
        token: D,
    },
    /// NEW_CONNECTION_ID — how servers hand out additional CIDs; the
    /// SCID-counting analysis of Fig. 9 observes their effect.
    NewConnectionId {
        /// Sequence number of the issued CID.
        seq: u64,
        /// Retire-prior-to threshold.
        retire_prior_to: u64,
        /// The issued connection ID (1..=20 bytes).
        cid: ConnectionId,
        /// Stateless reset token for the issued CID.
        reset_token: [u8; 16],
    },
    /// CONNECTION_CLOSE with a transport error code.
    ConnectionClose {
        /// Transport error code.
        error_code: u64,
        /// Frame type that triggered the error (0 if unknown).
        frame_type: u64,
        /// Human-readable reason phrase.
        reason: D,
    },
    /// HANDSHAKE_DONE — sent by servers at handshake confirmation.
    HandshakeDone,
}

/// A frame whose byte strings borrow from the plaintext it was decoded
/// from — what [`Frame::walk`] yields, so a passive observer can inspect
/// a packet's frames without copying its CRYPTO data.
pub type FrameRef<'a> = Frame<&'a [u8]>;

/// Length of the run of zero bytes at the front of `bytes`, scanned a
/// word at a time: client Initials are padded to 1200 bytes, so this is
/// most of what decoding one costs.
fn zero_run(bytes: &[u8]) -> usize {
    let words = bytes
        .chunks_exact(8)
        .take_while(|word| u64::from_ne_bytes((*word).try_into().expect("8 bytes")) == 0)
        .count();
    let scanned = words * 8;
    scanned + bytes[scanned..].iter().take_while(|&&b| b == 0).count()
}

/// Splits `len` bytes off the front of `buf`.
///
/// # Errors
/// [`WireError::LengthOutOfBounds`] if `buf` is shorter than `len`.
pub(crate) fn take<'a>(buf: &mut &'a [u8], len: usize) -> WireResult<&'a [u8]> {
    if buf.len() < len {
        return Err(WireError::LengthOutOfBounds {
            claimed: len,
            available: buf.len(),
        });
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

/// Iterator over the frames of a packet plaintext; see [`Frame::walk`].
#[derive(Debug, Clone)]
pub struct Frames<'a>(&'a [u8]);

impl<'a> Iterator for Frames<'a> {
    type Item = WireResult<FrameRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.0.is_empty() {
            return None;
        }
        let frame = FrameRef::decode_borrowed(&mut self.0);
        if frame.is_err() {
            self.0 = &[];
        }
        Some(frame)
    }
}

impl Frame {
    /// Encodes the frame, appending to `buf`.
    ///
    /// # Errors
    /// [`WireError::InvalidValue`] if a field exceeds its varint range or
    /// an ACK frame has no ranges.
    pub fn encode<B: BufMut>(&self, buf: &mut B) -> WireResult<()> {
        match self {
            Frame::Padding { len } => {
                for _ in 0..*len {
                    buf.put_u8(0);
                }
            }
            Frame::Ping => write_varint(buf, frame_type::PING)?,
            Frame::Ack {
                largest,
                delay,
                ranges,
            } => {
                let first = ranges.first().ok_or(WireError::InvalidValue {
                    what: "ack without ranges",
                })?;
                if first.end != *largest || first.start > first.end {
                    return Err(WireError::InvalidValue {
                        what: "ack first range",
                    });
                }
                write_varint(buf, frame_type::ACK)?;
                write_varint(buf, *largest)?;
                write_varint(buf, *delay)?;
                write_varint(buf, (ranges.len() - 1) as u64)?;
                write_varint(buf, first.end - first.start)?;
                let mut prev_start = first.start;
                for range in &ranges[1..] {
                    if range.start > range.end || range.end + 2 > prev_start {
                        return Err(WireError::InvalidValue {
                            what: "ack range ordering",
                        });
                    }
                    // Gap: number of contiguous unacknowledged packets
                    // between ranges, minus one (RFC 9000 §19.3.1).
                    write_varint(buf, prev_start - range.end - 2)?;
                    write_varint(buf, range.end - range.start)?;
                    prev_start = range.start;
                }
            }
            Frame::Crypto { offset, data } => {
                write_varint(buf, frame_type::CRYPTO)?;
                write_varint(buf, *offset)?;
                write_varint(buf, data.len() as u64)?;
                buf.put_slice(data);
            }
            Frame::NewToken { token } => {
                if token.is_empty() {
                    return Err(WireError::InvalidValue {
                        what: "new_token with empty token",
                    });
                }
                write_varint(buf, frame_type::NEW_TOKEN)?;
                write_varint(buf, token.len() as u64)?;
                buf.put_slice(token);
            }
            Frame::NewConnectionId {
                seq,
                retire_prior_to,
                cid,
                reset_token,
            } => {
                if cid.is_empty() {
                    return Err(WireError::InvalidValue {
                        what: "new_connection_id with empty cid",
                    });
                }
                write_varint(buf, frame_type::NEW_CONNECTION_ID)?;
                write_varint(buf, *seq)?;
                write_varint(buf, *retire_prior_to)?;
                cid.encode_with_len(buf);
                buf.put_slice(reset_token);
            }
            Frame::ConnectionClose {
                error_code,
                frame_type: ft,
                reason,
            } => {
                write_varint(buf, frame_type::CONNECTION_CLOSE)?;
                write_varint(buf, *error_code)?;
                write_varint(buf, *ft)?;
                write_varint(buf, reason.len() as u64)?;
                buf.put_slice(reason);
            }
            Frame::HandshakeDone => write_varint(buf, frame_type::HANDSHAKE_DONE)?,
        }
        Ok(())
    }
}

impl<'a> FrameRef<'a> {
    /// Decodes a single frame from the front of `buf` (coalescing PADDING
    /// runs into one frame), borrowing its byte strings from `buf`. This
    /// is the one frame decoder; [`Frame::decode`] copies out of it.
    ///
    /// # Errors
    /// [`WireError::UnknownFrameType`] for types outside our subset and
    /// the usual truncation errors.
    pub fn decode_borrowed(buf: &mut &'a [u8]) -> WireResult<Self> {
        let ty = read_varint(buf)?;
        match ty {
            frame_type::PADDING => {
                let run = zero_run(buf);
                buf.advance(run);
                Ok(Frame::Padding { len: 1 + run })
            }
            frame_type::PING => Ok(Frame::Ping),
            frame_type::ACK => {
                let largest = read_varint(buf)?;
                let delay = read_varint(buf)?;
                let range_count = read_varint(buf)?;
                let first_len = read_varint(buf)?;
                if first_len > largest {
                    return Err(WireError::InvalidValue {
                        what: "ack first range length",
                    });
                }
                let mut ranges = vec![AckRange {
                    start: largest - first_len,
                    end: largest,
                }];
                if range_count > 1024 {
                    // Defensive cap: a telescope must survive adversarial
                    // inputs without unbounded allocation.
                    return Err(WireError::InvalidValue {
                        what: "ack range count",
                    });
                }
                let mut prev_start = largest - first_len;
                for _ in 0..range_count {
                    let gap = read_varint(buf)?;
                    let len = read_varint(buf)?;
                    let end = prev_start
                        .checked_sub(gap + 2)
                        .ok_or(WireError::InvalidValue { what: "ack gap" })?;
                    let start = end
                        .checked_sub(len)
                        .ok_or(WireError::InvalidValue { what: "ack range" })?;
                    ranges.push(AckRange { start, end });
                    prev_start = start;
                }
                Ok(Frame::Ack {
                    largest,
                    delay,
                    ranges,
                })
            }
            frame_type::CRYPTO => {
                let offset = read_varint(buf)?;
                let len = read_varint(buf)? as usize;
                let data = take(buf, len)?;
                Ok(Frame::Crypto { offset, data })
            }
            frame_type::NEW_TOKEN => {
                let len = read_varint(buf)? as usize;
                if len == 0 {
                    return Err(WireError::InvalidValue {
                        what: "new_token token length",
                    });
                }
                Ok(Frame::NewToken {
                    token: take(buf, len)?,
                })
            }
            frame_type::NEW_CONNECTION_ID => {
                let seq = read_varint(buf)?;
                let retire_prior_to = read_varint(buf)?;
                let cid = ConnectionId::decode_with_len(buf)?;
                if cid.is_empty() {
                    return Err(WireError::InvalidValue {
                        what: "new_connection_id cid length",
                    });
                }
                if buf.remaining() < 16 {
                    return Err(WireError::UnexpectedEnd {
                        what: "stateless reset token",
                    });
                }
                let mut reset_token = [0u8; 16];
                buf.copy_to_slice(&mut reset_token);
                Ok(Frame::NewConnectionId {
                    seq,
                    retire_prior_to,
                    cid,
                    reset_token,
                })
            }
            frame_type::CONNECTION_CLOSE => {
                let error_code = read_varint(buf)?;
                let ft = read_varint(buf)?;
                let len = read_varint(buf)? as usize;
                let reason = take(buf, len)?;
                Ok(Frame::ConnectionClose {
                    error_code,
                    frame_type: ft,
                    reason,
                })
            }
            frame_type::HANDSHAKE_DONE => Ok(Frame::HandshakeDone),
            other => Err(WireError::UnknownFrameType(other)),
        }
    }

    /// Copies the borrowed byte strings into an owned [`Frame`].
    pub fn into_owned(self) -> Frame {
        match self {
            Frame::Padding { len } => Frame::Padding { len },
            Frame::Ping => Frame::Ping,
            Frame::Ack {
                largest,
                delay,
                ranges,
            } => Frame::Ack {
                largest,
                delay,
                ranges,
            },
            Frame::Crypto { offset, data } => Frame::Crypto {
                offset,
                data: Bytes::copy_from_slice(data),
            },
            Frame::NewToken { token } => Frame::NewToken {
                token: Bytes::copy_from_slice(token),
            },
            Frame::NewConnectionId {
                seq,
                retire_prior_to,
                cid,
                reset_token,
            } => Frame::NewConnectionId {
                seq,
                retire_prior_to,
                cid,
                reset_token,
            },
            Frame::ConnectionClose {
                error_code,
                frame_type,
                reason,
            } => Frame::ConnectionClose {
                error_code,
                frame_type,
                reason: Bytes::copy_from_slice(reason),
            },
            Frame::HandshakeDone => Frame::HandshakeDone,
        }
    }
}

impl Frame {
    /// Decodes a single frame from the front of `buf` (coalescing PADDING
    /// runs into one frame). On error `buf` is left where it was.
    ///
    /// # Errors
    /// [`WireError::UnknownFrameType`] for types outside our subset and
    /// the usual truncation errors.
    pub fn decode<B: Buf>(buf: &mut B) -> WireResult<Frame> {
        // The vendored `Buf::chunk` is all the unread bytes, so the
        // borrowed decoder sees the whole buffer.
        let mut rest = buf.chunk();
        let frame = FrameRef::decode_borrowed(&mut rest)?.into_owned();
        let used = buf.remaining() - rest.len();
        buf.advance(used);
        Ok(frame)
    }

    /// Walks every frame in `plaintext` until it is exhausted or one
    /// fails to decode, yielding borrowed frames without allocating for
    /// anything but ACK ranges.
    pub fn walk(plaintext: &[u8]) -> Frames<'_> {
        Frames(plaintext)
    }

    /// Decodes every frame in `buf` until it is exhausted.
    ///
    /// # Errors
    /// Propagates the first decode error.
    pub fn decode_all(buf: &[u8]) -> WireResult<Vec<Frame>> {
        Frame::walk(buf)
            .map(|frame| frame.map(FrameRef::into_owned))
            .collect()
    }

    /// Whether this frame is ack-eliciting (RFC 9002 §2): everything but
    /// ACK, PADDING and CONNECTION_CLOSE.
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            Frame::Ack { .. } | Frame::Padding { .. } | Frame::ConnectionClose { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        frame.encode(&mut buf).unwrap();
        let mut slice = &buf[..];
        let decoded = Frame::decode(&mut slice).unwrap();
        assert!(slice.is_empty(), "decode must consume the whole encoding");
        decoded
    }

    #[test]
    fn ping_and_handshake_done() {
        assert_eq!(roundtrip(&Frame::Ping), Frame::Ping);
        assert_eq!(roundtrip(&Frame::HandshakeDone), Frame::HandshakeDone);
    }

    #[test]
    fn padding_run_coalesces() {
        let frame = Frame::Padding { len: 37 };
        let mut buf = Vec::new();
        frame.encode(&mut buf).unwrap();
        assert_eq!(buf.len(), 37);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn crypto_roundtrip() {
        let frame = Frame::Crypto {
            offset: 1234,
            data: Bytes::from_static(b"client hello bytes"),
        };
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn crypto_length_beyond_buffer_rejected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, frame_type::CRYPTO).unwrap();
        write_varint(&mut buf, 0).unwrap();
        write_varint(&mut buf, 1000).unwrap(); // claims 1000 bytes
        buf.extend_from_slice(b"short");
        let mut slice = &buf[..];
        assert!(matches!(
            Frame::decode(&mut slice),
            Err(WireError::LengthOutOfBounds { claimed: 1000, .. })
        ));
    }

    #[test]
    fn single_range_ack() {
        let frame = Frame::Ack {
            largest: 100,
            delay: 25,
            ranges: vec![AckRange {
                start: 90,
                end: 100,
            }],
        };
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn multi_range_ack() {
        let frame = Frame::Ack {
            largest: 1000,
            delay: 0,
            ranges: vec![
                AckRange {
                    start: 990,
                    end: 1000,
                },
                AckRange {
                    start: 950,
                    end: 960,
                },
                AckRange { start: 0, end: 10 },
            ],
        };
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn ack_without_ranges_rejected_on_encode() {
        let frame = Frame::Ack {
            largest: 5,
            delay: 0,
            ranges: vec![],
        };
        let mut buf = Vec::new();
        assert!(frame.encode(&mut buf).is_err());
    }

    #[test]
    fn ack_with_inconsistent_first_range_rejected() {
        let frame = Frame::Ack {
            largest: 5,
            delay: 0,
            ranges: vec![AckRange { start: 1, end: 4 }],
        };
        let mut buf = Vec::new();
        assert!(frame.encode(&mut buf).is_err());
    }

    #[test]
    fn ack_first_range_underflow_rejected_on_decode() {
        let mut buf = Vec::new();
        write_varint(&mut buf, frame_type::ACK).unwrap();
        write_varint(&mut buf, 5).unwrap(); // largest
        write_varint(&mut buf, 0).unwrap(); // delay
        write_varint(&mut buf, 0).unwrap(); // range count
        write_varint(&mut buf, 9).unwrap(); // first range longer than largest
        let mut slice = &buf[..];
        assert!(Frame::decode(&mut slice).is_err());
    }

    #[test]
    fn new_token_roundtrip() {
        let frame = Frame::NewToken {
            token: Bytes::from_static(b"resume me later"),
        };
        assert_eq!(roundtrip(&frame), frame);
        assert!(frame.is_ack_eliciting());
    }

    #[test]
    fn new_token_empty_rejected_both_ways() {
        let frame = Frame::NewToken {
            token: Bytes::new(),
        };
        let mut buf = Vec::new();
        assert!(frame.encode(&mut buf).is_err());
        // Wire-level zero length is also illegal (RFC 9000 §19.7).
        let mut bad = Vec::new();
        write_varint(&mut bad, frame_type::NEW_TOKEN).unwrap();
        write_varint(&mut bad, 0).unwrap();
        let mut slice = &bad[..];
        assert!(Frame::decode(&mut slice).is_err());
    }

    #[test]
    fn new_connection_id_roundtrip() {
        let frame = Frame::NewConnectionId {
            seq: 7,
            retire_prior_to: 3,
            cid: ConnectionId::new(&[1; 8]).unwrap(),
            reset_token: [0xab; 16],
        };
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn new_connection_id_empty_cid_rejected() {
        let frame = Frame::NewConnectionId {
            seq: 0,
            retire_prior_to: 0,
            cid: ConnectionId::EMPTY,
            reset_token: [0; 16],
        };
        let mut buf = Vec::new();
        assert!(frame.encode(&mut buf).is_err());
    }

    #[test]
    fn connection_close_roundtrip() {
        let frame = Frame::ConnectionClose {
            error_code: 0x0a,
            frame_type: 0x06,
            reason: Bytes::from_static(b"PROTOCOL_VIOLATION"),
        };
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn unknown_frame_type_rejected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 0x30).unwrap(); // DATAGRAM, not implemented
        let mut slice = &buf[..];
        assert_eq!(
            Frame::decode(&mut slice),
            Err(WireError::UnknownFrameType(0x30))
        );
    }

    #[test]
    fn decode_all_sequences_frames() {
        let mut buf = Vec::new();
        Frame::Ping.encode(&mut buf).unwrap();
        Frame::Crypto {
            offset: 0,
            data: Bytes::from_static(b"abc"),
        }
        .encode(&mut buf)
        .unwrap();
        Frame::Padding { len: 5 }.encode(&mut buf).unwrap();
        let frames = Frame::decode_all(&buf).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], Frame::Ping);
        assert_eq!(frames[2], Frame::Padding { len: 5 });
    }

    #[test]
    fn ack_eliciting_classification() {
        assert!(Frame::Ping.is_ack_eliciting());
        assert!(Frame::HandshakeDone.is_ack_eliciting());
        assert!(!Frame::Padding { len: 1 }.is_ack_eliciting());
        assert!(!Frame::Ack {
            largest: 0,
            delay: 0,
            ranges: vec![AckRange { start: 0, end: 0 }]
        }
        .is_ack_eliciting());
        assert!(!Frame::ConnectionClose {
            error_code: 0,
            frame_type: 0,
            reason: Bytes::new()
        }
        .is_ack_eliciting());
    }

    proptest! {
        #[test]
        fn prop_crypto_roundtrip(
            offset in 0u64..=1_000_000,
            data in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let frame = Frame::Crypto { offset, data: Bytes::from(data) };
            prop_assert_eq!(roundtrip(&frame), frame);
        }

        #[test]
        fn prop_ack_roundtrip(largest in 1_000u64..1_000_000, seed_ranges in proptest::collection::vec((0u64..100, 1u64..100), 1..8)) {
            // Build strictly descending, non-adjacent ranges below `largest`.
            let mut ranges = Vec::new();
            let mut cursor = largest;
            for (gap, len) in seed_ranges {
                let end = cursor;
                let start = end.saturating_sub(len);
                ranges.push(AckRange { start, end });
                if start < gap + 2 + 1 {
                    break;
                }
                cursor = start - gap - 2;
            }
            let frame = Frame::Ack { largest, delay: 0, ranges };
            prop_assert_eq!(roundtrip(&frame), frame);
        }

        #[test]
        fn prop_padding_run_then_frame_agrees_across_buffers(
            run in 1usize..=1500,
            pick in 0usize..7,
            data in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let data = Bytes::from(data);
            let next = match pick {
                0 => Frame::Ping,
                1 => Frame::Ack { largest: 9, delay: 1, ranges: vec![AckRange { start: 4, end: 9 }] },
                2 => Frame::Crypto { offset: 3, data },
                3 => Frame::NewToken { token: data },
                4 => Frame::NewConnectionId {
                    seq: 1,
                    retire_prior_to: 0,
                    cid: ConnectionId::from_u64(7),
                    reset_token: [9; 16],
                },
                5 => Frame::ConnectionClose { error_code: 1, frame_type: 0, reason: data },
                _ => Frame::HandshakeDone,
            };
            let mut wire = Vec::new();
            Frame::Padding { len: run }.encode(&mut wire).unwrap();
            next.encode(&mut wire).unwrap();

            let mut slice = &wire[..];
            let from_slice = (Frame::decode(&mut slice).unwrap(), Frame::decode(&mut slice).unwrap());
            prop_assert!(slice.is_empty());
            let mut bytes = Bytes::from(wire.clone());
            let from_bytes = (Frame::decode(&mut bytes).unwrap(), Frame::decode(&mut bytes).unwrap());
            prop_assert!(bytes.is_empty());
            prop_assert_eq!(&from_slice, &from_bytes);
            prop_assert_eq!(from_slice, (Frame::Padding { len: run }, next));
        }

        #[test]
        fn prop_padding_scan_matches_bytewise_oracle(
            run in 1usize..=1500,
            align in 0usize..8,
            stop in 1u8..=255,
            stopped in any::<bool>(),
        ) {
            // `align` junk bytes in front shift where the run starts in
            // the backing buffer; the run ends at a non-zero byte or at
            // the end of the buffer.
            let mut backing = vec![0xffu8; align];
            backing.resize(align + run, 0);
            if stopped {
                backing.push(stop);
            }
            let wire = &backing[align..];
            let oracle = wire.iter().take_while(|&&b| b == 0).count();
            let mut slice = wire;
            prop_assert_eq!(Frame::decode(&mut slice).unwrap(), Frame::Padding { len: oracle });
            prop_assert_eq!(slice.len(), wire.len() - oracle);
        }

        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut slice = &data[..];
            let _ = Frame::decode(&mut slice);
            let _ = Frame::decode_all(&data);
        }
    }
}
