//! Property tests for the wire layer: every message type round-trips, and
//! no byte sequence — hostile or truncated — can panic a decoder. In an
//! unauthenticated protocol the codec *is* the attack surface.

use proptest::prelude::*;

use tetrabft::{Message, ProofData, SuggestData};
use tetrabft_multishot::{Block, MsMessage};
use tetrabft_types::{Phase, Slot, Value, View, VoteInfo};
use tetrabft_wire::{Reader, Wire, Writer};

fn arb_value() -> impl Strategy<Value = Value> {
    any::<u64>().prop_map(Value::from_u64)
}

fn arb_vote_info() -> impl Strategy<Value = VoteInfo> {
    (any::<u64>(), arb_value()).prop_map(|(v, val)| VoteInfo::new(View(v), val))
}

fn arb_opt_vote() -> impl Strategy<Value = Option<VoteInfo>> {
    proptest::option::of(arb_vote_info())
}

fn arb_core_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), arb_value())
            .prop_map(|(v, val)| Message::Proposal { view: View(v), value: val }),
        (1u8..=4, any::<u64>(), arb_value()).prop_map(|(p, v, val)| Message::Vote {
            phase: Phase::from_u8(p).unwrap(),
            view: View(v),
            value: val,
        }),
        (any::<u64>(), arb_opt_vote(), arb_opt_vote(), arb_opt_vote()).prop_map(|(v, a, b, c)| {
            Message::Suggest {
                view: View(v),
                data: SuggestData { vote2: a, prev_vote2: b, vote3: c },
            }
        }),
        (any::<u64>(), arb_opt_vote(), arb_opt_vote(), arb_opt_vote()).prop_map(|(v, a, b, c)| {
            Message::Proof { view: View(v), data: ProofData { vote1: a, prev_vote1: b, vote4: c } }
        }),
        any::<u64>().prop_map(|v| Message::ViewChange { view: View(v) }),
    ]
}

fn arb_ms_message() -> impl Strategy<Value = MsMessage> {
    prop_oneof![
        (
            any::<u64>(),
            1u64..1000,
            any::<u64>(),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..8)
        )
            .prop_map(|(v, s, parent, txs)| MsMessage::Proposal {
                view: View(v),
                block: Block::new(Slot(s), tetrabft_multishot::BlockHash(parent), txs),
            }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(s, v, h)| MsMessage::Vote {
            slot: Slot(s),
            view: View(v),
            hash: tetrabft_multishot::BlockHash(h),
        }),
        (any::<u64>(), any::<u64>(), arb_opt_vote(), arb_opt_vote(), arb_opt_vote()).prop_map(
            |(s, v, a, b, c)| MsMessage::Suggest {
                slot: Slot(s),
                view: View(v),
                data: SuggestData { vote2: a, prev_vote2: b, vote3: c },
            }
        ),
        (any::<u64>(), any::<u64>(), arb_opt_vote(), arb_opt_vote(), arb_opt_vote()).prop_map(
            |(s, v, a, b, c)| MsMessage::Proof {
                slot: Slot(s),
                view: View(v),
                data: ProofData { vote1: a, prev_vote1: b, vote4: c },
            }
        ),
        (any::<u64>(), any::<u64>())
            .prop_map(|(s, v)| MsMessage::ViewChange { slot: Slot(s), view: View(v) }),
        (
            any::<u64>(),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..8)
        )
            .prop_map(|(s, txs)| MsMessage::Relay { slot: Slot(s), txs: std::sync::Arc::new(txs) }),
    ]
}

proptest! {
    #[test]
    fn core_messages_roundtrip(msg in arb_core_message()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(Message::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn multishot_messages_roundtrip(msg in arb_ms_message()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(MsMessage::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any result is fine — panicking is not.
        let _ = Message::from_bytes(&bytes);
        let _ = MsMessage::from_bytes(&bytes);
    }

    #[test]
    fn truncations_of_valid_messages_error_cleanly(msg in arb_core_message(), cut in 0usize..64) {
        let bytes = msg.to_bytes();
        if cut < bytes.len() {
            let truncated = &bytes[..bytes.len() - cut - 1];
            prop_assert!(Message::from_bytes(truncated).is_err() || cut + 1 == 0);
        }
    }

    #[test]
    fn framing_survives_arbitrary_chunking(
        msg in arb_core_message(),
        splits in proptest::collection::vec(1usize..16, 0..8),
    ) {
        use tetrabft_wire::frame::{encode_frame, FrameDecoder};
        let framed = encode_frame(&msg.to_bytes()).unwrap();
        let mut dec = FrameDecoder::new();
        let mut fed = 0;
        let mut got = None;
        for s in splits {
            let end = (fed + s).min(framed.len());
            dec.extend(&framed[fed..end]);
            fed = end;
            if let Some(frame) = dec.next_frame().unwrap() {
                got = Some(frame.to_vec());
            }
        }
        dec.extend(&framed[fed..]);
        if let Some(frame) = dec.next_frame().unwrap() {
            got = Some(frame.to_vec());
        }
        let frame = got.expect("frame must complete");
        prop_assert_eq!(Message::from_bytes(&frame).unwrap(), msg);
    }

    #[test]
    fn wire_len_matches_encoding(msg in arb_core_message()) {
        prop_assert_eq!(msg.wire_len(), msg.to_bytes().len());
    }

    #[test]
    fn ms_wire_len_matches_encoding(msg in arb_ms_message()) {
        prop_assert_eq!(msg.wire_len(), msg.to_bytes().len());
    }

    #[test]
    fn varints_roundtrip(v in any::<u64>()) {
        let mut w = Writer::new();
        w.put_varint(v);
        prop_assert_eq!(w.len(), tetrabft_wire::varint_len(v));
        let mut r = Reader::new(w.as_bytes());
        prop_assert_eq!(r.get_varint_u64().unwrap(), v);
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..12)) {
        // Any result is fine — panicking (or consuming on failure) is not.
        let mut r = Reader::new(&bytes);
        if r.get_varint_u64().is_err() {
            prop_assert_eq!(r.remaining(), bytes.len());
        }
        let mut r = Reader::new(&bytes);
        let _ = r.get_varint_u32();
        let mut r = Reader::new(&bytes);
        let _ = r.get_varint_u16();
    }

    #[test]
    fn frame_decoder_never_panics_on_hostile_streams(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..8),
    ) {
        use tetrabft_wire::frame::FrameDecoder;
        let mut dec = FrameDecoder::new();
        'outer: for chunk in &chunks {
            dec.extend(chunk);
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    // A hostile prefix poisons the stream; tear down.
                    Err(_) => break 'outer,
                }
            }
        }
    }
}

/// Varint-specific adversarial cases (satellite of wire format v2): every
/// malformed encoding must produce a typed error, never a panic, and the
/// canonical-form rules must hold at the exact boundaries.
mod varint_adversarial {
    use tetrabft_wire::frame::FrameDecoder;
    use tetrabft_wire::{Reader, WireError, Writer};

    #[test]
    fn overlong_encodings_rejected() {
        // Zero padded to 2..=10 bytes; canonical form is a single 0x00.
        for len in 2..=10usize {
            let mut bytes = vec![0x80u8; len - 1];
            bytes.push(0x00);
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_varint_u64(), Err(WireError::VarintOverlong), "len {len}");
        }
        // 127 (one-byte canonical) padded to two bytes.
        let mut r = Reader::new(&[0xff, 0x00]);
        assert_eq!(r.get_varint_u64(), Err(WireError::VarintOverlong));
    }

    #[test]
    fn ten_byte_max_width_u64_is_exactly_representable() {
        let mut w = Writer::new();
        w.put_varint(u64::MAX);
        assert_eq!(w.len(), 10);
        let mut r = Reader::new(w.as_bytes());
        assert_eq!(r.get_varint_u64().unwrap(), u64::MAX);
        // One more payload bit overflows.
        let mut over = vec![0xffu8; 9];
        over.push(0x03);
        let mut r = Reader::new(&over);
        assert_eq!(r.get_varint_u64(), Err(WireError::VarintOverflow { target: "u64" }));
    }

    #[test]
    fn truncated_continuation_bytes_are_eof_at_every_length() {
        for len in 1..=9usize {
            let bytes = vec![0x80u8 | 0x7f; len]; // all-continuation prefix
            let mut r = Reader::new(&bytes);
            assert!(
                matches!(r.get_varint_u64(), Err(WireError::UnexpectedEof { .. })),
                "len {len}"
            );
            assert_eq!(r.remaining(), len, "failed read must not consume");
        }
    }

    #[test]
    fn hostile_varint_frame_prefixes() {
        // Over the 16 MiB frame cap (declares 2^32-1).
        let mut dec = FrameDecoder::new();
        dec.extend(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
        assert!(matches!(dec.next_frame(), Err(WireError::LengthOverflow { .. })));
        // Overlong prefix.
        let mut dec = FrameDecoder::new();
        dec.extend(&[0x80, 0x80, 0x00]);
        assert_eq!(dec.next_frame(), Err(WireError::VarintOverlong));
        // Wider than u64.
        let mut dec = FrameDecoder::new();
        dec.extend(&[0xff; 16]);
        assert_eq!(dec.next_frame(), Err(WireError::VarintOverflow { target: "u64" }));
        // An incomplete but so-far-plausible prefix just waits.
        let mut dec = FrameDecoder::new();
        dec.extend(&[0x80]);
        assert_eq!(dec.next_frame(), Ok(None));
    }
}
