//! Property test: the versioned wire codec round-trips **every**
//! [`Message`] variant byte-exactly, and rejects corrupted envelopes.
//!
//! The TCP masking layer and the simulator share this codec, so a
//! mismatch here would mean "works in the simulator, corrupts on the
//! wire" — exactly the class of bug the shared-codec design exists to
//! make impossible.

use chroma_base::{NodeId, ObjectId};
use chroma_dist::wire::{self, WireError, WIRE_VERSION};
use chroma_dist::{Message, RpcOp, RpcResult, TpcRecord, TxnId, Write};
use chroma_store::codec::{from_bytes, to_bytes};
use chroma_store::StoreBytes;
use proptest::prelude::*;

/// Draws one message of the variant selected by `variant`, covering
/// the whole enum as `variant` sweeps 0..11.
fn message(variant: u8, a: u64, b: u64, bytes: Vec<u8>, flag: bool) -> Message {
    let txn = TxnId(a);
    let node = NodeId::from_raw(b as u32);
    let object = ObjectId::from_raw(a ^ b);
    let state = StoreBytes::from(bytes.clone());
    match variant % 11 {
        0 => Message::Prepare {
            txn,
            writes: vec![
                Write {
                    object,
                    state: state.clone(),
                },
                Write {
                    object: ObjectId::from_raw(b),
                    state: StoreBytes::from(vec![flag as u8]),
                },
            ],
            coordinator: node,
        },
        1 => Message::VoteYes { txn },
        2 => Message::VoteNo { txn },
        3 => Message::Decision { txn, commit: flag },
        4 => Message::Ack { txn },
        5 => Message::DecisionQuery { txn },
        6 => Message::RpcRequest {
            call: a,
            body: state,
        },
        7 => Message::RpcReply {
            call: a,
            body: state,
        },
        8 => Message::ReplicaState {
            object,
            version: b,
            state,
            holder_stale: flag,
        },
        9 => Message::ReplicaNone { object },
        _ => Message::ReplicaPull { object },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_variant_round_trips(
        variant in 0u8..11,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        bytes in prop::collection::vec(0u8..=255, 0..64),
        flag in 0u8..2,
    ) {
        let msg = message(variant, a, b, bytes, flag == 1);
        let encoded = wire::encode(&msg);
        let decoded = wire::decode(&encoded).expect("round trip");
        prop_assert_eq!(&decoded, &msg);
        // re-encoding is deterministic
        prop_assert_eq!(wire::encode(&decoded), encoded);
    }

    #[test]
    fn truncation_never_panics_and_never_misdecodes(
        variant in 0u8..11,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        bytes in prop::collection::vec(0u8..=255, 0..32),
        cut in 0usize..128,
    ) {
        let msg = message(variant, a, b, bytes, false);
        let encoded = wire::encode(&msg);
        let cut = cut.min(encoded.len().saturating_sub(1));
        // every strict prefix must be rejected, not misread
        prop_assert!(wire::decode(&encoded[..cut]).is_err());
    }

    #[test]
    fn tpc_records_round_trip(
        txn in 0u64..u64::MAX,
        peer in 0u32..64,
        bytes in prop::collection::vec(0u8..=255, 0..32),
    ) {
        let records = vec![
            TpcRecord::CoordCommit {
                txn: TxnId(txn),
                participants: vec![NodeId::from_raw(peer), NodeId::from_raw(peer + 1)],
            },
            TpcRecord::Prepared {
                txn: TxnId(txn ^ 1),
                coordinator: NodeId::from_raw(peer),
                writes: vec![Write {
                    object: ObjectId::from_raw(txn),
                    state: StoreBytes::from(bytes),
                }],
            },
            TpcRecord::CoordEnd { txn: TxnId(txn) },
            TpcRecord::ParticipantDone { txn: TxnId(txn ^ 1) },
        ];
        let encoded = wire::encode_records(&records);
        let decoded = wire::decode_records(&encoded).expect("round trip");
        prop_assert_eq!(decoded, records);
    }
}

#[test]
fn version_and_magic_are_checked() {
    let msg = Message::Ack { txn: TxnId(7) };
    let good = wire::encode(&msg);

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(wire::decode(&bad_magic), Err(WireError::BadMagic)));

    let mut bad_version = good.clone();
    bad_version[4] = WIRE_VERSION + 1;
    assert!(matches!(
        wire::decode(&bad_version),
        Err(WireError::BadVersion(v)) if v == WIRE_VERSION + 1
    ));

    let mut trailing = good;
    trailing.push(0);
    assert!(matches!(wire::decode(&trailing), Err(WireError::Trailing)));
}

/// The RPC service's bodies (`RpcRequest`/`RpcResponse` payloads) keep
/// the bytes the serde-driven codec gave them, so a node from that
/// build and one from this build still understand each other's calls.
#[test]
fn rpc_bodies_keep_their_bytes() {
    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }
    let ops = [
        (
            RpcOp::Put(5, vec![1, 2, 3]),
            "0000000005000000000000000300000000000000010203",
        ),
        (RpcOp::Get(5), "010000000500000000000000"),
        (RpcOp::Ping, "02000000"),
    ];
    for (op, hex) in ops {
        assert_eq!(to_bytes(&op).unwrap(), unhex(hex), "{op:?}");
        assert_eq!(from_bytes::<RpcOp>(&unhex(hex)).unwrap(), op);
    }
    let results = [
        (RpcResult::Done, "00000000"),
        (
            RpcResult::Value(Some(vec![9])),
            "0100000001010000000000000009",
        ),
        (RpcResult::Value(None), "0100000000"),
        (RpcResult::Pong, "02000000"),
    ];
    for (result, hex) in results {
        assert_eq!(to_bytes(&result).unwrap(), unhex(hex), "{result:?}");
        assert_eq!(from_bytes::<RpcResult>(&unhex(hex)).unwrap(), result);
    }
}
