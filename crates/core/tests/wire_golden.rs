//! The bytes on the wire, pinned.
//!
//! Three frames — a `Pay`, a `RepUpdate` and an `MhLock` — sealed under a
//! fixed session and wrapped the way a node wraps them, captured from the
//! tree *before* the codec grew its byte-slice path and the session learned
//! to seal into the frame (`node::tests` pins the node's own envelope to
//! `NodeWire::Enclave`'s encoding). Every simulator count that is compared bit for
//! bit across commits (`net.engine.bytes_per_tx`, the WAL and snapshot
//! sizes) rests on these not moving.

use teechain::msg::{MhLock, ProtocolMsg, SettleDigest, StateDelta, WireMsg};
use teechain::node::NodeWire;
use teechain::session::Session;
use teechain::{ChannelId, CommitteeSpec, Deposit, RouteId};
use teechain_blockchain::{OutPoint, ScriptPubKey, Transaction, TxId, TxIn, TxOut};
use teechain_crypto::schnorr::{Keypair, PublicKey};
use teechain_crypto::sha256::sha256;
use teechain_util::codec::{Decode, Encode};
use teechain_util::hex;

fn pk(seed: u8) -> PublicKey {
    Keypair::from_seed(&[seed; 32]).pk
}

fn messages() -> [ProtocolMsg; 3] {
    let id = ChannelId::from_label("golden");
    let outpoint = OutPoint {
        txid: TxId([0x11; 32]),
        vout: 2,
    };
    let mut tau = Transaction {
        inputs: vec![TxIn::spend(outpoint)],
        outputs: vec![TxOut {
            value: 40,
            script: ScriptPubKey::P2pk(pk(7)),
        }],
    };
    tau.sign_input(0, &Keypair::from_seed(&[7; 32]));
    [
        ProtocolMsg::Pay {
            id,
            amount: 7,
            count: 1,
        },
        ProtocolMsg::RepUpdate {
            seq: 3,
            deltas: vec![StateDelta::Pay {
                id,
                my_delta: -7,
                remote_delta: 7,
            }],
        },
        ProtocolMsg::MhLock(MhLock {
            route: RouteId([5; 32]),
            amount: 9,
            hops: vec![pk(1), pk(2), pk(3)],
            channels: vec![id, ChannelId::from_label("golden-2")],
            tau,
            digests: vec![SettleDigest {
                txid: TxId([0x22; 32]),
                post: true,
            }],
            deposits: vec![Deposit {
                outpoint,
                value: 40,
                committee: CommitteeSpec {
                    m: 1,
                    member_keys: vec![pk(7), pk(8)],
                },
            }],
        }),
    ]
}

/// `(length, sha256)` of each frame at the parent commit, and the `Pay`
/// frame in full.
const GOLDEN: [(usize, &str); 3] = [
    (
        144,
        "8d8586cc27c8fcf589d37e8ed75e27c0b784685f07d050d3a630f434a1e78d3d",
    ),
    (
        161,
        "8c6d4f694c4d11173c8ced27954d4bb9cf6a10b3a3ce5f9c1d8ee7349faff762",
    ),
    (
        843,
        "8484d8639faa0104765cabe98778699e77a0850a7aee8ea864763d121417e68e",
    ),
];
const GOLDEN_PAY_FRAME: &str = "\
    008b0000000206fe3f96a67b3600a85e09e226d2f1fde12849e787d72af81b9bed8824e32014cb4c\
    a8755ac786a79bc5e9fe8fc1c0bb537131e929f7a6b756201e87c5b236d50000000000000000013d\
    00000083de726aa196d563df4857b074f5f94038ba651f03d5d5bc8d92fb1f18150c2bc3566efd49\
    97dd7835421e731cd20dcb51d1287f6585c0a6701b6091e8";

#[test]
fn frames_are_bit_identical_to_the_parent_commit() {
    let (a, b) = (pk(1), pk(2));
    let mut tx = Session::derive(&[9; 32], &a, &b);
    let mut tx_in_place = Session::derive(&[9; 32], &a, &b);
    let mut rx = Session::derive(&[9; 32], &b, &a);
    for (msg, (len, digest)) in messages().iter().zip(GOLDEN) {
        let frame = NodeWire::Enclave(tx.seal(&a, msg).encode_to_vec()).encode_to_vec();
        // The path a node takes: sealed into the frame, then enveloped.
        let wire = tx_in_place.seal_frame(&a, msg);
        assert_eq!(NodeWire::Enclave(wire).encode_to_vec(), frame);
        assert_eq!(frame.len(), len);
        assert_eq!(hex::encode(&sha256(&frame)), digest);
        if matches!(msg, ProtocolMsg::Pay { .. }) {
            assert_eq!(hex::encode(&frame), GOLDEN_PAY_FRAME);
        }
        // And the receiving side reads back what was sent.
        let Ok(NodeWire::Enclave(wire)) = NodeWire::decode_exact(&frame) else {
            panic!("not an enclave frame");
        };
        let Ok(WireMsg::Sealed { from, seq, ct, .. }) = WireMsg::decode_exact(&wire) else {
            panic!("not a sealed message");
        };
        assert_eq!(from, a);
        let opened = rx.open(seq, &ct).expect("opens in order");
        assert_eq!(opened.encode_to_vec(), msg.encode_to_vec());
    }
}
