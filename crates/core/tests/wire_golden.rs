//! The bytes on the wire and in sealed state, pinned.
//!
//! Three frames — a `Pay`, a `RepUpdate` and an `MhLock` — sealed under a
//! fixed session, as a node sends them: the encoded `WireMsg::Sealed` and
//! nothing around it. They were captured from the tree *before* the codec
//! grew its byte-slice path and the session learned to seal into the frame,
//! and each is the frame captured then less the host envelope that used to
//! go in front (a tag byte and a `u32` length). Every simulator count that
//! is compared bit for bit across commits (`net.engine.bytes_per_tx`, the
//! WAL and snapshot sizes) rests on these not moving.
//!
//! Beside them, one encoded value of every variant of every tagged enum on
//! the wire or in sealed state (`ProtocolMsg`, `StateDelta`, `WireMsg`,
//! `ScriptPubKey`, `MultihopStage`, `SwapPhase`) and one v4
//! durable state image, captured before the enum codecs were generated from
//! one declaration each. Every truncation and every single-bit flip of each
//! value decodes to a value or a typed `WireError`, never a panic.

use teechain::channel::Channel;
use teechain::enclave::Command;
use teechain::msg::{Handshake, MhLock, ProtocolMsg, SettleDigest, StateDelta, WireMsg};
use teechain::multihop::RouteState;
use teechain::session::Session;
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::{ChannelId, CommitteeSpec, Deposit, RouteId};
use teechain::{DurabilityBackend, MultihopStage, PersistPolicy, SwapId, SwapPhase, SwapState};
use teechain_blockchain::{OutPoint, ScriptPubKey, Transaction, TxId, TxIn, TxOut};
use teechain_crypto::schnorr::{Keypair, PublicKey, Signature};
use teechain_crypto::sha256::sha256;
use teechain_tee::{Measurement, TrustRoot};
use teechain_util::codec::{Decode, Encode, WireError};
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

/// `(length, sha256)` of each frame.
const GOLDEN: [(usize, &str); 3] = [
    (
        139,
        "8de4e267fd2beacdc31d6d113c57204e8aa503e7a6b6403eb2767bba0db47719",
    ),
    (
        156,
        "34801896c000ae8632ea01f7db0baf0320adaa3de78590f18b255a9ad0843bf2",
    ),
    (
        838,
        "dc90282cc877f63856fab9ba256bfae719b30279c3d89758db9ab14ec8e34020",
    ),
];
/// The `Pay` frame in full as it was captured, behind the host envelope a
/// frame then carried: tag 0 and the length, 139 (`008b000000`).
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
        let frame = tx.seal(&a, msg).encode_to_vec();
        // The path a node takes: sealed into the frame, sent as it is.
        assert_eq!(tx_in_place.seal_frame(&a, msg), frame);
        assert_eq!(frame.len(), len);
        assert_eq!(hex::encode(&sha256(&frame)), digest);
        if matches!(msg, ProtocolMsg::Pay { .. }) {
            let (envelope, sealed) = GOLDEN_PAY_FRAME.split_at(10);
            assert_eq!(envelope, "008b000000");
            assert_eq!(hex::encode(&frame), sealed);
        }
        // And the receiving side reads back what was sent.
        let Ok(WireMsg::Sealed { from, seq, ct, .. }) = WireMsg::decode_exact(&frame) else {
            panic!("not a sealed message");
        };
        assert_eq!(from, a);
        let opened = rx.open(seq, &ct).expect("opens in order");
        assert_eq!(opened.encode_to_vec(), msg.encode_to_vec());
    }
}

// ---- One encoded value per variant of every wire and sealed enum ----

/// A value's type name, its encoding, and its type's decoder, which
/// re-encodes what it decoded so that a round trip can be checked too.
type Golden = (
    &'static str,
    Vec<u8>,
    fn(&[u8]) -> Result<Vec<u8>, WireError>,
);

fn reencode<T: Encode + Decode>(bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    T::decode_exact(bytes).map(|v| v.encode_to_vec())
}

fn of<T: Encode + Decode>(ty: &'static str, values: Vec<T>) -> Vec<Golden> {
    let decode = reencode::<T> as fn(&[u8]) -> Result<Vec<u8>, WireError>;
    values
        .into_iter()
        .map(|v| (ty, v.encode_to_vec(), decode))
        .collect()
}

fn sig(seed: u8) -> Signature {
    Keypair::from_seed(&[seed; 32]).sign(b"golden")
}

fn outpoint() -> OutPoint {
    OutPoint {
        txid: TxId([0x11; 32]),
        vout: 2,
    }
}

fn tau() -> Transaction {
    let mut tau = Transaction {
        inputs: vec![TxIn::spend(outpoint())],
        outputs: vec![TxOut {
            value: 40,
            script: ScriptPubKey::P2pk(pk(7)),
        }],
    };
    tau.sign_input(0, &Keypair::from_seed(&[7; 32]));
    tau
}

fn deposit() -> Deposit {
    Deposit {
        outpoint: outpoint(),
        value: 40,
        committee: CommitteeSpec {
            m: 1,
            member_keys: vec![pk(7), pk(8)],
        },
    }
}

fn digests() -> Vec<SettleDigest> {
    vec![SettleDigest {
        txid: TxId([0x22; 32]),
        post: true,
    }]
}

fn handshake() -> Handshake {
    let quote = TrustRoot::new(9)
        .issue_device(1)
        .quote(Measurement::of_program("teechain", 1), [7; 64]);
    Handshake {
        identity: pk(1),
        eph: pk(2),
        quote,
        sig: sig(1),
    }
}

fn protocol_msgs() -> Vec<ProtocolMsg> {
    use ProtocolMsg::*;
    let id = ChannelId::from_label("golden");
    let route = RouteId([5; 32]);
    let swap = SwapId::from_label("golden");
    let [_, _, lock] = messages();
    vec![
        NewChannel {
            id,
            settlement: pk(1),
        },
        NewChannelAck {
            id,
            settlement: pk(2),
        },
        ApproveDeposit { deposit: deposit() },
        DepositApproved {
            outpoint: outpoint(),
        },
        AssociateDeposit {
            id,
            deposit: deposit(),
            key: Some([3; 32]),
        },
        DissociateDeposit {
            id,
            outpoint: outpoint(),
        },
        DissociateAck {
            id,
            outpoint: outpoint(),
        },
        Pay {
            id,
            amount: 7,
            count: 1,
        },
        PayAck {
            id,
            amount: 7,
            count: 2,
        },
        SettleRequest { id },
        ChannelClosed { id },
        lock,
        MhSign {
            route,
            tau: tau(),
            digests: digests(),
            deposits: vec![deposit()],
        },
        MhPreUpdate {
            route,
            witnesses: vec![vec![sig(7)], vec![]],
        },
        MhUpdate { route },
        MhPostUpdate { route },
        MhRelease { route },
        RepAssign,
        RepAssignAck { member_key: pk(4) },
        RepUpdate {
            seq: 3,
            deltas: state_deltas(),
        },
        RepAck { seq: 0x0102_0304 },
        RepFreeze,
        SigRequest {
            req_id: 11,
            hops: 2,
            tx: tau(),
        },
        SigResponse {
            req_id: 11,
            hops: 1,
            sigs: vec![(0, sig(8))],
            refused: false,
        },
        PayNack {
            id,
            amount: 7,
            count: 1,
            reason: 4,
        },
        MhAbort { route, reason: 5 },
        SwapInit {
            swap,
            channel: id,
            amount: 250,
            alt_amount: 500,
            hash: [6; 32],
            timeout_blocks: 5,
        },
        SwapLocked {
            swap,
            outpoint: outpoint(),
        },
        SwapSecret {
            swap,
            secret: [9; 32],
        },
        SwapNack { swap, reason: 6 },
    ]
}

fn state_deltas() -> Vec<StateDelta> {
    let id = ChannelId::from_label("golden");
    let route = RouteId([5; 32]);
    let channel = Channel {
        id,
        remote: pk(2),
        my_settlement: pk(3),
        remote_settlement: pk(4),
        is_open: true,
        my_bal: 60,
        remote_bal: 40,
        my_deps: vec![outpoint()],
        remote_deps: vec![],
        stage: MultihopStage::Lock,
        route: Some(route),
        pending_dissoc: vec![outpoint()],
        closed: false,
        settling: true,
    };
    let swap = SwapState {
        id: SwapId::from_label("golden"),
        channel: id,
        remote: pk(2),
        initiator: true,
        amount: 250,
        alt_amount: 500,
        hash: [6; 32],
        secret: Some([9; 32]),
        timeout_blocks: 5,
        htlc_outpoint: Some(outpoint()),
        deadline_ns: 1_000_000_000,
        phase: SwapPhase::Locked,
    };
    let route_state = RouteState {
        id: route,
        amount: 9,
        hops: vec![pk(1), pk(2), pk(3)],
        channels: vec![id, ChannelId::from_label("golden-2")],
        pos: 1,
        tau: Some(tau()),
        digests: digests(),
        pre_balances: [(id, (60, 40))].into_iter().collect(),
        deadline_ns: 2_000_000_000,
    };
    vec![
        StateDelta::Channel(Box::new(channel)),
        StateDelta::Pay {
            id,
            my_delta: -7,
            remote_delta: 7,
        },
        StateDelta::Stage {
            id,
            stage: MultihopStage::Sign,
        },
        StateDelta::Deposit {
            dep: deposit(),
            key: Some([3; 32]),
            mine: true,
        },
        StateDelta::ReleaseDeposit {
            op: outpoint(),
            txid: TxId([0x33; 32]),
        },
        StateDelta::Tau {
            route,
            tau: Some(tau()),
        },
        StateDelta::CloseChannel(id),
        StateDelta::Swap(Box::new(swap)),
        StateDelta::Route(Box::new(route_state)),
        StateDelta::RouteStage {
            route,
            stage: MultihopStage::Update,
        },
        StateDelta::Key(pk(5), [4; 32]),
        StateDelta::DestroyKey(pk(5)),
        StateDelta::RouteSigned(route, tau(), digests()),
    ]
}

/// One value of each variant of each wire and sealed enum.
fn golden_values() -> Vec<Golden> {
    let wire = vec![
        WireMsg::Hello(handshake()),
        WireMsg::HelloAck(handshake()),
        WireMsg::Sealed {
            from: pk(1),
            seq: 0x0102_0304_0506_0708,
            class: 3,
            ct: (0..61).collect(),
        },
    ];
    let scripts = vec![
        ScriptPubKey::P2pk(pk(1)),
        ScriptPubKey::Multisig {
            m: 2,
            keys: vec![pk(1), pk(2), pk(3)],
        },
        ScriptPubKey::Revocable {
            owner: pk(1),
            delay_blocks: 144,
            revocation: pk(2),
        },
        ScriptPubKey::Htlc {
            hash: [6; 32],
            claim_key: pk(1),
            refund_key: pk(2),
            timeout_blocks: 5,
        },
    ];
    use MultihopStage::*;
    let stages = vec![
        Idle, Lock, Sign, PreUpdate, Update, PostUpdate, Release, Terminated,
    ];
    let phases = vec![
        SwapPhase::Init,
        SwapPhase::Locked,
        SwapPhase::Redeemed,
        SwapPhase::Refunded,
    ];
    let mut all = of("ProtocolMsg", protocol_msgs());
    all.extend(of("StateDelta", state_deltas()));
    all.extend(of("WireMsg", wire));
    all.extend(of("ScriptPubKey", scripts));
    all.extend(of("MultihopStage", stages));
    all.extend(of("SwapPhase", phases));
    all
}

/// The v4 durable state image of node 1 of a line 0 — 1 — 2, read from its
/// last sealed snapshot: two channels, its own deposits free, associated
/// and released, a remote deposit, keys, a redeemed swap and a multi-hop route
/// held at `Lock` (node 2 is down, so the route goes no further).
fn state_image() -> Vec<u8> {
    let mut c = Cluster::new(ClusterConfig {
        n: 3,
        durability: DurabilityBackend::Persist(PersistPolicy { snapshot_every: 1 }),
        ..ClusterConfig::default()
    });
    let c01 = c.standard_channel(0, 1, "golden-01", 1_000, 1);
    let c12 = c.standard_channel(1, 2, "golden-12", 1_000, 1);
    let free = c.fund_deposit(1, 300, 1);
    let released = c.fund_deposit(1, 200, 1);
    c.op(
        1,
        Command::ReleaseDeposit {
            outpoint: released.outpoint,
            to: pk(9),
        },
    )
    .expect("release");
    assert!(c.swap(1, c12, "golden", 100, 200, 5).unwrap().redeemed);
    c.crash_node(2);
    let _ = c
        .handle(0)
        .pay_multihop(&[0, 1, 2], &[c01, c12], 50, "golden");
    let locked = |c: &Cluster| {
        let p = c.node(1).enclave.program().unwrap();
        p.channel(&c12).unwrap().stage == MultihopStage::Lock
    };
    for _ in 0..1_000 {
        if locked(&c) {
            break;
        }
        let t = c.sim.now_ns() + 1_000_000;
        c.sim.run_until(t);
    }
    assert!(locked(&c), "node 1 holds the route");
    {
        use teechain::deposit::DepositStatus::*;
        let p = c.node(1).enclave.program().unwrap();
        let status = |op| p.book_ref().get_mine(op).map(|(_, s)| *s);
        assert_eq!(status(&free.outpoint), Some(Free));
        let release = teechain::settle::release_tx(&released, pk(9)).txid();
        assert_eq!(status(&released.outpoint), Some(Released(release)));
        let own = p.channel(&c12).unwrap().my_deps[0];
        assert_eq!(status(&own), Some(Associated(c12)));
        assert!(p.swap_state(&SwapId::from_label("golden")).is_some());
    }
    let blob = c.store(1).unwrap().lock().recover().unwrap().snapshot;
    let (_, env) = c.node_mut(1).enclave.compromise().unwrap();
    let (_, image) = env.unseal(0, &blob.expect("a snapshot")).unwrap();
    assert_eq!(image[0], 4, "a v4 image");
    image
}

/// `type tag length sha256` of each value of [`golden_values`] at the
/// parent commit, one per line and in the same order.
const GOLDEN_VALUES: &str = "
ProtocolMsg 0 97 2fba2b3dde7ff7cf1ae6bb57849b65e2fdf17094c761ad3bf01871b0bc9ac7a0
ProtocolMsg 1 97 15e5f17d4818b94d5d8959910a50eee44a3896a0bc2bfd2a22cf1d11c196175c
ProtocolMsg 2 178 b5f340a09ad4fff7273af2e35d2e38d2912d787102c3d3e0f537004dd2b43dd4
ProtocolMsg 3 37 fc309a34b43c5c2971b18918d81d2332c1814e3c959b0bf8ce47c09384f1096f
ProtocolMsg 4 243 71c0b2aa70b047269fd6a1af30f46d1ad2990301e250de410968dc1087f54cea
ProtocolMsg 5 69 da72acdbced41274fec29079a295202403e63e82dac44bbcac981ed9f50090fd
ProtocolMsg 6 69 186d5738be2b07eefaa97698a8b4e0ab42600231808963660691cd1b93ceecc1
ProtocolMsg 7 45 05474ed2260ba6e2b4dc0e5a56c587403fab730e285c825bb57aab0587d8a3a3
ProtocolMsg 8 45 32e451b2243f2c4c35962d6ad60abdf032bf7df611079c9b52c569c4fb3fa6f5
ProtocolMsg 9 33 2929a70f627b64c01e432f787d6767202c6dacc4b07337d74ffc12bb9cdb93e6
ProtocolMsg 10 33 76822f8a244ea6066fd091dfdf209374fb8f96c1b06419f5c3e0cb1cfbb5dca9
ProtocolMsg 11 744 3ab437cadda1be520758a5c9864badaf50f5e7997ec4ee207c760f18bc9b65c1
ProtocolMsg 12 472 343b617c3bbb796a9442e32c15262a5ee16ae5d5e7011df5a392a508516236df
ProtocolMsg 13 141 a75249bf35fd6759d93cf3a12d0071cae4903905a9ad116956c7698b2c9b51c6
ProtocolMsg 14 33 5d909d6bf8c4d4f853344b98d3038dbcba6f34f593aacb8a5fa8892b63e6a010
ProtocolMsg 15 33 a0726ae38b04b1513d1e1b33adf8e6fc1aa526eda278312a28379ef8533e7e78
ProtocolMsg 16 33 8f1aa3c1a9b3df156a6faa1fad2d2edd9eb362159ec3d73cf4091b2b8c36c8e4
ProtocolMsg 17 1 4a64a107f0cb32536e5bce6c98c393db21cca7f4ea187ba8c4dca8b51d4ea80a
ProtocolMsg 18 65 925aac27c86282d165ef3eb37253e51f467f7c997dd2240a90551bf766d0126b
ProtocolMsg 19 2407 0bcfec84f383fa8424a7a016c9f89493a962577ecc505ecb00af541263b8f6f4
ProtocolMsg 20 9 b06712f37e026d00c786e4888ec5c3c64442d08209a85a17a3f246c86e07b1f3
ProtocolMsg 21 1 2f0fd1e89b8de1d57292742ec380ea47066e307ad645f5bc3adad8a06ff58608
ProtocolMsg 22 231 7c5df2b831fbc9fb761cab6f70866d585820140e6081be73e7cf8ad53787522a
ProtocolMsg 23 115 7833c17f57ac6739e18bf0193de5a1c63faa26234e1dce271cf2a24ee0d62363
ProtocolMsg 24 46 c5c3a02d935f5145bc167ccbcd4e6b2468246af8235e35f0389eb5cf450cd740
ProtocolMsg 25 34 f621e4564f899895c1a0d31869c8fcf398ad913df5765b42eab5874276a5b46d
ProtocolMsg 26 121 c99e2e70241ac9d36f5429641ecb270ec53f176273848f6984d035cf09d97b44
ProtocolMsg 27 69 cf6094e8399818725bc1e16a90617c427848493031a6f00c82bfd38bdf61e351
ProtocolMsg 28 65 c9bfd877fd0f74279c408ace191c04ddee22229fe82d110f1aa7b44533bcc67b
ProtocolMsg 29 34 d8791f3375c144343a950fff57609ca3f955d0b7c6524bc7a272269300bf68fc
StateDelta 0 362 1020cab871619afa15397064f695ac18670a5f25fd4549730d8a2fc34be315a5
StateDelta 1 49 616ed21e7b30aee115f34727742bf0bed64897683cdd16d9cc6f8c38b7bcb846
StateDelta 2 34 943f98af96b7715d2a4024336dbc871f37fd8cc145204d93ce09faddc4ceded5
StateDelta 3 212 98a232263e64a1b8e600f9b9b22f0635b0ba0f27742556077859e18c4ca69792
StateDelta 4 69 30d8b3f650321df8403420f860e3e1aefc08c143e265a6f23c014229bfdbc356
StateDelta 5 255 7836a723f517281a4e57ca8dc8f0687e70a4db14c61dd08a2dd021ea0948d2ed
StateDelta 6 33 2e2e725ad1256009e19f6eb90e9c70b98712c19e206a3f233103547fee084729
StateDelta 7 265 7ce16aea66e87b9ea4e65f1dd19d21ad95f65ac926f7175fdd42eb97f6d6f037
StateDelta 8 628 da1f5e187d8f3a9ddb91d27e9799ac7fd59b39599e26e6256a64610a76a2daec
StateDelta 9 34 06bd12a8cb8e1a7dd8deb1c96e8e6c247d02e9d46318d05e279c9f98472e071c
StateDelta 10 97 d8996e75fe0294cd72909398807cdece8ab042c1e953e2d12faee33c288494a4
StateDelta 11 65 9f26b8209be86ea3690983c82c057c128893212016c36ecf25d029dd29e2cbb2
StateDelta 12 291 227c4e200939688c0ab4f5034ccce302087a36b95f063b9faec19121ece00469
WireMsg 0 577 abd7193c3e06cc699910155561b27eaeb1ed8135f406643f6caec6bf2b6f51ba
WireMsg 1 577 92caeb38defefe0c0dfe2a781c61f2c05e2c6676c4d8f781aa3e9a8d34e32caf
WireMsg 2 139 23d5b48ea636e0917cb6cccda15ae37a8d2b1f1afecf2d60301e83412b59e6c2
ScriptPubKey 0 65 0a462318174bb034be229c38622a8a97e3995d58bc7a22d63b9a0d3d9a7c7a97
ScriptPubKey 1 198 78a277944ea9fa7530b25f0f20eb3f7a02217e5da1cd4eb5092976f217b2ca78
ScriptPubKey 2 137 bb1e96be114a951cf28dfc1cc2095e61e8b47dd54f2296e6037bf57f4ae11993
ScriptPubKey 3 169 510f731907d37913101df0f9bcf98fcfdf31bdab3e5a3a78fd05a57bffe01be3
MultihopStage 0 1 6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d
MultihopStage 1 1 4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a
MultihopStage 2 1 dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986
MultihopStage 3 1 084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5
MultihopStage 4 1 e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71
MultihopStage 5 1 e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db
MultihopStage 6 1 67586e98fad27da0b9968bc039a1ef34c939b9b8e523a8bef89d478608c5ecf6
MultihopStage 7 1 ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879
SwapPhase 0 1 6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d
SwapPhase 1 1 4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a
SwapPhase 2 1 dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986
SwapPhase 3 1 084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5
";

/// `(length, sha256)` of [`state_image`] at the parent commit.
const GOLDEN_IMAGE: (usize, &str) = (
    2107,
    "c9af3cc7b79acf12a9285a6658fc9f698ee0225e1044fe57244500433203de92",
);

#[test]
fn every_variant_of_every_wire_enum_is_bit_identical_to_the_parent_commit() {
    let values = golden_values();
    let pins: Vec<Vec<&str>> = GOLDEN_VALUES
        .lines()
        .skip(1)
        .map(|l| l.split(' ').collect())
        .collect();
    assert_eq!(values.len(), pins.len());
    for ((ty, bytes, decode), pin) in values.iter().zip(pins) {
        let at = format!("{ty} tag {}", bytes[0]);
        assert_eq!([*ty, &bytes[0].to_string()], pin[..2], "{at}");
        assert_eq!(bytes.len().to_string(), pin[2], "{at}");
        assert_eq!(hex::encode(&sha256(bytes)), pin[3], "{at}");
        assert_eq!(decode(bytes).as_ref(), Ok(bytes), "{at} round trip");
    }
}

#[test]
fn the_durable_state_image_is_bit_identical_to_the_parent_commit() {
    let image = state_image();
    assert_eq!(
        (image.len(), hex::encode(&sha256(&image)).as_str()),
        GOLDEN_IMAGE
    );
}

#[test]
fn truncated_or_bit_flipped_values_decode_to_a_typed_error_never_a_panic() {
    for (ty, bytes, decode) in golden_values() {
        let at = format!("{ty} tag {}", bytes[0]);
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "{at} cut at {len}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            // A panic fails the test; a flipped payload byte may decode.
            let _ = decode(&bad);
        }
    }
}
