//! Direct probes: one public function of one layer, timed from outside.
//! They do not depend on the workload; every traced run repeats them so
//! that a change to a layer shows here first and in the workloads the README
//! names second.

use crate::crank;
use crate::sim::SimKind;
use crate::stats::{median_f, percentile_of, Metrics};
use std::hint::black_box;
use std::time::{Duration, Instant};
use teechain::msg::{ProtocolMsg, WireMsg};
use teechain::session::Session;
use teechain::types::ChannelId;
use teechain_blockchain::{Chain, ScriptPubKey, Transaction, TxIn, TxOut};
use teechain_crypto::aead::Aead;
use teechain_crypto::schnorr::{self, Keypair};
use teechain_crypto::sha256::sha256;
use teechain_net::{
    AnyEngine, Ctx, EngineKind, LinkSpec, NodeId, ReactorNet, SimNode, TcpNet, ThreadNet,
    Transport, TransportRx, TransportTx,
};
use teechain_persist::{wal, PersistentStore};
use teechain_util::codec::{Decode, Encode};

/// Nanoseconds per call: the median of five batches of `iters` calls.
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_f(&batches)
}

fn crypto(m: &mut Metrics) {
    let data = [0xabu8; 256];
    m.put(
        "crypto.sha256_256B_ns",
        per_call_ns(2_000, || {
            black_box(sha256(black_box(&data)));
        }),
    );
    let aead = Aead::new(&[7; 32]);
    let plain = [0x11u8; 128];
    let mut nonce = 0u64;
    m.put(
        "crypto.aead_seal_128B_ns",
        per_call_ns(2_000, || {
            nonce += 1;
            black_box(aead.seal(nonce, b"aad", black_box(&plain)));
        }),
    );
    let sealed = aead.seal(1, b"aad", &plain);
    m.put(
        "crypto.aead_open_128B_ns",
        per_call_ns(2_000, || {
            black_box(aead.open(1, b"aad", black_box(&sealed)).expect("authentic"));
        }),
    );
    let kp = Keypair::from_seed(&[1; 32]);
    m.put(
        "crypto.schnorr_sign_ns",
        per_call_ns(40, || {
            black_box(kp.sign(black_box(&data)));
        }),
    );
    let sig = kp.sign(&data);
    m.put(
        "crypto.schnorr_verify_ns",
        per_call_ns(40, || {
            assert!(schnorr::verify(&kp.pk, black_box(&data), &sig));
        }),
    );
}

/// The payment message as it crosses a session: codec, then AEAD with the
/// sender's identity as associated data, then the wire envelope.
fn session_and_codec(m: &mut Metrics) {
    let pay = ProtocolMsg::Pay {
        id: ChannelId::from_label("probe"),
        amount: 5,
        count: 1,
    };
    m.put(
        "util.codec.encode_pay_ns",
        per_call_ns(5_000, || {
            black_box(black_box(&pay).encode_to_vec());
        }),
    );
    let bytes = pay.encode_to_vec();
    m.put(
        "util.codec.decode_pay_ns",
        per_call_ns(5_000, || {
            black_box(ProtocolMsg::decode_exact(black_box(&bytes)).expect("decodes"));
        }),
    );
    let a = Keypair::from_seed(&[3; 32]).pk;
    let b = Keypair::from_seed(&[4; 32]).pk;
    let mut tx = Session::derive(&[9; 32], &a, &b);
    let mut rx = Session::derive(&[9; 32], &b, &a);
    // Sequence numbers are strict, so seal a batch, then open it in order.
    let mut seal_ns = Vec::new();
    let mut open_ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let sealed: Vec<WireMsg> = (0..2_000).map(|_| tx.seal(&a, &pay)).collect();
        seal_ns.push(t.elapsed().as_nanos() as f64 / 2_000.0);
        let t = Instant::now();
        for w in &sealed {
            let WireMsg::Sealed { seq, ct, .. } = w else {
                unreachable!("seal produces sealed envelopes");
            };
            black_box(rx.open(*seq, ct).expect("opens in order"));
        }
        open_ns.push(t.elapsed().as_nanos() as f64 / 2_000.0);
    }
    m.put("core.session.seal_pay_ns", median_f(&seal_ns));
    m.put("core.session.open_pay_ns", median_f(&open_ns));
}

fn persist(m: &mut Metrics) {
    let record = [0x77u8; 256];
    m.put(
        "persist.wal_frame_256B_ns",
        per_call_ns(5_000, || {
            black_box(wal::frame(black_box(&record)));
        }),
    );
    let mut store = PersistentStore::in_memory();
    m.put(
        "persist.append_commit_256B_ns",
        per_call_ns(2_000, || {
            store
                .append_commit(black_box(&record))
                .expect("in-memory append");
        }),
    );
    const RECORDS: usize = 2_000;
    let mut log = Vec::new();
    let mut store = PersistentStore::in_memory();
    for _ in 0..RECORDS {
        wal::frame_into(&mut log, &record);
        store.append_commit(&record).expect("in-memory append");
    }
    m.put(
        "persist.scan_ns_per_record",
        per_call_ns(5, || {
            assert_eq!(wal::scan(black_box(&log)).records.len(), RECORDS);
        }) / RECORDS as f64,
    );
    m.put(
        "persist.recover_ns_per_record",
        per_call_ns(5, || {
            assert_eq!(store.recover().expect("recovers").log.len(), RECORDS);
        }) / RECORDS as f64,
    );
}

fn blockchain(m: &mut Metrics) {
    let mut chain = Chain::new();
    let kp = Keypair::from_seed(&[2; 32]);
    let op = chain.mint_p2pk(&kp.pk, 100);
    let mut tx = Transaction {
        inputs: vec![TxIn::spend(op)],
        outputs: vec![TxOut {
            value: 100,
            script: ScriptPubKey::P2pk(kp.pk),
        }],
    };
    tx.sign_input(0, &kp.sk);
    m.put(
        "blockchain.validate_p2pk_ns",
        per_call_ns(40, || {
            chain.validate(black_box(&tx)).expect("valid spend");
        }),
    );
}

/// Bounces every message back to where it came from.
struct Bouncer;

impl SimNode for Bouncer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Vec<u8>) {
        ctx.send(from, msg);
    }
}

/// The sequential engine as the simulator workloads configure it (ideal
/// links), with nodes that do nothing: 64 messages of a payment's size bounce
/// between two nodes, and the time per delivered event is the engine's own.
fn engine(m: &mut Metrics) {
    const EVENTS: u64 = 200_000;
    let mut eng = AnyEngine::new(
        EngineKind::Seq,
        vec![Bouncer, Bouncer],
        LinkSpec::ideal(),
        1,
    );
    for _ in 0..64 {
        eng.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), vec![0u8; 144]));
    }
    m.put(
        "net.engine.ns_per_event",
        per_call_ns(1, || assert_eq!(eng.run_to_idle(EVENTS), EVENTS)) / EVENTS as f64,
    );
}

/// First byte of a probe message: what the far end does with it.
const ECHO: u8 = 1;
const SWALLOW: u8 = 2;
const STOP: u8 = 0;
const MSG_LEN: usize = 128;
const RECV_WAIT: Duration = Duration::from_secs(5);

/// 128-byte ping-pong between endpoints 0 and 1 (median round trip), then a
/// one-way stream closed by one echoed message (messages per second).
fn transport<T: Transport>(mut endpoints: Vec<T>, pings: usize, stream: usize) -> (f64, f64) {
    let far = endpoints.pop().expect("two endpoints");
    let near = endpoints.pop().expect("two endpoints");
    let (mut tx, mut rx) = near.split();
    let (mut far_tx, mut far_rx) = far.split();
    // Echoes until told to stop, or until the near end goes quiet or away.
    let echo = std::thread::spawn(move || {
        while let Ok(Some((from, msg))) = far_rx.recv_timeout(RECV_WAIT) {
            match msg[0] {
                ECHO => far_tx.send(from, msg).expect("near end alive"),
                SWALLOW => {}
                _ => break,
            }
        }
    });
    let msg = |kind: u8| {
        let mut m = vec![0u8; MSG_LEN];
        m[0] = kind;
        m
    };
    let round_trip = |tx: &mut T::Tx, rx: &mut T::Rx| {
        let t = Instant::now();
        tx.send(NodeId(1), msg(ECHO)).expect("far end alive");
        rx.recv_timeout(RECV_WAIT)
            .expect("transport open")
            .expect("echo within the wait");
        t.elapsed().as_nanos() as u64
    };
    // The first round trips dial connections.
    for _ in 0..20 {
        round_trip(&mut tx, &mut rx);
    }
    let mut rtts: Vec<u64> = (0..pings).map(|_| round_trip(&mut tx, &mut rx)).collect();
    let t = Instant::now();
    for _ in 0..stream {
        tx.send(NodeId(1), msg(SWALLOW)).expect("far end alive");
    }
    round_trip(&mut tx, &mut rx);
    let msgs_s = (stream + 1) as f64 / t.elapsed().as_secs_f64();
    tx.send(NodeId(1), msg(STOP)).expect("far end alive");
    echo.join().expect("echo thread");
    (percentile_of(&mut rtts, 0.5) as f64, msgs_s)
}

fn net_live(m: &mut Metrics, shrink: usize) {
    let pings = 2_000 / shrink;
    let stream = 50_000 / shrink;
    let (rtt, _) = transport(ThreadNet::mesh(2), pings, 0);
    m.put("net.live.thread_rtt_ns", rtt);
    let (rtt, _) = transport(TcpNet::localhost(2).expect("bind loopback"), pings, 0);
    m.put("net.live.tcp_rtt_ns", rtt);
    let reactor = ReactorNet::localhost(2).expect("bind loopback");
    let (rtt, msgs_s) = transport(reactor, pings, stream);
    m.put("net.live.reactor_rtt_ns", rtt);
    m.put("net.live.reactor_stream_msgs_s", msgs_s);
}

/// Hand-cranked node turns for the four shapes.
fn node_turns(m: &mut Metrics, seed: u64, shrink: usize, errors: &mut Vec<String>) {
    for kind in [SimKind::Pay, SimKind::Repl, SimKind::Wal, SimKind::Multihop] {
        let shape = kind.shape();
        match crank::crank(kind, seed, crank::bursts_for(kind, shrink)) {
            Ok(c) => {
                m.put(
                    &format!("core.node.{shape}.turn_ns_per_tx"),
                    c.turn_ns_per_tx,
                );
                m.put(&format!("core.node.{shape}.turns_per_tx"), c.turns_per_tx);
                if kind == SimKind::Pay {
                    m.put("core.node.pay_submit_turn_ns", c.submit_turn_ns);
                    m.put("core.node.pay_deliver_turn_ns", c.deliver_turn_ns);
                    m.put("core.node.pay_ack_turn_ns", c.ack_turn_ns);
                }
            }
            Err(e) => errors.push(e),
        }
    }
}

/// Every workload-independent per-layer metric.
pub fn run(m: &mut Metrics, seed: u64, shrink: usize, errors: &mut Vec<String>) {
    crypto(m);
    session_and_codec(m);
    persist(m);
    blockchain(m);
    engine(m);
    net_live(m, shrink);
    node_turns(m, seed, shrink, errors);
}
