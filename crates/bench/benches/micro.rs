//! Criterion micro-benchmarks of the substrates: crypto primitives, one
//! side of the session handshake, the codec's byte vectors, a sealed
//! message's way to and from the wire, the three handler turns of a
//! payment, transaction validation, the
//! multi-hop signing layer (τ's txid and one hop's sign step) and a real
//! end-to-end enclave payment. The `codec`, `wire` and `turn` rows also
//! print the heap traffic of one iteration (`heap <row> <allocations>
//! <bytes>`), counted by [`teechain_bench::alloc_count`].

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use teechain::msg::{ProtocolMsg, WireMsg};
use teechain::session::Session;
use teechain::settle;
use teechain::testkit::{Cluster, Harness};
use teechain::types::{ChannelId, CommitteeSpec, Deposit};
use teechain::Effect;
use teechain_bench::alloc_count::{measure, AllocCounts, CountingAlloc};
use teechain_bench::turns::{PayCrank, PAY_TURNS};
use teechain_crypto::aead::Aead;
use teechain_crypto::chacha20::ChaCha20;
use teechain_crypto::point::{base_double_mul, base_mul};
use teechain_crypto::schnorr::{self, Keypair, PublicKey};
use teechain_crypto::sha256::sha256;
use teechain_crypto::U256;
use teechain_net::live::drive;
use teechain_net::{NodeAction, NodeId};
use teechain_util::codec::{Decode, Encode};
use teechain_util::rng::Xoshiro256;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Prints the heap traffic of one call of `f`, after one call to warm up
/// whatever `f` builds lazily.
fn heap_row<R>(name: &str, mut f: impl FnMut() -> R) {
    black_box(f());
    let (_, heap) = measure(|| black_box(f()));
    print_heap(name, heap.allocs as f64, heap.bytes as f64);
}

fn print_heap(name: &str, allocs: f64, bytes: f64) {
    println!("heap  {name:<40} {allocs:>8.2} allocs/iter {bytes:>10.1} B/iter");
}

fn crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data = vec![0xabu8; 256];
    g.bench_function("sha256_256B", |b| b.iter(|| sha256(black_box(&data))));
    let kp = Keypair::from_seed(&[1; 32]);
    g.bench_function("schnorr_sign", |b| b.iter(|| kp.sign(black_box(&data))));
    let sig = kp.sign(&data);
    g.bench_function("schnorr_verify", |b| {
        b.iter(|| schnorr::verify(&kp.pk, black_box(&data), &sig))
    });
    // k distinct keys over distinct messages: one multi-scalar pass each,
    // against k × `schnorr_verify`.
    for k in [2u8, 3, 4, 8] {
        let items: Vec<(PublicKey, Vec<u8>, schnorr::Signature)> = (0..k)
            .map(|i| {
                let kp = Keypair::from_seed(&[i + 1; 32]);
                let msg = vec![i; 256];
                let sig = kp.sign(&msg);
                (kp.pk, msg, sig)
            })
            .collect();
        g.bench_with_input(
            BenchmarkId::new("schnorr_batch_verify", k),
            &items,
            |b, items| b.iter(|| assert!(schnorr::verify_batch(black_box(items)))),
        );
    }
    let aead = Aead::new(&[7; 32]);
    g.bench_function("aead_seal_256B", |b| {
        b.iter(|| aead.seal(1, b"", black_box(&data)))
    });
    g.finish();
}

/// One side of the Alg. 1 handshake: the measurement and binding checks,
/// then one batch over the device certificate, the quote signature and
/// the transcript signature.
fn session(c: &mut Criterion) {
    use teechain::session::{expected_quote_binding, make_handshake, verify_handshake};
    use teechain_tee::{Measurement, TrustRoot};
    let mut g = c.benchmark_group("session");
    let root = TrustRoot::new(9);
    let measurement = Measurement::of_program("teechain", 1);
    let (id, eph, peer) = (
        Keypair::from_seed(&[1; 32]),
        Keypair::from_seed(&[2; 32]),
        Keypair::from_seed(&[3; 32]).pk,
    );
    let quote = root
        .issue_device(1)
        .quote(measurement, expected_quote_binding(&id.pk, &eph.pk));
    let hs = make_handshake("teechain/hello", &id, &eph, &peer, quote);
    g.bench_function("verify_handshake", |b| {
        b.iter(|| {
            verify_handshake(
                "teechain/hello",
                black_box(&hs),
                &peer,
                &root.public_key(),
                &measurement,
            )
            .unwrap()
        })
    });
    g.finish();
}

/// The per-message symmetric path, one row per layer: the ChaCha20 block
/// under the AEAD, the AEAD at the benchmark's probe size, and the session
/// on a payment (codec + AEAD + envelope). A payment is two sealed messages:
/// two `session_seal_pay` and two `session_open_pay`.
fn symmetric(c: &mut Criterion) {
    let mut g = c.benchmark_group("symmetric");
    let cipher = ChaCha20::new(&[7; 32], &[9; 12]);
    g.bench_function("chacha20_block", |b| b.iter(|| cipher.block(black_box(1))));
    let aead = Aead::new(&[7; 32]);
    let plain = [0x11u8; 128];
    let mut nonce = 0u64;
    g.bench_function("aead_seal_128B", |b| {
        b.iter(|| {
            nonce += 1;
            aead.seal(nonce, b"aad", black_box(&plain))
        })
    });
    let sealed = aead.seal(0, b"aad", &plain);
    g.bench_function("aead_open_128B", |b| {
        b.iter(|| aead.open(0, b"aad", black_box(&sealed)).unwrap())
    });
    // Poly1305 is private to the crypto crate. Sealing 1 KiB of associated
    // data and no payload is 65 Poly1305 blocks plus the one ChaCha20 block
    // that derives their key: subtract `chacha20_block`.
    let aad = [0x22u8; 1024];
    g.bench_function("poly1305_1KiB", |b| {
        b.iter(|| {
            nonce += 1;
            aead.seal(nonce, black_box(&aad), b"")
        })
    });

    let a = Keypair::from_seed(&[3; 32]).pk;
    let peer = Keypair::from_seed(&[4; 32]).pk;
    let pay = ProtocolMsg::Pay {
        id: ChannelId::from_label("bench"),
        amount: 5,
        count: 1,
    };
    let mut tx = Session::derive(&[9; 32], &a, &peer);
    g.bench_function("session_seal_pay", |b| {
        b.iter(|| tx.seal(&a, black_box(&pay)))
    });
    // Sequence numbers are strict: every envelope opens once, in order, so
    // a fresh pair seals them outside the timed region.
    let mut tx = Session::derive(&[9; 32], &a, &peer);
    let mut rx = Session::derive(&[9; 32], &peer, &a);
    g.bench_function("session_open_pay", |b| {
        b.iter_batched(
            || tx.seal(&a, &pay),
            |wire| {
                let WireMsg::Sealed { seq, ct, .. } = wire else {
                    unreachable!("seal produces sealed envelopes");
                };
                rx.open(seq, &ct).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// A byte vector through the codec, at the size of a payment's frame and of
/// a multi-hop payment's wire bytes: every ciphertext, sealed blob and WAL
/// record is one.
fn codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    for (label, len) in [("144B", 144), ("12KiB", 12 * 1024)] {
        let v: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let bytes = v.encode_to_vec();
        let name = format!("vec_u8_encode/{label}");
        g.bench_function(&name, |b| b.iter(|| black_box(&v).encode_to_vec()));
        heap_row(&format!("codec/{name}"), || v.encode_to_vec());
        let name = format!("vec_u8_decode/{label}");
        g.bench_function(&name, |b| {
            b.iter(|| Vec::<u8>::decode_exact(black_box(&bytes)).unwrap())
        });
        heap_row(&format!("codec/{name}"), || {
            Vec::<u8>::decode_exact(&bytes).unwrap()
        });
    }
    g.finish();
}

/// A sealed `Pay` on its way out and in. `seal_to_frame` is everything
/// between the protocol message and `ctx.send`: the session seals it into a
/// frame and the node's `perform` puts its envelope around it (the row
/// includes `drive`'s own two `Vec`s). `frame_to_open` is the way back from
/// the ciphertext's place in the buffer that arrived to the decoded message;
/// reading the two headers in front of it is part of `turn/pay_deliver`.
fn wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let mut cluster = Cluster::functional(2);
    cluster.connect(0, 1);
    let (a, peer) = (cluster.ids[0], cluster.ids[1]);
    let pay = ProtocolMsg::Pay {
        id: ChannelId::from_label("bench"),
        amount: 5,
        count: 1,
    };
    let mut rng = Xoshiro256::new(7);
    let mut tx = Session::derive(&[9; 32], &a, &peer);
    let mut seal_to_frame = || {
        let wire = tx.seal_frame(&a, &pay);
        let node = cluster.node_mut(0);
        let ((), mut actions) = drive(node, NodeId(0), 0, &mut rng, |n, ctx| {
            let send = Effect::Send {
                to: peer,
                peer: None,
                wire,
            };
            n.perform(ctx, vec![send]);
        });
        match actions.pop() {
            Some(NodeAction::Send { msg, .. }) => msg,
            _ => unreachable!("perform sends the frame"),
        }
    };
    g.bench_function("seal_to_frame", |b| b.iter(&mut seal_to_frame));
    heap_row("wire/seal_to_frame", &mut seal_to_frame);

    let sealed_len = pay.encode_to_vec().len() + 16;
    let mut tx = Session::derive(&[9; 32], &a, &peer);
    let mut rx = Session::derive(&[9; 32], &peer, &a);
    let mut seq = 0u64;
    let mut next_frame = move || {
        seq += 1;
        (seq - 1, tx.seal_frame(&a, &pay))
    };
    let mut open = move |(seq, mut frame): (u64, Vec<u8>)| {
        let at = frame.len() - sealed_len;
        rx.open_in_place(seq, &mut frame[at..]).unwrap()
    };
    g.bench_function("frame_to_open", |b| {
        b.iter_batched(&mut next_frame, &mut open, BatchSize::SmallInput)
    });
    let frame = next_frame();
    let (_, heap) = measure(|| black_box(open(frame)));
    print_heap("wire/frame_to_open", heap.allocs as f64, heap.bytes as f64);
    g.finish();
}

/// The three handler turns of a direct payment, cranked by hand: median
/// time and mean heap traffic over a few thousand payments.
fn turn(_c: &mut Criterion) {
    const WARM_UP: usize = 2_000;
    const PAYMENTS: usize = 20_000;
    let mut crank = PayCrank::new();
    for _ in 0..WARM_UP {
        crank.pay(1);
    }
    let costs: Vec<_> = (0..PAYMENTS).map(|_| crank.pay(1)).collect();
    let mut total = AllocCounts::default();
    for (role, name) in PAY_TURNS.iter().enumerate() {
        let mut ns: Vec<u64> = costs.iter().map(|c| c[role].ns).collect();
        ns.sort_unstable();
        let allocs: u64 = costs.iter().map(|c| c[role].heap.allocs).sum();
        let bytes: u64 = costs.iter().map(|c| c[role].heap.bytes).sum();
        total.allocs += allocs;
        total.bytes += bytes;
        let name = format!("turn/{name}");
        println!("bench {name:<40} {:>14} ns/iter", ns[PAYMENTS / 2]);
        print_heap(
            &name,
            allocs as f64 / PAYMENTS as f64,
            bytes as f64 / PAYMENTS as f64,
        );
    }
    print_heap(
        "turn/pay (all three)",
        total.allocs as f64 / PAYMENTS as f64,
        total.bytes as f64 / PAYMENTS as f64,
    );
}

/// The primitives under `schnorr_sign` / `schnorr_verify`, one row each: a
/// signature is one `base_mul` plus one `fe_inv`; a verification is one
/// `double_mul`; ECDH is one `scalar_mul` plus one `fe_inv`.
fn secp256k1(c: &mut Criterion) {
    let mut g = c.benchmark_group("secp256k1");
    let p = Keypair::from_seed(&[3; 32]).pk.0;
    let (x, y) = (p.x, p.y);
    g.bench_function("fe_mul", |b| b.iter(|| black_box(x) * black_box(y)));
    g.bench_function("fe_sqr", |b| b.iter(|| black_box(x).sqr()));
    g.bench_function("fe_inv", |b| b.iter(|| black_box(x).inv()));
    // Full-width scalars (the x coordinates, as integers).
    let (k1, k2): (U256, U256) = (x.to_u256(), y.to_u256());
    base_mul(&k1); // Build the fixed-base table outside the timed region.
    g.bench_function("base_mul", |b| b.iter(|| base_mul(black_box(&k1))));
    g.bench_function("scalar_mul", |b| {
        b.iter(|| p.to_jacobian().scalar_mul(black_box(&k1)))
    });
    g.bench_function("double_mul", |b| {
        b.iter(|| base_double_mul(black_box(&k1), black_box(&k2), &p))
    });
    g.finish();
}

fn blockchain(c: &mut Criterion) {
    use teechain_blockchain::{Chain, ScriptPubKey, Transaction, TxIn, TxOut};
    let mut g = c.benchmark_group("blockchain");
    g.bench_function("validate_p2pk_spend", |b| {
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
        tx.sign_input(0, &kp);
        b.iter(|| chain.validate(black_box(&tx)).unwrap());
    });
    g.finish();
}

/// A multi-hop τ of three 1-of-1 deposit inputs and six outputs, the
/// shape a 3-hop payment settles, with the deposits it spends.
fn tau_fixture() -> (teechain_blockchain::Transaction, Vec<Deposit>, Vec<Keypair>) {
    use teechain_blockchain::{OutPoint, ScriptPubKey, Transaction, TxId, TxIn, TxOut};
    let keys: Vec<Keypair> = (1..=3).map(|n| Keypair::from_seed(&[n; 32])).collect();
    let deposits: Vec<Deposit> = keys
        .iter()
        .zip(1u8..)
        .map(|(k, n)| Deposit {
            outpoint: OutPoint {
                txid: TxId([n; 32]),
                vout: 0,
            },
            value: 1000,
            committee: CommitteeSpec::single(k.pk),
        })
        .collect();
    let tau = Transaction {
        inputs: deposits.iter().map(|d| TxIn::spend(d.outpoint)).collect(),
        outputs: (10..16)
            .map(|n| TxOut {
                value: 500,
                script: ScriptPubKey::P2pk(Keypair::from_seed(&[n; 32]).pk),
            })
            .collect(),
    };
    (tau, deposits, keys)
}

/// The multi-hop signing layer: hashing τ (its txid is its sighash), and
/// one intermediate hop's sign step. That hop holds the keys of its two
/// channels' deposits; the next hop already signed the outgoing one, so
/// the step is one sighash and one signature.
fn tau(c: &mut Criterion) {
    let (tau, deposits, keys) = tau_fixture();
    let deposit_of =
        |op: &teechain_blockchain::OutPoint| deposits.iter().find(|d| d.outpoint == *op);
    let mut signed = tau.clone();
    for (i, key) in keys.iter().enumerate() {
        signed.sign_input(i, key);
    }
    let mut g = c.benchmark_group("tx");
    g.bench_function("txid_tau", |b| b.iter(|| black_box(&signed).txid()));
    g.finish();

    let held = &keys[1..];
    let keypair_of = |pk: &PublicKey| held.iter().find(|k| k.pk == *pk).copied();
    let mut from_next_hop = tau;
    from_next_hop.sign_input(2, &keys[2]);
    let mut g = c.benchmark_group("multihop");
    g.bench_function("sign_tau", |b| {
        b.iter_batched(
            || from_next_hop.clone(),
            |mut tx| {
                assert_eq!(settle::sign_inputs(&mut tx, keypair_of, deposit_of), 1);
                tx
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn enclave_payment(c: &mut Criterion) {
    // End-to-end cost of one payment round trip through two real enclaves
    // (AEAD seal/open, state update, ack) — the wall-clock cost that
    // bounds how many simulated payments per second the harness achieves.
    let mut g = c.benchmark_group("enclave");
    g.bench_function("payment_roundtrip", |b| {
        let mut cluster = Cluster::functional(2);
        let chan = cluster.standard_channel(0, 1, "bench", u64::MAX / 4, 1);
        b.iter(|| {
            cluster.pay(0, chan, 1).unwrap();
        });
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = crypto, session, symmetric, codec, wire, turn, secp256k1, blockchain, tau, enclave_payment
);
criterion_main!(benches);
