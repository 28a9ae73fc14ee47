//! Ablation benchmarks (listed in `docs/ARCHITECTURE.md`, *Substitutions and
//! deviations*):
//!
//! * replication factor 0–2 — isolates the force-freeze overhead (C3);
//! * per-message AEAD vs full Schnorr signatures — quantifies the
//!   session-key design decision (every channel message would otherwise
//!   carry a 96-byte signature plus an expensive verification).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use teechain::testkit::{Cluster, Harness};
use teechain_crypto::aead::Aead;
use teechain_crypto::schnorr::{self, Keypair};

fn ablation_replication(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_replication");
    g.sample_size(10);
    for backups in [0usize, 1, 2] {
        g.bench_with_input(
            BenchmarkId::from_parameter(backups),
            &backups,
            |b, &backups| {
                let mut cluster = Cluster::functional(2 + backups);
                for k in 0..backups {
                    let tail = if k == 0 { 0 } else { 2 + k - 1 };
                    cluster.attach_backup(tail, 2 + k);
                }
                let chan = cluster.standard_channel(0, 1, "abl", u64::MAX / 4, 1);
                b.iter(|| cluster.pay(0, chan, 1).unwrap());
            },
        );
    }
    g.finish();
}

fn ablation_auth(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_message_auth");
    let msg = vec![0x5au8; 96];
    let aead = Aead::new(&[3; 32]);
    g.bench_function("session_aead", |b| {
        b.iter(|| {
            let sealed = aead.seal(1, b"", black_box(&msg));
            aead.open(1, b"", &sealed).unwrap()
        })
    });
    let kp = Keypair::from_seed(&[9; 32]);
    g.bench_function("per_message_schnorr", |b| {
        b.iter(|| {
            let sig = kp.sign(black_box(&msg));
            assert!(schnorr::verify(&kp.pk, &msg, &sig));
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = ablation_replication, ablation_auth
);
criterion_main!(benches);
