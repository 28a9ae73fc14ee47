//! Unit tests of the enclave's slot tables and its sealed state image.

use super::*;
use crate::ops::OpError;
use crate::testkit::{Cluster, ClusterConfig, Harness};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeSet;

/// Node `i`'s enclave program.
fn program(c: &Cluster, i: usize) -> &TeechainEnclave {
    c.node(i).enclave.program().expect("enclave running")
}

/// The slot node `i` gives node `j`'s identity.
fn slot_of(c: &Cluster, i: usize, j: usize) -> Option<u32> {
    program(c, i).peers.slot(&c.ids[j].to_bytes())
}

/// A sealed frame naming `from` whose ciphertext no session opens.
fn forged_frame(from: PublicKey) -> Vec<u8> {
    WireMsg::Sealed {
        from,
        seq: 0,
        class: 0,
        ct: vec![0x5a; 48],
    }
    .encode_to_vec()
}

/// The sealed image is a function of the state alone: two enclaves driven
/// through one setup seal the same bytes, whatever order their hash maps
/// keep, and the image loads back to a state that seals them again.
#[test]
fn the_state_image_is_canonical() {
    let images = || {
        let mut c = Cluster::functional(2);
        for k in 0..8 {
            c.standard_channel(0, 1, &format!("canonical-{k}"), 100 + k, 1);
        }
        [program(&c, 0).state_image(), program(&c, 1).state_image()]
    };
    let (first, second) = (images(), images());
    assert_eq!(first, second);
    for image in first {
        let mut restored = TeechainEnclave::new(Cluster::functional(1).node(0).cfg.clone());
        restored.load_state_image(&image).expect("image loads");
        assert_eq!(restored.state_image(), image);
    }
}

/// Images sealed before routes were durable (v3) and before swaps were
/// (v2) still load, as the same state without the tables they lack.
#[test]
fn v2_and_v3_images_still_load() {
    let mut c = Cluster::functional(2);
    c.standard_channel(0, 1, "old-image", 100, 1);
    let v4 = program(&c, 0).state_image();
    // v4 ends with the swap and route tables, empty here: a 4-byte count
    // each.
    for (version, cut) in [(3u8, 4), (2, 8)] {
        let mut old = v4[..v4.len() - cut].to_vec();
        old[0] = version;
        let mut restored = TeechainEnclave::new(c.node(0).cfg.clone());
        restored.load_state_image(&old).expect("old image loads");
        assert_eq!(restored.state_image(), v4, "v{version}");
    }
}

/// The host routes a send by the peer slot it names only while the slot
/// still holds the identity the send names: a stale slot — one that named
/// another peer when the route was cached — never carries a frame to that
/// other peer's node.
#[test]
fn a_stale_slot_never_routes_to_another_peer() {
    use teechain_net::live::drive;
    use teechain_net::{NodeAction, NodeId};
    let mut c = Cluster::functional(3);
    c.connect(1, 0);
    c.connect(1, 2);
    let (to_0, to_2) = (c.ids[0], c.ids[2]);
    let slot_0 = PeerSlot(slot_of(&c, 1, 0).expect("a session"));
    assert_ne!(Some(slot_0.0), slot_of(&c, 1, 2));
    let mut rng = teechain_util::rng::Xoshiro256::new(1);
    let mut send = |to: PublicKey, peer: PeerSlot| {
        let effect = Effect::Send {
            to,
            peer: Some(peer),
            wire: vec![0; 8],
        };
        let ((), actions) = drive(c.node_mut(1), NodeId(1), 0, &mut rng, |n, ctx| {
            n.perform(ctx, vec![effect]);
        });
        match actions.as_slice() {
            [NodeAction::Send { to, .. }] => *to,
            other => panic!("one send, got {other:?}"),
        }
    };
    assert_eq!(send(to_0, slot_0), NodeId(0));
    assert_eq!(send(to_2, slot_0), NodeId(2), "the identity wins");
    assert_eq!(send(to_0, slot_0), NodeId(0));
}

/// One step of the slot-lifecycle property. `k` picks among the steps the
/// model allows, so few are wasted.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `a` starts a session with `b` (a handshake unless `a` holds one, a
    /// re-handshake at `b` if `b` holds one).
    Connect(usize, usize),
    /// Either end of the `k`-th pair with fresh sessions opens a channel.
    Open(usize),
    /// The opener of the `k`-th opened channel settles it.
    Close(usize),
    /// The `k`-th node holding a channel crashes and recovers from its
    /// store.
    CrashRecover(usize),
    /// A forged frame naming identity `j` (3: a stranger) is delivered to
    /// node `i`.
    Probe(usize, usize),
}

fn step(x: u16) -> Step {
    let x = x as usize;
    let (a, k) = ((x / 5) % 3, x / 5);
    match x % 5 {
        0 => Step::Connect(a, (a + 1 + k / 3 % 2) % 3),
        1 => Step::Open(k),
        2 => Step::Close(k),
        3 => Step::CrashRecover(k),
        _ => Step::Probe(a, k / 3 % 4),
    }
}

/// What the slot tables must say, kept by identity.
#[derive(Default)]
struct Model {
    /// `sessions[i]`: the nodes node `i` holds an established session with.
    sessions: [BTreeSet<usize>; 3],
    /// Unordered pairs whose two sessions came out of one handshake.
    fresh: BTreeSet<(usize, usize)>,
    /// `channels[i]`: node `i`'s channels in creation order, with their
    /// counterparty.
    channels: [Vec<(ChannelId, usize)>; 3],
    /// Every opened channel: id, opener, responder.
    opened: Vec<(ChannelId, usize, usize)>,
}

fn pair(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

/// Every slot look-up on every node against the model.
fn check(c: &Cluster, m: &Model, stranger: &PublicKey) -> Result<(), TestCaseError> {
    for i in 0..3 {
        let p = program(c, i);
        for j in (0..3).filter(|&j| j != i) {
            let session = p
                .peers
                .slot(&c.ids[j].to_bytes())
                .and_then(|s| p.peers.at(s))
                .and_then(Option::as_ref);
            let established = session.is_some_and(|s| s.established && s.remote == c.ids[j]);
            prop_assert_eq!(established, m.sessions[i].contains(&j));
        }
        prop_assert!(p.peers.slot(&stranger.to_bytes()).is_none());
        let held: Vec<(ChannelId, PublicKey)> = p
            .state
            .channels
            .values()
            .map(|ch| (ch.id, ch.remote))
            .collect();
        let want: Vec<(ChannelId, PublicKey)> = m.channels[i]
            .iter()
            .map(|&(id, j)| (id, c.ids[j]))
            .collect();
        prop_assert_eq!(held, want);
        for &(id, j) in &m.channels[i] {
            let s = p.state.channels.slot(&id).expect("held");
            prop_assert_eq!(p.state.channels.at(s).map(|ch| ch.id), Some(id));
            prop_assert_eq!(
                p.peers.slot(&c.ids[j].to_bytes()),
                Some(p.chan_peers[s as usize])
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleavings of handshakes, re-handshakes, channel opens
    /// and closes, and crash-recoveries: every slot look-up agrees with a
    /// model kept by identity; a frame naming an identity without a
    /// session fails with `NoSession`, and one naming an identity with a
    /// session reaches that session (and fails its authentication there).
    #[test]
    fn prop_slot_lookups_agree_with_the_identity_model(steps in proptest::collection::vec(any::<u16>(), 8..24)) {
        let mut c = Cluster::new(ClusterConfig {
            n: 3,
            durability: crate::DurabilityBackend::persistent(),
            ..ClusterConfig::default()
        });
        let stranger = Keypair::from_seed(&[0x77; 32]).pk;
        let mut m = Model::default();
        for x in steps {
            match step(x) {
                Step::Connect(a, b) => {
                    c.connect(a, b);
                    if m.sessions[a].insert(b) {
                        m.sessions[b].insert(a);
                        m.fresh.insert(pair(a, b));
                    }
                }
                Step::Open(k) if !m.fresh.is_empty() => {
                    let &(x, y) = m.fresh.iter().nth(k % m.fresh.len()).expect("in range");
                    let (a, b) = if k / 8 % 2 == 0 { (x, y) } else { (y, x) };
                    let id = c.open_channel(a, b, &format!("slot-{}", m.opened.len()));
                    m.channels[a].push((id, b));
                    m.channels[b].push((id, a));
                    m.opened.push((id, a, b));
                }
                Step::Close(k) if !m.opened.is_empty() => {
                    let (id, a, b) = m.opened[k % m.opened.len()];
                    if m.fresh.contains(&pair(a, b)) {
                        c.settle_channel(a, id).expect("settles off chain");
                    }
                }
                // A node that never committed has no durable identity to
                // come back with.
                Step::CrashRecover(k) if m.channels.iter().any(|c| !c.is_empty()) => {
                    let holders: Vec<usize> = (0..3).filter(|&i| !m.channels[i].is_empty()).collect();
                    let a = holders[k % holders.len()];
                    c.crash_node(a);
                    c.recover_node(a).expect("recovers");
                    m.sessions[a].clear();
                    m.fresh.retain(|&(x, y)| x != a && y != a);
                }
                Step::Probe(i, j) => {
                    let from = if j == 3 || j == i { stranger } else { c.ids[j] };
                    let wire = forged_frame(from);
                    let got = c.op_now(i, Command::Deliver { wire, at: 0 });
                    let want = if from != stranger && m.sessions[i].contains(&j) {
                        ProtocolError::BadMessage
                    } else {
                        ProtocolError::NoSession
                    };
                    prop_assert_eq!(got, Err(OpError::Rejected(want)));
                }
                _ => {}
            }
            check(&c, &m, &stranger)?;
        }
    }
}
