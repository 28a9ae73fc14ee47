//! Unit tests of the enclave's slot tables and its sealed state image.

use super::*;
use crate::msg::WireMsg;
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
                    let got = c.op_now(i, Command::Deliver { wire, more: false });
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

// ---- The gate table ----

/// The enclave under test: node 0 of a three-node cluster, with a funded
/// channel to node 1. Node 2 has never met it.
struct GateFixture {
    c: Cluster,
    chan: ChannelId,
    dep: Deposit,
    /// Whether node 0's counter was spent (see [`Self::set`]).
    throttled: bool,
}

impl GateFixture {
    fn new(durability: crate::DurabilityBackend) -> GateFixture {
        let mut c = Cluster::new(ClusterConfig {
            n: 3,
            durability,
            ..ClusterConfig::default()
        });
        let chan = c.standard_channel(0, 1, "gates", 100, 1);
        let p = program(&c, 0);
        let op = p.chan(&chan).expect("opened").my_deps[0];
        let dep = p.state.book.deposit_of(&op).expect("funded").clone();
        GateFixture {
            c,
            chan,
            dep,
            throttled: false,
        }
    }

    /// Node `i`'s program and its hardware, reached past the host
    /// (`Enclave::compromise`).
    fn enclave(&mut self, i: usize) -> (&mut TeechainEnclave, &mut EnclaveEnv) {
        self.c.node_mut(i).enclave.compromise().expect("running")
    }

    /// Freezes node 0 and, if `throttle`, spends its counter so the next
    /// increment must wait.
    fn set(&mut self, frozen: bool, throttle: bool) {
        self.throttled = throttle;
        let (p, env) = self.enclave(0);
        p.frozen = frozen;
        if throttle {
            let id = p.ensure_counter(env);
            let _ = env.increment_counter(id);
            assert!(env.now_ns() < env.counter_ready_at(id), "throttled");
        }
    }

    /// Every command, each with the row it must pass.
    fn commands(&self) -> Vec<(Command, Gate)> {
        let (me, peer) = (self.c.ids[0], self.c.ids[1]);
        let (chan, outpoint) = (self.chan, self.dep.outpoint);
        let route = RouteId::from_label("gates");
        let swap = SwapId::from_label("gates");
        let empty = teechain_blockchain::Transaction {
            inputs: vec![],
            outputs: vec![],
        };
        vec![
            (Command::GetIdentity, Gate::Own),
            (Command::StartSession { remote: peer }, Gate::Unfrozen),
            (
                Command::Deliver {
                    wire: forged_frame(peer),
                    more: false,
                },
                Gate::Own,
            ),
            (Command::NewAddress, Gate::Mutating),
            (Command::NewCommitteeAddress { m: 1 }, Gate::Mutating),
            (
                Command::NewChannel {
                    id: ChannelId::from_label("gates-2"),
                    remote: peer,
                    my_settlement: me,
                },
                Gate::Mutating,
            ),
            (
                Command::NewDeposit {
                    deposit: self.dep.clone(),
                },
                Gate::Mutating,
            ),
            (Command::ReleaseDeposit { outpoint, to: me }, Gate::Mutating),
            (
                Command::ApproveDeposit {
                    remote: peer,
                    outpoint,
                },
                Gate::Unfrozen,
            ),
            (
                Command::DepositVerified {
                    remote: peer,
                    outpoint,
                    valid: false,
                },
                Gate::Unfrozen,
            ),
            (
                Command::AssociateDeposit { id: chan, outpoint },
                Gate::Mutating,
            ),
            (
                Command::DissociateDeposit { id: chan, outpoint },
                Gate::Mutating,
            ),
            (
                Command::Pay {
                    id: chan,
                    amount: 1,
                    count: 1,
                },
                Gate::Mutating,
            ),
            (
                Command::PayMultihop {
                    route,
                    hops: vec![me, peer],
                    channels: vec![chan],
                    amount: 1,
                },
                Gate::Mutating,
            ),
            (Command::AttachBackup { backup: peer }, Gate::Unfrozen),
            (Command::ReadReplica, Gate::Own),
            (Command::SettleFromReplica, Gate::Own),
            (
                Command::Recover {
                    snapshot: None,
                    log: vec![],
                },
                Gate::Own,
            ),
            (Command::PumpAdmission, Gate::Own),
            (
                Command::Swap {
                    swap,
                    channel: chan,
                    amount: 1,
                    alt_amount: 1,
                    timeout_blocks: 10,
                },
                Gate::Mutating,
            ),
            (Command::SwapFunded { swap, outpoint }, Gate::Mutating),
            (
                Command::SwapHtlcVerified {
                    swap,
                    valid: true,
                    confirmations: 1,
                },
                Gate::Mutating,
            ),
            (
                Command::SwapTick {
                    swap,
                    spent_preimage: None,
                    confirmations: 0,
                    claim_confirmed: false,
                },
                Gate::Own,
            ),
            // The exits go last: run ungated, they close the channel.
            (Command::Eject { route }, Gate::Exit),
            (Command::EjectWithPopt { route, popt: empty }, Gate::Exit),
            (Command::Settle { id: chan }, Gate::Exit),
        ]
    }

    /// Every sealed message node 1 can send node 0, each with its row.
    fn messages(&self) -> Vec<(ProtocolMsg, Gate)> {
        let (me, peer) = (self.c.ids[0], self.c.ids[1]);
        let (chan, outpoint) = (self.chan, self.dep.outpoint);
        let route = RouteId::from_label("gates");
        let swap = SwapId::from_label("gates");
        let tau = teechain_blockchain::Transaction {
            inputs: vec![],
            outputs: vec![],
        };
        let deposit = self.dep.clone();
        vec![
            (
                ProtocolMsg::NewChannel {
                    id: ChannelId::from_label("gates-3"),
                    settlement: peer,
                },
                Gate::Unfrozen,
            ),
            (
                ProtocolMsg::NewChannelAck {
                    id: chan,
                    settlement: peer,
                },
                Gate::Own,
            ),
            (
                ProtocolMsg::ApproveDeposit {
                    deposit: deposit.clone(),
                },
                Gate::Unfrozen,
            ),
            (ProtocolMsg::DepositApproved { outpoint }, Gate::Own),
            (
                ProtocolMsg::AssociateDeposit {
                    id: chan,
                    deposit,
                    key: None,
                },
                Gate::Unfrozen,
            ),
            (
                ProtocolMsg::DissociateDeposit { id: chan, outpoint },
                Gate::Unfrozen,
            ),
            (ProtocolMsg::DissociateAck { id: chan, outpoint }, Gate::Own),
            (
                ProtocolMsg::Pay {
                    id: chan,
                    amount: 1,
                    count: 1,
                },
                Gate::Unfrozen,
            ),
            (
                ProtocolMsg::PayAck {
                    id: chan,
                    amount: 1,
                    count: 1,
                },
                Gate::Own,
            ),
            (
                ProtocolMsg::PayNack {
                    id: chan,
                    amount: 1,
                    count: 1,
                    reason: 0,
                },
                Gate::Own,
            ),
            (ProtocolMsg::SettleRequest { id: chan }, Gate::Unfrozen),
            (
                ProtocolMsg::MhLock(crate::msg::MhLock {
                    route,
                    amount: 1,
                    hops: vec![peer, me],
                    channels: vec![chan],
                    tau: tau.clone(),
                    digests: vec![],
                    deposits: vec![],
                }),
                Gate::Unfrozen,
            ),
            (
                ProtocolMsg::MhSign {
                    route,
                    tau: tau.clone(),
                    digests: vec![],
                    deposits: vec![],
                },
                Gate::Unfrozen,
            ),
            (
                ProtocolMsg::MhPreUpdate {
                    route,
                    witnesses: vec![],
                },
                Gate::Unfrozen,
            ),
            (ProtocolMsg::MhUpdate { route }, Gate::Unfrozen),
            (ProtocolMsg::MhPostUpdate { route }, Gate::Unfrozen),
            (ProtocolMsg::MhRelease { route }, Gate::Unfrozen),
            (ProtocolMsg::MhAbort { route, reason: 0 }, Gate::Own),
            (ProtocolMsg::RepAssign, Gate::Unfrozen),
            (ProtocolMsg::RepAssignAck { member_key: peer }, Gate::Own),
            (
                ProtocolMsg::RepUpdate {
                    seq: 1,
                    deltas: vec![],
                },
                Gate::Own,
            ),
            (ProtocolMsg::RepAck { seq: 1 }, Gate::Own),
            (ProtocolMsg::RepFreeze, Gate::Own),
            (
                ProtocolMsg::SigRequest {
                    req_id: 1,
                    hops: 0,
                    tx: tau,
                },
                Gate::Own,
            ),
            (
                ProtocolMsg::SigResponse {
                    req_id: 1,
                    hops: 0,
                    sigs: vec![],
                    refused: false,
                },
                Gate::Own,
            ),
            (
                ProtocolMsg::SwapInit {
                    swap,
                    channel: chan,
                    amount: 1,
                    alt_amount: 1,
                    hash: [7; 32],
                    timeout_blocks: 10,
                },
                Gate::Unfrozen,
            ),
            (ProtocolMsg::SwapLocked { swap, outpoint }, Gate::Unfrozen),
            (
                ProtocolMsg::SwapSecret {
                    swap,
                    secret: [7; 32],
                },
                Gate::Unfrozen,
            ),
            (ProtocolMsg::SwapNack { swap, reason: 0 }, Gate::Unfrozen),
            // Last: handled ungated, it closes the channel.
            (ProtocolMsg::ChannelClosed { id: chan }, Gate::Own),
        ]
    }

    /// Seals `msgs` from node 1 to node 0, in order.
    fn sealed(&mut self, msgs: &[(ProtocolMsg, Gate)]) -> Vec<Vec<u8>> {
        let to = self.c.ids[0];
        let (p, _) = self.enclave(1);
        msgs.iter()
            .map(|(msg, _)| match p.seal_to(&to, msg) {
                Ok(Effect::Send { wire, .. }) => wire,
                other => panic!("a sealed frame, got {other:?}"),
            })
            .collect()
    }

    /// A handshake opening from node 2, which node 0 has never met.
    fn hello(&mut self) -> Vec<u8> {
        let to = self.c.ids[0];
        let (p, env) = self.enclave(2);
        match p
            .handle(env, Command::StartSession { remote: to })
            .as_deref()
        {
            Ok([Effect::Send { wire, .. }]) => wire.clone(),
            other => panic!("a hello, got {other:?}"),
        }
    }

    /// Runs `cmd` on node 0 and checks it against `want`: refused with
    /// `Frozen` exactly when the row checks the freeze and the enclave is
    /// frozen, with `CounterThrottled` exactly when the row checks the
    /// counter, the counter is spent and the freeze passed; and a refusal
    /// changes nothing.
    fn check(&mut self, what: &str, cmd: Command, want: Gate) {
        let spent = self.throttled;
        let (p, env) = self.enclave(0);
        let (frozen, before) = (p.frozen, p.durable_digest());
        let got = p.handle(env, cmd);
        let refused_frozen = frozen && want.unfrozen();
        let throttled = spent && !refused_frozen && want.counter();
        assert_eq!(
            matches!(got, Err(ProtocolError::Frozen)),
            refused_frozen,
            "{what} (frozen: {frozen}): {got:?}"
        );
        assert_eq!(
            matches!(got, Err(ProtocolError::CounterThrottled { .. })),
            throttled,
            "{what} (frozen: {frozen}): {got:?}"
        );
        if got.is_err() {
            assert_eq!(
                p.durable_digest(),
                before,
                "{what}: a refusal changed state"
            );
            assert!(p.rep.staged.is_empty(), "{what}: a refusal staged deltas");
        }
    }
}

/// Every command and every sealed message meets the gate its row names,
/// and only that gate: a frozen enclave refuses exactly the rows that
/// check the freeze, a throttled persistent enclave exactly the rows that
/// check the counter, the freeze is checked first, and a refusal leaves
/// the durable state as it was.
#[test]
fn every_command_and_message_passes_exactly_its_gate() {
    // Frozen, no persistence: only the freeze can refuse.
    let mut f = GateFixture::new(crate::DurabilityBackend::None);
    let msgs = f.messages();
    let wires = f.sealed(&msgs);
    let hello = f.hello();
    f.set(true, false);
    for (i, (cmd, want)) in f.commands().into_iter().enumerate() {
        f.check(&format!("command {i}"), cmd, want);
    }
    for ((msg, want), wire) in msgs.iter().zip(wires) {
        let what = format!("{msg:?}");
        f.check(&what, Command::Deliver { wire, more: false }, *want);
    }
    f.check(
        "Hello",
        Command::Deliver {
            wire: hello,
            more: false,
        },
        Gate::Unfrozen,
    );

    // Persistent with a spent counter, then frozen too: the counter rows
    // refuse, and a sealed message of any row waits for the counter
    // before its handler (or its freeze check) runs.
    for frozen in [false, true] {
        let mut f = GateFixture::new(crate::DurabilityBackend::persistent());
        let msgs = f.messages();
        let wires = f.sealed(&msgs);
        f.set(frozen, true);
        for (i, (cmd, want)) in f.commands().into_iter().enumerate() {
            f.set(frozen, true);
            f.check(&format!("command {i}"), cmd, want);
        }
        for ((msg, _), wire) in msgs.iter().zip(wires) {
            let what = format!("{msg:?}");
            f.check(&what, Command::Deliver { wire, more: false }, Gate::Exit);
        }
    }
}

/// Replication and persistent storage are alternative backends: a
/// persisting enclave refuses a backup, and so never holds a stashed
/// message back behind a replication update.
#[test]
fn a_persisting_enclave_refuses_a_backup() {
    let mut c = Cluster::new(ClusterConfig {
        n: 2,
        durability: crate::DurabilityBackend::persistent(),
        ..ClusterConfig::default()
    });
    c.connect(0, 1);
    let backup = c.ids[1];
    assert_eq!(
        c.op_now(0, Command::AttachBackup { backup }).err(),
        Some(OpError::Rejected(ProtocolError::ReplicationError))
    );
    assert!(program(&c, 0).rep.backup.is_none());
    assert!(program(&c, 0).rep.pending_backup.is_none());
}
