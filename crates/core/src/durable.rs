//! The durable state of one treasury, and the one function that changes it.
//!
//! [`DurableState`] is everything a treasury must not lose (§6): its
//! channels, its deposit book with the blockchain keys it holds, the
//! multi-hop routes its channels take part in, and its atomic swaps. It
//! changes only through [`DurableState::apply`] of a [`StateDelta`], and
//! three paths run that one function:
//!
//! - a live handler *commits* a delta: it applies the delta to its own
//!   state and stages it for the WAL record or the replication update;
//! - crash recovery replays the sealed WAL records over the last sealed
//!   snapshot (§6.2);
//! - a backup applies its upstream's `RepUpdate` to its replica (Alg. 3).
//!
//! A recovered enclave and every backup therefore hold the state the
//! primary held at the same commit, which the tests check by comparing
//! digests of the canonical image. The identity key is not part of it: a
//! primary holds its own and never replicates it.
//!
//! The sealed state image and `Recover` live here too.

use crate::channel::Channel;
use crate::deposit::{DepositBook, DepositStatus};
use crate::enclave::{Effect, HostEvent, Outcome, TeechainEnclave};
use crate::msg::StateDelta;
use crate::multihop::RouteState;
use crate::ops::{MatchKey, OpOutput, Recovery};
use crate::slots::SlotMap;
use crate::swap::{SwapPhase, SwapState};
use crate::types::{ChannelId, Deposit, MultihopStage, ProtocolError, RouteId, SwapId};
use std::collections::BTreeMap;
use teechain_blockchain::TxId;
use teechain_crypto::schnorr::{Keypair, PrivateKey};
use teechain_tee::EnclaveEnv;
use teechain_util::codec::{Encode, Reader};

/// A deposit status in the state image: its tag, and the channel holding
/// the deposit or the id of the transaction that released it.
type ImageStatus = (u8, Option<[u8; 32]>);

/// Everything one treasury must not lose; see the module docs.
#[derive(Default)]
pub(crate) struct DurableState {
    /// Channels in creation order (replay order after a recovery).
    pub(crate) channels: SlotMap<ChannelId, Channel>,
    /// Deposits with their statuses, and the blockchain keys held.
    pub(crate) book: DepositBook,
    /// The multi-hop routes our channels take part in.
    pub(crate) routes: BTreeMap<RouteId, RouteState>,
    /// Cross-chain atomic swaps.
    pub(crate) swaps: BTreeMap<SwapId, SwapState>,
}

impl DurableState {
    /// The transition: applies one delta. Deltas naming something this
    /// state does not hold change nothing.
    pub(crate) fn apply(&mut self, delta: &StateDelta) {
        match delta {
            StateDelta::Channel(c) => self.install_channel(c),
            StateDelta::Pay { id, .. }
            | StateDelta::Stage { id, .. }
            | StateDelta::CloseChannel(id) => {
                if let Some(slot) = self.channels.slot(id) {
                    self.apply_at(slot, delta);
                }
            }
            StateDelta::Deposit { dep, key, mine } => {
                // A key held already (handed out here) is not derived again.
                let ours = dep.committee.member_keys.first();
                let held = ours.is_some_and(|pk| self.book.keys.contains_key(pk));
                if let (false, Some(sk)) = (held, key.and_then(|k| PrivateKey::from_bytes(&k))) {
                    self.book.insert_key(sk);
                }
                if *mine {
                    // Re-staging a known deposit (to carry its key) keeps
                    // the status it has.
                    self.book
                        .mine
                        .entry(dep.outpoint)
                        .or_insert_with(|| (dep.clone(), DepositStatus::Free));
                } else {
                    self.book.remote.insert(dep.outpoint, dep.clone());
                }
            }
            StateDelta::ReleaseDeposit { op, txid } => {
                // Only a free deposit is released: a replica never records
                // the release of a deposit a channel holds.
                if let Some((_, status @ DepositStatus::Free)) = self.book.mine.get_mut(op) {
                    *status = DepositStatus::Released(*txid);
                }
                self.book.remote.remove(op);
            }
            StateDelta::Tau { route, tau } => {
                if let Some(r) = self.routes.get_mut(route) {
                    r.tau = tau.clone();
                }
            }
            StateDelta::Swap(s) => {
                self.swaps.insert(s.id, (**s).clone());
            }
            StateDelta::Route(r) => {
                self.routes.insert(r.id, (**r).clone());
            }
            StateDelta::RouteSigned(route, tau, digests) => {
                if let Some(r) = self.routes.get_mut(route) {
                    r.tau = Some(tau.clone());
                    r.digests = digests.clone();
                }
            }
            StateDelta::RouteStage { route, stage } => {
                let Some(r) = self.routes.get(route) else {
                    return;
                };
                let locked = (*stage != MultihopStage::Idle).then_some(*route);
                for id in r.in_chan().into_iter().chain(r.out_chan()) {
                    if let Some(c) = self.channels.get_mut(&id) {
                        c.stage = *stage;
                        c.route = locked;
                    }
                }
                // Unlocking is the route's end, and so is an eject or a
                // PoPT, which closes its channels.
                if matches!(stage, MultihopStage::Idle | MultihopStage::Terminated) {
                    self.routes.remove(route);
                }
            }
            StateDelta::Key(pk, sk) => {
                if let Some(sk) = PrivateKey::from_bytes(sk) {
                    self.book.keys.insert(*pk, sk);
                }
            }
            StateDelta::DestroyKey(pk) => self.book.destroy_key(pk),
        }
    }

    /// [`Self::apply`] of a delta to one channel, whose slot the caller
    /// already holds: no look-up.
    pub(crate) fn apply_at(&mut self, slot: u32, delta: &StateDelta) {
        let Some(c) = self.channels.at_mut(slot) else {
            return;
        };
        match delta {
            StateDelta::Pay {
                my_delta,
                remote_delta,
                ..
            } => {
                c.my_bal = c.my_bal.wrapping_add_signed(*my_delta);
                c.remote_bal = c.remote_bal.wrapping_add_signed(*remote_delta);
            }
            StateDelta::Stage { stage, .. } => c.stage = *stage,
            StateDelta::CloseChannel(_) => {
                c.closed = true;
                // The settlement spends the channel's deposits.
                for op in &c.my_deps {
                    self.book.set_status(op, DepositStatus::Spent);
                }
            }
            _ => debug_assert!(false, "not a delta to one channel"),
        }
    }

    /// Installs a whole channel. Our deposits follow it: those it lists
    /// are associated with it (spent once it closed), and those it no
    /// longer lists are free again.
    fn install_channel(&mut self, c: &Channel) {
        if let Some(old) = self.channels.get(&c.id) {
            for op in old.my_deps.iter().filter(|op| !c.my_deps.contains(op)) {
                self.book.set_status(op, DepositStatus::Free);
            }
        }
        let status = if c.closed {
            DepositStatus::Spent
        } else {
            DepositStatus::Associated(c.id)
        };
        for op in &c.my_deps {
            self.book.set_status(op, status);
        }
        self.channels.insert(c.id, c.clone());
    }

    /// True if this state holds nothing at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.channels.is_empty()
            && self.book.mine.is_empty()
            && self.book.remote.is_empty()
            && self.swaps.is_empty()
            && self.routes.is_empty()
    }

    /// Appends the canonical image: channels in slot (creation) order,
    /// deposits by outpoint, keys by public key, swaps and routes by id —
    /// one state, one image.
    // Hand-written: a versioned image of maps in canonical order, not one value.
    pub(crate) fn encode_image(&self, out: &mut Vec<u8>) {
        (self.channels.len() as u32).encode(out);
        self.channels.values().for_each(|c| c.encode(out));
        let mut mine: Vec<_> = self.book.mine.values().collect();
        mine.sort_by_key(|(d, _)| d.outpoint);
        (mine.len() as u32).encode(out);
        for (d, status) in mine {
            d.encode(out);
            match status {
                DepositStatus::Free => (0u8, None),
                DepositStatus::Associated(id) => (1u8, Some(id.0)),
                DepositStatus::Spent => (2u8, None),
                DepositStatus::Released(txid) => (3u8, Some(txid.0)),
            }
            .encode(out);
        }
        let mut remote: Vec<_> = self.book.remote.values().collect();
        remote.sort_by_key(|d| d.outpoint);
        (remote.len() as u32).encode(out);
        remote.iter().for_each(|d| d.encode(out));
        let mut keys: Vec<_> = self.book.keys.iter().collect();
        keys.sort_by_key(|(pk, _)| **pk);
        (keys.len() as u32).encode(out);
        keys.iter().for_each(|(_, sk)| sk.to_bytes().encode(out));
        (self.swaps.len() as u32).encode(out);
        self.swaps.values().for_each(|s| s.encode(out));
        (self.routes.len() as u32).encode(out);
        self.routes.values().for_each(|r| r.encode(out));
    }

    /// Reads what [`Self::encode_image`] wrote, for an image of the given
    /// version: v4 has routes, v3 swaps, v2 the deposit book with
    /// statuses; the legacy format (`version` 0) predates all three.
    // Hand-written: reads every image version ever written, which one list cannot.
    pub(crate) fn read_image(r: &mut Reader<'_>, version: u8) -> Result<Self, ProtocolError> {
        let bad = |_| ProtocolError::BadMessage;
        let mut state = DurableState::default();
        let chans: Vec<Channel> = r.read().map_err(bad)?;
        for c in chans {
            state.channels.insert(c.id, c);
        }
        let (mine, remote): (Vec<(Deposit, DepositStatus)>, Vec<Deposit>) = if version >= 2 {
            let mine: Vec<(Deposit, ImageStatus)> = r.read().map_err(bad)?;
            let mine = mine.into_iter().map(|(dep, tag)| {
                let status = match tag {
                    (1, Some(id)) => DepositStatus::Associated(ChannelId(id)),
                    (2, _) => DepositStatus::Spent,
                    (3, Some(txid)) => DepositStatus::Released(TxId(txid)),
                    _ => DepositStatus::Free,
                };
                (dep, status)
            });
            (mine.collect(), r.read().map_err(bad)?)
        } else {
            let deposits: Vec<(Deposit, bool)> = r.read().map_err(bad)?;
            let mine = deposits.into_iter().map(|(dep, free)| match free {
                true => (dep, DepositStatus::Free),
                false => (dep, DepositStatus::Associated(ChannelId([0; 32]))),
            });
            (mine.collect(), Vec::new())
        };
        let keys: Vec<[u8; 32]> = r.read().map_err(bad)?;
        for sk in keys.iter().filter_map(PrivateKey::from_bytes) {
            state.book.insert_key(sk);
        }
        state.book.mine = mine.into_iter().map(|e| (e.0.outpoint, e)).collect();
        state.book.remote = remote.into_iter().map(|d| (d.outpoint, d)).collect();
        if version >= 3 {
            let swaps: Vec<SwapState> = r.read().map_err(bad)?;
            state.swaps = swaps.into_iter().map(|s| (s.id, s)).collect();
        }
        if version >= 4 {
            let routes: Vec<RouteState> = r.read().map_err(bad)?;
            state.routes = routes.into_iter().map(|r| (r.id, r)).collect();
        }
        Ok(state)
    }

    /// SHA-256 of the canonical image.
    #[cfg(test)]
    pub(crate) fn digest(&self) -> [u8; 32] {
        let mut out = Vec::new();
        self.encode_image(&mut out);
        teechain_crypto::sha256::sha256(&out)
    }
}

impl StateDelta {
    /// Folds `next`, the delta committed right after this one, into it
    /// when both are payments on one channel and the sums fit: applying
    /// the fold is applying both. True if it did (as
    /// [`Vec::dedup_by`] takes it, `next` first).
    pub(crate) fn absorb(next: &mut StateDelta, kept: &mut StateDelta) -> bool {
        let (
            StateDelta::Pay {
                id,
                my_delta,
                remote_delta,
            },
            StateDelta::Pay {
                id: kept_id,
                my_delta: kept_my,
                remote_delta: kept_remote,
            },
        ) = (next, kept)
        else {
            return false;
        };
        let sums = kept_my
            .checked_add(*my_delta)
            .zip(kept_remote.checked_add(*remote_delta));
        match sums {
            Some((my, remote)) if id == kept_id => {
                (*kept_my, *kept_remote) = (my, remote);
                true
            }
            _ => false,
        }
    }
}

/// Version tag of the durable state-image format (the legacy format has
/// no tag; its first byte is the 0/1 of an `Option`). V2 holds the deposit
/// book with statuses, v3 appends the atomic-swap table, and v4 the
/// multi-hop routes ([`DurableState::read_image`]).
const STATE_IMAGE_V2: u8 = 2;
/// The version written.
const STATE_IMAGE_V4: u8 = 4;

impl TeechainEnclave {
    // ---- Persistence (§6.2) ----

    /// Serializes the full durable state: the identity, then the
    /// [`DurableState`] image (v4).
    pub(crate) fn state_image(&self) -> Vec<u8> {
        let mut out = vec![STATE_IMAGE_V4];
        self.identity
            .as_ref()
            .map(|k| k.sk.to_bytes())
            .encode(&mut out);
        self.state.encode_image(&mut out);
        out
    }

    /// SHA-256 of the canonical image.
    #[cfg(test)]
    pub(crate) fn durable_digest(&self) -> [u8; 32] {
        teechain_crypto::sha256::sha256(&self.state_image())
    }

    /// Deserializes a state image produced by [`Self::state_image`] (v4),
    /// one of its predecessors (v3 without routes, v2 without swaps), or
    /// the legacy format that predates the WAL (no version byte).
    pub(crate) fn load_state_image(&mut self, state: &[u8]) -> Result<(), ProtocolError> {
        let mut r = teechain_util::codec::Reader::new(state);
        let version: u8 = match state.first() {
            Some(&v @ STATE_IMAGE_V2..=STATE_IMAGE_V4) => v,
            _ => 0,
        };
        if version != 0 {
            let _version: u8 = r.read().map_err(|_| ProtocolError::BadMessage)?;
        }
        let sk_bytes: Option<[u8; 32]> = r.read().map_err(|_| ProtocolError::BadMessage)?;
        if let Some(bytes) = sk_bytes {
            let sk = PrivateKey::from_bytes(&bytes).ok_or(ProtocolError::BadMessage)?;
            self.identity = Some(Keypair::from(sk));
        }
        self.state = DurableState::read_image(&mut r, version)?;
        self.index_new_channels();
        Ok(())
    }

    pub(crate) fn cmd_recover(
        &mut self,
        env: &mut EnclaveEnv,
        snapshot: Option<Vec<u8>>,
        log: Vec<Vec<u8>>,
    ) -> Outcome {
        if !self.cfg.persist() {
            return Err(ProtocolError::BadMessage);
        }
        // Recovery must be the first ecall of a fresh program instance:
        // replaying deltas over live state would double-apply them (a
        // malicious host could otherwise inflate its own balances by
        // feeding the real WAL to a running enclave). Rejecting here
        // leaves the live state untouched, so no freeze.
        if self.commits != 0 || self.identity.is_some() || !self.state.is_empty() {
            return Err(ProtocolError::BadMessage);
        }
        // A failed recovery leaves partially applied state behind;
        // freeze so nothing can run on it. A fresh program instance can
        // always retry with better storage.
        let result = self.recover_inner(env, snapshot, log);
        if result.is_err() {
            self.frozen = true;
        }
        result
    }

    fn recover_inner(
        &mut self,
        env: &mut EnclaveEnv,
        snapshot: Option<Vec<u8>>,
        log: Vec<Vec<u8>>,
    ) -> Outcome {
        let id = self.ensure_counter(env);
        let hw = env.read_counter(id);
        // `applied` tracks the highest commit counter incorporated so
        // far; the chain must end exactly at the hardware counter.
        let mut applied = 0u64;
        if let Some(blob) = &snapshot {
            if !blob.is_empty() {
                let (counter, state) =
                    env.unseal(0, blob).map_err(|_| ProtocolError::BadMessage)?;
                self.load_state_image(&state)?;
                applied = counter;
            }
        }
        for rec in &log {
            let (counter, payload) = env.unseal(0, rec).map_err(|_| ProtocolError::BadMessage)?;
            if counter <= applied {
                // Record predates the snapshot (host compaction lagged);
                // its effects are already in the image.
                continue;
            }
            if counter != applied + 1 {
                // A commit is missing from the log: rolled-back storage
                // or a torn tail. Either way the state would be stale.
                return Err(ProtocolError::StaleState {
                    found: applied,
                    expected: hw,
                });
            }
            let mut r = teechain_util::codec::Reader::new(&payload);
            let embedded: u64 = r.read().map_err(|_| ProtocolError::BadMessage)?;
            if embedded != counter {
                return Err(ProtocolError::BadMessage);
            }
            let identity: Option<[u8; 32]> = r.read().map_err(|_| ProtocolError::BadMessage)?;
            if self.identity.is_none() {
                if let Some(bytes) = identity {
                    let sk = PrivateKey::from_bytes(&bytes).ok_or(ProtocolError::BadMessage)?;
                    self.identity = Some(Keypair::from(sk));
                }
            }
            let deltas: Vec<StateDelta> = r.read().map_err(|_| ProtocolError::BadMessage)?;
            for delta in &deltas {
                self.state.apply(delta);
            }
            applied = counter;
        }
        if applied != hw {
            // The hardware counter proves more commits happened than the
            // storage shows: refuse to run on rolled-back state (§6.2).
            return Err(ProtocolError::StaleState {
                found: applied,
                expected: hw,
            });
        }
        self.commits = applied;
        self.index_new_channels();
        let recovered = OpOutput::Recovered(Recovery {
            channels: self.state.channels.len(),
            deposits: self.state.book.mine.len() + self.state.book.remote.len(),
            commits: applied,
        });
        let mut effects = vec![Effect::done(MatchKey::Recovered, recovered)];
        // Re-arm swap timers: a pending swap resumes its chain watch /
        // deadline abort; an initiator whose debit committed (Redeemed)
        // re-drives the idempotent claim broadcast until it confirms —
        // sessions did not survive the crash, so the responder learns the
        // preimage from the chain if the re-sent `SwapSecret` cannot go.
        // The table iterates in id order, so the effects do too.
        let now = env.now_ns();
        let swaps = self.state.swaps.values();
        effects.extend(
            swaps
                .filter(|s| s.phase.pending() || (s.phase == SwapPhase::Redeemed && s.initiator))
                .map(|s| {
                    Effect::Event(HostEvent::SwapCheckAt {
                        swap: s.id,
                        at: now,
                    })
                }),
        );
        if let Some(me) = self.identity.as_ref().map(|i| i.pk) {
            let swaps = self.state.swaps.values();
            effects.extend(
                swaps
                    .filter(|s| !s.initiator && s.phase == SwapPhase::Init)
                    .map(|s| {
                        Effect::Event(HostEvent::SwapFundingNeeded {
                            swap: s.id,
                            script: Box::new(s.htlc_script(&me)),
                            value: s.alt_amount,
                        })
                    }),
            );
        }
        Ok(effects)
    }
}

#[cfg(test)]
mod tests;
