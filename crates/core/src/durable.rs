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

use crate::channel::Channel;
use crate::deposit::{DepositBook, DepositStatus};
use crate::msg::StateDelta;
use crate::multihop::RouteState;
use crate::slots::SlotMap;
use crate::swap::SwapState;
use crate::types::{ChannelId, Deposit, MultihopStage, ProtocolError, RouteId, SwapId};
use std::collections::BTreeMap;
use teechain_crypto::schnorr::PrivateKey;
use teechain_util::codec::{Encode, Reader};

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
            StateDelta::RemoveDeposit(op) => {
                self.book.set_status(op, DepositStatus::Spent);
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
                DepositStatus::Associated(id) => (1u8, Some(*id)),
                DepositStatus::Spent => (2u8, None),
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
    pub(crate) fn read_image(r: &mut Reader<'_>, version: u8) -> Result<Self, ProtocolError> {
        let bad = |_| ProtocolError::BadMessage;
        let mut state = DurableState::default();
        let chans: Vec<Channel> = r.read().map_err(bad)?;
        for c in chans {
            state.channels.insert(c.id, c);
        }
        let (mine, remote): (Vec<(Deposit, DepositStatus)>, Vec<Deposit>) = if version >= 2 {
            let mine: Vec<(Deposit, (u8, Option<ChannelId>))> = r.read().map_err(bad)?;
            let mine = mine.into_iter().map(|(dep, tag)| {
                let status = match tag {
                    (1, Some(id)) => DepositStatus::Associated(id),
                    (2, _) => DepositStatus::Spent,
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

#[cfg(test)]
mod tests;
