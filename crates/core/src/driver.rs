//! Runs Teechain nodes inside the discrete-event network simulator.
//!
//! CPU service times are charged per message class through the simulator's
//! single-server queue, which is what converts per-operation costs into
//! the throughput ceilings of §7. The default constants are calibrated
//! once against Table 1's no-fault-tolerance row (≈130k tx/s on a single
//! channel, i.e. ≈3.8 µs of enclave work per payment-class message) and
//! the ≈34k tx/s single-replica row (≈11 µs per replication message);
//! everything else in the evaluation *emerges* from the protocol.

use crate::msg::{CostClass, WireView};
use crate::node::{NodeWireView, TeechainNode};
use teechain_net::{Ctx, NodeId, SimNode};

/// Per-message-class CPU service times (nanoseconds).
///
/// Calibrated once against two Table 1 rows: the no-fault-tolerance
/// single-channel throughput (≈130k tx/s ⇒ ≈7.6 µs of sender CPU per
/// payment: one logical-payment generation plus two payment-class
/// messages) and the one-replica row (≈34k tx/s ⇒ ≈22 µs per replication
/// message at the chain head).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per *logical* payment generation/accounting at the client+enclave
    /// (charged by the workload driver when issuing, per batched count).
    pub logical_ns: u64,
    /// Payment / ack messages (Alg. 1 hot path).
    pub payment_ns: u64,
    /// Replication state-update application (Alg. 3) — the dominant
    /// per-payment cost on every chain member, which is why throughput is
    /// flat in the chain length (Table 1, Fig. 6 discussion).
    pub replication_ns: u64,
    /// Replication acknowledgements (bookkeeping only).
    pub replication_ack_ns: u64,
    /// Multi-hop stage messages (Alg. 2; includes τ handling).
    pub multihop_ns: u64,
    /// Handshake messages: remote attestation verification dominates
    /// (≈1.3 s, which is what makes channel creation ≈2.8 s in Table 2).
    pub attestation_ns: u64,
    /// Other control messages (deposit and channel management).
    pub mgmt_ns: u64,
    /// Committee signing requests (verification + signature generation).
    pub signing_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            logical_ns: 6_600,
            payment_ns: 500,
            replication_ns: 21_500,
            replication_ack_ns: 1_000,
            multihop_ns: 30_000,
            attestation_ns: 1_300_000_000,
            mgmt_ns: 100_000,
            signing_ns: 400_000,
        }
    }
}

impl CostModel {
    /// A zero-cost model for functional tests (latency comes from links
    /// only).
    pub fn free() -> Self {
        CostModel {
            logical_ns: 0,
            payment_ns: 0,
            replication_ns: 0,
            replication_ack_ns: 0,
            multihop_ns: 0,
            attestation_ns: 0,
            mgmt_ns: 0,
            signing_ns: 0,
        }
    }

    fn for_class(&self, class: CostClass) -> u64 {
        match class {
            CostClass::Payment => self.payment_ns,
            CostClass::Replication => self.replication_ns,
            CostClass::ReplicationAck => self.replication_ack_ns,
            CostClass::Multihop => self.multihop_ns,
            CostClass::Control => self.mgmt_ns,
        }
    }
}

/// A simulator node wrapping a [`TeechainNode`].
pub struct SimHost {
    /// The wrapped node.
    pub node: TeechainNode,
    /// CPU cost model.
    pub costs: CostModel,
}

impl SimHost {
    /// Wraps a node with the given cost model.
    pub fn new(node: TeechainNode, costs: CostModel) -> Self {
        SimHost { node, costs }
    }

    /// The CPU cost of an incoming frame, read off its headers.
    fn cost_of(&self, frame: &[u8], view: &NodeWireView) -> u64 {
        match view {
            NodeWireView::Enclave { at } => match WireView::parse(&frame[*at..]) {
                Ok(WireView::Sealed { class, .. }) => {
                    self.costs.for_class(CostClass::from_byte(class))
                }
                // Handshake messages carry attestation verification.
                Ok(_) => self.costs.attestation_ns,
                Err(_) => 0,
            },
            NodeWireView::CoSign(_) => self.costs.signing_ns,
        }
    }
}

impl SimNode for SimHost {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Vec<u8>) {
        // One parse serves the charge and the delivery.
        let Ok(view) = NodeWireView::parse(&msg) else {
            return; // Garbage from the network: free, and dropped.
        };
        let cost = self.cost_of(&msg, &view);
        if cost > 0 {
            ctx.busy(cost);
        }
        self.node.handle_frame(ctx, msg, view);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.node.handle_timer(ctx, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_match_table1_calibration() {
        let c = CostModel::default();
        // Sender CPU per unbatched payment: generate one logical payment,
        // then process the returning ack; the pay message is processed at
        // the receiver. Single-server bound ≈ 131k tx/s (Table 1 row 2).
        let per_payment = (c.logical_ns + 2 * c.payment_ns) as f64;
        let tx_per_sec = 1e9 / per_payment;
        assert!((120_000.0..140_000.0).contains(&tx_per_sec), "{tx_per_sec}");
        // With replicas the bottleneck moves to state-update application
        // on the chain members (one update + overhead per payment):
        // ≈ 34k tx/s for any chain length ≥ 2 (Table 1 rows 3-5).
        let rep_tx_per_sec = 1e9 / (c.replication_ns as f64 + c.payment_ns as f64);
        assert!(
            (30_000.0..50_000.0).contains(&rep_tx_per_sec),
            "{rep_tx_per_sec}"
        );
    }

    #[test]
    fn free_model_is_free() {
        let c = CostModel::free();
        assert_eq!(c.for_class(CostClass::Payment), 0);
        assert_eq!(c.for_class(CostClass::Control), 0);
    }
}
