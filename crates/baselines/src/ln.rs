//! A protocol-level Lightning Network channel model.
//!
//! Faithful to the properties the paper's evaluation compares against:
//!
//! * **Funding**: an on-chain 2-of-2 multisig output; the channel opens
//!   after 6 confirmations (≈ 60 minutes of Bitcoin time — Table 2's
//!   3.6×10⁶ ms channel creation).
//! * **Commitments**: each state update produces a new commitment
//!   transaction per side whose `to_self` output is revocable: spendable
//!   by the owner after τ blocks, or by the counterparty's revocation key
//!   immediately. Publishing a *stale* commitment is punishable within τ
//!   blocks by a justice transaction — **if** the victim can write to the
//!   blockchain in time, which is precisely the synchrony assumption
//!   Teechain eliminates.
//! * **Performance**: payments take two round trips
//!   (`update_add_htlc`+`commitment_signed` / `revoke_and_ack`) and are
//!   not pipelined; lnd measures 1,000 tx/s and 387 ms in the paper.

use teechain_blockchain::{Chain, OutPoint, ScriptPubKey, SubmitError, Transaction, TxIn, TxOut};
use teechain_crypto::schnorr::Keypair;

/// Performance constants measured for lnd in the paper (Table 1, Fig. 4).
pub mod perf {
    /// Maximum single-channel throughput (tx/s).
    pub const MAX_TX_PER_SEC: f64 = 1_000.0;
    /// Round trips per payment (Teechain needs 1; §7.2).
    pub const RTT_PER_PAYMENT: f64 = 2.0;
    /// Per-payment processing latency beyond the network (ms): lnd's
    /// measured 387 ms on an ≈86 ms-RTT path implies ≈215 ms of
    /// commitment/HTLC processing per payment.
    pub const PROCESSING_MS: f64 = 215.0;
    /// Blocks to confirm a funding transaction.
    pub const FUNDING_CONFIRMATIONS: u64 = 6;
    /// Seconds per Bitcoin block.
    pub const BLOCK_INTERVAL_SEC: f64 = 600.0;

    /// Channel creation latency in milliseconds (Table 2's 3.6×10⁶ ms).
    pub fn channel_creation_ms() -> f64 {
        FUNDING_CONFIRMATIONS as f64 * BLOCK_INTERVAL_SEC * 1000.0
    }

    /// Single-payment latency over a path RTT (ms), per hop structure:
    /// LN needs 1.5 RTT per hop plus processing (§7.3 discussion).
    pub fn payment_latency_ms(rtt_ms: f64) -> f64 {
        RTT_PER_PAYMENT * rtt_ms + PROCESSING_MS
    }
}

/// One side's view of an LN channel state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LnState {
    /// State number (monotonically increasing).
    pub num: u64,
    /// Balance of party A.
    pub bal_a: u64,
    /// Balance of party B.
    pub bal_b: u64,
}

/// A Lightning-style payment channel between parties A and B.
pub struct LnChannel {
    /// Funding keys.
    pub key_a: Keypair,
    /// Funding keys.
    pub key_b: Keypair,
    /// Per-party revocation keys (shared with the counterparty when a
    /// state is revoked; modelled as static here).
    pub rev_a: Keypair,
    /// Revocation key B holds over A's commitments.
    pub rev_b: Keypair,
    /// The on-chain funding output.
    pub funding: OutPoint,
    /// Current state.
    pub state: LnState,
    /// The synchrony window τ in blocks: stale commitments can be punished
    /// for this long after publication.
    pub tau_blocks: u64,
    /// All past (now revoked) states — a cheater can try to publish any.
    pub revoked: Vec<LnState>,
}

impl LnChannel {
    /// Opens a channel funded by A with `value`; mines until the funding
    /// has the required 6 confirmations. Returns the channel.
    pub fn open(chain: &mut Chain, seed: u8, value: u64, tau_blocks: u64) -> LnChannel {
        let key_a = Keypair::from_seed(&[seed; 32]);
        let key_b = Keypair::from_seed(&[seed ^ 0xff; 32]);
        let rev_a = Keypair::from_seed(&[seed ^ 0xa5; 32]);
        let rev_b = Keypair::from_seed(&[seed ^ 0x5a; 32]);
        let funding = chain.mint(ScriptPubKey::multisig(2, vec![key_a.pk, key_b.pk]), value);
        chain.mine_blocks(perf::FUNDING_CONFIRMATIONS - 1);
        LnChannel {
            key_a,
            key_b,
            rev_a,
            rev_b,
            funding,
            state: LnState {
                num: 0,
                bal_a: value,
                bal_b: 0,
            },
            tau_blocks,
            revoked: Vec::new(),
        }
    }

    /// Executes an off-chain payment from A to B (or B to A for negative
    /// reasoning, use `pay_b_to_a`). The previous state becomes revoked.
    pub fn pay_a_to_b(&mut self, amount: u64) -> Result<(), &'static str> {
        if self.state.bal_a < amount {
            return Err("insufficient balance");
        }
        self.revoked.push(self.state);
        self.state = LnState {
            num: self.state.num + 1,
            bal_a: self.state.bal_a - amount,
            bal_b: self.state.bal_b + amount,
        };
        Ok(())
    }

    /// B pays A.
    pub fn pay_b_to_a(&mut self, amount: u64) -> Result<(), &'static str> {
        if self.state.bal_b < amount {
            return Err("insufficient balance");
        }
        self.revoked.push(self.state);
        self.state = LnState {
            num: self.state.num + 1,
            bal_a: self.state.bal_a + amount,
            bal_b: self.state.bal_b - amount,
        };
        Ok(())
    }

    /// Builds A's commitment transaction for `state`: A's share goes to a
    /// revocable output (delayed for A, immediately claimable with B's
    /// revocation key if the state is stale); B's share pays out directly.
    pub fn commitment_for_a(&self, state: &LnState) -> Transaction {
        let mut outputs = Vec::new();
        if state.bal_a > 0 {
            outputs.push(TxOut {
                value: state.bal_a,
                script: ScriptPubKey::Revocable {
                    owner: self.key_a.pk,
                    delay_blocks: self.tau_blocks,
                    revocation: self.rev_b.pk,
                },
            });
        }
        if state.bal_b > 0 {
            outputs.push(TxOut {
                value: state.bal_b,
                script: ScriptPubKey::P2pk(self.key_b.pk),
            });
        }
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(self.funding)],
            outputs,
        };
        // 2-of-2: both signatures (exchanged during commitment signing).
        tx.sign_input(0, &self.key_a);
        tx.sign_input(0, &self.key_b);
        tx
    }

    /// A (the cheater) broadcasts a **stale** commitment.
    pub fn cheat_broadcast(
        &self,
        chain: &mut Chain,
        stale: &LnState,
    ) -> Result<Transaction, SubmitError> {
        let tx = self.commitment_for_a(stale);
        chain.submit(tx.clone())?;
        Ok(tx)
    }

    /// B's justice transaction: claims A's revocable output of a published
    /// stale commitment using the revocation key. Must confirm within τ
    /// blocks of the commitment or the cheater sweeps first.
    pub fn justice_tx(&self, commitment: &Transaction) -> Transaction {
        let vout = commitment
            .outputs
            .iter()
            .position(|o| matches!(o.script, ScriptPubKey::Revocable { .. }))
            .expect("stale commitment has a revocable output") as u32;
        let value = commitment.outputs[vout as usize].value;
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(OutPoint {
                txid: commitment.txid(),
                vout,
            })],
            outputs: vec![TxOut {
                value,
                script: ScriptPubKey::P2pk(self.key_b.pk),
            }],
        };
        tx.sign_input(0, &self.rev_b);
        tx
    }

    /// The cheater's sweep of their own revocable output after τ blocks.
    pub fn cheater_sweep(&self, commitment: &Transaction) -> Transaction {
        let vout = commitment
            .outputs
            .iter()
            .position(|o| matches!(o.script, ScriptPubKey::Revocable { .. }))
            .expect("commitment has a revocable output") as u32;
        let value = commitment.outputs[vout as usize].value;
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(OutPoint {
                txid: commitment.txid(),
                vout,
            })],
            outputs: vec![TxOut {
                value,
                script: ScriptPubKey::P2pk(self.key_a.pk),
            }],
        };
        tx.sign_input(0, &self.key_a);
        tx
    }

    /// Cooperative close at the current state.
    pub fn close(&self, chain: &mut Chain) -> Result<(), SubmitError> {
        let mut outputs = Vec::new();
        if self.state.bal_a > 0 {
            outputs.push(TxOut {
                value: self.state.bal_a,
                script: ScriptPubKey::P2pk(self.key_a.pk),
            });
        }
        if self.state.bal_b > 0 {
            outputs.push(TxOut {
                value: self.state.bal_b,
                script: ScriptPubKey::P2pk(self.key_b.pk),
            });
        }
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(self.funding)],
            outputs,
        };
        tx.sign_input(0, &self.key_a);
        tx.sign_input(0, &self.key_b);
        chain.submit(tx)?;
        chain.mine_blocks(1);
        Ok(())
    }
}

/// LN blockchain-cost constants (Table 4): 4 transactions, cost 6, for
/// both bilateral and unilateral termination.
pub mod cost {
    /// Transactions placed on chain per channel.
    pub const TXS: f64 = 4.0;
    /// Public-key/signature pairs per channel.
    pub const COST: f64 = 6.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_waits_six_confirmations() {
        let mut chain = Chain::new();
        let ch = LnChannel::open(&mut chain, 1, 1000, 144);
        assert!(chain.utxo_confirmations(&ch.funding).unwrap() >= 6);
    }

    #[test]
    fn payments_update_state_and_revoke() {
        let mut chain = Chain::new();
        let mut ch = LnChannel::open(&mut chain, 1, 1000, 144);
        ch.pay_a_to_b(300).unwrap();
        ch.pay_b_to_a(100).unwrap();
        assert_eq!(ch.state.bal_a, 800);
        assert_eq!(ch.state.bal_b, 200);
        assert_eq!(ch.revoked.len(), 2);
        assert!(ch.pay_b_to_a(300).is_err());
    }

    #[test]
    fn cooperative_close_pays_both() {
        let mut chain = Chain::new();
        let mut ch = LnChannel::open(&mut chain, 1, 1000, 144);
        ch.pay_a_to_b(250).unwrap();
        ch.close(&mut chain).unwrap();
        assert_eq!(chain.balance_p2pk(&ch.key_a.pk), 750);
        assert_eq!(chain.balance_p2pk(&ch.key_b.pk), 250);
    }

    #[test]
    fn justice_punishes_prompt_victim() {
        let mut chain = Chain::new();
        let mut ch = LnChannel::open(&mut chain, 1, 1000, 10);
        ch.pay_a_to_b(600).unwrap(); // Honest: A=400, B=600.
        let stale = ch.revoked[0]; // A=1000, B=0.
        let commitment = ch.cheat_broadcast(&mut chain, &stale).unwrap();
        chain.mine_blocks(1);
        // B reacts within τ: justice claims the full revocable output.
        chain.submit(ch.justice_tx(&commitment)).unwrap();
        chain.mine_blocks(1);
        assert_eq!(chain.balance_p2pk(&ch.key_b.pk), 1000);
        assert_eq!(chain.balance_p2pk(&ch.key_a.pk), 0);
    }

    #[test]
    fn cheater_sweep_blocked_before_tau() {
        let mut chain = Chain::new();
        let mut ch = LnChannel::open(&mut chain, 1, 1000, 10);
        ch.pay_a_to_b(600).unwrap();
        let stale = ch.revoked[0];
        let commitment = ch.cheat_broadcast(&mut chain, &stale).unwrap();
        chain.mine_blocks(1);
        // Sweeping immediately violates the timelock.
        let sweep = ch.cheater_sweep(&commitment);
        assert!(chain.submit(sweep.clone()).is_err());
        // After τ blocks it becomes valid.
        chain.mine_blocks(10);
        chain.submit(sweep).unwrap();
        chain.mine_blocks(1);
        assert_eq!(chain.balance_p2pk(&ch.key_a.pk), 1000);
    }

    #[test]
    fn perf_constants_match_paper() {
        assert_eq!(perf::channel_creation_ms(), 3_600_000.0);
        // 2-hop LN payment on ~0.4 s/hop => about a second (Fig. 4).
        let lat = 2.0 * perf::payment_latency_ms(86.0);
        assert!((700.0..1200.0).contains(&lat));
    }
}
