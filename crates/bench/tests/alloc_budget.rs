//! Heap traffic of a direct payment, held to a budget.
//!
//! A payment used to copy its ciphertext seven times and decode every frame
//! twice; each of those was an allocation or several. This binary runs under
//! the counting allocator and fails if they come back: a second decode of a
//! frame, a copy of the ciphertext, a clone of the decoded message each show
//! up as an allocation and as bytes. The numbers are the ones the payment
//! path reached when the budget was written (see `docs/ARCHITECTURE.md`,
//! *Life of a payment's bytes*); lowering them is welcome, raising them
//! needs a reason.

use teechain::Deposit;
use teechain_bench::alloc_count::{installed, measure, AllocCounts, CountingAlloc};
use teechain_bench::turns::{PayCrank, PAY_TURNS};
use teechain_util::codec::{Decode, Encode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations and bytes allocated per turn: submit, deliver, ack (39
/// allocations and 7,016 bytes per payment before the frame became one
/// buffer). Every turn has the handler's `Vec<Effect>`; the two that send
/// add the frame and the `Vec` in which `drive` hands the node's actions to
/// the crank. The op tracker keeps a channel's payment queue between its
/// payments, so registering a payment allocates nothing.
const BUDGET: [AllocCounts; 3] = [
    AllocCounts {
        allocs: 3,
        bytes: 566,
    },
    AllocCounts {
        allocs: 3,
        bytes: 822,
    },
    AllocCounts {
        allocs: 1,
        bytes: 256,
    },
];

#[test]
fn a_direct_payment_stays_within_its_allocation_budget() {
    assert!(installed(), "the counting allocator is not installed");
    let mut crank = PayCrank::new();
    // A few payments first, so that the buffers a payment reuses (the
    // channel's queue in the op tracker, the session's frame room) exist.
    for _ in 0..64 {
        crank.pay(1);
    }
    const PAYMENTS: u64 = 256;
    let mut heap = [AllocCounts::default(); 3];
    for _ in 0..PAYMENTS {
        for (sum, turn) in heap.iter_mut().zip(crank.pay(1)) {
            sum.allocs += turn.heap.allocs;
            sum.bytes += turn.heap.bytes;
        }
    }
    for ((name, heap), budget) in PAY_TURNS.iter().zip(heap).zip(BUDGET) {
        assert!(
            heap.allocs <= budget.allocs * PAYMENTS && heap.bytes <= budget.bytes * PAYMENTS,
            "{name}: {heap:?} over {PAYMENTS} payments, budget {budget:?} each"
        );
    }
}

#[test]
fn a_length_claim_allocates_no_more_than_the_input_it_came_with() {
    assert!(installed(), "the counting allocator is not installed");
    // 60,000 deposits claimed, 60,000 bytes of junk behind the claim: the
    // length guard lets it through (an element could be one byte), and the
    // decoder used to set aside 60,000 in-memory deposits before reading
    // the first.
    let mut frame = 60_000u32.encode_to_vec();
    frame.extend((0..60_000).map(|i| (i % 251) as u8));
    let (result, heap) = measure(|| Vec::<Deposit>::decode_exact(&frame));
    assert!(result.is_err());
    assert!(
        heap.bytes <= frame.len() as u64,
        "{} bytes allocated for a {}-byte frame",
        heap.bytes,
        frame.len()
    );
    // The same claim over a body too short for one element: nothing at all.
    let mut short = 4_095u32.encode_to_vec();
    short.resize(4 + 4_095, 0);
    let (result, heap) = measure(|| Vec::<[u8; 4096]>::decode_exact(&short));
    assert!(result.is_err());
    assert_eq!(heap, AllocCounts::default());
}
