//! The wakeup/select scheduler state, in data-oriented form.
//!
//! Instead of scanning every issue-queue entry each cycle, a
//! dispatched uop subscribes to the wakeup list of each not-yet-ready
//! source tag; the completion that readies its last operand sets its
//! bit in the packed ready set, and select only ever examines ready
//! entries. Two changes from the previous sorted-`Vec` ready queue:
//!
//! * readiness is one bit per ROB slot ([`SlotBits`]), so
//!   insert/remove are `O(1)` bit flips instead of `O(n)` memmoves,
//!   and the age-ordered select walk is a branch-light scan over
//!   packed words starting at the ROB head slot (ring order ≡
//!   ascending sequence number, because ROB slots are
//!   `seq mod capacity`);
//! * wakeup waiters are generational [`SlotHandle`]s validated by the
//!   ROB slab, not `(seq, uid)` pairs re-resolved through relative
//!   indexing.

use super::slab::{SlotBits, SlotHandle};

/// Scheduler (issue queue) state.
#[derive(Debug)]
pub(crate) struct Scheduler {
    /// Per-physical-register wakeup lists. A stale waiter (squashed or
    /// recycled entry) is dead weight in its list until the tag's next
    /// completion drains it; the ROB rejects it by generation then.
    pub wakeup: Vec<Vec<SlotHandle>>,
    /// Operand-ready entries, one bit per ROB slot. Loads blocked on
    /// LSQ conditions and stores blocked on structural hazards keep
    /// their bit and retry, exactly like the previous ready queue.
    pub ready: SlotBits,
    /// Occupied scheduler slots (ready + waiting), for dispatch
    /// backpressure.
    pub occupancy: usize,
}

impl Scheduler {
    /// Scheduler state for `phys` physical registers over a ROB slab
    /// of `rob_slots` slots.
    pub fn new(phys: usize, rob_slots: usize) -> Scheduler {
        Scheduler {
            wakeup: vec![Vec::new(); phys],
            ready: SlotBits::new(rob_slots),
            occupancy: 0,
        }
    }
}
