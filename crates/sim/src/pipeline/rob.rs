//! The reorder buffer as a structure-of-arrays ring slab.
//!
//! ROB entries always hold *contiguous* sequence numbers: dispatch
//! appends `next_seq`, commit pops the front, and recovery truncates
//! the tail (rewinding `next_seq`, so squashed sequence numbers are
//! reused). The slab exploits this: an entry for sequence number `s`
//! lives in slot `s mod capacity` (capacity rounded up to a power of
//! two so the modulo is a mask), and the live window is described by
//! `(head_seq, len)` alone. There is no per-entry allocation, no
//! pointer chasing, and each field lives in its own flat column so the
//! stages touch only the bytes they need: commit reads `state`/`trap`,
//! the wakeup path reads `gen`/`pending`, select reads `state` and the
//! `uop` payload, and the SS recovery walk streams over `uop` columns.
//! Rename writes the renamed micro-op straight into the free `uop`
//! slot it is about to push (no intermediate copy), and a load or
//! store keeps its LSQ ring index in the `lsq_idx` column, so the
//! memory stages reach their LSQ entry without a search.
//!
//! Cross-cycle references into the slab (scheduler wakeup waiters) use
//! generational [`SlotHandle`]s: `gen` holds the entry's dispatch uid
//! (never reused, unlike slots and sequence numbers), so a handle
//! taken before a squash cannot resolve to the slot's next tenant. A
//! waiter also needs the slot's `in_iq` bit, which recovery clears a
//! word at a time over the squashed range; so truncation writes no
//! per-slot generation, and a squashed slot's stale generation is
//! overwritten when dispatch reuses the slot.

use straight_isa::TrapKind;

use crate::predict::RasCheckpoint;

use super::slab::{SlotBits, SlotHandle};
use super::uop::UOp;

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RState {
    /// Dispatched, waiting in the scheduler (or at the ROB head for
    /// `SYS`/`HALT`/trap micro-ops).
    Waiting,
    /// Issued to a functional unit.
    Issued,
    /// Completed.
    Done,
}

/// The structure-of-arrays reorder buffer. Columns are indexed by
/// slot; [`RobSlab::slot`] maps a live sequence number to its slot.
#[derive(Debug)]
pub(crate) struct RobSlab {
    mask: usize,
    head_seq: u64,
    len: usize,
    /// Sequence number per slot (valid only inside the live window).
    pub seq: Box<[u64]>,
    /// Dispatch identity per slot; never reused, so stale handles to a
    /// recycled slot fail their generation check.
    pub gen: Box<[u64]>,
    /// The renamed micro-op payload.
    pub uop: Box<[UOp]>,
    /// Execution state.
    pub state: Box<[RState]>,
    /// Fetch-time predicted next PC (written for control instructions
    /// only, the only ones whose completion reads it).
    pub predicted_next: Box<[u32]>,
    /// Resolved direction of a conditional branch (written when it
    /// completes; retire reads it for conditional branches only).
    pub actual_taken: Box<[bool]>,
    /// RAS checkpoint taken at prediction time (control instructions
    /// only).
    pub ras_cp: Box<[RasCheckpoint]>,
    /// Execution-time fault, raised precisely when the entry reaches
    /// the ROB head.
    pub trap: Box<[Option<TrapKind>]>,
    /// Source operands still outstanding before the entry enters the
    /// scheduler's ready set.
    pub pending: Box<[u8]>,
    /// Loads and stores: the entry's physical index in its LSQ ring
    /// (set at dispatch, stable until the entry leaves the ring).
    pub lsq_idx: Box<[u32]>,
    /// Occupies a scheduler (issue-queue) slot.
    pub in_iq: SlotBits,
}

impl RobSlab {
    /// A slab holding at least `capacity` in-flight entries.
    pub fn new(capacity: usize, placeholder: UOp) -> RobSlab {
        let cap = capacity.next_power_of_two().max(64);
        RobSlab {
            mask: cap - 1,
            head_seq: 0,
            len: 0,
            seq: vec![0u64; cap].into_boxed_slice(),
            gen: vec![u64::MAX; cap].into_boxed_slice(),
            uop: vec![placeholder; cap].into_boxed_slice(),
            state: vec![RState::Waiting; cap].into_boxed_slice(),
            predicted_next: vec![0u32; cap].into_boxed_slice(),
            actual_taken: vec![false; cap].into_boxed_slice(),
            ras_cp: vec![RasCheckpoint::default(); cap].into_boxed_slice(),
            trap: vec![None; cap].into_boxed_slice(),
            pending: vec![0u8; cap].into_boxed_slice(),
            lsq_idx: vec![0u32; cap].into_boxed_slice(),
            in_iq: SlotBits::new(cap),
        }
    }

    /// Live entry count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Physical slot count (sizes the scheduler's per-slot bitsets).
    #[inline]
    pub fn slot_capacity(&self) -> usize {
        self.mask + 1
    }

    /// True when no entry is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sequence number of the oldest entry.
    #[inline]
    pub fn front_seq(&self) -> Option<u64> {
        if self.len == 0 {
            None
        } else {
            Some(self.head_seq)
        }
    }

    /// Slot of the oldest entry (only meaningful when non-empty).
    #[inline]
    pub fn head_slot(&self) -> usize {
        (self.head_seq as usize) & self.mask
    }

    /// Slot for a sequence number, without a liveness check.
    #[inline]
    pub fn slot_of(&self, seq: u64) -> usize {
        (seq as usize) & self.mask
    }

    /// True when `slot` holds a live entry (lies inside the window).
    #[inline]
    pub fn slot_is_live(&self, slot: usize) -> bool {
        slot.wrapping_sub(self.head_slot()) & self.mask < self.len
    }

    /// Slot for `seq` if that sequence number is live, `None` when it
    /// was already committed or squashed (the replacement for relative
    /// `VecDeque` indexing). The stages hold slots, not sequence
    /// numbers, so only the tests look entries up this way.
    #[cfg(test)]
    pub fn slot(&self, seq: u64) -> Option<usize> {
        if seq >= self.head_seq && seq < self.head_seq + self.len as u64 {
            Some((seq as usize) & self.mask)
        } else {
            None
        }
    }

    /// Appends an entry for `seq` (which must be `head_seq + len`,
    /// i.e. sequence numbers stay contiguous) and returns its slot.
    /// The slot's `uop` still holds its previous tenant: dispatch
    /// writes the renamed micro-op there directly.
    pub fn push(&mut self, seq: u64, uid: u64) -> usize {
        debug_assert_eq!(seq, self.head_seq + self.len as u64, "ROB seqs must stay contiguous");
        debug_assert!(self.len <= self.mask, "ROB slab overfull");
        let slot = (seq as usize) & self.mask;
        self.seq[slot] = seq;
        self.gen[slot] = uid;
        self.state[slot] = RState::Waiting;
        self.trap[slot] = None;
        debug_assert!(!self.in_iq.get(slot), "a free slot holds no issue-queue bit");
        self.len += 1;
        slot
    }

    /// Pops the oldest entry (commit). The slot's generation is
    /// invalidated so any handle still pointing at it goes stale.
    pub fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        let slot = self.head_slot();
        self.gen[slot] = u64::MAX;
        self.in_iq.clear(slot);
        self.head_seq += 1;
        self.len -= 1;
    }

    /// Truncates to the oldest `keep` entries (recovery). The caller
    /// walks the squashed tail first, if it needs to; this moves the
    /// tail pointer and clears the squashed range's `in_iq` bits a word
    /// at a time, which is what rejects stale wakeup handles to it (see
    /// [`RobSlab::waiter_slot`]). Generations are left alone: a reused
    /// slot gets its new tenant's at `push`.
    pub fn truncate(&mut self, keep: usize) {
        let keep = keep.min(self.len);
        let first = self.slot_of(self.head_seq + keep as u64);
        self.in_iq.clear_range(first, self.len - keep);
        self.len = keep;
    }

    /// Resolves a scheduler wakeup handle: the slot is returned only
    /// while the *same* dispatched instruction still occupies it (the
    /// generation matches) and it still holds a scheduler slot. A
    /// handle to a committed, squashed, or recycled slot yields `None`.
    #[inline]
    pub fn waiter_slot(&self, h: SlotHandle) -> Option<usize> {
        let slot = h.slot as usize;
        if self.gen[slot] == h.gen && self.in_iq.get(slot) {
            Some(slot)
        } else {
            None
        }
    }

    /// Empties the slab, invalidating every generation.
    pub fn clear(&mut self) {
        self.gen.fill(u64::MAX);
        self.in_iq.clear_all();
        self.head_seq = 0;
        self.len = 0;
    }

    /// Empties the slab and rebases the contiguous-sequence window at
    /// `seq`, so the next `push` must carry exactly `seq`. Used when a
    /// core resumes from a checkpoint mid-stream: commit sequence
    /// numbers continue from the emulator's executed count.
    pub fn reset_base(&mut self, seq: u64) {
        self.clear();
        self.head_seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use straight_isa::TrapKind;

    fn uop() -> UOp {
        UOp::trap(0, TrapKind::FetchFault, 0, 0)
    }

    fn push_n(rob: &mut RobSlab, from_seq: u64, from_uid: u64, n: u64) {
        for i in 0..n {
            let slot = rob.push(from_seq + i, from_uid + i);
            rob.in_iq.set(slot);
        }
    }

    #[test]
    fn contiguous_window_and_slot_lookup() {
        let mut rob = RobSlab::new(64, uop());
        push_n(&mut rob, 0, 0, 10);
        assert_eq!(rob.len(), 10);
        assert_eq!(rob.front_seq(), Some(0));
        assert_eq!(rob.slot(9), Some(9));
        assert_eq!(rob.slot(10), None);
        rob.pop_front();
        assert_eq!(rob.slot(0), None, "committed seq is no longer live");
        assert_eq!(rob.front_seq(), Some(1));
    }

    #[test]
    fn slots_wrap_and_stay_unique_within_window() {
        let mut rob = RobSlab::new(64, uop());
        // Fill and drain well past one lap of the ring.
        let mut next = 0u64;
        for _ in 0..5 {
            while rob.len() < 64 {
                rob.push(next, next);
                next += 1;
            }
            while rob.len() > 3 {
                rob.pop_front();
            }
        }
        // The three survivors resolve to three distinct slots.
        let front = rob.front_seq().unwrap();
        let slots: Vec<usize> = (front..front + 3).map(|s| rob.slot(s).unwrap()).collect();
        assert_eq!(slots.len(), 3);
        assert!(slots[0] != slots[1] && slots[1] != slots[2] && slots[0] != slots[2]);
    }

    #[test]
    fn stale_handle_rejected_after_squash_and_slot_reuse() {
        let mut rob = RobSlab::new(64, uop());
        push_n(&mut rob, 0, 0, 8);
        // A waiter subscribes to seq 5 (slot 5, gen/uid 5).
        let h = SlotHandle { slot: rob.slot(5).unwrap() as u32, gen: rob.gen[5] };
        assert_eq!(rob.waiter_slot(h), Some(5));

        // Recovery squashes seqs 4..8; seq numbers rewind and the slot
        // is reused by a *different* dynamic instruction (fresh uid).
        rob.truncate(4);
        assert_eq!(rob.waiter_slot(h), None, "squashed entry must reject its old handle");
        push_n(&mut rob, 4, 100, 4); // uids 100.. take slots 4..8
        assert_eq!(rob.slot(5), Some(5), "slot is live again");
        assert_eq!(rob.waiter_slot(h), None, "reused slot must reject the stale generation");

        // A handle minted for the new tenant works.
        let h2 = SlotHandle { slot: 5, gen: rob.gen[5] };
        assert_eq!(rob.waiter_slot(h2), Some(5));
    }

    #[test]
    fn committed_entry_rejects_handle() {
        let mut rob = RobSlab::new(64, uop());
        push_n(&mut rob, 0, 0, 2);
        let h = SlotHandle { slot: 0, gen: 0 };
        assert_eq!(rob.waiter_slot(h), Some(0));
        rob.pop_front();
        assert_eq!(rob.waiter_slot(h), None);
    }

    #[test]
    fn clear_invalidates_everything() {
        let mut rob = RobSlab::new(64, uop());
        push_n(&mut rob, 0, 0, 8);
        let h = SlotHandle { slot: 3, gen: 3 };
        rob.clear();
        assert!(rob.is_empty());
        assert_eq!(rob.waiter_slot(h), None);
        // The slab is reusable from seq 0 again.
        push_n(&mut rob, 0, 200, 1);
        assert_eq!(rob.slot(0), Some(0));
    }
}
