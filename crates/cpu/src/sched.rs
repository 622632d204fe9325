//! Event-driven wakeup/select scheduling structures.
//!
//! The classic way to pick issue candidates is a broadcast scan: every
//! cycle, walk the whole reorder buffer and re-check every waiting
//! instruction's operands. That is O(window) per cycle whether or not
//! anything changed, and it is what the paper's large-window
//! configurations spend most of their host time doing.
//!
//! This module holds the bookkeeping that replaces the scan:
//!
//! * a **candidate set** — the sequence numbers of instructions whose
//!   operands (address operand, for memory ops) are ready, kept in age
//!   order so select examines exactly what the broadcast scan would have
//!   examined, in the same order;
//! * a **completion event queue** — each issued instruction schedules one
//!   wakeup at its `ready_at` cycle, at which point its waiters (recorded
//!   on the producer's ROB entry) are re-evaluated;
//! * a **store-address index** — the in-flight stores in age order
//!   with their byte ranges, plus the set of stores whose effective
//!   address is still unknown, so load/store disambiguation walks at most
//!   the store queue instead of the whole window.
//!
//! The invariant throughout: the candidate set *over-approximates* the
//! instructions the broadcast scan would have acted on, and every entry
//! whose examination has an architecturally visible side effect (a stat,
//! a cache access, an issue) is present. Examining an entry that turns
//! out not to be ready replays the scan's silent `continue`, so
//! over-approximation is free; missing an entry would change behaviour.
//! The simulated machine is bit-identical to the broadcast version —
//! only the host work changes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use cpe_mem::Cycle;

use crate::lsq::ranges_overlap;

/// The scheduler state riding alongside the reorder buffer.
///
/// The candidate set is a ring bitmap in sequence-number space: bit
/// `seq & mask` stands for instruction `seq`. The window holds at most
/// `rob_entries` consecutive live sequence numbers and the bitmap is at
/// least that large, so no two live instructions share a bit, and
/// scanning positions upward from any live sequence number visits live
/// candidates in age order. For the paper's 128-entry window the whole
/// set is two machine words — select's walk is a couple of
/// trailing-zero counts instead of a tree traversal per step.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    /// Issue-candidate ring bitmap, one bit per in-flight seq.
    cand_words: Vec<u64>,
    /// Bitmap capacity minus one (capacity is a power of two).
    cand_mask: u64,
    /// Number of set bits, so emptiness checks are O(1).
    cand_count: u32,
    /// Pending completion wakeups as `(ready_at, producer seq)`.
    events: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// In-flight stores as `(seq, byte range)`, oldest first. Dispatch
    /// appends and commit (which is in order) pops the front, so the
    /// list never outgrows the store queue.
    stores: VecDeque<(u64, (u64, u64))>,
    /// In-flight stores whose effective address is not yet known, in
    /// dispatch (= age) order, so the conservative gate's "any
    /// unresolved store older than this load?" is a front probe.
    unresolved_stores: Vec<u64>,
}

impl Scheduler {
    /// Build a scheduler for a window of `rob_entries` instructions.
    pub(crate) fn new(rob_entries: usize) -> Scheduler {
        let capacity = (rob_entries as u64).next_power_of_two().max(64);
        Scheduler {
            cand_words: vec![0; (capacity / 64) as usize],
            cand_mask: capacity - 1,
            cand_count: 0,
            events: BinaryHeap::new(),
            stores: VecDeque::new(),
            unresolved_stores: Vec::new(),
        }
    }

    // --- candidate set ----------------------------------------------------

    pub(crate) fn add_candidate(&mut self, seq: u64) {
        let pos = seq & self.cand_mask;
        let word = &mut self.cand_words[(pos >> 6) as usize];
        let bit = 1u64 << (pos & 63);
        self.cand_count += u32::from(*word & bit == 0);
        *word |= bit;
    }

    pub(crate) fn remove_candidate(&mut self, seq: u64) {
        let pos = seq & self.cand_mask;
        let word = &mut self.cand_words[(pos >> 6) as usize];
        let bit = 1u64 << (pos & 63);
        self.cand_count -= u32::from(*word & bit != 0);
        *word &= !bit;
    }

    pub(crate) fn has_candidates(&self) -> bool {
        self.cand_count != 0
    }

    /// The oldest candidate in `start..end` (sequence numbers), letting
    /// select walk the set in age order while it mutates it. `end - start`
    /// must not exceed the window (callers pass live ROB bounds), so the
    /// position scan visits each bit at most once and in age order.
    pub(crate) fn next_candidate_in(&self, start: u64, end: u64) -> Option<u64> {
        if self.cand_count == 0 {
            return None;
        }
        let mut seq = start;
        while seq < end {
            let pos = seq & self.cand_mask;
            // Bits at or above `pos` in this word are the candidates in
            // `seq .. next word boundary`, in order.
            let pending = self.cand_words[(pos >> 6) as usize] >> (pos & 63);
            if pending != 0 {
                let found = seq + u64::from(pending.trailing_zeros());
                return (found < end).then_some(found);
            }
            seq = (seq | 63) + 1;
        }
        None
    }

    // --- completion events ------------------------------------------------

    pub(crate) fn push_event(&mut self, ready_at: Cycle, seq: u64) {
        self.events.push(Reverse((ready_at, seq)));
    }

    /// The cycle of the earliest pending wakeup, if any.
    pub(crate) fn next_event_at(&self) -> Option<Cycle> {
        self.events.peek().map(|&Reverse((t, _))| t)
    }

    /// Pop the next producer whose result is available by `now`.
    pub(crate) fn pop_due(&mut self, now: Cycle) -> Option<u64> {
        match self.events.peek() {
            Some(&Reverse((t, _))) if t <= now => {
                let Reverse((_, seq)) = self.events.pop().expect("peeked above");
                Some(seq)
            }
            _ => None,
        }
    }

    /// Outstanding wakeups (the quantity `sched_events_peak` tracks).
    pub(crate) fn pending_events(&self) -> usize {
        self.events.len()
    }

    // --- store-address index ----------------------------------------------

    /// Track a dispatched store (the youngest in flight): record its
    /// (oracle) byte range and mark its address unresolved until address
    /// generation fires.
    pub(crate) fn add_store(&mut self, seq: u64, range: (u64, u64)) {
        debug_assert!(range.1 > range.0, "memory accesses cover at least a byte");
        debug_assert!(self.stores.back().is_none_or(|&(s, _)| s < seq));
        self.stores.push_back((seq, range));
        debug_assert!(self.unresolved_stores.last().is_none_or(|&s| s < seq));
        self.unresolved_stores.push(seq);
    }

    /// Address generation fired for store `seq`.
    pub(crate) fn resolve_store(&mut self, seq: u64) {
        if let Ok(at) = self.unresolved_stores.binary_search(&seq) {
            self.unresolved_stores.remove(at);
        }
    }

    /// Remove a committing store from the index. Stores commit in age
    /// order, so it is always the oldest in flight.
    pub(crate) fn retire_store(&mut self, seq: u64) {
        let oldest = self.stores.pop_front();
        debug_assert_eq!(oldest.map(|(s, _)| s), Some(seq), "stores commit in order");
        self.resolve_store(seq);
    }

    /// Is any store older than `load_seq` still awaiting its address?
    /// (The conservative disambiguation gate.) The list is age-ordered,
    /// so this is a probe of its oldest element.
    pub(crate) fn has_unresolved_store_before(&self, load_seq: u64) -> bool {
        self.unresolved_stores
            .first()
            .is_some_and(|&s| s < load_seq)
    }

    /// The youngest store older than `load_seq` whose byte range overlaps
    /// `load_range` — the store a backwards window walk would find first.
    pub(crate) fn youngest_overlapping_store_before(
        &self,
        load_seq: u64,
        load_range: (u64, u64),
    ) -> Option<u64> {
        self.stores
            .iter()
            .rev()
            .find(|&&(seq, range)| seq < load_seq && ranges_overlap(range, load_range))
            .map(|&(seq, _)| seq)
    }

    /// Stores currently in flight (dispatched, not yet committed).
    #[cfg(test)]
    pub(crate) fn stores_in_flight(&self) -> usize {
        self.stores.len()
    }

    /// Drop any bookkeeping for a committed instruction. The event-driven
    /// path never needs this (issue removed the candidate and the
    /// completion event has fired); it bounds growth when the broadcast
    /// oracle drives issue without consuming the queues, so it only
    /// exists alongside the oracle.
    #[cfg(test)]
    pub(crate) fn retire(&mut self, seq: u64) {
        self.remove_candidate(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_walk_in_age_order_under_mutation() {
        let mut s = Scheduler::new(16);
        for seq in [9, 3, 7, 1] {
            s.add_candidate(seq);
        }
        assert_eq!(s.next_candidate_in(0, 12), Some(1));
        s.remove_candidate(1);
        assert_eq!(s.next_candidate_in(2, 12), Some(3));
        // An insertion ahead of the cursor is visited later in the same
        // walk — the zero-latency wakeup case.
        s.add_candidate(5);
        assert_eq!(s.next_candidate_in(4, 12), Some(5));
        assert_eq!(s.next_candidate_in(6, 12), Some(7));
        assert_eq!(s.next_candidate_in(10, 12), None);
        // The walk respects the live-window bound.
        assert_eq!(s.next_candidate_in(8, 9), None);
    }

    #[test]
    fn candidates_survive_sequence_wraparound_of_the_ring() {
        let mut s = Scheduler::new(64);
        // A window whose sequence numbers straddle a multiple of the
        // bitmap capacity: positions wrap but age order must not.
        s.add_candidate(60);
        s.add_candidate(65);
        s.add_candidate(70);
        assert_eq!(s.next_candidate_in(58, 100), Some(60));
        assert_eq!(s.next_candidate_in(61, 100), Some(65));
        assert_eq!(s.next_candidate_in(66, 100), Some(70));
        // A lingering older candidate (seq 60, bit at a high position)
        // must not alias into a younger scan range after the wrap.
        s.remove_candidate(65);
        s.remove_candidate(70);
        assert_eq!(s.next_candidate_in(66, 110), None);
        assert_eq!(s.next_candidate_in(58, 100), Some(60));
    }

    #[test]
    fn events_pop_in_time_order_and_only_when_due() {
        let mut s = Scheduler::new(8);
        s.push_event(12, 2);
        s.push_event(10, 1);
        s.push_event(12, 0);
        assert_eq!(s.next_event_at(), Some(10));
        assert_eq!(s.pending_events(), 3);
        assert_eq!(s.pop_due(9), None);
        assert_eq!(s.pop_due(10), Some(1));
        assert_eq!(s.pop_due(11), None);
        // Same-cycle ties break by age.
        assert_eq!(s.pop_due(12), Some(0));
        assert_eq!(s.pop_due(12), Some(2));
        assert_eq!(s.pop_due(12), None);
    }

    #[test]
    fn store_index_finds_the_youngest_older_overlap() {
        let mut s = Scheduler::new(8);
        s.add_store(1, (0x100, 0x108));
        s.add_store(3, (0x104, 0x106));
        s.add_store(5, (0x200, 0x208));
        // Both older stores overlap; the youngest wins.
        assert_eq!(
            s.youngest_overlapping_store_before(4, (0x104, 0x108)),
            Some(3)
        );
        // Only stores older than the load count.
        assert_eq!(
            s.youngest_overlapping_store_before(2, (0x104, 0x108)),
            Some(1)
        );
        // Adjacent but disjoint bytes do not overlap: the younger store 3
        // ends where the load begins, so the older full-word store wins.
        assert_eq!(
            s.youngest_overlapping_store_before(4, (0x106, 0x108)),
            Some(1)
        );
        assert_eq!(s.youngest_overlapping_store_before(6, (0x300, 0x308)), None);
        s.retire_store(1);
        assert_eq!(s.youngest_overlapping_store_before(2, (0x104, 0x108)), None);
        assert_eq!(
            s.youngest_overlapping_store_before(4, (0x104, 0x108)),
            Some(3)
        );
    }

    #[test]
    fn unaligned_ranges_index_across_chunk_boundaries() {
        let mut s = Scheduler::new(8);
        // Bytes [0x106, 0x10a) straddle an 8-byte boundary; a load on
        // either side of it overlaps.
        s.add_store(1, (0x106, 0x10a));
        assert_eq!(
            s.youngest_overlapping_store_before(9, (0x108, 0x110)),
            Some(1)
        );
        assert_eq!(
            s.youngest_overlapping_store_before(9, (0x100, 0x107)),
            Some(1)
        );
        assert_eq!(s.youngest_overlapping_store_before(9, (0x10a, 0x110)), None);
        s.retire_store(1);
        assert_eq!(s.youngest_overlapping_store_before(9, (0x108, 0x110)), None);
    }

    #[test]
    fn stores_retire_from_the_old_end() {
        let mut s = Scheduler::new(8);
        for seq in [2, 5, 7] {
            s.add_store(seq, (0x100, 0x108));
        }
        assert_eq!(s.stores_in_flight(), 3);
        assert_eq!(
            s.youngest_overlapping_store_before(9, (0x100, 0x104)),
            Some(7)
        );
        assert_eq!(
            s.youngest_overlapping_store_before(6, (0x100, 0x104)),
            Some(5)
        );
        s.retire_store(2);
        s.retire_store(5);
        assert_eq!(s.stores_in_flight(), 1);
        assert_eq!(s.youngest_overlapping_store_before(6, (0x100, 0x104)), None);
        assert_eq!(
            s.youngest_overlapping_store_before(8, (0x100, 0x104)),
            Some(7)
        );
    }

    #[test]
    fn unresolved_stores_gate_by_age() {
        let mut s = Scheduler::new(8);
        s.add_store(4, (0x100, 0x108));
        assert!(s.has_unresolved_store_before(5));
        assert!(!s.has_unresolved_store_before(4));
        s.resolve_store(4);
        assert!(!s.has_unresolved_store_before(5));
    }
}
