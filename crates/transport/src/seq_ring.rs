//! O(1) per-packet state keyed by sequence number.
//!
//! A sender hands out sequence numbers monotonically and the simulated path
//! never reorders a flow's packets, so the packets that still carry state —
//! outstanding in the engine, attributed to a monitor interval, awaiting a
//! BBR delivery-rate sample — are always a contiguous run of sequence
//! numbers with holes where a packet was already acknowledged or declared
//! lost. [`SeqRing`] exploits that: a `VecDeque` indexed by
//! `seq - head_seq`, where a slot is `None` once its packet has been
//! removed. Insert at the tail, remove an arbitrary sequence number, read or
//! pop the oldest entry — each is O(1) (amortized), with no hashing and no
//! allocation once the ring has grown to the flow's in-flight window.
//!
//! Invariant: when the ring is non-empty, the front slot is `Some` (leading
//! holes are trimmed on removal), so the oldest entry is directly readable.
//!
//! [`SeqSet`] is the same structure for a user that needs membership only
//! (`MiTracker`'s "still outstanding" guard): one bit per sequence number.

use std::collections::VecDeque;

use crate::packet::SeqNr;

/// Seq-indexed ring of per-packet values (see module docs).
#[derive(Debug, Clone)]
pub struct SeqRing<T> {
    /// Slot `i` holds the value of sequence number `head_seq + i`; `None`
    /// marks one already removed or skipped.
    slots: VecDeque<Option<T>>,
    /// Sequence number of `slots[0]`.
    head_seq: SeqNr,
    /// Number of `Some` slots.
    live: usize,
}

impl<T> Default for SeqRing<T> {
    fn default() -> Self {
        Self {
            slots: VecDeque::new(),
            head_seq: 0,
            live: 0,
        }
    }
}

impl<T> SeqRing<T> {
    /// Creates an empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the ring holds no entry.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots allocated: the widest span of sequence numbers the ring has
    /// held at once, rounded up by the buffer's growth.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Stores `value` under `seq`. Sequence numbers must rise across calls;
    /// a sender's `next_seq++` guarantees it. Gaps (sequence numbers skipped
    /// entirely) are tolerated and read as already removed.
    ///
    /// # Panics
    /// Panics if `seq` is not above every sequence number the ring still
    /// spans (in every build profile: unchecked, a falling `seq` would file
    /// the value under the wrong number or grow the ring without bound).
    #[inline]
    pub fn insert(&mut self, seq: SeqNr, value: T) {
        if self.slots.is_empty() {
            self.head_seq = seq;
        }
        let tail = self.head_seq + self.slots.len() as SeqNr;
        assert!(
            seq >= tail,
            "sequence numbers must be inserted in increasing order: {seq} after {}",
            tail.wrapping_sub(1)
        );
        for _ in tail..seq {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(value));
        self.live += 1;
    }

    /// Removes and returns the value stored under `seq`, if it is still
    /// there.
    #[inline]
    pub fn remove(&mut self, seq: SeqNr) -> Option<T> {
        let idx = seq.checked_sub(self.head_seq)? as usize;
        let taken = self.slots.get_mut(idx)?.take();
        if taken.is_some() {
            self.live -= 1;
            if idx == 0 {
                self.trim_front();
            }
        }
        taken
    }

    /// The entry with the lowest sequence number, if any.
    pub fn front(&self) -> Option<(SeqNr, &T)> {
        let value = self.slots.front()?.as_ref().expect("front slot is live");
        Some((self.head_seq, value))
    }

    /// Removes and returns the entry with the lowest sequence number.
    pub fn pop_front(&mut self) -> Option<(SeqNr, T)> {
        let value = self.slots.front_mut()?.take().expect("front slot is live");
        let seq = self.head_seq;
        self.live -= 1;
        self.trim_front();
        Some((seq, value))
    }

    /// Drops leading holes so the front slot is live again (or the ring is
    /// empty). Amortized O(1): every slot is pushed and popped once.
    fn trim_front(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.head_seq += 1;
        }
        debug_assert!(!self.slots.is_empty() || self.live == 0);
    }
}

/// Seq-indexed set of sequence numbers, one bit each: [`SeqRing`]`<()>` at
/// an eighth of a byte a packet (see module docs).
#[derive(Debug, Clone, Default)]
pub struct SeqSet {
    /// Bit `b` of word `i` is sequence number `base + 64 * i + b`. When the
    /// set is non-empty the front word is non-zero (leading zero words are
    /// trimmed on removal).
    words: VecDeque<u64>,
    /// Sequence number of bit 0 of `words[0]`.
    base: SeqNr,
    /// One past the highest member ever inserted since the set was last
    /// empty.
    end: SeqNr,
}

impl SeqSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members (counted, not kept: no per-packet path asks).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no member.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Adds `seq`. Sequence numbers must rise across calls; gaps are
    /// tolerated and read as never inserted.
    ///
    /// # Panics
    /// Panics if the set is non-empty and `seq` is not above every sequence
    /// number inserted since it was last empty (in every build profile, as
    /// [`SeqRing::insert`]).
    #[inline]
    pub fn insert(&mut self, seq: SeqNr) {
        if self.words.is_empty() {
            self.base = seq;
            self.end = seq;
        }
        assert!(
            seq >= self.end,
            "sequence numbers must be inserted in increasing order: {seq} after {}",
            self.end.wrapping_sub(1)
        );
        let off = seq - self.base;
        let idx = (off >> 6) as usize;
        while self.words.len() <= idx {
            self.words.push_back(0);
        }
        self.words[idx] |= 1 << (off & 63);
        self.end = seq + 1;
    }

    /// Removes `seq`; whether it was a member.
    #[inline]
    pub fn remove(&mut self, seq: SeqNr) -> bool {
        let Some(off) = seq.checked_sub(self.base) else {
            return false;
        };
        let idx = (off >> 6) as usize;
        let bit = 1u64 << (off & 63);
        match self.words.get_mut(idx) {
            Some(word) if *word & bit != 0 => *word &= !bit,
            _ => return false,
        }
        if idx == 0 {
            while let Some(0) = self.words.front() {
                self.words.pop_front();
                self.base += 64;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "sequence numbers must be inserted in increasing order: 4 after 6")]
    fn ring_rejects_a_falling_sequence_number() {
        let mut r = SeqRing::new();
        r.insert(5, ());
        r.insert(6, ());
        r.insert(4, ());
    }

    #[test]
    #[should_panic(expected = "sequence numbers must be inserted in increasing order: 6 after 6")]
    fn ring_rejects_a_repeated_sequence_number() {
        let mut r = SeqRing::new();
        r.insert(6, ());
        r.insert(6, ());
    }

    #[test]
    #[should_panic(expected = "sequence numbers must be inserted in increasing order: 69 after 70")]
    fn set_rejects_a_falling_sequence_number() {
        let mut s = SeqSet::new();
        s.insert(70);
        s.insert(69);
    }

    #[test]
    fn set_tolerates_forward_gaps_and_reanchors_once_empty() {
        let mut s = SeqSet::new();
        s.insert(3);
        s.insert(200);
        assert_eq!(s.len(), 2);
        assert!(!s.remove(4), "never inserted");
        assert!(s.remove(3));
        assert!(!s.remove(3), "double remove misses");
        assert!(s.remove(200));
        assert!(s.is_empty());
        // Empty again: the next insert anchors the set wherever it lands.
        s.insert(7);
        assert!(s.remove(7));
    }

    #[test]
    fn skipped_sequence_numbers_read_as_removed() {
        let mut r = SeqRing::new();
        r.insert(3, "a");
        r.insert(6, "b");
        assert_eq!(r.len(), 2);
        assert_eq!(r.remove(4), None, "never inserted");
        assert_eq!(r.remove(3), Some("a"));
        assert_eq!(
            r.front(),
            Some((6, &"b")),
            "the gap is trimmed with the head"
        );
        assert_eq!(r.pop_front(), Some((6, "b")));
        assert!(r.is_empty());
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn holds_values_that_are_not_copy() {
        let mut r = SeqRing::new();
        r.insert(0, vec![1u8]);
        r.insert(1, vec![2, 3]);
        assert_eq!(r.remove(1), Some(vec![2, 3]));
        assert_eq!(r.remove(1), None, "double remove misses");
        assert_eq!(r.pop_front(), Some((0, vec![1])));
    }
}
