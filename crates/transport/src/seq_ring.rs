//! O(1) per-packet state keyed by sequence number.
//!
//! A sender hands out sequence numbers monotonically and the simulated path
//! never reorders a flow's packets, so the packets that still carry state —
//! outstanding in the engine, awaiting a BBR delivery-rate sample — are
//! always a contiguous run of sequence numbers with holes where a packet was
//! already acknowledged or declared lost. [`SeqRing`] exploits that: it keeps
//! the run in pages of 64 slots, a page holding the sequence numbers from a
//! multiple of 64 up to the next, where a slot is `None` once its packet has
//! been removed. A sequence number's page and slot are a shift and a mask
//! away. Insert at the tail, remove an arbitrary sequence number, read or pop
//! the oldest entry — each is O(1) (amortized), with no hashing; an in-order
//! ACK and a tail insert touch one page.
//!
//! Memory follows what is outstanding now, not the widest window the flow
//! ever had: the ring holds the pages its span (oldest entry to last insert)
//! covers plus one spare, and gives a page up as soon as the oldest entry
//! moves past it — into the spare, or back to the allocator if the spare is
//! taken. The spare makes a steady span allocation-free: the page the tail
//! moves into is the one the head last left. Every page of a `SeqRing<T>` is
//! the same size, so freed pages are recycled across flows.
//!
//! Invariant: when the ring is non-empty, the oldest entry's slot is the
//! `Some` at `head` in the head page (leading holes are trimmed on removal,
//! a page at a time), so the oldest entry is directly readable.
//!
//! [`SeqSet`] is the same idea for a user that needs membership only
//! (`MiTracker`'s "still outstanding" guard): one bit per sequence number,
//! in a ring of 64-bit words.

use std::collections::VecDeque;

use crate::packet::SeqNr;

/// Sequence numbers a page holds: `2^PAGE_BITS`.
const PAGE_BITS: u32 = 6;
/// Slots a page holds.
const PAGE: usize = 1 << PAGE_BITS;
/// A sequence number's slot within its page.
const SLOT_MASK: SeqNr = PAGE as SeqNr - 1;
/// A page directory that has emptied is freed if it has room for more page
/// pointers than this: it indexed a window that is gone. One this small is
/// kept, so a steady span of two to three pages never allocates.
const DIRECTORY_KEEP: usize = 4;

/// The slots of 64 consecutive sequence numbers from a multiple of 64.
type Page<T> = [Option<T>; PAGE];

/// Seq-indexed ring of per-packet values (see module docs).
///
/// The pages of the span are the head page, then the directory's, then the
/// tail page: the in-order ACK and the tail insert each reach their page
/// through one pointer, and only a removal in the middle of a span wider
/// than two pages reads the directory.
#[derive(Debug, Clone)]
pub struct SeqRing<T> {
    /// Lowest live sequence number; `end` when the ring is empty.
    head: SeqNr,
    /// One past the last sequence number inserted.
    end: SeqNr,
    /// Number of `Some` slots.
    live: usize,
    /// The page holding `head`; `None` exactly when the ring is empty.
    head_page: Option<Box<Page<T>>>,
    /// The page holding `end - 1` when that is not the head page.
    tail_page: Option<Box<Page<T>>>,
    /// The pages between the two, in order (empty unless there is a tail
    /// page).
    middle: VecDeque<Box<Page<T>>>,
    /// An all-`None` page kept for the tail's next one.
    spare: Option<Box<Page<T>>>,
}

impl<T> Default for SeqRing<T> {
    fn default() -> Self {
        Self {
            head: 0,
            end: 0,
            live: 0,
            head_page: None,
            tail_page: None,
            middle: VecDeque::new(),
            spare: None,
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

    /// Slots allocated: 64 for every page the current span covers, plus 64
    /// for the spare page if one is kept.
    pub fn capacity(&self) -> usize {
        let pages = usize::from(self.head_page.is_some())
            + self.middle.len()
            + usize::from(self.tail_page.is_some())
            + usize::from(self.spare.is_some());
        pages * PAGE
    }

    /// Stores `value` under `seq`. Sequence numbers must rise across calls;
    /// a sender's `next_seq++` guarantees it. Gaps (sequence numbers skipped
    /// entirely) are tolerated and read as already removed. An empty ring
    /// re-anchors wherever `seq` lands.
    ///
    /// # Panics
    /// Panics if `seq` is not above every sequence number the ring still
    /// spans (in every build profile: unchecked, a falling `seq` would file
    /// the value under the wrong number or grow the ring without bound).
    #[inline]
    pub fn insert(&mut self, seq: SeqNr, value: T) {
        if self.head_page.is_none() {
            self.head_page = Some(self.take_page());
            self.head = seq;
            self.end = seq;
        }
        assert!(
            seq >= self.end,
            "sequence numbers must be inserted in increasing order: {seq} after {}",
            self.end.wrapping_sub(1)
        );
        // `seq` lies on the last page of the span or past it.
        let page = match self.page_index(seq) {
            0 => self.head_page.as_deref_mut(),
            i => {
                if i > self.middle.len() + usize::from(self.tail_page.is_some()) {
                    self.extend_to(i);
                }
                self.tail_page.as_deref_mut()
            }
        };
        page.expect("the span's last page exists")[(seq & SLOT_MASK) as usize] = Some(value);
        self.end = seq + 1;
        self.live += 1;
    }

    /// Removes and returns the value stored under `seq`, if it is still
    /// there.
    #[inline]
    pub fn remove(&mut self, seq: SeqNr) -> Option<T> {
        if seq < self.head || seq >= self.end {
            return None;
        }
        let page = match self.page_index(seq) {
            0 => self.head_page.as_deref_mut()?,
            i if i <= self.middle.len() => &mut *self.middle[i - 1],
            _ => self.tail_page.as_deref_mut()?,
        };
        let taken = page[(seq & SLOT_MASK) as usize].take();
        if taken.is_some() {
            self.live -= 1;
            if seq == self.head {
                self.advance_head();
            }
        }
        taken
    }

    /// The entry with the lowest sequence number, if any.
    pub fn front(&self) -> Option<(SeqNr, &T)> {
        let page = self.head_page.as_deref()?;
        let value = page[(self.head & SLOT_MASK) as usize]
            .as_ref()
            .expect("front slot is live");
        Some((self.head, value))
    }

    /// Removes and returns the entry with the lowest sequence number.
    pub fn pop_front(&mut self) -> Option<(SeqNr, T)> {
        let seq = self.head;
        let value = self.head_page.as_deref_mut()?[(seq & SLOT_MASK) as usize]
            .take()
            .expect("front slot is live");
        self.live -= 1;
        self.advance_head();
        Some((seq, value))
    }

    /// How many pages past the head page `seq` lies (`seq >= head`).
    #[inline]
    fn page_index(&self, seq: SeqNr) -> usize {
        ((seq >> PAGE_BITS) - (self.head >> PAGE_BITS)) as usize
    }

    /// Makes page `i` of the span (past its last page) the tail page, with
    /// all-`None` pages for any gap before it.
    #[cold]
    fn extend_to(&mut self, i: usize) {
        if let Some(tail) = self.tail_page.take() {
            self.middle.push_back(tail);
        }
        while self.middle.len() + 1 < i {
            let page = self.take_page();
            self.middle.push_back(page);
        }
        self.tail_page = Some(self.take_page());
    }

    /// Moves the head past the entry just taken from it: to the next slot
    /// when that is live, as it is under in-order ACKs, else by [`seek`].
    /// (At a page edge the slot read is the head page's first, at or below
    /// the old head and so empty: the edge goes to `seek` too.)
    ///
    /// [`seek`]: Self::seek
    #[inline]
    fn advance_head(&mut self) {
        let next = self.head + 1;
        if let Some(page) = self.head_page.as_deref() {
            if page[(next & SLOT_MASK) as usize].is_some() {
                self.head = next;
                return;
            }
        }
        self.seek(next);
    }

    /// Moves the head to the lowest live sequence number at or above `from`,
    /// one past the old head, giving up every page it leaves; an emptied
    /// ring gives up all its pages. Amortized O(1): every slot is passed
    /// once, and a page of holes is scanned as one slice.
    fn seek(&mut self, mut from: SeqNr) {
        if self.live == 0 {
            self.head = self.end;
            for page in [self.head_page.take(), self.tail_page.take()] {
                self.give_up(page);
            }
            while let Some(page) = self.middle.pop_front() {
                self.give_up(Some(page));
            }
            self.trim_directory();
            return;
        }
        let mut base = self.head & !SLOT_MASK;
        loop {
            let page = self
                .head_page
                .as_deref()
                .expect("a non-empty ring has a head page");
            if let Some(k) = page[(from - base) as usize..]
                .iter()
                .position(Option::is_some)
            {
                self.head = from + k as SeqNr;
                return;
            }
            let next = self.middle.pop_front().or_else(|| self.tail_page.take());
            debug_assert!(next.is_some(), "a live entry lies past the head page");
            let left = std::mem::replace(&mut self.head_page, next);
            self.give_up(left);
            self.trim_directory();
            base += PAGE as SeqNr;
            from = base;
        }
    }

    /// A page for the tail: the spare if there is one.
    fn take_page(&mut self) -> Box<Page<T>> {
        self.spare
            .take()
            .unwrap_or_else(|| Box::new([const { None }; PAGE]))
    }

    /// Keeps an all-`None` page as the spare, or frees it if one is kept.
    fn give_up(&mut self, page: Option<Box<Page<T>>>) {
        debug_assert!(page.iter().flat_map(|p| p.iter()).all(Option::is_none));
        if self.spare.is_none() {
            self.spare = page;
        }
    }

    /// Frees an emptied page directory that outgrew [`DIRECTORY_KEEP`].
    fn trim_directory(&mut self) {
        if self.middle.is_empty() && self.middle.capacity() > DIRECTORY_KEEP {
            self.middle = VecDeque::new();
        }
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
