//! Event schedulers: a hierarchical timing wheel and a binary-heap reference.
//!
//! The engine orders events by `(time, sequence)` — earliest time first,
//! ties broken by push order (the monotone sequence number the engine
//! assigns on every push). PR 2 documented why this total order is
//! load-bearing: same-timestamp tie order decides which flow acts first,
//! so any scheduler swap must reproduce it *exactly* or every committed
//! result changes. Both implementations here pop in that exact order;
//! [`TimingWheel`] is what every simulation runs, [`HeapQueue`] is kept as
//! the executable reference for the equivalence tests
//! (`tests/sched_equivalence.rs`, `tests/wheel_model.rs`).
//!
//! # Timing-wheel layout
//!
//! A hierarchical wheel with [`LEVELS`] levels of [`SLOTS`] slots each.
//! Level-0 slots are [`GRANULARITY_NS`] wide (2^14 ns ≈ 16.4 µs); each
//! higher level's slots are `SLOTS`× wider, so the levels span ≈ 4.2 ms,
//! 1.07 s, 4.6 min and 19.5 h of future time. Events beyond the top level
//! land in an unsorted overflow list whose entries are filed into slots
//! once the wheel has advanced far enough for a level to cover them — before
//! any slot that ends after the earliest of them is touched. Occupancy
//! bitmaps (one `u64` word per 64 slots) let the wheel skip empty slots
//! without visiting them.
//!
//! Every entry waiting in a slot is a node of one arena (`nodes`, 64 bytes
//! each for the engine's event type) and a slot is the head index of a
//! singly linked list through it; freed nodes go on a free list threaded
//! through the same `next` field. A push takes a free node and links it at
//! its slot's head in O(1), a cascade relinks nodes without moving them, and
//! only the drain of a level-0 slot copies entries out (into `current`). The
//! arena's length is therefore the peak number of entries that waited in
//! slots at once — memory follows what is pending, however the pending
//! entries were spread over slots — and once it and `current` have reached
//! their peaks the wheel never calls the allocator.
//!
//! Draining preserves the exact `(time, seq)` order: when the wheel
//! advances, it repeatedly picks the *earliest-starting* occupied slot
//! across all levels (ties prefer the higher level, which must cascade its
//! contents down before a lower slot of the same start may drain), cascades
//! higher-level slots toward level 0, and finally moves one level-0 slot
//! into the `current` min-heap ordered by `(time, seq)`. Keys are unique, so
//! the order of entries inside a slot's list (newest first) never reaches
//! the pop sequence. Events pushed at an instant the wheel has already
//! advanced into (common: a dispatched event scheduling follow-ups "now")
//! land directly in `current`, which keeps intra-slot ordering exact. Because slots partition time and
//! `current` is drained fully before the wheel advances past its slot, the
//! pop sequence is globally sorted by `(time, seq)` — byte-identical to
//! the binary heap's.

use std::collections::VecDeque;

use proteus_transport::Time;

/// log2 of the level-0 slot width in nanoseconds (2^14 ns ≈ 16.4 µs).
pub const GRANULARITY_BITS: u32 = 14;
/// Level-0 slot width in nanoseconds.
pub const GRANULARITY_NS: u64 = 1 << GRANULARITY_BITS;
/// log2 of the number of slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; beyond the top level events overflow into an
/// unsorted list that is redistributed when reached.
pub const LEVELS: usize = 4;
/// Bitmap words per level (`SLOTS / 64`).
const WORDS: usize = SLOTS / 64;

/// One scheduled entry.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

/// The two scheduler implementations, for [`EventQueue::new`] and
/// `Sim::reference`.
///
/// [`Scheduler::Wheel`] is what every simulation runs; [`Scheduler::Heap`]
/// keeps the original `BinaryHeap` scheduler as an executable reference so
/// tests can assert the two produce identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Hierarchical timing wheel (production).
    Wheel,
    /// Global binary heap (test oracle).
    Heap,
}

/// The scheduler behind an [`EventQueue`].
#[derive(Debug)]
enum Sched<T> {
    Wheel(TimingWheel<T>),
    Heap(HeapQueue<T>),
}

/// Head key of an empty lane: sorts after every real `(time, seq)` key.
const NO_HEAD: (u64, u64) = (u64::MAX, u64::MAX);

/// The engine's event queue: one scheduler (wheel or heap) plus any number
/// of *wire lanes* — plain FIFOs for event streams that are almost always
/// pushed in time order (a link's deliveries, a link's returning ACKs).
///
/// A lane *prefers* sorted input rather than requiring it:
/// [`EventQueue::push_lane`] appends when the new time is at or after the
/// lane tail's and otherwise hands the entry to the scheduler under the same
/// `(time, seq)` key. [`EventQueue::pop`] returns the minimum key over the
/// scheduler head and every lane head, so the pop sequence is exactly the
/// one a scheduler-only queue would produce, whatever mix of lane and plain
/// pushes built it (`tests/lane_model.rs`).
#[derive(Debug)]
pub struct EventQueue<T> {
    sched: Sched<T>,
    lanes: Vec<VecDeque<Entry<T>>>,
    /// `(at, seq)` of each lane's front entry ([`NO_HEAD`] when empty), kept
    /// beside the lanes so `pop` scans one small contiguous array.
    heads: Vec<(u64, u64)>,
    lane_pops: u64,
}

impl<T> EventQueue<T> {
    /// Creates a queue of the given kind with no lanes, pre-sized for
    /// `capacity` events (derived by the engine from the scenario's flow
    /// count and fault schedule — see `Sim::new`). Capacity is an initial
    /// reservation only: both implementations grow without bound and never
    /// drop events.
    pub fn new(kind: Scheduler, capacity: usize) -> Self {
        EventQueue {
            sched: match kind {
                Scheduler::Wheel => Sched::Wheel(TimingWheel::with_capacity(capacity)),
                Scheduler::Heap => Sched::Heap(HeapQueue::with_capacity(capacity)),
            },
            lanes: Vec::new(),
            heads: Vec::new(),
            lane_pops: 0,
        }
    }

    /// Adds `lanes` empty wire lanes, addressed `0..lanes` in
    /// [`EventQueue::push_lane`].
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = (0..lanes).map(|_| VecDeque::with_capacity(256)).collect();
        self.heads = vec![NO_HEAD; lanes];
        self
    }

    /// Schedules `item` at `(at, seq)`.
    #[inline]
    pub fn push(&mut self, at: Time, seq: u64, item: T) {
        match &mut self.sched {
            Sched::Wheel(w) => w.push(at, seq, item),
            Sched::Heap(h) => h.push(at, seq, item),
        }
    }

    /// Offers `item` to wire lane `lane`. Appends it and returns `true` when
    /// `at` is at or after the lane tail's time (or the lane is empty);
    /// otherwise schedules it like [`EventQueue::push`] and returns `false`.
    /// `seq` must exceed every sequence number already in the lane — the
    /// engine's push counter guarantees it — which keeps each lane sorted by
    /// `(time, seq)`.
    #[inline]
    pub fn push_lane(&mut self, lane: usize, at: Time, seq: u64, item: T) -> bool {
        let at_ns = at.as_nanos();
        let q = &mut self.lanes[lane];
        match q.back() {
            Some(tail) if at_ns < tail.at => {
                self.push(at, seq, item);
                return false;
            }
            Some(tail) => debug_assert!(seq > tail.seq, "lane pushes must carry rising seq"),
            None => self.heads[lane] = (at_ns, seq),
        }
        q.push_back(Entry {
            at: at_ns,
            seq,
            item,
        });
        true
    }

    /// Pops the earliest `(at, seq)` entry over the scheduler and all lanes.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        self.pop_through(Time::from_nanos(u64::MAX))
    }

    /// [`EventQueue::pop`], unless the earliest entry is later than `limit`:
    /// then it stays queued and the result is `None`.
    #[inline]
    pub fn pop_through(&mut self, limit: Time) -> Option<(Time, u64, T)> {
        let ((at, _), from) = self.next();
        if at > limit.as_nanos() {
            return None;
        }
        let Some(lane) = from else {
            // `None` here when nothing is pending at all.
            return match &mut self.sched {
                Sched::Wheel(w) => w.pop(),
                Sched::Heap(h) => h.pop(),
            };
        };
        let q = &mut self.lanes[lane];
        let e = q.pop_front().expect("lane head key without an entry");
        self.heads[lane] = q.front().map_or(NO_HEAD, |n| (n.at, n.seq));
        self.lane_pops += 1;
        Some((Time::from_nanos(e.at), e.seq, e.item))
    }

    /// The `(at, seq)` key of the entry [`EventQueue::pop`] would return,
    /// without removing it.
    pub fn peek(&mut self) -> Option<(Time, u64)> {
        let ((at, seq), _) = self.next();
        ((at, seq) != NO_HEAD).then(|| (Time::from_nanos(at), seq))
    }

    /// The minimum pending key and the lane holding it (`None`: the
    /// scheduler, or nothing pending when the key is [`NO_HEAD`]). `&mut`
    /// because the wheel may need to advance to its next occupied slot to
    /// learn its minimum; advancing early is order-neutral (later pushes
    /// inside the drained span land in the `current` heap exactly as they
    /// would have on the pop itself).
    #[inline]
    fn next(&mut self) -> ((u64, u64), Option<usize>) {
        let mut best = match &mut self.sched {
            Sched::Wheel(w) => w.peek(),
            Sched::Heap(h) => h.peek(),
        }
        .map_or(NO_HEAD, |(at, seq)| (at.as_nanos(), seq));
        let mut from = None;
        for (lane, &head) in self.heads.iter().enumerate() {
            if head < best {
                best = head;
                from = Some(lane);
            }
        }
        (best, from)
    }

    /// Number of pending events, lanes included.
    pub fn len(&self) -> usize {
        self.sched_len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Number of events pending in the scheduler proper (lanes excluded).
    pub fn sched_len(&self) -> usize {
        match &self.sched {
            Sched::Wheel(w) => w.len(),
            Sched::Heap(h) => h.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries popped from a lane (rather than the scheduler) so far.
    pub fn lane_pops(&self) -> u64 {
        self.lane_pops
    }
}

/// "No node": the end of a slot's list or of the free list.
const NIL: u32 = u32::MAX;
/// Index in `TimingWheel::heads` of the overflow list (after every slot).
const OVERFLOW: usize = LEVELS * SLOTS;

/// One arena node: an entry waiting in a slot (or the overflow list), or a
/// free node (`item` is `None`) waiting for reuse.
#[derive(Debug)]
struct Node<T> {
    at: u64,
    seq: u64,
    item: Option<T>,
    /// Next node of the same list, or [`NIL`].
    next: u32,
}

/// Hierarchical timing wheel (see the module docs for the layout and the
/// ordering argument). Pops entries in exact `(time, seq)` order.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Every entry waiting in a slot or in overflow, and every free node.
    nodes: Vec<Node<T>>,
    /// Head of the free list through `nodes`.
    free: u32,
    /// `heads[level * SLOTS + slot]` — first node of that slot's unsorted
    /// list; `heads[OVERFLOW]` — of the entries beyond the top level's span.
    heads: Box<[u32]>,
    /// Occupancy bitmaps, one `[u64; WORDS]` per level.
    occ: [[u64; WORDS]; LEVELS],
    /// Min-heap on `(at, seq)` holding the slot currently being drained
    /// plus any events pushed inside its span.
    current: Vec<Entry<T>>,
    /// Exclusive end of the drained region: every pending event with
    /// `at < cur_end` is in `current`; everything in the wheel slots or the
    /// overflow list is at `>= cur_end`. Monotone non-decreasing.
    cur_end: u64,
    /// Earliest time in the overflow list (`u64::MAX` when it is empty):
    /// what tells `advance` that an overflow entry is due before a slot.
    overflow_min: u64,
    len: usize,
}

impl<T> TimingWheel<T> {
    /// Creates a wheel with arena room for `capacity` waiting entries (the
    /// worst case at set-up: a population's `FlowStart` burst at t=0).
    pub fn with_capacity(capacity: usize) -> Self {
        TimingWheel {
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            heads: vec![NIL; LEVELS * SLOTS + 1].into(),
            occ: [[0u64; WORDS]; LEVELS],
            current: Vec::new(),
            cur_end: 0,
            overflow_min: u64::MAX,
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` at `(at, seq)`. O(1): one comparison against the
    /// drain span, then a free node linked at its slot's head after at most
    /// [`LEVELS`] window checks.
    pub fn push(&mut self, at: Time, seq: u64, item: T) {
        self.len += 1;
        let at = at.as_nanos();
        if at < self.cur_end {
            return heap_push(&mut self.current, Entry { at, seq, item });
        }
        let node = Node {
            at,
            seq,
            item: Some(item),
            next: NIL,
        };
        let idx = match self.free {
            NIL => {
                let idx = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&idx| idx != NIL)
                    .expect("fewer than 2^32 - 1 events wait in the wheel at once");
                self.nodes.push(node);
                idx
            }
            idx => {
                self.free = std::mem::replace(&mut self.nodes[idx as usize], node).next;
                idx
            }
        };
        self.place(idx);
    }

    /// Pops the earliest `(at, seq)` entry.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        let e = heap_pop(&mut self.current).expect("advance() filled current");
        self.len -= 1;
        Some((Time::from_nanos(e.at), e.seq, e.item))
    }

    /// The `(at, seq)` key the next [`TimingWheel::pop`] will return, without
    /// removing the entry. May advance the wheel to the next occupied slot
    /// (filling `current`), which is exactly the state `pop` would have
    /// produced anyway.
    pub fn peek(&mut self) -> Option<(Time, u64)> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        let e = &self.current[0];
        Some((Time::from_nanos(e.at), e.seq))
    }

    /// Links node `idx` (whose `at >= cur_end`) at the head of the list its
    /// time belongs to: the slot of the first level whose active window
    /// covers it, else overflow.
    fn place(&mut self, idx: u32) {
        let at = self.nodes[idx as usize].at;
        debug_assert!(at >= self.cur_end);
        let mut head = OVERFLOW;
        for level in 0..LEVELS {
            let shift = GRANULARITY_BITS + SLOT_BITS * level as u32;
            // Window: absolute slot indices [cur_end >> shift, + SLOTS).
            if (at >> shift) - (self.cur_end >> shift) < SLOTS as u64 {
                let slot = (at >> shift) as usize & (SLOTS - 1);
                self.occ[level][slot >> 6] |= 1 << (slot & 63);
                head = level * SLOTS + slot;
                break;
            }
        }
        if head == OVERFLOW {
            self.overflow_min = self.overflow_min.min(at);
        }
        self.nodes[idx as usize].next = std::mem::replace(&mut self.heads[head], idx);
    }

    /// Detaches the list at `heads[head]` and re-places each of its nodes
    /// (a cascade, or the overflow list's redistribution): nodes are
    /// relinked where they sit, nothing is copied.
    fn relink(&mut self, head: usize) {
        let mut idx = std::mem::replace(&mut self.heads[head], NIL);
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            self.place(idx);
            idx = next;
        }
    }

    /// Files every overflow entry a level's window now covers; the rest
    /// re-overflow.
    fn refile_overflow(&mut self) {
        self.overflow_min = u64::MAX;
        self.relink(OVERFLOW);
    }

    /// First occupied slot of `level` at absolute index `>= from` within
    /// the level's `SLOTS`-wide window, as an absolute index.
    fn next_occupied(&self, level: usize, from: u64) -> Option<u64> {
        let occ = &self.occ[level];
        let base = from as usize & (SLOTS - 1);
        let mut scanned = 0usize; // logical positions examined so far
        while scanned < SLOTS {
            let bit = (base + scanned) & (SLOTS - 1);
            let hits = occ[bit >> 6] & (!0u64 << (bit & 63));
            if hits != 0 {
                let slot = (bit & !63) + hits.trailing_zeros() as usize;
                let off = scanned + (slot - bit);
                if off < SLOTS {
                    return Some(from + off as u64);
                }
                // The set bit maps past the window's wrap point — i.e. to a
                // logical position scanned at the start; unreachable for
                // in-window slots, kept as a defensive guard.
            }
            scanned += 64 - (bit & 63);
        }
        None
    }

    /// Advances the wheel until `current` holds the next slot's entries.
    /// Returns false when the wheel is empty.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        loop {
            if self.len == 0 {
                return false;
            }
            // Earliest-starting occupied slot across levels; on equal
            // starts the *higher* level wins so its contents cascade down
            // before the lower slot of the same start drains.
            let mut best: Option<(usize, u64, u64)> = None; // (level, abs, start)
            for level in (0..LEVELS).rev() {
                let shift = GRANULARITY_BITS + SLOT_BITS * level as u32;
                if let Some(abs) = self.next_occupied(level, self.cur_end >> shift) {
                    let start = abs << shift;
                    if best.is_none_or(|(_, _, s)| start < s) {
                        best = Some((level, abs, start));
                    }
                }
            }
            let Some((level, abs, start)) = best else {
                // Levels exhausted; jump to the overflow region and file
                // its entries (those still beyond the top span re-overflow
                // and are reached on a later jump).
                debug_assert!(self.heads[OVERFLOW] != NIL);
                self.cur_end = self.cur_end.max(self.overflow_min);
                self.refile_overflow();
                continue;
            };
            let shift = GRANULARITY_BITS + SLOT_BITS * level as u32;
            if self.overflow_min < start.saturating_add(1 << shift) {
                // An overflow entry is due before this slot's span ends, so
                // the wheel has advanced far enough for a level to cover it
                // (entries pushed since then, for later times, were filed
                // in slots): it goes first.
                self.refile_overflow();
                continue;
            }
            let slot = abs as usize & (SLOTS - 1);
            self.occ[level][slot >> 6] &= !(1 << (slot & 63));
            if level > 0 {
                // Cascade: redistribute the slot one or more levels down
                // (never backward: `cur_end` stays monotone).
                self.cur_end = self.cur_end.max(start);
                self.relink(level * SLOTS + slot);
                continue;
            }
            // Drain this slot: move its entries into the (empty) current
            // heap and hand their nodes to the free list.
            let mut idx = std::mem::replace(&mut self.heads[slot], NIL);
            while idx != NIL {
                let node = &mut self.nodes[idx as usize];
                let item = node.item.take().expect("a linked node holds an item");
                self.current.push(Entry {
                    at: node.at,
                    seq: node.seq,
                    item,
                });
                let next = std::mem::replace(&mut node.next, self.free);
                self.free = idx;
                idx = next;
            }
            heapify(&mut self.current);
            self.cur_end = start.saturating_add(GRANULARITY_NS);
            debug_assert!(!self.current.is_empty());
            return true;
        }
    }
}

/// Binary-heap scheduler: the engine's original implementation, kept as
/// the executable ordering reference. Pops entries in `(time, seq)` order.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: Vec<Entry<T>>,
}

impl<T> HeapQueue<T> {
    /// Creates a heap with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapQueue {
            heap: Vec::with_capacity(capacity),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `item` at `(at, seq)`.
    pub fn push(&mut self, at: Time, seq: u64, item: T) {
        heap_push(
            &mut self.heap,
            Entry {
                at: at.as_nanos(),
                seq,
                item,
            },
        );
    }

    /// Pops the earliest `(at, seq)` entry.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        let e = heap_pop(&mut self.heap)?;
        Some((Time::from_nanos(e.at), e.seq, e.item))
    }

    /// The `(at, seq)` key the next [`HeapQueue::pop`] will return, without
    /// removing the entry (`&mut` only to match the wheel's signature).
    pub fn peek(&mut self) -> Option<(Time, u64)> {
        self.heap.first().map(|e| (Time::from_nanos(e.at), e.seq))
    }
}

// ---- shared array-backed min-heap on (at, seq) ----

#[inline]
fn before<T>(a: &Entry<T>, b: &Entry<T>) -> bool {
    (a.at, a.seq) < (b.at, b.seq)
}

fn heap_push<T>(heap: &mut Vec<Entry<T>>, e: Entry<T>) {
    heap.push(e);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if before(&heap[i], &heap[parent]) {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn heap_pop<T>(heap: &mut Vec<Entry<T>>) -> Option<Entry<T>> {
    if heap.is_empty() {
        return None;
    }
    let last = heap.len() - 1;
    heap.swap(0, last);
    let e = heap.pop();
    sift_down(heap, 0);
    e
}

fn sift_down<T>(heap: &mut [Entry<T>], mut i: usize) {
    let n = heap.len();
    loop {
        let l = 2 * i + 1;
        let r = l + 1;
        let mut m = i;
        if l < n && before(&heap[l], &heap[m]) {
            m = l;
        }
        if r < n && before(&heap[r], &heap[m]) {
            m = r;
        }
        if m == i {
            return;
        }
        heap.swap(i, m);
        i = m;
    }
}

/// Floyd heap construction: O(n) from an unsorted slot.
fn heapify<T>(heap: &mut [Entry<T>]) {
    for i in (0..heap.len() / 2).rev() {
        sift_down(heap, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut TimingWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, v)) = q.pop() {
            out.push((t.as_nanos(), s, v));
        }
        out
    }

    /// A waiting entry of the engine's size — 40 bytes with a niche for the
    /// free node's `None` (`engine::tests` holds `Event` to that) — is one
    /// 64-byte arena node.
    #[test]
    fn a_40_byte_item_with_a_niche_makes_a_64_byte_node() {
        type Item = (std::num::NonZeroU64, [u64; 4]);
        assert_eq!(std::mem::size_of::<Option<Item>>(), 40);
        assert_eq!(std::mem::size_of::<Node<Item>>(), 64);
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::with_capacity(4);
        w.push(Time::from_nanos(500), 3, 0);
        w.push(Time::from_nanos(100), 1, 1);
        w.push(Time::from_nanos(100), 2, 2); // same-instant tie: seq order
        w.push(Time::from_nanos(100), 0, 3);
        let got = drain_all(&mut w);
        assert_eq!(
            got,
            vec![(100, 0, 3), (100, 1, 1), (100, 2, 2), (500, 3, 0)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_and_overflow_entries_pop_in_order() {
        let mut w = TimingWheel::with_capacity(4);
        // One entry per level span plus one past the top of the wheel and
        // one near the end of representable time.
        let times = [
            1u64,
            GRANULARITY_NS * SLOTS as u64 + 1,          // level 1
            GRANULARITY_NS * (SLOTS as u64).pow(2) + 1, // level 2
            GRANULARITY_NS * (SLOTS as u64).pow(3) + 1, // level 3
            GRANULARITY_NS * (SLOTS as u64).pow(4) + 1, // overflow
            u64::MAX - 7,                               // deep overflow
        ];
        for (i, &t) in times.iter().enumerate() {
            w.push(Time::from_nanos(t), i as u64, i as u32);
        }
        let got = drain_all(&mut w);
        let order: Vec<u32> = got.iter().map(|&(_, _, v)| v).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(got[5].0, u64::MAX - 7);
    }

    #[test]
    fn an_overflow_entry_pops_before_a_later_one_filed_in_a_level() {
        const HOUR: u64 = 3_600_000_000_000;
        let mut w = TimingWheel::with_capacity(4);
        // 26 h is past the top level's 19.5 h span: overflow.
        w.push(Time::from_nanos(26 * HOUR), 1, 1);
        w.push(Time::from_nanos(8 * HOUR), 2, 2);
        assert_eq!(w.pop().map(|e| e.2), Some(2));
        // From 8 h on, level 3 reaches 27 h: this one is filed in a slot
        // while the earlier entry still sits in overflow.
        w.push(Time::from_nanos(27 * HOUR), 3, 3);
        let order: Vec<u32> = drain_all(&mut w).iter().map(|e| e.2).collect();
        assert_eq!(order, vec![1, 3]);
    }

    #[test]
    fn pushes_at_current_instant_interleave_correctly() {
        // Events pushed "now" while draining a slot must honor the seq
        // tiebreak against entries already in the slot.
        let mut w = TimingWheel::with_capacity(4);
        w.push(Time::from_nanos(1000), 1, 10);
        w.push(Time::from_nanos(1000), 2, 20);
        let (t, s, v) = w.pop().unwrap();
        assert_eq!((t.as_nanos(), s, v), (1000, 1, 10));
        // Dispatch of (1000, 1) schedules follow-ups at the same instant
        // and shortly after.
        w.push(Time::from_nanos(1000), 3, 30);
        w.push(Time::from_nanos(1001), 4, 40);
        let rest = drain_all(&mut w);
        assert_eq!(rest, vec![(1000, 2, 20), (1000, 3, 30), (1001, 4, 40)]);
    }

    #[test]
    fn no_silent_cap_beyond_initial_capacity() {
        // The capacity hint is a reservation, not a limit: push far more
        // events than the initial capacity and verify nothing is dropped.
        let cap = 8;
        let mut w = TimingWheel::with_capacity(cap);
        let n = 10_000u64;
        for seq in 0..n {
            // Deterministic scatter across several level spans.
            let t = (seq * 2_654_435_761) % (GRANULARITY_NS * (SLOTS as u64).pow(2) * 3);
            w.push(Time::from_nanos(t), seq, seq as u32);
        }
        assert_eq!(w.len(), n as usize);
        let got = drain_all(&mut w);
        assert_eq!(got.len(), n as usize, "scheduler silently dropped events");
        assert!(got.windows(2).all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)));
    }

    #[test]
    fn peek_matches_pop_and_is_non_destructive() {
        for kind in [Scheduler::Wheel, Scheduler::Heap] {
            let mut q: EventQueue<u32> = EventQueue::new(kind, 4);
            assert_eq!(q.peek(), None);
            q.push(Time::from_nanos(500), 2, 20);
            q.push(Time::from_nanos(100), 1, 10);
            // Peek reports the minimum without consuming it; a push of a new
            // minimum after a peek is still observed.
            assert_eq!(q.peek(), Some((Time::from_nanos(100), 1)));
            assert_eq!(q.peek(), Some((Time::from_nanos(100), 1)));
            q.push(Time::from_nanos(50), 3, 30);
            assert_eq!(q.peek(), Some((Time::from_nanos(50), 3)));
            assert_eq!(q.pop(), Some((Time::from_nanos(50), 3, 30)));
            assert_eq!(q.pop(), Some((Time::from_nanos(100), 1, 10)));
            assert_eq!(q.peek(), Some((Time::from_nanos(500), 2)));
            assert_eq!(q.pop(), Some((Time::from_nanos(500), 2, 20)));
            assert_eq!(q.peek(), None);
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn heap_queue_matches_wheel_on_scattered_times() {
        let mut w = TimingWheel::with_capacity(16);
        let mut h = HeapQueue::with_capacity(16);
        let mut state = 0x9E37_79B9_u64;
        for seq in 0..5_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = state % 3_000_000_000; // within ~3 s
            w.push(Time::from_nanos(t), seq, seq as u32);
            h.push(Time::from_nanos(t), seq, seq as u32);
        }
        loop {
            let a = w.pop();
            let b = h.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
