//! Per-flow and per-run measurement collection.
//!
//! Every experiment table in the paper reduces to a handful of per-flow
//! quantities: mean throughput over a measurement window, RTT percentiles,
//! loss counts, flow completion times, and link utilization. The engine
//! feeds raw events into [`FlowMetrics`]; the harness reads the aggregate
//! accessors.

use std::collections::VecDeque;

use proteus_stats::{nearest_rank_index, percentile};
use proteus_transport::{Dur, FlowId, FrameRecord, Time};

use crate::fault::FaultStats;

/// Latency-SLO accounting for one frame-paced media flow.
///
/// The engine forwards [`FrameRecord`]s drained from a media application;
/// a frame *completes* at the first ACK whose cumulative acknowledged byte
/// count reaches the frame's `end_bytes` (spurious ACKs of packets already
/// declared lost never increment that counter, so the rule is exact even
/// for reliable flows that retransmit). A completed frame whose delay
/// exceeds its playout deadline counts as a *freeze*, contributing
/// `delay - deadline` seconds to [`MediaMetrics::time_in_freeze`].
///
/// Frames still pending when the run ends are excluded from the delay
/// percentiles and reported via [`MediaMetrics::frames_pending`].
#[derive(Debug, Clone, Default)]
pub struct MediaMetrics {
    /// Frames generated but not yet fully acknowledged, in encode order.
    pending: VecDeque<FrameRecord>,
    frames_generated: u64,
    frames_completed: u64,
    freeze_count: u64,
    time_in_freeze: f64,
    /// Completion delay of each completed frame, seconds, in encode order.
    delays: Vec<f64>,
}

impl MediaMetrics {
    /// Frames the source has encoded so far.
    pub fn frames_generated(&self) -> u64 {
        self.frames_generated
    }

    /// Frames fully acknowledged.
    pub fn frames_completed(&self) -> u64 {
        self.frames_completed
    }

    /// Frames generated but not yet fully acknowledged.
    pub fn frames_pending(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Completed frames that missed their playout deadline.
    pub fn freeze_count(&self) -> u64 {
        self.freeze_count
    }

    /// Total seconds completed frames spent beyond their deadlines.
    pub fn time_in_freeze(&self) -> f64 {
        self.time_in_freeze
    }

    /// Per-frame completion delays in seconds, encode order.
    pub fn frame_delays(&self) -> &[f64] {
        &self.delays
    }

    /// The `p`-th percentile frame completion delay in seconds, if any
    /// frame completed.
    pub fn frame_delay_percentile(&self, p: f64) -> Option<f64> {
        percentile(&self.delays, p)
    }
}

/// One flow's `(ACK time, RTT)` samples: exact, in nanoseconds, in runs — a
/// sample that repeats the previous one's send gap and RTT writes no byte.
///
/// Two byte columns of tokens. The gap column holds the change in the
/// *send-time* gap since the previous sample (the send time is `ACK time −
/// RTT`, the packet's exact send instant; a PCC sender holds one rate for a
/// monitor interval, so its send gap repeats where its ACK gap does not),
/// the RTT column the change in RTT. A change that is not zero is one zigzag
/// LEB128 value (one byte under 64 ns, two under 8 µs, three under 1 ms); a
/// run of zero changes is one token, the byte 0 and the run's length, 1 to
/// [`RUN_MAX`], in the byte after. A minimal LEB128 value other than 0 never
/// ends in the byte 0, and no length is 0, so a block whose last but one
/// byte is 0 ends in an open run, and the next zero change lengthens it in
/// place: the runs need no field of their own.
/// Deltas wrap in `u64`, a bijection, so every value decodes exactly at any
/// size — an outage or a 78 h RTT is a few more bytes, not a second layout.
///
/// Each column is a list of blocks of at most [`BLOCK`] bytes, and no token
/// straddles two. The open block grows as a `Vec` does, up to `BLOCK`; a
/// token that does not fit seals it and opens the next at `BLOCK`, and a
/// sealed block is never moved or resized again: a doubling buffer of
/// megabytes is copied by every `realloc`, old and new both live while it
/// moves, and past glibc's adaptive mmap threshold it is mapped afresh each
/// time. The open blocks sit in the store, the sealed ones behind one box
/// that stays `None` until a column fills its first block, so a store that
/// never does allocates what one doubling `Vec` a column would.
///
/// The RTT column's blocks after its first are *coded*: a paced flow's RTT
/// steps by a few distinct amounts, so a change that equals one of the
/// block's four most recent distinct non-zero changes ([`Recent`], a
/// move-to-front table emptied at each block edge) is the one byte
/// [`REPEAT`]` + i`, `i` its place in the table. Those four bytes were the
/// one-byte values of 62, −63, 63 and −64 ns, which there take two bytes: a
/// zigzag value `z` from `REPEAT` on is written as `z + 4`. Tables of one,
/// two, four, eight and sixteen entries hold the RTT columns of
/// `clean_dumbbell`'s largest cell in 2.43, 1.92, 1.52, 1.47 and 1.45 MB
/// (2.84 MB without): four take most of what a table can. The encoder's
/// table sits in the box beside the sealed blocks, so a record still in its
/// first block has none and keeps its plain bytes. On the benchmark's clean
/// cells the columns hold 0.75 bytes a sample, 1.14 on its faulted and
/// multi-hop ones (1.31 and 1.83 uncoded).
///
/// Every reader decodes a column from its first token, so a coded block is
/// only ever decoded from its own start, and nothing indexes into the
/// columns: a percentile above [`SELECT_ON_A_COPY`] samples counts in whole
/// passes over the RTT column ([`RttStore::count_select`]), in 256 KiB of
/// scratch.
///
/// The first sample's send time is kept apart in `first_sent`, the newest
/// send time, gap and RTT are the bases of the next deltas, and `min`/`max`
/// bound the RTTs for selection.
#[derive(Debug, Clone, Default)]
struct RttStore {
    /// Each column's open block, [`GAPS`] then [`RTTS`].
    open: [Vec<u8>; 2],
    sealed: Option<Box<Sealed>>,
    first_sent: u64,
    last_sent: u64,
    last_gap: u64,
    last_rtt: u64,
    len: usize,
    min: u64,
    max: u64,
}

/// What a store holds once either column fills its first block.
#[derive(Debug, Clone, Default)]
struct Sealed {
    /// Each column's sealed blocks, in order.
    blocks: [Vec<Vec<u8>>; 2],
    /// The table of the RTT column's open block, once that is coded.
    recent: Recent,
}

/// A coded block's four most recent distinct non-zero changes, most recent
/// first; 0 is an empty entry.
#[derive(Debug, Clone, Copy, Default)]
struct Recent([u64; 4]);

impl Recent {
    /// The entry that holds `delta`, a change that is not zero.
    #[inline]
    fn find(&self, delta: u64) -> Option<usize> {
        self.0.iter().position(|&d| d == delta)
    }

    /// Moves entry `i`, which holds `delta`, to the front; for `i` = 3 or
    /// a `delta` not in the table, puts it in front of the others and drops
    /// the last.
    #[inline]
    fn promote(&mut self, i: usize, delta: u64) {
        // Selects, not a `match` on `i`: a repeat's place is data, and a
        // branch on it is mispredicted.
        let [a, b, c, d] = self.0;
        let pick = |from: usize, x: u64, y: u64| if i >= from { x } else { y };
        self.0 = [delta, pick(1, a, b), pick(2, b, c), pick(3, c, d)];
    }
}

/// The table of column `c`'s open block, if that is coded: the RTT
/// column's once it has sealed its first block.
#[inline(always)]
fn table(sealed: &mut Option<Box<Sealed>>, c: usize) -> Option<&mut Recent> {
    let s = sealed.as_deref_mut()?;
    (c == RTTS && !s.blocks[RTTS].is_empty()).then_some(&mut s.recent)
}

/// The first of a coded block's four repeat codes, one-byte values: byte
/// `REPEAT + i` repeats entry `i` of the block's [`Recent`] table.
const REPEAT: u8 = 0x7c;

/// Where a plain block's repeat codes would start: past every one-byte
/// value, so it has none.
const NO_REPEAT: u8 = 0x80;

/// The gap column's index in [`RttStore`]'s block lists.
const GAPS: usize = 0;
/// The RTT column's.
const RTTS: usize = 1;

/// Bytes of one column block: a power of two below glibc's default 128 KiB
/// mmap threshold, so that a block is an ordinary heap chunk.
const BLOCK: usize = 32 << 10;

/// Samples up to which a percentile selects on a decoded copy of the RTT
/// column (8 B a sample, 512 KiB at most); above it, by counting.
const SELECT_ON_A_COPY: usize = 1 << 16;

/// Bits of `rtt − lo` one counting pass resolves: a 256 KiB table of `u32`
/// counts.
const DIGIT_BITS: u32 = 16;

/// The most zero changes one run token counts; a longer run takes more.
const RUN_MAX: u8 = u8::MAX;

/// The longest token: a zigzag LEB128 `u64`.
const MAX_TOKEN: usize = 10;

/// A column's blocks, read-only: the sealed ones, then the open one.
#[derive(Clone, Copy)]
struct Column<'a> {
    sealed: &'a [Vec<u8>],
    open: &'a [u8],
    /// Whether its blocks after the first are coded (the RTT column's).
    coded: bool,
}

impl<'a> Column<'a> {
    /// Block `i`: the open one for `i` = the count of sealed blocks.
    fn block(self, i: usize) -> &'a [u8] {
        self.sealed.get(i).map_or(self.open, Vec::as_slice)
    }

    /// Where block `i`'s repeat codes start: [`REPEAT`] if it is coded,
    /// else [`NO_REPEAT`].
    fn codes(self, i: usize) -> u8 {
        if self.coded && i > 0 {
            REPEAT
        } else {
            NO_REPEAT
        }
    }

    /// The first block from `i` on that holds a byte, and its index. Out of
    /// line, and on a copy of the column rather than on the reader, so that
    /// `Runs::next` stays small enough to inline into the loops that read.
    #[cold]
    #[inline(never)]
    fn nonempty_from(self, i: usize) -> Option<(usize, &'a [u8])> {
        (i..=self.sealed.len())
            .map(|i| (i, self.block(i)))
            .find(|(_, b)| !b.is_empty())
    }

    fn blocks(self) -> impl Iterator<Item = &'a [u8]> {
        self.sealed.iter().map(Vec::as_slice).chain([self.open])
    }

    /// Bytes of tokens.
    fn len(self) -> usize {
        self.blocks().map(<[u8]>::len).sum()
    }
}

/// `delta` as a signed change, zigzagged: small changes either way are
/// small numbers.
#[inline]
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

/// Appends the value token of `delta`, a change that is not zero, to `col`,
/// a block whose repeat codes start at `codes`: a zigzag value `z` below
/// `codes` is one byte, one from it on is `z + (0x80 − codes)` in LEB128 —
/// two bytes or more, 65 bits for the last four `z` of a coded block, still
/// within [`MAX_TOKEN`].
#[inline(always)]
fn put_value(col: &mut Vec<u8>, delta: u64, codes: u8) {
    let z = zigzag(delta);
    if z < u64::from(codes) {
        col.push(z as u8);
        return;
    }
    let (z, carry) = z.overflowing_add(u64::from(NO_REPEAT - codes));
    col.push(z as u8 | 0x80);
    let mut z = z >> 7 | u64::from(carry) << 57;
    while z >= 0x80 {
        col.push(z as u8 | 0x80);
        z >>= 7;
    }
    col.push(z as u8);
}

/// The bytes [`put_value`] writes.
fn value_len(delta: u64, codes: u8) -> usize {
    let z = zigzag(delta);
    if z < u64::from(codes) {
        return 1;
    }
    match z.overflowing_add(u64::from(NO_REPEAT - codes)) {
        (_, true) => MAX_TOKEN,
        (z, false) => (u64::BITS - z.leading_zeros()).div_ceil(7) as usize,
    }
}

/// The tokens of a column, one block slice at a time: each the running sum
/// it leaves and how many samples hold that sum (1 for a value or a repeat,
/// the length for a run).
struct Runs<'a> {
    col: Column<'a>,
    /// The block after the one `bytes` reads.
    next: usize,
    bytes: std::slice::Iter<'a, u8>,
    value: u64,
    /// The block's table, as the encoder had it before the next token.
    recent: Recent,
    /// Where the block's repeat codes start.
    codes: u8,
}

impl<'a> Runs<'a> {
    /// From the column's first token.
    fn new(col: Column<'a>) -> Self {
        Self {
            col,
            next: 1,
            bytes: col.block(0).iter(),
            value: 0,
            recent: Recent::default(),
            codes: col.codes(0),
        }
    }
}

impl Iterator for Runs<'_> {
    type Item = (u64, u32);

    #[inline]
    fn next(&mut self) -> Option<(u64, u32)> {
        let b = match self.bytes.next() {
            Some(&b) => b,
            None => {
                let (i, block) = self.col.nonempty_from(self.next)?;
                (self.next, self.bytes) = (i + 1, block[1..].iter());
                (self.recent, self.codes) = (Recent::default(), self.col.codes(i));
                block[0]
            }
        };
        // A token ends in the block it starts in.
        if b == 0 {
            let &run = self.bytes.next()?;
            return Some((self.value, u32::from(run)));
        }
        let delta = if b < self.codes {
            let z = u64::from(b);
            (z >> 1) ^ (z & 1).wrapping_neg()
        } else if b < 0x80 {
            let i = usize::from(b & 3);
            let delta = self.recent.0[i];
            self.recent.promote(i, delta);
            self.value = self.value.wrapping_add(delta);
            return Some((self.value, 1));
        } else {
            let mut z = u64::from(b & 0x7f);
            let mut shift = 7;
            loop {
                let &b = self.bytes.next()?;
                z |= u64::from(b & 0x7f) << shift;
                if b < 0x80 {
                    break;
                }
                shift += 7;
            }
            // The 65th bit of a coded value falls off: the sum wraps.
            let z = z.wrapping_sub(u64::from(NO_REPEAT - self.codes));
            (z >> 1) ^ (z & 1).wrapping_neg()
        };
        self.recent.promote(3, delta);
        self.value = self.value.wrapping_add(delta);
        Some((self.value, 1))
    }
}

/// The running sums of a column, one a sample: its runs, expanded (by hand:
/// a `flat_map` over [`Runs`] was not inlined, and read 10 % slower).
fn samples(col: Column<'_>) -> impl Iterator<Item = u64> + '_ {
    let mut runs = Runs::new(col);
    let (mut value, mut left) = (0, 0);
    std::iter::from_fn(move || {
        if left == 0 {
            (value, left) = runs.next()?;
        }
        left -= 1;
        Some(value)
    })
}

/// The digit whose bucket holds rank `k` of the counted values; `k` becomes
/// the rank within that bucket.
fn digit_of_rank(counts: &[u32], k: &mut usize) -> usize {
    let mut digit = 0;
    while *k >= counts[digit] as usize {
        *k -= counts[digit] as usize;
        digit += 1;
    }
    digit
}

impl RttStore {
    #[inline]
    fn push(&mut self, at: Time, rtt: Dur) {
        let rtt_ns = rtt.as_nanos();
        let sent = at.as_nanos().wrapping_sub(rtt_ns);
        if self.len == 0 {
            (self.first_sent, self.last_sent) = (sent, sent);
            (self.min, self.max) = (rtt_ns, rtt_ns);
        }
        let gap = sent.wrapping_sub(self.last_sent);
        self.put(GAPS, gap.wrapping_sub(self.last_gap));
        self.put(RTTS, rtt_ns.wrapping_sub(self.last_rtt));
        (self.last_sent, self.last_gap, self.last_rtt) = (sent, gap, rtt_ns);
        self.len += 1;
        self.min = self.min.min(rtt_ns);
        self.max = self.max.max(rtt_ns);
    }

    /// Appends `delta` (wrapping) to column `c`: a zero lengthens the open
    /// run or opens one; anything else is a repeat code if the open block
    /// is coded and its table holds it, else one value.
    // Out of line, with `c` a variable, it took half as much time again
    // (3.2 % of `clean_dumbbell`'s profile samples against 2.2 %).
    #[inline(always)]
    fn put(&mut self, c: usize, delta: u64) {
        let col = &mut self.open[c];
        if delta == 0 {
            if let [.., 0, run] = col.as_mut_slice() {
                if *run < RUN_MAX {
                    *run += 1;
                    return;
                }
            }
        }
        if col.capacity() - col.len() < MAX_TOKEN {
            self.make_room(c, delta);
        }
        let col = &mut self.open[c];
        if delta == 0 {
            col.extend_from_slice(&[0, 1]);
            return;
        }
        let mut codes = NO_REPEAT;
        if let Some(recent) = table(&mut self.sealed, c) {
            let hit = recent.find(delta);
            recent.promote(hit.unwrap_or(3), delta);
            if let Some(i) = hit {
                col.push(REPEAT + i as u8);
                return;
            }
            codes = REPEAT;
        }
        put_value(col, delta, codes);
    }

    /// Makes room in column `c` for the token of `delta`, a new run if it
    /// is 0: grows the open block as a `Vec` grows (double, at least 8
    /// bytes) but to [`BLOCK`] at most, or, if the token would not fit even
    /// then, seals it and opens the next one at `BLOCK`, with an empty
    /// table.
    #[cold]
    #[inline(never)]
    fn make_room(&mut self, c: usize, delta: u64) {
        let n = match table(&mut self.sealed, c) {
            _ if delta == 0 => 2,
            Some(recent) if recent.find(delta).is_some() => 1,
            Some(_) => value_len(delta, REPEAT),
            None => value_len(delta, NO_REPEAT),
        };
        let open = &mut self.open[c];
        let need = open.len() + n;
        if need <= open.capacity() {
            return;
        }
        if need <= BLOCK {
            let cap = (open.capacity() * 2).max(need).clamp(8, BLOCK);
            open.reserve_exact(cap - open.len());
        } else {
            let full = std::mem::replace(open, Vec::with_capacity(BLOCK));
            let sealed = self.sealed.get_or_insert_default();
            sealed.blocks[c].push(full);
            if c == RTTS {
                sealed.recent = Recent::default();
            }
        }
    }

    /// Column `c`'s blocks.
    fn column(&self, c: usize) -> Column<'_> {
        Column {
            sealed: self.sealed.as_ref().map_or(&[], |s| &s.blocks[c]),
            open: &self.open[c],
            coded: c == RTTS,
        }
    }

    /// RTTs in nanoseconds, in sample order.
    fn rtts(&self) -> impl Iterator<Item = u64> + '_ {
        samples(self.column(RTTS))
    }

    /// Runs of equal RTTs in nanoseconds, in sample order: `(RTT, samples)`.
    fn rtt_runs(&self) -> Runs<'_> {
        Runs::new(self.column(RTTS))
    }

    /// `(ACK time, RTT)` in sample order: the ACK time is the send time
    /// plus the RTT.
    fn iter(&self) -> impl Iterator<Item = (Time, Dur)> + '_ {
        let mut sent = self.first_sent;
        samples(self.column(GAPS))
            .zip(self.rtts())
            .map(move |(gap, rtt)| {
                sent = sent.wrapping_add(gap);
                (
                    Time::from_nanos(sent.wrapping_add(rtt)),
                    Dur::from_nanos(rtt),
                )
            })
    }

    /// The nearest-rank `p`-th percentile RTT: an exact order statistic.
    /// Up to [`SELECT_ON_A_COPY`] samples it selects on a decoded copy;
    /// above that it counts, in whole passes over the column and 256 KiB of
    /// scratch (the counts).
    fn rtt_percentile(&self, p: f64) -> Option<Dur> {
        let k = nearest_rank_index(self.len, p)?;
        let ns = if self.len <= SELECT_ON_A_COPY {
            let mut v = Vec::with_capacity(self.len);
            for (rtt, n) in self.rtt_runs() {
                v.extend(std::iter::repeat_n(rtt, n as usize));
            }
            *v.select_nth_unstable(k).1
        } else {
            self.count_select(k)
        };
        Some(Dur::from_nanos(ns))
    }

    /// The `k`-th smallest RTT (from 0) by counting, in whole passes over
    /// the RTT column: each zeroes the counts, reads the column from its
    /// first token, histograms the top [`DIGIT_BITS`] of `rtt − lo` over the
    /// values still in the running (`lo..=lo + span`), a run at once, and
    /// then keeps in the running only the one bucket that holds rank `k`.
    /// Two passes settle a span under 2^32 ns (4.29 s); one up to 2^48 ns
    /// takes a third. The counts are the only scratch, 256 KiB: an index
    /// that let later passes skip stretches of the column took 96 KiB more
    /// and a table rebuild to enter a coded block mid-way, for a traced
    /// `netsim.read_s` on `clean_dumbbell` of 0.091 s against 0.104 s without it.
    fn count_select(&self, mut k: usize) -> u64 {
        assert!(self.len <= u32::MAX as usize, "a flow of 2^32 RTT samples");
        const MASK: usize = (1 << DIGIT_BITS) - 1;
        let mut table = vec![0u32; 1 << DIGIT_BITS];
        let counts: &mut [u32; 1 << DIGIT_BITS] = (&mut table[..]).try_into().expect("sized");
        let (mut lo, mut span) = (self.min, self.max - self.min);
        loop {
            let shift = (u64::BITS - span.leading_zeros()).saturating_sub(DIGIT_BITS);
            counts.fill(0);
            for (rtt, n) in self.rtt_runs() {
                let off = rtt.wrapping_sub(lo);
                if off <= span {
                    counts[(off >> shift) as usize & MASK] += n;
                }
            }
            let base = (digit_of_rank(counts, &mut k) as u64) << shift;
            lo += base;
            if shift == 0 {
                return lo;
            }
            span = (span - base).min((1 << shift) - 1);
        }
    }
}

/// Measurements recorded for one flow over a simulation run.
#[derive(Debug, Clone)]
pub struct FlowMetrics {
    /// Flow id within the scenario.
    pub id: FlowId,
    /// Human-readable label, e.g. `"CUBIC"` or `"Proteus-S #2"`.
    pub name: String,
    /// When the flow actually started sending.
    pub started_at: Option<Time>,
    /// When the flow finished (sized flows) or was stopped.
    pub finished_at: Option<Time>,
    /// Total bytes handed to the network.
    pub bytes_sent: u64,
    /// Total bytes acknowledged.
    pub bytes_acked: u64,
    /// Packets sent / acked / declared lost.
    pub pkts_sent: u64,
    /// Packets acknowledged.
    pub pkts_acked: u64,
    /// Packets declared lost at the sender.
    pub pkts_lost: u64,
    /// Width of each throughput bin.
    pub bin: Dur,
    /// `(ACK time, RTT)` of every `rtt_stride`-th ACK.
    rtt: RttStore,
    /// Cumulative bytes acknowledged through each time bin since
    /// `Time::ZERO` (`acked_cum[i]` covers bins `0..=i`). Stored as a prefix
    /// sum so any `throughput_bps` window is two lookups instead of a scan.
    acked_cum: Vec<u64>,
    /// End of the newest bin in `acked_cum`, nanoseconds (0 before the
    /// first ACK): an ACK before it needs no division to find its bin.
    bin_end_ns: u64,
    /// Every `rtt_stride`-th ACK is sampled (a stride past `u32::MAX` is
    /// `u32::MAX`: 4.29 billion ACKs).
    rtt_stride: u32,
    /// ACKs left until the next RTT sample.
    rtt_countdown: u32,
    /// Frame-latency accounting; `None` for every non-media flow (boxed so
    /// the common case costs one pointer, keeping media-free scenarios'
    /// layout and results untouched).
    media: Option<Box<MediaMetrics>>,
}

impl FlowMetrics {
    /// Creates an empty metrics record.
    pub fn new(id: FlowId, name: String, bin: Dur, rtt_stride: usize) -> Self {
        let rtt_stride = u32::try_from(rtt_stride.max(1)).unwrap_or(u32::MAX);
        Self {
            id,
            name,
            started_at: None,
            finished_at: None,
            bytes_sent: 0,
            bytes_acked: 0,
            pkts_sent: 0,
            pkts_acked: 0,
            pkts_lost: 0,
            bin,
            rtt: RttStore::default(),
            acked_cum: Vec::new(),
            bin_end_ns: 0,
            rtt_stride,
            rtt_countdown: rtt_stride,
            media: None,
        }
    }

    /// Frame-latency metrics, present only on frame-paced media flows.
    pub fn media(&self) -> Option<&MediaMetrics> {
        self.media.as_deref()
    }

    /// Records newly encoded frames drained from a media application.
    pub(crate) fn media_ingest(&mut self, frames: &[FrameRecord]) {
        let m = self.media.get_or_insert_default();
        m.frames_generated += frames.len() as u64;
        m.pending.extend(frames.iter().copied());
    }

    /// Completes every pending frame covered by the cumulative acked byte
    /// count, stamping `now` (the ACK arrival instant) as completion time.
    pub(crate) fn media_progress(&mut self, now: Time) {
        let Some(m) = self.media.as_deref_mut() else {
            return;
        };
        while let Some(f) = m.pending.front() {
            if f.end_bytes > self.bytes_acked {
                break;
            }
            let f = m.pending.pop_front().expect("front exists");
            let delay = now.since(f.gen_at).as_secs_f64();
            m.frames_completed += 1;
            m.delays.push(delay);
            let budget = f.deadline.as_secs_f64();
            if delay > budget {
                m.freeze_count += 1;
                m.time_in_freeze += delay - budget;
            }
        }
    }

    pub(crate) fn on_sent(&mut self, bytes: u64) {
        self.bytes_sent += bytes;
        self.pkts_sent += 1;
    }

    /// Records an ACK of `bytes` at `now` that measured `rtt`. The engine
    /// calls it; it is public so a memory test can feed a trace directly.
    #[doc(hidden)]
    pub fn on_ack(&mut self, now: Time, bytes: u64, rtt: Dur) {
        self.bytes_acked += bytes;
        self.pkts_acked += 1;
        let now_ns = now.as_nanos();
        if now_ns >= self.bin_end_ns {
            self.open_bin(now_ns);
        }
        // ACK events arrive in time order, so this ACK lands in the last bin
        // and the prefix-sum stays consistent with a single update.
        *self.acked_cum.last_mut().expect("open_bin leaves a bin") += bytes;
        self.rtt_countdown -= 1;
        if self.rtt_countdown == 0 {
            self.rtt_countdown = self.rtt_stride;
            self.rtt.push(now, rtt);
        }
    }

    /// Extends the bins to the one holding `now_ns`: the only division, paid
    /// when an ACK crosses a bin edge rather than on every ACK.
    fn open_bin(&mut self, now_ns: u64) {
        let bin_ns = self.bin.as_nanos().max(1);
        let bin_idx = now_ns / bin_ns;
        // New bins — the ones skipped while the flow sat idle too — start
        // from the running total (prefix-sum invariant).
        let total = self.acked_cum.last().copied().unwrap_or(0);
        self.acked_cum.resize(bin_idx as usize + 1, total);
        self.bin_end_ns = (bin_idx + 1).saturating_mul(bin_ns);
    }

    pub(crate) fn on_loss(&mut self) {
        self.pkts_lost += 1;
    }

    /// Bytes acknowledged in bin `i`.
    fn bin_bytes(&self, i: usize) -> u64 {
        let lo = if i == 0 { 0 } else { self.acked_cum[i - 1] };
        self.acked_cum[i] - lo
    }

    /// Bytes acknowledged per time bin since `Time::ZERO`.
    pub fn acked_bins(&self) -> Vec<u64> {
        (0..self.acked_cum.len())
            .map(|i| self.bin_bytes(i))
            .collect()
    }

    /// Mean goodput in bits/sec over `[from, to)`, snapped inward to whole
    /// ACK bins (a partial bin would otherwise attribute bytes from outside
    /// the window and overestimate the rate). O(1) via the bin prefix sum.
    pub fn throughput_bps(&self, from: Time, to: Time) -> f64 {
        if to <= from {
            return 0.0;
        }
        let bin_ns = self.bin.as_nanos().max(1);
        let first = (from.as_nanos().div_ceil(bin_ns)) as usize;
        let last = (to.as_nanos() / bin_ns) as usize;
        if last <= first {
            return 0.0;
        }
        // Bytes in bins [first, min(last, len)) = cum[hi-1] - cum[first-1].
        let hi = last.min(self.acked_cum.len());
        let bytes = if hi <= first {
            0
        } else {
            let lo = if first == 0 {
                0
            } else {
                self.acked_cum[first - 1]
            };
            self.acked_cum[hi - 1] - lo
        };
        let duration_s = ((last - first) as u64 * bin_ns) as f64 / 1e9;
        bytes as f64 * 8.0 / duration_s
    }

    /// Mean goodput in Mbit/sec over `[from, to)`.
    pub fn throughput_mbps(&self, from: Time, to: Time) -> f64 {
        self.throughput_bps(from, to) / 1e6
    }

    /// `(ack_time_seconds, rtt_seconds)` of every sampled ACK (every one,
    /// or every `rtt_stride`-th), in ACK order.
    pub fn rtt_samples(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.rtt
            .iter()
            .map(|(t, rtt)| (t.as_secs_f64(), rtt.as_secs_f64()))
    }

    /// Bytes of tokens in the RTT record, both columns: what a memory test
    /// compares the record's heap with.
    #[doc(hidden)]
    pub fn rtt_record_bytes(&self) -> usize {
        self.rtt.column(GAPS).len() + self.rtt.column(RTTS).len()
    }

    /// RTT values (seconds), discarding timestamps.
    pub fn rtt_values(&self) -> Vec<f64> {
        self.rtt_secs().collect()
    }

    /// RTTs in seconds, in ACK order, read from the RTT column alone.
    fn rtt_secs(&self) -> impl Iterator<Item = f64> + '_ {
        self.rtt.rtts().map(|ns| Dur::from_nanos(ns).as_secs_f64())
    }

    /// The `p`-th percentile RTT in seconds (nearest rank), if samples
    /// exist: an O(n) selection over the integer samples — nanoseconds to
    /// seconds is monotone, so the value is the one a sort of the `f64`s
    /// would pick — with nothing cached between queries: a decoded copy of
    /// at most 512 KiB up to 2^16 samples, above that whole passes over the
    /// record that count in 256 KiB.
    pub fn rtt_percentile(&self, p: f64) -> Option<f64> {
        self.rtt.rtt_percentile(p).map(Dur::as_secs_f64)
    }

    /// Loss rate observed by the sender: `lost / sent`.
    pub fn loss_rate(&self) -> f64 {
        if self.pkts_sent == 0 {
            0.0
        } else {
            self.pkts_lost as f64 / self.pkts_sent as f64
        }
    }

    /// Flow completion time for sized flows.
    pub fn completion_time(&self) -> Option<Dur> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f.since(s)),
            _ => None,
        }
    }
}

/// One per-flow telemetry sample, recorded when the scenario enables
/// tracing ([`crate::scenario::Scenario::with_trace`]).
///
/// Samples are taken on a fixed clock for every flow that has started and
/// not finished, so a run's trace is a regular per-flow time series of the
/// controller's externally visible state (rate/window/in-flight/RTT) plus
/// whatever internals the controller exposes via
/// [`proteus_transport::CcSnapshot`] (utility value, mode, mode switches).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Sample time, seconds since simulation start.
    pub t: f64,
    /// Flow id within the scenario.
    pub flow: FlowId,
    /// Pacing rate in Mbit/sec (`None` for pure ACK-clocked protocols).
    pub rate_mbps: Option<f64>,
    /// Congestion window in bytes (`None` when the protocol is unwindowed).
    pub cwnd_bytes: Option<u64>,
    /// Bytes currently in flight.
    pub inflight_bytes: u64,
    /// Smoothed RTT in milliseconds, once measured.
    pub srtt_ms: Option<f64>,
    /// RTT deviation (RFC 6298 rttvar) in milliseconds, once measured.
    pub rttvar_ms: Option<f64>,
    /// Most recent utility value, for utility-driven controllers.
    pub utility: Option<f64>,
    /// Active mode name (e.g. `"Proteus-S"`), for mode-switching senders.
    pub mode: Option<&'static str>,
    /// Mode switches since flow start.
    pub mode_switches: u64,
}

/// Display labels for the [`EventStats::pops`] slots, in index order. The
/// engine assigns each event kind a stable slot (`Event::kind` in
/// `crate::engine`); this array gives reporting code human-readable names
/// without exposing the private event enum.
pub const EVENT_KIND_NAMES: [&str; 14] = [
    "FlowStart",
    "FlowStop",
    "QueueDrain",
    "Delivery",
    "AckArrival",
    "Pace",
    "CcTimer",
    "Rto",
    "AppWake",
    "SpawnCross",
    "ChurnSpawn",
    "TraceSample",
    "Fault",
    "HopArrival",
];

/// Event-loop accounting for one simulation run: how many events of each
/// kind were dispatched, how many went through the scheduler versus the
/// fused wire path, and how deep the scheduler got.
///
/// These counters describe *execution mechanics*, not observable behavior:
/// a staged and a fused run of the same scenario dispatch the identical
/// event sequence (so [`EventStats::pops`] agrees), but the fused run keeps
/// the per-packet wire chain on the wire lanes and the links' departure
/// FIFOs instead of the scheduler (so `pushes`, `peak_queue`, `fused` and
/// `lane_fallbacks` differ). Equivalence tests that compare full
/// [`SimResult`] digests across execution paths must therefore zero this
/// field first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Events dispatched, by kind (indices match [`EVENT_KIND_NAMES`]).
    /// Counts every dispatch regardless of execution path: a lane pop counts
    /// under its event's kind and a link-owned departure under `QueueDrain`,
    /// the staged event it replaces.
    pub pops: [u64; EVENT_KIND_NAMES.len()],
    /// Events pushed into the scheduler.
    pub pushes: u64,
    /// Peak number of events pending in the scheduler.
    pub peak_queue: u64,
    /// Dispatches served by a wire lane or a link's departure FIFO instead
    /// of the scheduler (zero on the staged path).
    pub fused: u64,
    /// Wire events offered to a lane out of time order, which the scheduler
    /// carried instead (zero on the staged path).
    pub lane_fallbacks: u64,
}

impl EventStats {
    /// Total events dispatched over the run.
    pub fn dispatched(&self) -> u64 {
        self.pops.iter().sum()
    }

    /// Fraction of dispatches served by the fused wire path.
    pub fn fused_fraction(&self) -> f64 {
        let total = self.dispatched();
        if total == 0 {
            0.0
        } else {
            self.fused as f64 / total as f64
        }
    }
}

/// Per-link accounting for one run: one entry per topology link, in link-id
/// order. Single-link scenarios have exactly one entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkSummary {
    /// Configured (initial) link rate, bits/sec — before any fault-schedule
    /// bandwidth changes.
    pub rate_bps: f64,
    /// Bytes that completed service at this link.
    pub delivered_bytes: u64,
    /// Packets this link's queue accepted.
    pub accepted_pkts: u64,
    /// Packets tail-dropped at this link.
    pub dropped_pkts: u64,
    /// Peak buffer occupancy observed when packets were admitted, bytes.
    pub peak_queued_bytes: u64,
    /// What this link's fault layer injected (all zero without a schedule).
    pub fault_stats: FaultStats,
}

impl LinkSummary {
    /// Bytes-served utilization over the whole run: delivered bytes as a
    /// fraction of configured capacity × duration.
    pub fn utilization(&self, duration: Dur) -> f64 {
        let capacity_bytes = self.rate_bps / 8.0 * duration.as_secs_f64();
        if capacity_bytes <= 0.0 {
            0.0
        } else {
            self.delivered_bytes as f64 / capacity_bytes
        }
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-flow measurements, indexed by flow id.
    pub flows: Vec<FlowMetrics>,
    /// Total simulated duration.
    pub duration: Dur,
    /// Per-link accounting, one entry per topology link in id order;
    /// `links[0]` is the bottleneck of a single-link scenario.
    pub links: Vec<LinkSummary>,
    /// Per-flow telemetry time series (empty unless the scenario enables
    /// [`crate::scenario::Scenario::with_trace`]).
    pub trace: Vec<TraceEvent>,
    /// Structured decision events drained from the controllers, in
    /// timestamp order (empty unless the scenario enables
    /// [`crate::scenario::Scenario::with_trace`] or a flow's controller
    /// already carries a recording `proteus-trace` sink). When a fault
    /// schedule is set, also contains the link-scoped fault records.
    pub decisions: Vec<proteus_trace::FlowEvent>,
    /// Event-loop accounting (dispatch counts, scheduler pressure, fused
    /// share). Mechanics, not behavior — see [`EventStats`].
    pub events: EventStats,
}

impl SimResult {
    /// Aggregate goodput of a set of flows over `[from, to)`, as a fraction
    /// of link 0's configured capacity.
    pub fn utilization(&self, from: Time, to: Time) -> f64 {
        let total: f64 = self.flows.iter().map(|f| f.throughput_bps(from, to)).sum();
        total / self.links[0].rate_bps
    }

    /// Finds a flow's metrics by name (first match).
    pub fn flow_named(&self, name: &str) -> Option<&FlowMetrics> {
        self.flows.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_binning() {
        let mut m = FlowMetrics::new(0, "test".into(), Dur::from_secs(1), 1);
        // 1 MB acked in second 0, 2 MB in second 1.
        m.on_ack(Time::from_millis(500), 1_000_000, Dur::from_millis(30));
        m.on_ack(Time::from_millis(1500), 2_000_000, Dur::from_millis(30));
        let t01 = m.throughput_bps(Time::ZERO, Time::from_secs_f64(1.0));
        assert!((t01 - 8_000_000.0).abs() < 1.0);
        let t02 = m.throughput_bps(Time::ZERO, Time::from_secs_f64(2.0));
        assert!((t02 - 12_000_000.0).abs() < 1.0);
        // Window starting at second 1 sees only the second bin.
        let t12 = m.throughput_bps(Time::from_secs_f64(1.0), Time::from_secs_f64(2.0));
        assert!((t12 - 16_000_000.0).abs() < 1.0);
    }

    #[test]
    fn empty_window_is_zero() {
        let m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        assert_eq!(
            m.throughput_bps(Time::from_secs_f64(1.0), Time::from_secs_f64(1.0)),
            0.0
        );
        assert_eq!(
            m.throughput_bps(Time::from_secs_f64(5.0), Time::from_secs_f64(9.0)),
            0.0
        );
    }

    #[test]
    fn rtt_stride_downsamples() {
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 4);
        for i in 0..100 {
            m.on_ack(Time::from_millis(i), 1500, Dur::from_millis(30));
        }
        assert_eq!(m.rtt_samples().count(), 25);
        assert_eq!(m.pkts_acked, 100);
    }

    /// Nearest-rank percentile by full sort: what `rtt_percentile` and
    /// `frame_delay_percentile` computed before they selected.
    fn sorted_percentile(xs: &[f64], p: f64) -> Option<f64> {
        let mut v = xs.to_vec();
        v.sort_unstable_by(f64::total_cmp);
        pick_rank(&v, p)
    }

    /// The nearest-rank pick from values sorted already.
    fn pick_rank(sorted: &[f64], p: f64) -> Option<f64> {
        let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
        let last = sorted.len().saturating_sub(1);
        sorted.get(rank.saturating_sub(1).min(last)).copied()
    }

    fn bits(samples: &[(f64, f64)]) -> Vec<(u64, u64)> {
        let pair = |&(t, r): &(f64, f64)| (t.to_bits(), r.to_bits());
        samples.iter().map(pair).collect()
    }

    /// Feeds `trace` (`(ACK time, RTT)`, nanoseconds) at stride 1 and checks
    /// every RTT reader, bit for bit, against the `Vec<(f64, f64)>` of
    /// seconds the field used to be. Returns the metrics.
    fn check_against_float_record(trace: &[(u64, u64)]) -> FlowMetrics {
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        feed(&mut m, trace);
        check_readers(&m, trace);
        m
    }

    /// Feeds `trace` (`(ACK time, RTT)`, nanoseconds) to `m`.
    fn feed(m: &mut FlowMetrics, trace: &[(u64, u64)]) {
        for &(t, rtt) in trace {
            m.on_ack(Time::from_nanos(t), 1500, Dur::from_nanos(rtt));
        }
    }

    /// Checks every RTT reader of `m`, fed `trace` and nothing else, bit
    /// for bit against the float record.
    fn check_readers(m: &FlowMetrics, trace: &[(u64, u64)]) {
        let mut want = Vec::new();
        for &(t, rtt) in trace {
            let (t, rtt) = (Time::from_nanos(t), Dur::from_nanos(rtt));
            want.push((t.as_secs_f64(), rtt.as_secs_f64()));
        }
        let got: Vec<(f64, f64)> = m.rtt_samples().collect();
        assert_eq!(bits(&got), bits(&want));
        let rtts: Vec<f64> = want.iter().map(|&(_, r)| r).collect();
        assert_eq!(m.rtt_values(), rtts);
        let mut sorted = rtts;
        sorted.sort_unstable_by(f64::total_cmp);
        for p in PS {
            let (got, want) = (m.rtt_percentile(p), pick_rank(&sorted, p));
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "p{p}");
        }
    }

    /// Every percentile the readers are checked at: the edges, the clamped
    /// and the NaN `p` included.
    const PS: [f64; 12] = [
        0.0,
        1e-9,
        5.0,
        33.3,
        50.0,
        95.0,
        99.0,
        99.999,
        100.0,
        -1.0,
        150.0,
        f64::NAN,
    ];

    /// Longer than 32 bits of nanoseconds hold (4.29 s).
    const OVER_32_BITS: u64 = u32::MAX as u64 + 1;
    /// The engine's horizon: send times are 48 bits of nanoseconds (78 h).
    const HORIZON: u64 = 1 << 48;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random traces — the first sample up to a minute into the run —
        /// as they are, then with, at the first, a middle and the last
        /// sample: an RTT over 4.29 s, an RTT at the 78 h horizon, a gap
        /// over 4.29 s, a sample at the same instant as the one before, and
        /// a plateau of identical RTTs from there on. Then the draws as
        /// runs, and a trace whose RTT changes repeat.
        #[test]
        fn rtt_store_equals_the_float_record(
            draws in proptest::collection::vec(proptest::any::<u64>(), 1..120),
            first_ms in 0u64..60_000,
            cycle in proptest::any::<u64>(),
        ) {
            let mut t = first_ms * 1_000_000;
            let base: Vec<(u64, u64)> = draws
                .iter()
                .map(|&d| {
                    t += d % 40_000_000; // gaps up to 40 ms
                    (t, 1_000_000 + (d >> 32) % 400_000_000)
                })
                .collect();
            let n = base.len();
            check_against_float_record(&base);
            for at in [0, n / 2, n - 1] {
                let mut long_rtt = base.clone();
                long_rtt[at].1 += OVER_32_BITS;
                check_against_float_record(&long_rtt);
                let mut horizon = base.clone();
                horizon[at].1 = HORIZON;
                check_against_float_record(&horizon);
                let mut plateau = base.clone();
                let rtt = plateau[at].1;
                plateau[at..].iter_mut().for_each(|s| s.1 = rtt);
                check_against_float_record(&plateau);
                if at > 0 {
                    let mut outage = base.clone();
                    outage[at..].iter_mut().for_each(|s| s.0 += OVER_32_BITS);
                    check_against_float_record(&outage);
                    let mut same_instant = base.clone();
                    same_instant[at].0 = same_instant[at - 1].0;
                    check_against_float_record(&same_instant);
                }
            }
            // The same draws as runs, read half-way through (mostly inside
            // an open run) and again once the run is extended.
            let runs = in_runs(&draws, first_ms * 1_000_000);
            let cut = runs.len().div_ceil(2);
            let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
            feed(&mut m, &runs[..cut]);
            check_readers(&m, &runs[..cut]);
            feed(&mut m, &runs[cut..]);
            check_readers(&m, &runs);
            check_against_float_record(&in_cycles(cycle, first_ms * 1_000_000));
        }
    }

    /// A trace whose RTT takes turns through 2 to 6 levels, so that its
    /// changes repeat with that period: levels that are multiples of 64 ns
    /// under 40 µs, no two in a row equal, so every change is 64 ns or more
    /// either way (−64 ns is one of the values a coded block writes in two
    /// bytes). 2^7 to 2^17 samples, about log-uniform: about a third cross
    /// a block edge and a tenth the selection threshold. One send gap
    /// of 40 to 41 µs, so ACK times never go back; the first is sent at
    /// `first`.
    fn in_cycles(seed: u64, first: u64) -> Vec<(u64, u64)> {
        let mut x = seed;
        let mut fresh = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 24) % m
        };
        let period = 2 + fresh(5) as usize;
        let mut levels = vec![fresh(625) * 64];
        while levels.len() < period {
            let level = fresh(625) * 64;
            let last = levels.len() + 1 == period;
            if level != levels[levels.len() - 1] && !(last && level == levels[0]) {
                levels.push(level);
            }
        }
        let gap = 40_000 + fresh(1_000);
        let bits = 7 + fresh(10);
        let n = (1 << bits) + fresh(1 << bits);
        let rtt = 1_000_000 + fresh(400_000_000);
        (0..n)
            .map(|i| {
                let rtt = rtt + levels[i as usize % period];
                (first + i * gap + rtt, rtt)
            })
            .collect()
    }

    /// A trace in runs, one a draw of the first 48 of `draws`, from sample 0
    /// on: each `d` is 1 to 2^14 samples (about log-uniform, so runs cross
    /// tokens and, in about a fifth of the traces, the selection threshold)
    /// that repeat one send gap (`d & 1`; a quarter of those send at one
    /// instant), one RTT (`d & 2`), both, or neither. The first sample is
    /// sent at `first`, and ACK times never go back.
    fn in_runs(draws: &[u64], first: u64) -> Vec<(u64, u64)> {
        let (mut sent, mut rtt) = (first, 0u64);
        let mut trace = Vec::new();
        for &d in draws.iter().take(48) {
            let mut x = d;
            let mut fresh = |m: u64| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 24) % m
            };
            let mut gap = if d >> 6 & 3 == 0 {
                0
            } else {
                fresh(40_000_000)
            };
            let run_rtt = (1_000_000 + fresh(400_000_000)).max(rtt.saturating_sub(gap));
            for i in 0..1 + (d >> 8) % (2 << ((d >> 2) % 14)) {
                if d & 1 == 0 && i > 0 {
                    gap = fresh(40_000_000);
                }
                rtt = if d & 2 == 0 {
                    (1_000_000 + fresh(400_000_000)).max(rtt.saturating_sub(gap))
                } else {
                    run_rtt
                };
                sent += gap;
                trace.push((sent + rtt, rtt));
            }
        }
        trace
    }

    /// The run tokens themselves: a run from the first sample is split at
    /// [`RUN_MAX`], and a run open across the selection threshold reads the
    /// same before and after it is extended.
    #[test]
    fn runs_split_at_the_token_limit_and_extend_in_place() {
        // A thousand samples at one instant with one RTT: the gap column is
        // one run from sample 0, the RTT column a value and then a run.
        let same = vec![(7_000_000_000, 30_000_000); 1000];
        let m = check_against_float_record(&same);
        let runs = [0, 255, 0, 255, 0, 255, 0, 235];
        assert_eq!(column_bytes(m.rtt.column(GAPS)), runs);
        let mut rtts = vec![0x80, 0x8e, 0xce, 0x1c];
        rtts.extend([0, 255, 0, 255, 0, 255, 0, 234]);
        let got = column_bytes(m.rtt.column(RTTS));
        assert_eq!(got, rtts, "30 ms is 4 bytes, then 999 repeats");

        // 1 000-sample plateaus every 24 µs, one stepping up 1 µs, the next
        // down 500 ns: read at the threshold (on a copy), mid-run past it
        // (counting) and at the end.
        let trace: Vec<(u64, u64)> = (0..SELECT_ON_A_COPY as u64 + 3_500)
            .map(|i| {
                let step = i / 1000;
                let rtt = 20_000_000 + step * 1000 - (step / 2) * 1500;
                (5_000_000_000 + i * 24_000 + rtt, rtt)
            })
            .collect();
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        let mut fed = 0;
        for cut in [SELECT_ON_A_COPY, SELECT_ON_A_COPY + 1_250, trace.len()] {
            feed(&mut m, &trace[fed..cut]);
            check_readers(&m, &trace[..cut]);
            fed = cut;
        }
        let bytes = m.rtt_record_bytes();
        assert!(bytes < 2_000, "{bytes} bytes for {} samples", m.rtt.len);
    }

    /// A column's tokens, block after block.
    fn column_bytes(col: Column<'_>) -> Vec<u8> {
        col.blocks().flatten().copied().collect()
    }

    /// Checks that every sealed block of column `c` kept the `BLOCK` bytes
    /// it was given, filled to within one token (10 bytes at most), and
    /// returns how many blocks the column has.
    fn check_blocks(m: &FlowMetrics, c: usize) -> usize {
        let col = m.rtt.column(c);
        for (i, b) in col.sealed.iter().enumerate() {
            assert_eq!(b.capacity(), BLOCK, "block {i} of column {c}");
            assert!(
                (BLOCK - 9..=BLOCK).contains(&b.len()),
                "block {i} holds {}",
                b.len()
            );
        }
        assert!(m.rtt.open[c].capacity() <= BLOCK);
        col.sealed.len() + 1
    }

    /// `n` samples sent every 24 µs (so the gap column is one run) whose RTT
    /// starts at 20 ms and changes by `step`, up and down in turn, every
    /// `every` samples: a change of 40 ns is one byte, of 10 µs three, of
    /// 2^40 ns six.
    fn stepping(n: u64, every: u64, step: u64) -> Vec<(u64, u64)> {
        (0..n)
            .map(|i| {
                let rtt = 20_000_000 + (i / every) % 2 * step;
                (5_000_000_000 + i * 24_000 + rtt, rtt)
            })
            .collect()
    }

    #[test]
    fn flow_metrics_keep_their_size() {
        assert_eq!(std::mem::size_of::<FlowMetrics>(), 272);
    }

    /// A value of three and of eight bytes, and a run token, written where
    /// 0 to 9 bytes are left in the RTT column's first block: each moves
    /// whole to the next block, and every reader sees the same samples.
    #[test]
    fn a_token_that_meets_a_block_edge_moves_whole_to_the_next_block() {
        // 30 ms is 4 bytes, then 1-byte changes up to `left` bytes short.
        for left in 0..10 {
            let fill = (BLOCK - 4 - left) as u64;
            for next in [1_000_000, 0, HORIZON] {
                let mut trace = stepping(1 + fill, 1, 40);
                trace.iter_mut().for_each(|s| s.1 += 10_000_000);
                let sent = 5_000_000_000 + trace.len() as u64 * 24_000;
                let rtt = trace[trace.len() - 1].1;
                // The token at the edge, then a run across `RUN_MAX`, a
                // jump back down and more 1-byte changes.
                let tail = [rtt + next; 300].into_iter().chain([rtt, rtt + 40, rtt]);
                for (i, rtt) in tail.enumerate() {
                    trace.push((sent + i as u64 * 24_000 + rtt, rtt));
                }
                let m = check_against_float_record(&trace);
                let blocks = check_blocks(&m, RTTS);
                let first = m.rtt.column(RTTS).block(0).len();
                let token = match next {
                    0 => 2,
                    1_000_000 => 3,
                    _ => 8,
                };
                if left < token {
                    assert!(blocks > 1, "{left} left, next {next}");
                    assert_eq!(first, BLOCK - left, "{left} left, next {next}");
                } else {
                    assert!(first > BLOCK - left, "{left} left, next {next}");
                }
            }
        }
    }

    /// Each column holds a run whose samples span several blocks of the
    /// other: a sawtooth of 1-byte RTT changes under one run of send gaps,
    /// then one of 1-byte gap changes under one run of RTTs (sawtooths, so
    /// that no two blocks read alike). Read mid-run (by counting) and once
    /// the run is extended.
    #[test]
    fn a_run_spans_many_blocks_of_the_other_column() {
        let n = 4 * BLOCK as u64;
        let mut trace: Vec<(u64, u64)> = (0..n)
            .map(|i| {
                let rtt = 20_000_000 + i % 4_000 * 40;
                (5_000_000_000 + i * 24_000 + rtt, rtt)
            })
            .collect();
        let (t, rtt) = trace[trace.len() - 1];
        let mut sent = t - rtt;
        for i in 0..n {
            sent += 24_000 + i % 3_000 * 40;
            trace.push((sent + rtt, rtt));
        }
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        let mut fed = 0;
        for cut in [n as usize + 5_000, trace.len()] {
            feed(&mut m, &trace[fed..cut]);
            check_readers(&m, &trace[..cut]);
            fed = cut;
        }
        assert_eq!((check_blocks(&m, GAPS), check_blocks(&m, RTTS)), (5, 5));
    }

    /// `n` samples sent every 24 µs whose RTT is 20 ms plus `levels[i %
    /// levels.len()]`: its changes repeat with the period of `levels`.
    fn cycling(n: u64, levels: &[u64]) -> Vec<(u64, u64)> {
        (0..n)
            .map(|i| {
                let rtt = 20_000_000 + levels[i as usize % levels.len()];
                (5_000_000_000 + i * 24_000 + rtt, rtt)
            })
            .collect()
    }

    /// RTT columns of one, two and many blocks, each on both sides of the
    /// selection threshold, so that every counting pass reads across block
    /// edges and into coded blocks. A change that repeats is one byte past
    /// the first block, whatever its size; five that take turns never repeat
    /// within the four a table holds, so each stays a value of three to
    /// seven bytes.
    #[test]
    fn selection_over_one_two_and_many_blocks_is_exact() {
        let (below, above) = (SELECT_ON_A_COPY as u64 - 1, SELECT_ON_A_COPY as u64 + 1);
        let five = |unit: u64| [0, 1, 3, 6, 10].map(|k| k * unit);
        // (trace, blocks)
        let cases = [
            (stepping(20_000, 1, 40), 1),
            (stepping(above, 8, 40), 1),
            (stepping(40_000, 1, 40), 2),
            (stepping(above, 4, 40), 2),
            (stepping(below, 1, 10_000), 3),
            (stepping(above, 1, 1 << 40), 3),
            (cycling(below, &five(10_000)), 7),
            (cycling(above, &five(1 << 40)), 14),
        ];
        for (i, (trace, blocks)) in cases.iter().enumerate() {
            let m = check_against_float_record(trace);
            assert_eq!(check_blocks(&m, RTTS), *blocks, "case {i}");
            assert_eq!(check_blocks(&m, GAPS), 1);
        }
    }

    /// The bytes of a coded block: a change right after a block edge is a
    /// value (its table is empty), the four values whose bytes became the
    /// repeat codes take two bytes there and one in a first block, and a
    /// change the table holds is its code, the table kept in move-to-front
    /// order. Then a counting read over coded blocks whose tables are full,
    /// where the samples that hold the answer are every other stretch of 500.
    #[test]
    fn coded_blocks_pin_their_bytes_and_count_exactly() {
        // 20 ms, then +10 µs: in a first block, and in a coded one.
        const FIRST: [u8; 4] = [0x80, 0xb4, 0x89, 0x13];
        const UP_PLAIN: [u8; 3] = [0xa0, 0x9c, 0x01];
        let (up, down) = ([0xa4, 0x9c, 0x01], [0xa3, 0x9c, 0x01]);
        let m = check_against_float_record(&stepping(3, 1, 10_000));
        let plain = column_bytes(m.rtt.column(RTTS));
        assert_eq!(plain[..7], [FIRST.as_slice(), &UP_PLAIN].concat());

        // ±10 µs changes, 3 bytes a value: three blocks. Each coded block
        // starts with two values, then repeats the older of the two.
        let mut trace = stepping(45_000, 1, 10_000);
        let m = check_against_float_record(&trace);
        assert_eq!(check_blocks(&m, RTTS), 3);
        for b in 1..3 {
            let block = m.rtt.column(RTTS).block(b);
            let starts_up = block[0] == up[0];
            let (one, two) = if starts_up { (up, down) } else { (down, up) };
            let want = [one.as_slice(), &two, &[REPEAT + 1; 4]].concat();
            assert_eq!(block[..10], want, "block {b}");
        }

        // Changes of 62, −63, 63 and −64 ns: one byte each in a first
        // block, two in a coded one. Then 62 ns, entry 3, taken between
        // new changes: each use moves it to the front, so it is entry 1
        // when it comes back (an insert-only table drops it at the fourth
        // new change).
        let shifted = [62, -63, 63, -64];
        let then = [62, 1_000, 62, 2_000, 62, 3_000, 62, 4_000, 62];
        let with_changes = |trace: &mut Vec<(u64, u64)>, changes: &[i64]| {
            let (mut t, mut rtt) = trace[trace.len() - 1];
            for &d in changes {
                rtt = rtt.wrapping_add_signed(d);
                t += 24_000 + d.unsigned_abs();
                trace.push((t, rtt));
            }
        };
        let mut short = stepping(1, 1, 0);
        with_changes(&mut short, &shifted);
        let m = check_against_float_record(&short);
        let plain = column_bytes(m.rtt.column(RTTS));
        assert_eq!(
            plain,
            [FIRST.as_slice(), &[0x7c, 0x7d, 0x7e, 0x7f]].concat()
        );
        with_changes(&mut trace, &shifted);
        with_changes(&mut trace, &then);
        let m = check_against_float_record(&trace);
        let coded = column_bytes(m.rtt.column(RTTS));
        let two_bytes = [0x80, 0x01, 0x81, 0x01, 0x82, 0x01, 0x83, 0x01];
        let lit = |ns: u64| [(2 * ns + 4) as u8 | 0x80, ((2 * ns + 4) >> 7) as u8];
        let second = REPEAT + 1;
        let tail = [
            two_bytes.as_slice(),
            &[REPEAT + 3],
            &lit(1_000),
            &[second],
            &lit(2_000),
            &[second],
            &lit(3_000),
            &[second],
            &lit(4_000),
            &[second],
        ]
        .concat();
        assert_eq!(coded[coded.len() - tail.len()..], tail);

        // 69 000 samples, so counted: four levels 640 ns apart and more
        // (four changes, a full table), in stretches of 500 that take turns
        // 2^30 ns apart; the median is the low stretches' highest level.
        let levels = [0, 640, 1_920, 640];
        let trace: Vec<(u64, u64)> = cycling(69_000, &levels)
            .into_iter()
            .enumerate()
            .map(|(i, (t, rtt))| {
                let high = (i as u64 / 500 % 2) << 30;
                (t + high, rtt + high)
            })
            .collect();
        let m = check_against_float_record(&trace);
        assert_eq!(check_blocks(&m, RTTS), 3);
        assert_eq!(m.rtt_percentile(50.0), Some(0.020_001_92));
    }

    /// Stores on both sides of the selection threshold, their RTTs spread
    /// over 2^20 ns (two counting passes), 2^40 ns (three) and up to the
    /// horizon, in runs of repeats and with the extremes in the middle.
    #[test]
    fn selection_on_both_sides_of_the_threshold_is_exact() {
        for n in [SELECT_ON_A_COPY - 1, SELECT_ON_A_COPY, SELECT_ON_A_COPY + 1] {
            for spread in [1u64 << 20, 1 << 40, HORIZON - 20_000_000] {
                let mut x = n as u64;
                let mut rtt = 0;
                let trace: Vec<(u64, u64)> = (0..n as u64)
                    .map(|i| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        if x >> 62 != 0 {
                            rtt = 20_000_000 + (x >> 11) % spread; // else a repeat
                        }
                        (5_000_000_000 + i * 24_000, rtt)
                    })
                    .collect();
                let m = check_against_float_record(&trace);
                assert_eq!(m.rtt.len, n);
            }
        }
    }

    #[test]
    fn percentile_read_mid_run_does_not_go_stale() {
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        for i in 0..10 {
            m.on_ack(Time::from_millis(i), 1500, Dur::from_millis(30));
        }
        assert_eq!(m.rtt_percentile(95.0), Some(0.030));
        for i in 10..200 {
            m.on_ack(Time::from_millis(i), 1500, Dur::from_millis(80));
        }
        assert_eq!(m.rtt_percentile(95.0), Some(0.080));
        assert_eq!(m.rtt_percentile(5.0), Some(0.030));
        assert_eq!(m.rtt_percentile(6.0), Some(0.080));
    }

    /// Goodput bins and strided samples equal the per-ACK division and
    /// modulo they used to be found with, over a trace whose idle gaps span
    /// several bins.
    #[test]
    fn bins_and_strides_equal_the_division_based_reference() {
        let bin = Dur::from_millis(100);
        // Bursts of ACKs 1.7 ms apart; then idle for 0, 1 or 2-4 bins.
        let mut trace = Vec::new();
        let mut t = 30_000_000u64;
        for burst in 0..40u64 {
            for i in 0..(7 + burst * 13 % 90) {
                trace.push((t, 100 + (burst + i) % 1400, 20_000_000 + i * 1000));
                t += 1_700_000;
            }
            t += burst % 3 * (burst % 5) * 100_000_000;
        }
        for stride in [1usize, 64] {
            let mut m = FlowMetrics::new(0, "t".into(), bin, stride);
            let mut bins: Vec<u64> = Vec::new();
            let mut samples = Vec::new();
            for (k, &(t, bytes, rtt)) in trace.iter().enumerate() {
                let (at, rtt) = (Time::from_nanos(t), Dur::from_nanos(rtt));
                m.on_ack(at, bytes, rtt);
                let idx = (t / bin.as_nanos()) as usize;
                bins.resize(bins.len().max(idx + 1), 0);
                bins[idx] += bytes;
                if (k + 1) % stride == 0 {
                    samples.push((at.as_secs_f64(), rtt.as_secs_f64()));
                }
            }
            assert!(bins.iter().filter(|&&b| b == 0).count() > 20, "idle bins");
            assert_eq!(m.acked_bins(), bins, "stride {stride}");
            assert_eq!(m.rtt_samples().collect::<Vec<_>>(), samples);
            let (from, to) = (Time::from_millis(500), Time::from_nanos(t));
            let whole_bins = &bins[5..(t / bin.as_nanos()) as usize];
            let secs = whole_bins.len() as f64 * 0.1;
            let want = whole_bins.iter().sum::<u64>() as f64 * 8.0 / secs;
            assert!((m.throughput_bps(from, to) - want).abs() < 1e-6 * want);
        }
    }

    #[test]
    fn loss_rate_and_percentiles() {
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        for i in 0..10 {
            m.on_sent(1500);
            if i < 8 {
                m.on_ack(Time::from_millis(i * 10), 1500, Dur::from_millis(30 + i));
            } else {
                m.on_loss();
            }
        }
        assert!((m.loss_rate() - 0.2).abs() < 1e-12);
        assert!(m.rtt_percentile(95.0).unwrap() >= 0.036);
    }

    #[test]
    fn sim_result_utilization() {
        let mut m = FlowMetrics::new(0, "a".into(), Dur::from_secs(1), 1);
        m.on_ack(Time::from_millis(10), 625_000, Dur::from_millis(10)); // 5 Mbit
        let r = SimResult {
            flows: vec![m],
            duration: Dur::from_secs(1),
            links: vec![LinkSummary {
                rate_bps: 10e6,
                delivered_bytes: 625_000,
                accepted_pkts: 1,
                dropped_pkts: 0,
                peak_queued_bytes: 0,
                fault_stats: FaultStats::default(),
            }],
            trace: vec![],
            decisions: vec![],
            events: EventStats::default(),
        };
        let u = r.utilization(Time::ZERO, Time::from_secs_f64(1.0));
        assert!((u - 0.5).abs() < 1e-9);
        assert!(r.flow_named("a").is_some());
        assert!(r.flow_named("b").is_none());
        let lu = r.links[0].utilization(r.duration);
        assert!((lu - 0.5).abs() < 1e-9, "625 KB over 10 Mbps x 1 s: {lu}");
    }

    #[test]
    fn media_frame_completion_freezes_and_percentiles() {
        let mut m = FlowMetrics::new(0, "rtc".into(), Dur::from_secs(1), 1);
        assert!(m.media().is_none());
        let deadline = Dur::from_millis(100);
        let frames: Vec<FrameRecord> = (0..4)
            .map(|i| FrameRecord {
                gen_at: Time::from_millis(i * 100),
                end_bytes: (i + 1) * 1000,
                deadline,
            })
            .collect();
        m.media_ingest(&frames);
        assert_eq!(m.media().unwrap().frames_generated(), 4);
        assert_eq!(m.media().unwrap().frames_pending(), 4);
        // Ack 2500 bytes at t=150ms: frames 0 and 1 complete (delays 150ms
        // and 50ms), frame 2 still short by 500 bytes.
        m.on_ack(Time::from_millis(150), 2500, Dur::from_millis(30));
        m.media_progress(Time::from_millis(150));
        let mm = m.media().unwrap();
        assert_eq!(mm.frames_completed(), 2);
        assert_eq!(mm.frames_pending(), 2);
        assert_eq!(mm.freeze_count(), 1, "frame 0 missed its 100ms deadline");
        assert!((mm.time_in_freeze() - 0.050).abs() < 1e-9);
        assert_eq!(mm.frame_delays(), &[0.150, 0.050]);
        // Ack the rest at t=600ms: frame 2 (gen 200ms) delay 400ms, frame 3
        // (gen 300ms) delay 300ms — both freezes.
        m.on_ack(Time::from_millis(600), 1500, Dur::from_millis(30));
        m.media_progress(Time::from_millis(600));
        let mm = m.media().unwrap();
        assert_eq!(mm.frames_completed(), 4);
        assert_eq!(mm.frames_pending(), 0);
        assert_eq!(mm.freeze_count(), 3);
        let p99 = mm.frame_delay_percentile(99.0).unwrap();
        assert!(p99 >= 0.39, "p99 = {p99}");
        for p in [0.0, 25.0, 26.0, 50.0, 95.0, 100.0] {
            let want = sorted_percentile(mm.frame_delays(), p);
            assert_eq!(mm.frame_delay_percentile(p), want, "p{p}");
        }
    }

    #[test]
    fn media_progress_noop_without_media() {
        let mut m = FlowMetrics::new(0, "bulk".into(), Dur::from_secs(1), 1);
        m.on_ack(Time::from_millis(10), 1500, Dur::from_millis(30));
        m.media_progress(Time::from_millis(10));
        assert!(m.media().is_none());
    }

    #[test]
    fn link_summary_utilization_handles_zero_capacity() {
        let l = LinkSummary::default();
        assert_eq!(l.utilization(Dur::from_secs(1)), 0.0);
    }
}
