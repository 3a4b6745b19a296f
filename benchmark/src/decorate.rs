//! Transparent decorators over `Box<dyn CongestionControl>` and
//! `Box<dyn Application>`: the benchmark's view into `core`, `baselines`
//! and `apps` from outside those crates.
//!
//! A decorator forwards every trait method unchanged. Per method it keeps
//! an exact call count and times one call in [`STRIDE`] on a fixed stride
//! (the first, the 65th, ...). Keeping the stride per method matters: the
//! engine calls a controller in a fixed cycle, so a single shared stride
//! would time the same method every time. Totals are folded into a
//! thread-local table when the decorator is dropped (the simulator drops
//! its flows at the end of `Sim::run`), and [`take_totals`] drains it.
//!
//! A timed call costs three clock reads: two back to back, then the call,
//! then the third. The first interval is an empty timer pair measured in
//! place — with the caches as the simulation left them, which a pair
//! calibrated in a tight loop is not — and is subtracted from the second.
//! Its mean is `benchmark.timer_ns`.
//!
//! The traced and the untraced run must produce the same digest; that check
//! is what proves the decorators transparent, including against trait
//! methods added after this file was written.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use proteus_baselines::{Bbr, Copa, Cross, Cubic, Ledbat, ScavengerMod};
use proteus_core::ProteusSender;
use proteus_transport::{
    AckInfo, Application, CcSnapshot, CongestionControl, FrameRecord, LossInfo, SentPacket, Time,
};

/// One timed call per this many calls of a method.
pub const STRIDE: u64 = 64;

/// Crates observed through decorators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `proteus-core` controllers (Proteus-P/S/H, PCC-Vivace).
    Core = 0,
    /// `proteus-baselines` controllers.
    Baselines = 1,
    /// `proteus-apps` applications.
    Apps = 2,
}

const LAYERS: usize = 3;
const METHODS: usize = 10;

// `CongestionControl` method slots. The first five are event callbacks —
// the calls `*.cc.calls` counts; the rest are reads the engine makes around
// them, whose time still belongs to the controller.
const CC_ON_FLOW_START: usize = 0;
const CC_ON_PACKET_SENT: usize = 1;
const CC_ON_ACK: usize = 2;
const CC_ON_LOSS: usize = 3;
const CC_ON_TIMER: usize = 4;
const CC_PACING_RATE: usize = 5;
const CC_CWND_BYTES: usize = 6;
const CC_NEXT_TIMER: usize = 7;
const CC_SNAPSHOT: usize = 8;
const CC_DRAIN_DECISIONS: usize = 9;
const CC_CALLBACKS: std::ops::Range<usize> = CC_ON_FLOW_START..CC_ON_TIMER + 1;

// `Application` method slots.
const APP_BYTES_TO_SEND: usize = 0;
const APP_CONSUME: usize = 1;
const APP_ON_DELIVERED: usize = 2;
const APP_NEXT_EVENT: usize = 3;
const APP_ON_WAKEUP: usize = 4;
const APP_FINISHED: usize = 5;
const APP_IS_MEDIA: usize = 6;
const APP_DRAIN_FRAMES: usize = 7;

/// Call accounting of one method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodTotals {
    /// Exact number of calls.
    pub calls: u64,
    /// How many of them were timed.
    pub sampled: u64,
    /// Summed wall time of the timed calls, timer cost included.
    pub sampled_ns: u64,
    /// Summed wall time of the empty timer pairs read next to them.
    pub timer_ns: u64,
}

impl MethodTotals {
    /// Estimated nanoseconds spent in all calls: the timed calls' total,
    /// less the empty timer pairs', scaled to the exact call count.
    fn busy_ns(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let net = self.sampled_ns.saturating_sub(self.timer_ns) as f64;
        net * self.calls as f64 / self.sampled as f64
    }
}

/// Call accounting of one layer over every decorator dropped so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    methods: [MethodTotals; METHODS],
}

impl LayerTotals {
    /// Event callbacks delivered to controllers (`on_flow_start`,
    /// `on_packet_sent`, `on_ack`, `on_loss`, `on_timer`).
    pub fn cc_callbacks(&self) -> u64 {
        self.methods[CC_CALLBACKS].iter().map(|m| m.calls).sum()
    }

    /// Every forwarded call, of any method.
    pub fn all_calls(&self) -> u64 {
        self.methods.iter().map(|m| m.calls).sum()
    }

    /// Estimated seconds spent inside the decorated objects.
    pub fn busy_s(&self) -> f64 {
        self.methods.iter().map(|m| m.busy_ns()).sum::<f64>() / 1e9
    }

    /// `(timed calls, nanoseconds of their empty timer pairs)`.
    pub fn timer_samples(&self) -> (u64, u64) {
        self.methods
            .iter()
            .fold((0, 0), |(n, ns), m| (n + m.sampled, ns + m.timer_ns))
    }
}

thread_local! {
    static TOTALS: RefCell<[LayerTotals; LAYERS]> = RefCell::new([LayerTotals::default(); LAYERS]);
}

/// Drains the totals folded in by dropped decorators, indexed by
/// [`Layer`] discriminant.
pub fn take_totals() -> [LayerTotals; LAYERS] {
    TOTALS.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Per-method samplers of one decorator. `Cell`s because half the trait's
/// methods take `&self`.
#[derive(Default)]
struct Samplers {
    calls: [Cell<u64>; METHODS],
    sampled: [Cell<u64>; METHODS],
    sampled_ns: [Cell<u64>; METHODS],
    timer_ns: [Cell<u64>; METHODS],
}

impl Samplers {
    #[inline]
    fn time<R>(&self, method: usize, call: impl FnOnce() -> R) -> R {
        let n = self.calls[method].get();
        self.calls[method].set(n + 1);
        if !n.is_multiple_of(STRIDE) {
            return call();
        }
        let t0 = Instant::now();
        let t1 = Instant::now();
        let r = call();
        let t2 = Instant::now();
        let add = |cell: &Cell<u64>, v: u64| cell.set(cell.get() + v);
        add(&self.sampled[method], 1);
        add(&self.timer_ns[method], (t1 - t0).as_nanos() as u64);
        add(&self.sampled_ns[method], (t2 - t1).as_nanos() as u64);
        r
    }

    fn fold_into(&self, layer: Layer) {
        TOTALS.with(|t| {
            let mut t = t.borrow_mut();
            for (m, into) in t[layer as usize].methods.iter_mut().enumerate() {
                into.calls += self.calls[m].get();
                into.sampled += self.sampled[m].get();
                into.sampled_ns += self.sampled_ns[m].get();
                into.timer_ns += self.timer_ns[m].get();
            }
        });
    }
}

struct CcDecorator {
    inner: Box<dyn CongestionControl>,
    layer: Layer,
    s: Samplers,
}

impl Drop for CcDecorator {
    fn drop(&mut self) {
        self.s.fold_into(self.layer);
    }
}

impl CongestionControl for CcDecorator {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_flow_start(&mut self, now: Time) {
        let Self { inner, s, .. } = self;
        s.time(CC_ON_FLOW_START, || inner.on_flow_start(now))
    }
    fn on_packet_sent(&mut self, now: Time, pkt: &SentPacket) {
        let Self { inner, s, .. } = self;
        s.time(CC_ON_PACKET_SENT, || inner.on_packet_sent(now, pkt))
    }
    fn on_ack(&mut self, now: Time, ack: &AckInfo) {
        let Self { inner, s, .. } = self;
        s.time(CC_ON_ACK, || inner.on_ack(now, ack))
    }
    fn on_loss(&mut self, now: Time, loss: &LossInfo) {
        let Self { inner, s, .. } = self;
        s.time(CC_ON_LOSS, || inner.on_loss(now, loss))
    }
    fn pacing_rate(&self) -> Option<f64> {
        self.s.time(CC_PACING_RATE, || self.inner.pacing_rate())
    }
    fn cwnd_bytes(&self) -> u64 {
        self.s.time(CC_CWND_BYTES, || self.inner.cwnd_bytes())
    }
    fn next_timer(&self) -> Option<Time> {
        self.s.time(CC_NEXT_TIMER, || self.inner.next_timer())
    }
    fn on_timer(&mut self, now: Time) {
        let Self { inner, s, .. } = self;
        s.time(CC_ON_TIMER, || inner.on_timer(now))
    }
    fn snapshot(&self) -> Option<CcSnapshot> {
        self.s.time(CC_SNAPSHOT, || self.inner.snapshot())
    }
    fn drain_decisions(&mut self, out: &mut Vec<proteus_trace::DecisionEvent>) {
        let Self { inner, s, .. } = self;
        s.time(CC_DRAIN_DECISIONS, || inner.drain_decisions(out))
    }
}

struct AppDecorator {
    inner: Box<dyn Application>,
    s: Samplers,
}

impl Drop for AppDecorator {
    fn drop(&mut self) {
        self.s.fold_into(Layer::Apps);
    }
}

impl Application for AppDecorator {
    fn bytes_to_send(&mut self, now: Time) -> u64 {
        let Self { inner, s } = self;
        s.time(APP_BYTES_TO_SEND, || inner.bytes_to_send(now))
    }
    fn consume(&mut self, bytes: u64) {
        let Self { inner, s } = self;
        s.time(APP_CONSUME, || inner.consume(bytes))
    }
    fn on_delivered(&mut self, now: Time, bytes: u64) {
        let Self { inner, s } = self;
        s.time(APP_ON_DELIVERED, || inner.on_delivered(now, bytes))
    }
    fn next_event(&self, now: Time) -> Option<Time> {
        self.s.time(APP_NEXT_EVENT, || self.inner.next_event(now))
    }
    fn on_wakeup(&mut self, now: Time) {
        let Self { inner, s } = self;
        s.time(APP_ON_WAKEUP, || inner.on_wakeup(now))
    }
    fn finished(&self, now: Time) -> bool {
        self.s.time(APP_FINISHED, || self.inner.finished(now))
    }
    fn is_media(&self) -> bool {
        self.s.time(APP_IS_MEDIA, || self.inner.is_media())
    }
    fn drain_frames(&mut self, sink: &mut Vec<FrameRecord>) {
        let Self { inner, s } = self;
        s.time(APP_DRAIN_FRAMES, || inner.drain_frames(sink))
    }
}

/// The controllers the workloads use, built from each crate's root
/// constructors so attribution to `core` or `baselines` is unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// TCP CUBIC.
    Cubic,
    /// BBR v1.
    Bbr,
    /// BBR with the paper's §7.1 scavenger modification.
    BbrS,
    /// COPA.
    Copa,
    /// LEDBAT (100 ms target).
    Ledbat,
    /// Cross delay-gradient controller (the media call's transport).
    Cross,
    /// Proteus primary mode.
    ProteusP,
    /// Proteus scavenger mode.
    ProteusS,
    /// PCC-Vivace.
    Vivace,
}

impl Proto {
    /// Display name, as the controllers report it.
    pub fn name(self) -> &'static str {
        match self {
            Proto::Cubic => "CUBIC",
            Proto::Bbr => "BBR",
            Proto::BbrS => "BBR-S",
            Proto::Copa => "COPA",
            Proto::Ledbat => "LEDBAT",
            Proto::Cross => "Cross",
            Proto::ProteusP => "Proteus-P",
            Proto::ProteusS => "Proteus-S",
            Proto::Vivace => "PCC-Vivace",
        }
    }

    /// The crate that implements this controller.
    pub fn layer(self) -> Layer {
        match self {
            Proto::ProteusP | Proto::ProteusS | Proto::Vivace => Layer::Core,
            _ => Layer::Baselines,
        }
    }

    /// Builds the bare controller.
    pub fn build(self, seed: u64) -> Box<dyn CongestionControl> {
        match self {
            Proto::Cubic => Box::new(Cubic::new()),
            Proto::Bbr => Box::new(Bbr::new()),
            Proto::BbrS => Box::new(Bbr::scavenger_with(ScavengerMod::calibrated_for_sim())),
            Proto::Copa => Box::new(Copa::new()),
            Proto::Ledbat => Box::new(Ledbat::new()),
            Proto::Cross => Box::new(Cross::new()),
            Proto::ProteusP => Box::new(ProteusSender::primary(seed)),
            Proto::ProteusS => Box::new(ProteusSender::scavenger(seed)),
            Proto::Vivace => Box::new(ProteusSender::vivace(seed)),
        }
    }

    /// Builds the controller, decorated when `traced`.
    pub fn controller(self, seed: u64, traced: bool) -> Box<dyn CongestionControl> {
        let inner = self.build(seed);
        if traced {
            Box::new(CcDecorator {
                inner,
                layer: self.layer(),
                s: Samplers::default(),
            })
        } else {
            inner
        }
    }
}

/// Wraps an application from `proteus-apps`, decorated when `traced`.
pub fn application(inner: Box<dyn Application>, traced: bool) -> Box<dyn Application> {
    if traced {
        Box::new(AppDecorator {
            inner,
            s: Samplers::default(),
        })
    } else {
        inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_transport::Dur;

    fn ack(seq: u64) -> AckInfo {
        AckInfo {
            seq,
            bytes: 1500,
            sent_at: Time::from_millis(seq),
            recv_at: Time::from_millis(seq + 30),
            rtt: Dur::from_millis(30),
            one_way_delay: Dur::from_millis(15),
        }
    }

    #[test]
    fn counts_are_exact_and_one_call_in_stride_is_timed() {
        take_totals();
        let mut cc = Proto::Cubic.controller(1, true);
        assert_eq!(cc.name(), "CUBIC");
        cc.on_flow_start(Time::ZERO);
        for seq in 0..(3 * STRIDE) {
            cc.on_ack(Time::from_millis(seq + 30), &ack(seq));
            let _ = cc.cwnd_bytes();
        }
        drop(cc);
        let totals = take_totals();
        let t = &totals[Layer::Baselines as usize];
        assert_eq!(t.cc_callbacks(), 3 * STRIDE + 1);
        assert_eq!(t.methods[CC_ON_ACK].calls, 3 * STRIDE);
        assert_eq!(t.all_calls(), 6 * STRIDE + 1);
        assert_eq!(t.methods[CC_ON_ACK].sampled, 3);
        assert_eq!(t.methods[CC_ON_FLOW_START].sampled, 1);
        assert_eq!(totals[Layer::Core as usize], LayerTotals::default());
        // Drained: a second take sees nothing.
        assert_eq!(take_totals()[Layer::Baselines as usize].all_calls(), 0);
    }

    #[test]
    fn undecorated_controllers_leave_no_trace() {
        take_totals();
        let mut cc = Proto::ProteusS.controller(1, false);
        cc.on_ack(Time::from_millis(30), &ack(0));
        drop(cc);
        assert_eq!(take_totals()[Layer::Core as usize].all_calls(), 0);
    }

    #[test]
    fn timer_cost_is_subtracted() {
        let mut m = MethodTotals {
            calls: 640,
            sampled: 10,
            sampled_ns: 10 * 50,
            timer_ns: 10 * 30,
        };
        // 50 ns measured, 30 ns of it timer: 20 ns x 640 calls.
        assert!((m.busy_ns() - 12_800.0).abs() < 1e-9);
        // Timer pairs costlier than the samples clamp at zero.
        m.timer_ns = 10 * 80;
        assert_eq!(m.busy_ns(), 0.0);
    }

    #[test]
    fn every_timed_call_reads_an_empty_pair() {
        take_totals();
        let mut cc = Proto::Cubic.controller(1, true);
        (0..STRIDE + 1).for_each(|seq| cc.on_ack(Time::from_millis(seq + 30), &ack(seq)));
        drop(cc);
        let (timed, timer_ns) = take_totals()[Layer::Baselines as usize].timer_samples();
        assert_eq!(timed, 2);
        assert!(
            timer_ns > 0 && timer_ns < 1_000_000,
            "timer pairs {timer_ns} ns"
        );
    }
}
