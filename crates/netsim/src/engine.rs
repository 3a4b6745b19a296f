//! The discrete-event simulation engine.
//!
//! One [`Sim`] executes one [`Scenario`]: flows hand MTU-sized packets to
//! the first [`Link`] on their path; an accepted packet departs after
//! queueing and serialization, crosses that link's wire (propagation, loss,
//! noise, faults), and either reaches the receiver (last hop, `Delivery`)
//! or is offered to the next link on the path (`HopArrival`). The ACK
//! returns over a clean reverse path whose propagation is the sum of the
//! path links' reverse halves. Senders are driven purely by events — ACK
//! arrivals, pacing timers, controller timers, retransmission timeouts and
//! application wakeups — so the whole run is a deterministic function of
//! the scenario and its seed.
//!
//! # Who owns what
//!
//! [`Sim`] is the event loop and the sender side of every flow: it owns
//! the clock, the scheduler, the sequence counter, the main RNG, the flow
//! table with its timers, loss detection and the send loop. Everything
//! else is an entity that is told what happened and *returns* what should
//! happen next, and never sees the scheduler: a [`Link`] decides what
//! becomes of a packet on one hop (`crate::link`), a `Population` decides
//! which flow arrives and when the next one does (`crate::population`),
//! `Telemetry` keeps the sample and decision streams (`crate::telemetry`).
//! What is left here of the wire is what needs the flow table or the event
//! queue: the per-flow FIFO clamps, the choice of lane, and stamping
//! sequence numbers. A flow comes to exist in exactly one place,
//! `Sim::spawn`, whether it is static, cross-traffic or churn.
//!
//! Events are ordered by `(time, push sequence)` through the scheduler in
//! [`crate::sched`]: a hierarchical timing wheel. The binary heap it
//! replaced pops in exactly the same total order and stays as a test oracle
//! (see "One configuration, two oracles" below).
//!
//! Loss detection mirrors TCP practice: a packet is declared lost when a
//! packet sent three or more sequence numbers later is ACKed (dup-ACK
//! threshold; the path only reorders when a [`crate::fault::FaultSchedule`]
//! injects it, in which case spurious dup-ACK losses are the intended
//! pathology), or when the RFC 6298 retransmission timeout expires without
//! progress.
//!
//! # Determinism
//!
//! Three RNG streams, so that attaching a feature never shifts another's
//! draws: the main stream (`seed`: random loss, noise, cross-traffic),
//! one fault stream per link (`seed ^ link · `[`LINK_FAULT_SEED_STRIDE`],
//! salted again inside `crate::fault`; zero at link 0) and the churn stream
//! (`seed ^ `[`CHURN_SEED_SALT`]). Timed link changes arrive through the
//! same event queue as everything else (`Event::Fault`).
//!
//! # Wire path
//!
//! The per-packet `QueueDrain` → (`HopArrival` →)* `Delivery` →
//! `AckArrival` chain is most of a run's events, and almost all of it is
//! already in time order when it is created. Every scenario — clean,
//! faulted, noisy, multi-hop — therefore runs it on one path that keeps it
//! out of the scheduler:
//!
//! * **Link-owned departures.** A queue drain only releases buffer space,
//!   and buffer space is only read by the next `offer` on that link. So
//!   each [`Link`] keeps its departures in a FIFO — sorted for free, since
//!   `free_at` is monotone — and releases, just before such a read, the
//!   ones whose `(time, seq)` key precedes the key of the event being
//!   dispatched: exactly those a scheduler would have dispatched by then.
//! * **Wire lanes.** Each link has a forward lane (`Delivery` /
//!   `HopArrival` leaving it) and an ACK lane (`AckArrival` of flows whose
//!   last hop it is) inside the [`EventQueue`]. A lane *prefers* sorted
//!   input: an event at or after the lane's tail is appended, one before it
//!   (an RTT step down, a jitter spike on another flow, a sub-path with a
//!   shorter return) goes to the scheduler instead, as does every
//!   reorder-held packet. `pop` merges the scheduler head with the lane
//!   heads by `(time, seq)`.
//!
//! Sequence numbers are taken from `event_seq` at exactly the instants a
//! scheduler-only chain takes them, so every event carries the identical
//! `(time, seq)` key whichever structure holds it, and the dispatch order —
//! and with it every result byte — does not depend on the structure.
//!
//! # One configuration, two oracles
//!
//! [`Sim::new`] and [`run`] always build the timing wheel with per-link
//! lanes and link-owned departures; a [`Scenario`] cannot select anything
//! else. Two reference implementations stay in the crate as executable
//! ordering oracles, reachable only through the doc-hidden test constructor
//! `Sim::reference`: [`Scheduler::Heap`] (the global binary heap;
//! `tests/sched_equivalence.rs`) and [`WirePath::Staged`] (everything,
//! `QueueDrain` included, through the scheduler;
//! `tests/wire_equivalence.rs`, `tests/topology_equivalence.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use proteus_transport::{
    AckInfo, Dur, FlowId, FrameRecord, LossInfo, SentPacket, SeqNr, Time, DEFAULT_PACKET_BYTES,
};

use crate::fault::LinkChange;
use crate::flows::FlowTable;
use crate::inflight::{InflightPkt, SENT_AT_LIMIT};
use crate::link::{Link, Offer, Wire};
use crate::metrics::{EventStats, FlowMetrics, SimResult};
use crate::population::{NewFlow, Population};
use crate::scenario::{ChurnClass, Scenario};
use crate::sched::{EventQueue, Scheduler};
use crate::telemetry::Telemetry;
use crate::timers::{Pop, TimerKind};
use crate::topology::{LinkId, Topology};

/// Dup-ACK threshold: a packet is lost once a packet sent this many
/// sequence numbers later has been ACKed.
const REORDER_THRESHOLD: u64 = 3;
/// Minimum retransmission timeout (RFC 6298 uses 1 s; Linux uses 200 ms).
const MIN_RTO: Dur = Dur::from_millis(200);
/// Safety valve on packets transmitted within a single `try_send` call.
const MAX_BURST: usize = 100_000;
/// Headroom added to the derived initial scheduler capacity (periodic
/// samplers, cross-traffic arrivals, the first pacing/timer wave).
const QUEUE_CAPACITY_MARGIN: usize = 64;

/// Salt for the churn RNG stream: churn draws (class choice, lifetimes,
/// interarrival gaps) come from `seed ^ CHURN_SEED_SALT`, mirroring
/// [`crate::fault::FAULT_SEED_SALT`], so attaching churn to a scenario
/// leaves the main RNG's draw sequence — and with it every existing
/// result — untouched.
pub const CHURN_SEED_SALT: u64 = 0xC44E_5EED_0000_0002;

/// Per-link salt stride for fault RNG streams: link `i`'s fault draws come
/// from `seed ^ (i · LINK_FAULT_SEED_STRIDE)` (wrapping multiply; the
/// Weyl/golden-ratio constant). Link 0's salt is zero, so a schedule on a
/// dumbbell's only link and the same schedule on link 0 of a chain draw the
/// same stream, while every other link draws from an independent one —
/// attaching a schedule to link *k* never perturbs link *j*'s bursts or
/// reordering.
pub const LINK_FAULT_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The two wire-path implementations, for `Sim::reference`.
///
/// Mirrors [`Scheduler`]: [`WirePath::Fused`] is what every simulation
/// runs; [`WirePath::Staged`] is the scheduler-only chain, kept as an
/// executable ordering reference so the equivalence suites can assert the
/// two produce identical results on every kind of scenario — faults, noise
/// and multi-link paths included (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePath {
    /// Per-packet wire chain on the links' departure FIFOs and wire lanes,
    /// out-of-order events falling back to the scheduler (production).
    Fused,
    /// Per-packet wire chain staged through the scheduler (test oracle).
    Staged,
}

/// Process-wide engine event totals accumulated since the last
/// [`take_session_event_totals`] drain. Mirrors
/// `proteus_runner::take_session_stats`: driver binaries that run many
/// campaigns sample the totals around each experiment to report events/sec
/// and the fused-path share without threading state through every
/// experiment function. Updated once per completed [`Sim::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionEventTotals {
    /// Events dispatched (scheduler pops, lane pops and link-owned
    /// departures).
    pub dispatched: u64,
    /// Dispatches served by a wire lane or a link's departure FIFO.
    pub fused: u64,
}

static SESSION_DISPATCHED: AtomicU64 = AtomicU64::new(0);
static SESSION_FUSED: AtomicU64 = AtomicU64::new(0);

/// Drains and returns the process-wide event totals of every simulation
/// completed since the previous drain (any thread).
pub fn take_session_event_totals() -> SessionEventTotals {
    SessionEventTotals {
        dispatched: SESSION_DISPATCHED.swap(0, Ordering::Relaxed),
        fused: SESSION_FUSED.swap(0, Ordering::Relaxed),
    }
}

/// A scheduled event. Fields are deliberately narrow (`u32` flow ids and
/// packet sizes) to keep entries small: the scheduler shuffles entries by
/// value on every push/pop, so entry size is directly visible in the
/// per-packet cost.
#[derive(Debug, Clone, Copy)]
enum Event {
    FlowStart(u32),
    FlowStop(u32),
    /// A packet finished serializing at link `link`: release its buffer
    /// space. Scheduled by the [`WirePath::Staged`] oracle only — otherwise
    /// the link owns its departures (`Sim::flush_departures`).
    QueueDrain {
        link: LinkId,
        bytes: u32,
    },
    /// A data packet reaches the receiver (at the queue entry's time).
    Delivery {
        flow: u32,
        seq: SeqNr,
        bytes: u32,
        sent_at: Time,
    },
    /// An ACK reaches the sender.
    AckArrival {
        flow: u32,
        seq: SeqNr,
        bytes: u32,
        sent_at: Time,
        delivered_at: Time,
    },
    /// One of the flow's timers pops; [`crate::timers`] says whether it
    /// is due.
    Timer {
        flow: u32,
        kind: TimerKind,
    },
    /// Next Poisson cross-traffic arrival.
    SpawnCross,
    /// Next Poisson churn arrival (see [`crate::scenario::ChurnSpec`]).
    ChurnSpawn,
    /// Periodic per-flow telemetry sampling (see `Scenario::with_trace`).
    TraceSample,
    /// Apply the `idx`-th scheduled link change (see `Sim::fault_changes`).
    Fault {
        idx: u32,
    },
    /// A data packet arrives at the entry of hop `hop` of its flow's path
    /// (multi-link topologies only: hop 0 is admitted inline by `try_send`
    /// and the last hop delivers via `Delivery`, so single-link runs never
    /// schedule this).
    HopArrival {
        flow: u32,
        seq: SeqNr,
        bytes: u32,
        sent_at: Time,
        hop: u16,
    },
}

/// Wire lane of the `Delivery`/`HopArrival` events leaving link `li`.
const fn fwd_lane(li: usize) -> usize {
    2 * li
}

/// Wire lane of the `AckArrival` events of flows whose last hop is `li`.
const fn ack_lane(li: usize) -> usize {
    2 * li + 1
}

/// Index of `Event::QueueDrain` in [`crate::metrics::EVENT_KIND_NAMES`].
const K_QUEUE_DRAIN: usize = 2;
/// Index of the first timer kind (`Pace`) in
/// [`crate::metrics::EVENT_KIND_NAMES`]; `CcTimer`, `Rto` and `AppWake`
/// follow in [`TimerKind`] order.
const K_TIMERS: usize = 5;

impl Event {
    /// Index into [`crate::metrics::EVENT_KIND_NAMES`] for accounting.
    fn kind(&self) -> usize {
        match self {
            Event::FlowStart(_) => 0,
            Event::FlowStop(_) => 1,
            Event::QueueDrain { .. } => K_QUEUE_DRAIN,
            Event::Delivery { .. } => 3,
            Event::AckArrival { .. } => 4,
            Event::Timer { kind, .. } => K_TIMERS + *kind as usize,
            Event::SpawnCross => 9,
            Event::ChurnSpawn => 10,
            Event::TraceSample => 11,
            Event::Fault { .. } => 12,
            Event::HopArrival { .. } => 13,
        }
    }
}

/// The path a flow or churn class declared, checked against the topology,
/// or the default path if it declared none.
///
/// # Panics
/// Panics if the declared path is empty, names a link outside the topology
/// or visits a link twice.
fn resolve_path(
    topology: &Topology,
    default: &Arc<[LinkId]>,
    declared: Option<&[LinkId]>,
    what: &str,
    name: &str,
) -> Arc<[LinkId]> {
    let Some(path) = declared else {
        return Arc::clone(default);
    };
    if let Err(e) = topology.check_path(path) {
        panic!("{what} {name:?}: {e}");
    }
    Arc::from(path)
}

/// The simulation engine. Construct with [`Sim::new`], execute with
/// [`Sim::run`], or use the [`run`] convenience function.
pub struct Sim {
    now: Time,
    /// Sequence number of the event being dispatched: with `now`, the key
    /// that bounds which link-owned departures are already due.
    now_seq: u64,
    queue: EventQueue<Event>,
    event_seq: u64,
    /// The topology's links, indexed by [`LinkId`].
    links: Vec<Link>,
    flows: FlowTable,
    /// One row per `flows` row, in id order (`Sim::spawn` pushes both).
    metrics: Vec<FlowMetrics>,
    rng: SmallRng,
    duration: Dur,
    throughput_bin: Dur,
    rtt_stride: usize,
    telemetry: Telemetry,
    cross: Option<Population>,
    churn: Option<Population>,
    /// Reusable scratch for loss sweeps (dup-ACK and RTO), so the per-ACK
    /// and per-RTO paths stay allocation-free after warm-up.
    loss_scratch: Vec<(SeqNr, Time, u64)>,
    /// Reusable scratch for draining media frame records on the ACK path.
    frame_scratch: Vec<FrameRecord>,
    /// Every scheduled link change across all per-link fault schedules,
    /// indexed by `Event::Fault::idx` (pushed in link order, then schedule
    /// order).
    fault_changes: Vec<(LinkId, LinkChange)>,
    /// Event-queue traffic accounting (mechanics, not behavior).
    events: EventStats,
    /// Built as the [`WirePath::Staged`] oracle: wire events and queue
    /// drains all go through the scheduler.
    staged: bool,
}

impl Sim {
    /// Builds the engine from a scenario, consuming it.
    ///
    /// # Panics
    /// Panics if a flow or churn class declares a path that is empty, names
    /// a link outside the topology, or visits a link twice, or if
    /// `duration` is 2^48 ns (about 78 hours) or longer.
    pub fn new(scenario: Scenario) -> Self {
        Self::reference(scenario, Scheduler::Wheel, WirePath::Fused)
    }

    /// [`Sim::new`] on a chosen scheduler and wire path: the entry point of
    /// the equivalence suites, which run the same scenario on a reference
    /// implementation and on production and compare every result byte.
    /// `reference(sc, Scheduler::Wheel, WirePath::Fused)` is `new(sc)`.
    #[doc(hidden)]
    pub fn reference(scenario: Scenario, scheduler: Scheduler, wire_path: WirePath) -> Self {
        let Scenario {
            topology,
            flows,
            cross_traffic,
            duration,
            seed,
            throughput_bin,
            rtt_stride,
            trace_every,
            churn,
        } = scenario;
        let n_links = topology.links.len();
        assert!(n_links > 0, "topology needs at least one link");
        // What an in-flight record's 48-bit send time relies on: no event
        // is dispatched after `duration`.
        assert!(
            Time::ZERO + duration < SENT_AT_LIMIT,
            "duration {:.0} s is too long: a run must end before 2^48 ns (about 78 hours)",
            duration.as_secs_f64()
        );
        let faults_of = |li: usize| topology.faults.get(li).and_then(Option::as_ref);

        // Initial scheduler capacity is derived from the scenario, not a
        // fixed constant: every static flow contributes a start (and maybe a
        // stop) event, the churn warm-start population does the same, and
        // each scheduled fault is one event. The scheduler grows beyond this
        // without dropping events (`sched` tests assert no silent cap);
        // deriving it just avoids regrowth storms at t=0 for 10k-flow runs.
        let fault_events: usize = topology
            .faults
            .iter()
            .flatten()
            .map(|s| s.link_events.len())
            .sum();
        let flow_capacity = flows.len() + churn.as_ref().map_or(0, |c| c.initial);
        let capacity = flow_capacity * 2 + fault_events + QUEUE_CAPACITY_MARGIN;

        let mut sim = Sim {
            now: Time::ZERO,
            now_seq: 0,
            queue: EventQueue::new(scheduler, capacity).with_lanes(2 * n_links),
            event_seq: 0,
            links: Vec::with_capacity(n_links),
            flows: FlowTable::with_capacity(flow_capacity),
            metrics: Vec::with_capacity(flow_capacity),
            rng: SmallRng::seed_from_u64(seed),
            duration,
            throughput_bin,
            rtt_stride,
            telemetry: Telemetry::new(trace_every),
            cross: None,
            churn: None,
            loss_scratch: Vec::new(),
            frame_scratch: Vec::new(),
            fault_changes: Vec::new(),
            events: EventStats::default(),
            staged: wire_path == WirePath::Staged,
        };

        // Links, each with its own fault stream (see
        // LINK_FAULT_SEED_STRIDE); their timed changes are pushed in link
        // order, then schedule order.
        for (li, spec) in topology.links.iter().enumerate() {
            let fault_seed = seed ^ (li as u64).wrapping_mul(LINK_FAULT_SEED_STRIDE);
            sim.links.push(Link::new(spec, faults_of(li), fault_seed));
            for &(at, change) in faults_of(li).into_iter().flat_map(|s| &s.link_events) {
                let idx = sim.fault_changes.len() as u32;
                sim.fault_changes.push((li as LinkId, change));
                sim.push(Time::ZERO + at, Event::Fault { idx });
            }
        }

        let default_path: Arc<[LinkId]> = topology.full_path().into();
        for spec in flows {
            let path = spec.path.as_deref();
            sim.spawn(NewFlow {
                path: resolve_path(&topology, &default_path, path, "flow", &spec.name),
                name: spec.name,
                cc: (spec.cc)(),
                app: (spec.app)(),
                reliable: spec.reliable,
                start: Time::ZERO + spec.start,
                stop: spec.stop.map(|d| Time::ZERO + d),
            });
        }

        if let Some(ct) = cross_traffic {
            sim.push(Time::ZERO + ct.start, Event::SpawnCross);
            sim.cross = Some(Population::cross(ct, Arc::clone(&default_path)));
        }

        if let Some(cs) = churn {
            let resolve = |c: &ChurnClass| {
                let path = c.path.as_deref();
                resolve_path(&topology, &default_path, path, "churn class", &c.name)
            };
            let paths = cs.classes.iter().map(resolve).collect();
            let start = Time::ZERO + cs.start;
            let arrivals = cs.arrivals_per_sec > 0.0 && start < Time::ZERO + cs.stop;
            let initial = cs.initial;
            let mut churn = Population::churn(cs, paths, seed ^ CHURN_SEED_SALT);
            // Warm-start population: each flow draws (class, lifetime) from
            // the churn stream and starts when arrivals begin.
            for _ in 0..initial {
                let flow = churn.draw(start, sim.flows.len(), &mut sim.rng);
                sim.spawn(flow);
            }
            if arrivals {
                sim.push(start, Event::ChurnSpawn);
            }
            sim.churn = Some(churn);
        }

        if let Some(at) = sim.telemetry.next_sample(Time::ZERO) {
            sim.push(at, Event::TraceSample);
        }

        sim
    }

    /// The one way a flow comes to exist — static, cross-traffic or churn:
    /// a flow-table row, its metrics row, and its start (and stop) events.
    /// In a run that samples a trace, the controller is swapped for its
    /// [`proteus_transport::CongestionControl::decision_traced`] twin, if it
    /// has one.
    fn spawn(&mut self, flow: NewFlow) {
        let mut cc = flow.cc;
        if self.telemetry.samples() {
            if let Some(traced) = cc.decision_traced() {
                cc = traced;
            }
        }
        let id = self.flows.push_flow(cc, flow.app, flow.reliable, flow.path);
        debug_assert_eq!(id, self.metrics.len(), "one metrics row per flow");
        self.flows.stop_at[id] = flow.stop;
        self.metrics.push(FlowMetrics::new(
            id,
            flow.name,
            self.throughput_bin,
            self.rtt_stride,
        ));
        self.push(flow.start, Event::FlowStart(id as u32));
        if let Some(stop) = flow.stop {
            self.push(stop, Event::FlowStop(id as u32));
        }
    }

    /// One Poisson arrival of the population whose arrival event is `ev`
    /// (`SpawnCross` or `ChurnSpawn`): spawn the flow now, schedule the
    /// next arrival.
    fn on_arrival(&mut self, ev: Event) {
        let population = match ev {
            Event::SpawnCross => &mut self.cross,
            _ => &mut self.churn,
        };
        let arrival = population
            .as_mut()
            .and_then(|p| p.arrive(self.now, self.flows.len(), &mut self.rng));
        if let Some((flow, next)) = arrival {
            self.spawn(flow);
            self.push(next, ev);
        }
    }

    fn push(&mut self, at: Time, ev: Event) {
        self.event_seq += 1;
        self.queue.push(at, self.event_seq, ev);
        self.note_sched_push();
    }

    fn note_sched_push(&mut self) {
        self.events.pushes += 1;
        let depth = self.queue.sched_len() as u64;
        if depth > self.events.peak_queue {
            self.events.peak_queue = depth;
        }
    }

    /// Pushes a wire event (`Delivery`, `HopArrival`, `AckArrival`) onto
    /// `lane`. The lane takes it when it arrives in time order; the
    /// exceptions — an RTT step down, a noise spike on another flow, a
    /// sub-path with a shorter return — go to the scheduler under the same
    /// sequence number, so the event's `(time, seq)` key never depends on
    /// which of the two carried it.
    fn push_wire(&mut self, lane: usize, at: Time, ev: Event) {
        if self.staged {
            return self.push(at, ev);
        }
        self.event_seq += 1;
        if !self.queue.push_lane(lane, at, self.event_seq, ev) {
            self.events.lane_fallbacks += 1;
            self.note_sched_push();
        }
    }

    /// Releases link `li`'s departures that are due before the event being
    /// dispatched, counting each as the `QueueDrain` it replaces. Must run
    /// before anything reads that link's occupancy.
    fn flush_departures(&mut self, li: usize) {
        let n = self.links[li].release_before(self.now, self.now_seq);
        self.events.pops[K_QUEUE_DRAIN] += n;
        self.events.fused += n;
        debug_assert!(
            self.staged || self.links[li].owns_all_queued(),
            "link {li}: occupancy diverged from its departure FIFO"
        );
    }

    /// Runs the scenario to completion and returns the measurements.
    pub fn run(mut self) -> SimResult {
        let end = Time::ZERO + self.duration;
        while let Some((at, seq, ev)) = self.queue.pop_through(end) {
            self.now = at;
            self.now_seq = seq;
            self.dispatch(ev);
        }
        // Departures the run reached (`depart_at <= end`) but no later
        // offer flushed.
        (self.now, self.now_seq) = (end, u64::MAX);
        for li in 0..self.links.len() {
            self.flush_departures(li);
            debug_assert!(
                self.links[li].conserves_bytes(),
                "link {li}: accepted bytes must be delivered or still queued"
            );
        }
        self.events.fused += self.queue.lane_pops();
        let (trace, decisions) = self.telemetry.finish(&mut self.flows);
        SESSION_DISPATCHED.fetch_add(self.events.dispatched(), Ordering::Relaxed);
        SESSION_FUSED.fetch_add(self.events.fused, Ordering::Relaxed);
        SimResult {
            flows: self.metrics,
            duration: self.duration,
            links: self.links.iter().map(Link::summary).collect(),
            trace,
            decisions,
            events: self.events,
        }
    }

    fn dispatch(&mut self, ev: Event) {
        self.events.pops[ev.kind()] += 1;
        match ev {
            Event::FlowStart(id) => self.on_flow_start(id as FlowId),
            Event::FlowStop(id) => self.on_flow_stop(id as FlowId),
            Event::QueueDrain { link, bytes } => {
                self.links[link as usize].on_departure(bytes as u64)
            }
            Event::Delivery {
                flow,
                seq,
                bytes,
                sent_at,
            } => self.on_delivery(flow as FlowId, seq, bytes as u64, sent_at),
            Event::AckArrival {
                flow,
                seq,
                bytes,
                sent_at,
                delivered_at,
            } => self.on_ack_arrival(flow as FlowId, seq, bytes as u64, sent_at, delivered_at),
            Event::Timer { flow, kind } => self.on_timer(flow as FlowId, kind),
            // Named afresh rather than passed on as `ev`: handing the
            // matched value to a handler keeps the whole `Event` live in
            // memory across this match, which cost every dispatch — about
            // 5 % of a clean run's CPU time (DESIGN.md §4c).
            Event::SpawnCross => self.on_arrival(Event::SpawnCross),
            Event::ChurnSpawn => self.on_arrival(Event::ChurnSpawn),
            Event::TraceSample => {
                self.telemetry.sample(self.now, &mut self.flows);
                if let Some(at) = self.telemetry.next_sample(self.now) {
                    self.push(at, Event::TraceSample);
                }
            }
            Event::Fault { idx } => {
                // One scheduled link change, recorded as a link-scoped
                // trace event.
                let (li, change) = self.fault_changes[idx as usize];
                let fault = self.links[li as usize].apply(change);
                self.telemetry.fault(self.now, fault);
            }
            Event::HopArrival {
                flow,
                seq,
                bytes,
                sent_at,
                hop,
            } => self.admit(flow as FlowId, seq, bytes as u64, sent_at, hop as usize),
        }
    }

    fn on_flow_start(&mut self, id: FlowId) {
        if self.flows.active[id] {
            return;
        }
        self.flows.activate(id);
        self.flows.cc[id].on_flow_start(self.now);
        self.metrics[id].started_at = Some(self.now);
        self.sync_cc_timer(id);
        self.try_send(id);
    }

    fn on_flow_stop(&mut self, id: FlowId) {
        if !self.flows.active[id] {
            return;
        }
        self.flows.deactivate(id);
        if self.metrics[id].finished_at.is_none() {
            self.metrics[id].finished_at = Some(self.now);
        }
        self.maybe_retire(id);
    }

    fn on_delivery(&mut self, flow: FlowId, seq: SeqNr, bytes: u64, sent_at: Time) {
        // The receiver generates an ACK immediately; the last hop may hold
        // it (noise, ACK compression) before it crosses the reverse path,
        // whose propagation sums the path links' reverse halves. The return
        // path is FIFO: ACK arrivals are clamped monotone per flow.
        let delivered_at = self.now;
        let path = &self.flows.path[flow];
        let last = path[path.len() - 1] as usize;
        let rev_prop = path.iter().fold(Dur::ZERO, |sum, &li| {
            sum + self.links[li as usize].rev_prop()
        });
        let release = self.links[last].ack_release(self.now, &mut self.rng);
        let arrival = (release + rev_prop).max(self.flows.last_ack_arrival_at[flow]);
        self.flows.last_ack_arrival_at[flow] = arrival;
        self.push_wire(
            ack_lane(last),
            arrival,
            Event::AckArrival {
                flow: flow as u32,
                seq,
                bytes: bytes as u32,
                sent_at,
                delivered_at,
            },
        );
    }

    fn on_ack_arrival(
        &mut self,
        flow: FlowId,
        seq: SeqNr,
        bytes: u64,
        sent_at: Time,
        delivered_at: Time,
    ) {
        let now = self.now;
        let rtt = now.since(sent_at);
        let owd = delivered_at.since(sent_at);

        let mut lost = std::mem::take(&mut self.loss_scratch);
        lost.clear();
        let acked = self.flows.inflight[flow].remove(seq).is_some();
        if acked {
            self.flows.inflight_bytes[flow] = self.flows.inflight_bytes[flow].saturating_sub(bytes);
            self.flows.rtt[flow].update(rtt);
            // Dup-ACK analog: earlier packets are lost once this ACK is
            // REORDER_THRESHOLD ahead of them.
            while let Some((oldest, &pkt)) = self.flows.inflight[flow].front() {
                if oldest + REORDER_THRESHOLD <= seq {
                    self.flows.inflight[flow].pop_front();
                    self.flows.inflight_bytes[flow] =
                        self.flows.inflight_bytes[flow].saturating_sub(pkt.bytes());
                    lost.push((oldest, pkt.sent_at(), pkt.bytes()));
                } else {
                    break;
                }
            }
        }

        if !acked {
            // Already declared lost (spurious "ack"); ignore.
            self.loss_scratch = lost;
            return;
        }

        self.metrics[flow].on_ack(now, bytes, rtt);
        let ack = AckInfo {
            seq,
            bytes,
            sent_at,
            recv_at: now,
            rtt,
            one_way_delay: owd,
        };
        self.flows.cc[flow].on_ack(now, &ack);

        for &(l_seq, l_sent, l_bytes) in &lost {
            self.declare_loss(flow, l_seq, l_sent, l_bytes, false);
        }
        self.loss_scratch = lost;

        // Deliver progress to the application and check for completion.
        self.flows.app[flow].on_delivered(now, bytes);
        if self.flows.media[flow] {
            // Frame-latency bookkeeping, media flows only: pull newly
            // encoded frames from the source, then complete every frame
            // the cumulative acked byte count now covers.
            let mut frames = std::mem::take(&mut self.frame_scratch);
            frames.clear();
            self.flows.app[flow].drain_frames(&mut frames);
            if !frames.is_empty() {
                self.metrics[flow].media_ingest(&frames);
            }
            self.metrics[flow].media_progress(now);
            self.frame_scratch = frames;
        }
        let finished = self.flows.active[flow] && self.flows.app[flow].finished(now);
        if finished {
            self.flows.deactivate(flow);
            self.metrics[flow].finished_at = Some(now);
        }

        self.rearm_rto(flow);
        self.sync_cc_timer(flow);
        self.sync_app_wake(flow);
        self.try_send(flow);
        self.maybe_retire(flow);
    }

    fn declare_loss(
        &mut self,
        flow: FlowId,
        seq: SeqNr,
        sent_at: Time,
        bytes: u64,
        by_timeout: bool,
    ) {
        self.metrics[flow].on_loss();
        let loss = LossInfo {
            seq,
            bytes,
            sent_at,
            detected_at: self.now,
            by_timeout,
        };
        self.flows.cc[flow].on_loss(self.now, &loss);
        if self.flows.reliable[flow] {
            self.flows.retx_bytes[flow] += bytes;
        }
    }

    /// Arms `kind` for `flow` at `want` (`None` cancels it), pushing an
    /// event only when the table has no live one at or before that time.
    fn set_timer(&mut self, flow: FlowId, kind: TimerKind, want: Option<Time>) {
        let Some(at) = want else {
            return self.flows.timers.cancel(flow, kind);
        };
        if let Some(at) = self.flows.timers.arm(flow, kind, self.now, at) {
            let flow = flow as u32;
            self.push(at, Event::Timer { flow, kind });
        }
    }

    fn on_timer(&mut self, flow: FlowId, kind: TimerKind) {
        let now = self.now;
        match self.flows.timers.pop(flow, kind, now) {
            Pop::Due => {}
            Pop::Later(at) => {
                let flow = flow as u32;
                return self.push(at, Event::Timer { flow, kind });
            }
            Pop::Stale => return,
        }
        match kind {
            TimerKind::Pace => {}
            TimerKind::Cc => self.flows.cc[flow].on_timer(now),
            TimerKind::Rto => {
                self.expire_inflight(flow);
                self.rearm_rto(flow);
            }
            TimerKind::App => {
                self.flows.app[flow].on_wakeup(now);
                self.sync_app_wake(flow);
            }
        }
        self.sync_cc_timer(flow);
        self.try_send(flow);
        self.maybe_retire(flow);
    }

    /// Retransmission timeout: declares every packet older than one RTO
    /// lost. Packets are sent in seq order at non-decreasing times, so the
    /// stale set is exactly a prefix of the outstanding queue.
    fn expire_inflight(&mut self, flow: FlowId) {
        let rto = self.flows.rtt[flow].rto(MIN_RTO);
        let mut stale = std::mem::take(&mut self.loss_scratch);
        stale.clear();
        let cutoff = self.now - rto;
        while let Some((s, &pkt)) = self.flows.inflight[flow].front() {
            if pkt.sent_at() > cutoff {
                break;
            }
            self.flows.inflight[flow].pop_front();
            self.flows.inflight_bytes[flow] =
                self.flows.inflight_bytes[flow].saturating_sub(pkt.bytes());
            stale.push((s, pkt.sent_at(), pkt.bytes()));
        }
        for &(s, sent, b) in &stale {
            self.declare_loss(flow, s, sent, b, true);
        }
        self.loss_scratch = stale;
    }

    fn rearm_rto(&mut self, flow: FlowId) {
        let want = (!self.flows.inflight[flow].is_empty())
            .then(|| self.now + self.flows.rtt[flow].rto(MIN_RTO));
        self.set_timer(flow, TimerKind::Rto, want);
    }

    fn sync_cc_timer(&mut self, flow: FlowId) {
        let want = self.flows.cc[flow].next_timer();
        self.set_timer(flow, TimerKind::Cc, want);
    }

    fn sync_app_wake(&mut self, flow: FlowId) {
        if self.flows.active[flow] {
            let want = self.flows.app[flow].next_event(self.now);
            self.set_timer(flow, TimerKind::App, want);
        }
    }

    /// Once a stopped flow's last in-flight packet is accounted for, drain
    /// its remaining decisions and retire it — cancelling its timers and
    /// releasing its controller memory — so a run that churns through 100k
    /// flows doesn't accumulate 100k live controllers and their timer
    /// events.
    fn maybe_retire(&mut self, flow: FlowId) {
        if self.flows.retired[flow]
            || self.flows.active[flow]
            || !self.flows.inflight[flow].is_empty()
        {
            return;
        }
        self.telemetry.drain_flow(&mut self.flows, flow);
        self.flows.retire(flow);
    }

    /// Transmits as much as the window, pacing gate and application allow.
    fn try_send(&mut self, flow: FlowId) {
        let now = self.now;
        for _ in 0..MAX_BURST {
            if !self.flows.active[flow] {
                return;
            }
            if let Some(stop) = self.flows.stop_at[flow] {
                if now >= stop {
                    return;
                }
            }
            let cwnd = self.flows.cc[flow].cwnd_bytes();
            let pacing = self.flows.cc[flow].pacing_rate();
            assert!(
                pacing.is_some() || cwnd != u64::MAX,
                "controller {} must be paced or windowed",
                self.flows.cc[flow].name()
            );
            // Determine the next packet size from retransmission backlog or
            // fresh application data.
            let avail = if self.flows.retx_bytes[flow] > 0 {
                self.flows.retx_bytes[flow]
            } else {
                self.flows.app[flow].bytes_to_send(now)
            };
            if avail == 0 {
                // Application-limited; wake up when it has more to do.
                self.sync_app_wake(flow);
                return;
            }
            let bytes = avail.min(DEFAULT_PACKET_BYTES);
            if self.flows.inflight_bytes[flow] + bytes > cwnd {
                return; // window-limited; ACKs will reopen.
            }
            if let Some(rate) = pacing {
                debug_assert!(rate > 0.0);
                if now < self.flows.next_pace_at[flow] {
                    // Pacing-limited: schedule the next opportunity.
                    let at = self.flows.next_pace_at[flow];
                    return self.set_timer(flow, TimerKind::Pace, Some(at));
                }
                let interval = self.flows.pace_interval[flow].get(bytes, rate, |bytes, rate| {
                    Dur::from_secs_f64(bytes as f64 / rate)
                });
                self.flows.next_pace_at[flow] = now + interval;
            }

            // Commit the transmission.
            let seq = self.flows.next_seq[flow];
            self.flows.next_seq[flow] += 1;
            if self.flows.retx_bytes[flow] > 0 {
                self.flows.retx_bytes[flow] -= bytes;
            } else {
                self.flows.app[flow].consume(bytes);
            }
            self.flows.inflight[flow].insert(seq, InflightPkt::new(now, bytes));
            self.flows.inflight_bytes[flow] += bytes;
            let pkt = SentPacket {
                seq,
                bytes,
                sent_at: now,
            };
            self.flows.cc[flow].on_packet_sent(now, &pkt);
            let arm_rto = self.flows.timers.deadline(flow, TimerKind::Rto).is_none();
            self.metrics[flow].on_sent(bytes);

            self.admit(flow, seq, bytes, now, 0);
            if arm_rto {
                self.rearm_rto(flow);
            }
            self.sync_cc_timer(flow);
        }
        debug_assert!(false, "try_send hit MAX_BURST — runaway controller?");
    }

    /// Offers a packet to the link at hop `hop` of its flow's path: at hop 0
    /// straight from `try_send`, further along when a `HopArrival` lands. A
    /// tail drop is silent wherever it happens — the sender finds out via
    /// dup-ACKs or its RTO.
    fn admit(&mut self, flow: FlowId, seq: SeqNr, bytes: u64, sent_at: Time, hop: usize) {
        let li = self.flows.path[flow][hop] as usize;
        self.flush_departures(li);
        if let Offer::Departs(at) = self.links[li].offer(self.now, bytes) {
            self.forward_accepted(flow, seq, bytes, sent_at, hop, at);
        }
    }

    /// Continuation after link `path[hop]` accepted a packet that departs
    /// its queue at `depart_at`: hands the departure to the link (the staged oracle
    /// schedules the queue drain instead), lets the link carry the packet
    /// across its wire, and forwards what arrives to the next hop
    /// (`HopArrival`) or the receiver (`Delivery`).
    ///
    /// The link decides loss and arrival time; what stays here needs the
    /// flow table or the queue. The per-flow FIFO clamp (jitter never
    /// reorders a flow) applies at the final hop only — each mid-path queue
    /// is itself FIFO — and not to a reorder-held packet, which neither
    /// obeys nor advances it, so later packets overtake it. A held packet
    /// also skips the lane: its late tail would turn every in-order packet
    /// behind it into a fallback.
    fn forward_accepted(
        &mut self,
        flow: FlowId,
        seq: SeqNr,
        bytes: u64,
        sent_at: Time,
        hop: usize,
        depart_at: Time,
    ) {
        let (li, last_hop) = {
            let p = &self.flows.path[flow];
            (p[hop] as usize, hop + 1 == p.len())
        };
        if self.staged {
            self.push(
                depart_at,
                Event::QueueDrain {
                    link: li as LinkId,
                    bytes: bytes as u32,
                },
            );
        } else {
            self.event_seq += 1;
            self.links[li].defer_departure(depart_at, self.event_seq, bytes);
        }
        let (wire, burst_edge) = self.links[li].wire(depart_at, &mut self.rng);
        if let Some(fault) = burst_edge {
            self.telemetry.fault(self.now, fault);
        }
        let Wire::Arrives { mut at, held } = wire else {
            return;
        };
        if last_hop && !held {
            at = at.max(self.flows.last_delivery_at[flow]);
            self.flows.last_delivery_at[flow] = at;
        }
        let (flow, bytes) = (flow as u32, bytes as u32);
        let ev = if last_hop {
            Event::Delivery {
                flow,
                seq,
                bytes,
                sent_at,
            }
        } else {
            Event::HopArrival {
                flow,
                seq,
                bytes,
                sent_at,
                hop: (hop + 1) as u16,
            }
        };
        if held {
            self.push(at, ev);
        } else {
            self.push_wire(fwd_lane(li), at, ev);
        }
    }
}

/// Runs a scenario to completion.
pub fn run(scenario: Scenario) -> SimResult {
    Sim::new(scenario).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChurnSpec, CrossTrafficSpec, FlowSpec, LinkSpec};
    use proteus_transport::CongestionControl;

    /// Fixed congestion window, ACK-clocked. Ignores losses.
    struct TestWindow {
        cwnd: u64,
    }

    impl CongestionControl for TestWindow {
        fn name(&self) -> &str {
            "test-window"
        }
        fn on_ack(&mut self, _now: Time, _ack: &AckInfo) {}
        fn on_loss(&mut self, _now: Time, _loss: &LossInfo) {}
        fn pacing_rate(&self) -> Option<f64> {
            None
        }
        fn cwnd_bytes(&self) -> u64 {
            self.cwnd
        }
    }

    /// Fixed pacing rate, no window.
    struct TestPaced {
        rate: f64, // bytes/sec
    }

    impl CongestionControl for TestPaced {
        fn name(&self) -> &str {
            "test-paced"
        }
        fn on_ack(&mut self, _now: Time, _ack: &AckInfo) {}
        fn on_loss(&mut self, _now: Time, _loss: &LossInfo) {}
        fn pacing_rate(&self) -> Option<f64> {
            Some(self.rate)
        }
    }

    fn link_10mbps_20ms() -> LinkSpec {
        // BDP = 10 Mbps * 20 ms = 25 KB
        LinkSpec::new(10.0, Dur::from_millis(20), 50_000)
    }

    /// What makes a waiting event one 64-byte wheel node (DESIGN.md §4c;
    /// `sched::tests` has the other half): 40 bytes, and a spare tag value
    /// for a free node's `None`.
    #[test]
    fn an_event_is_40_bytes_with_a_niche() {
        assert_eq!(std::mem::size_of::<Event>(), 40);
        assert_eq!(std::mem::size_of::<Option<Event>>(), 40);
    }

    #[test]
    fn the_longest_run_ends_just_before_2_pow_48_ns() {
        let _ = Sim::new(Scenario::new(
            link_10mbps_20ms(),
            Dur::from_nanos((1 << 48) - 1),
        ));
    }

    #[test]
    #[should_panic(expected = "a run must end before 2^48 ns")]
    fn a_run_of_2_pow_48_ns_is_rejected() {
        let _ = Sim::new(Scenario::new(link_10mbps_20ms(), Dur::from_nanos(1 << 48)));
    }

    #[test]
    fn window_flow_saturates_link() {
        // cwnd of 2 BDP guarantees full utilization.
        let sc = Scenario::new(link_10mbps_20ms(), Dur::from_secs(10)).flow(FlowSpec::bulk(
            "win",
            Dur::ZERO,
            || Box::new(TestWindow { cwnd: 50_000 }),
        ));
        let res = run(sc);
        let thpt =
            res.flows[0].throughput_mbps(Time::from_secs_f64(2.0), Time::from_secs_f64(10.0));
        assert!(thpt > 9.3 && thpt <= 10.05, "throughput = {thpt}");
        // Sender-side conservation: everything sent is acked, lost or inflight.
        let m = &res.flows[0];
        assert!(m.pkts_acked + m.pkts_lost <= m.pkts_sent);
        assert!(m.pkts_sent - (m.pkts_acked + m.pkts_lost) < 100);
    }

    #[test]
    fn paced_flow_hits_its_rate() {
        // Pace at 4 Mbps on a 10 Mbps link: no queueing, RTT stays at base.
        let sc = Scenario::new(link_10mbps_20ms(), Dur::from_secs(5)).flow(FlowSpec::bulk(
            "paced",
            Dur::ZERO,
            || Box::new(TestPaced { rate: 500_000.0 }),
        ));
        let res = run(sc);
        let thpt = res.flows[0].throughput_mbps(Time::from_secs_f64(1.0), Time::from_secs_f64(5.0));
        assert!((thpt - 4.0).abs() < 0.2, "throughput = {thpt}");
        // RTT should be base (20ms) + one packet serialization (1.2ms).
        let p95 = res.flows[0].rtt_percentile(95.0).unwrap();
        assert!(p95 < 0.023, "p95 rtt = {p95}");
    }

    #[test]
    fn overdriven_window_fills_buffer_and_loses() {
        // cwnd of 8 BDP against a 2 BDP buffer: persistent queue + loss.
        let sc = Scenario::new(link_10mbps_20ms(), Dur::from_secs(10)).flow(FlowSpec::bulk(
            "big",
            Dur::ZERO,
            || Box::new(TestWindow { cwnd: 200_000 }),
        ));
        let res = run(sc);
        let m = &res.flows[0];
        assert!(m.pkts_lost > 0, "expected tail drops");
        // Queue inflates RTT towards base + buffer/rate = 20ms + 40ms.
        let p95 = m.rtt_percentile(95.0).unwrap();
        assert!(p95 > 0.050, "p95 rtt = {p95}");
        // Link still saturated.
        let thpt = m.throughput_mbps(Time::from_secs_f64(2.0), Time::from_secs_f64(10.0));
        assert!(thpt > 9.0, "throughput = {thpt}");
    }

    #[test]
    fn random_loss_is_detected() {
        let link = link_10mbps_20ms().with_random_loss(0.02);
        let sc = Scenario::new(link, Dur::from_secs(10))
            .flow(FlowSpec::bulk("paced", Dur::ZERO, || {
                Box::new(TestPaced { rate: 250_000.0 })
            }))
            .with_seed(42);
        let res = run(sc);
        let m = &res.flows[0];
        let loss = m.loss_rate();
        assert!(loss > 0.01 && loss < 0.035, "observed loss = {loss}");
    }

    #[test]
    fn sized_flow_completes_reliably_under_loss() {
        let link = link_10mbps_20ms().with_random_loss(0.05);
        let sc = Scenario::new(link, Dur::from_secs(30))
            .flow(FlowSpec::sized("xfer", Dur::ZERO, 200_000, || {
                Box::new(TestWindow { cwnd: 20_000 })
            }))
            .with_seed(7);
        let res = run(sc);
        let m = &res.flows[0];
        assert!(
            m.completion_time().is_some(),
            "sized flow should finish despite loss"
        );
        assert!(m.bytes_acked >= 200_000);
    }

    #[test]
    fn two_flows_share_capacity() {
        let sc = Scenario::new(link_10mbps_20ms(), Dur::from_secs(10))
            .flow(FlowSpec::bulk("a", Dur::ZERO, || {
                Box::new(TestPaced { rate: 400_000.0 })
            }))
            .flow(FlowSpec::bulk("b", Dur::ZERO, || {
                Box::new(TestPaced { rate: 400_000.0 })
            }));
        let res = run(sc);
        let a = res.flows[0].throughput_mbps(Time::from_secs_f64(1.0), Time::from_secs_f64(10.0));
        let b = res.flows[1].throughput_mbps(Time::from_secs_f64(1.0), Time::from_secs_f64(10.0));
        assert!((a - 3.2).abs() < 0.3, "a = {a}");
        assert!((b - 3.2).abs() < 0.3, "b = {b}");
    }

    #[test]
    fn flow_start_and_stop_honored() {
        let sc = Scenario::new(link_10mbps_20ms(), Dur::from_secs(10)).flow(
            FlowSpec::bulk("late", Dur::from_secs(3), || {
                Box::new(TestPaced { rate: 250_000.0 })
            })
            .with_stop(Dur::from_secs(6)),
        );
        let res = run(sc);
        let m = &res.flows[0];
        assert_eq!(m.started_at, Some(Time::ZERO + Dur::from_secs(3)));
        let before = m.throughput_bps(Time::ZERO, Time::from_secs_f64(3.0));
        let during = m.throughput_bps(Time::from_secs_f64(3.5), Time::from_secs_f64(6.0));
        let after = m.throughput_bps(Time::from_secs_f64(6.5), Time::from_secs_f64(10.0));
        assert_eq!(before, 0.0);
        assert!(during > 1.5e6);
        assert!(after < 0.1e6);
    }

    #[test]
    fn cross_traffic_spawns_flows() {
        let ct = CrossTrafficSpec {
            arrivals_per_sec: 5.0,
            size_range: (20_000, 100_000),
            cc: proteus_transport::factory(|_| TestWindow { cwnd: 30_000 }),
            start: Dur::ZERO,
            stop: Dur::from_secs(10),
        };
        let sc = Scenario::new(
            LinkSpec::new(100.0, Dur::from_millis(20), 500_000),
            Dur::from_secs(12),
        )
        .with_cross_traffic(ct)
        .with_seed(3);
        let res = run(sc);
        let n = res.flows.len();
        // ~50 expected arrivals.
        assert!(n > 25 && n < 90, "spawned {n}");
        let finished = res
            .flows
            .iter()
            .filter(|f| f.completion_time().is_some())
            .count();
        assert!(finished as f64 > 0.9 * n as f64, "finished {finished}/{n}");
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            Scenario::new(link_10mbps_20ms().with_random_loss(0.01), Dur::from_secs(5))
                .flow(FlowSpec::bulk("w", Dur::ZERO, || {
                    Box::new(TestWindow { cwnd: 60_000 })
                }))
                .with_seed(99)
        };
        let r1 = run(mk());
        let r2 = run(mk());
        assert_eq!(r1.flows[0].bytes_acked, r2.flows[0].bytes_acked);
        assert_eq!(r1.flows[0].pkts_lost, r2.flows[0].pkts_lost);
        assert_eq!(r1.links[0].dropped_pkts, r2.links[0].dropped_pkts);
    }

    /// The link records its own occupancy peak (there is no periodic queue
    /// sampler): a 4-BDP window against a 2-BDP buffer pins it near full.
    #[test]
    fn queue_sampling_records() {
        let sc = Scenario::new(link_10mbps_20ms(), Dur::from_secs(5)).flow(FlowSpec::bulk(
            "w",
            Dur::ZERO,
            || Box::new(TestWindow { cwnd: 100_000 }),
        ));
        let peak = run(sc).links[0].peak_queued_bytes;
        assert!(peak <= 50_000, "queue exceeded the buffer: {peak}");
        assert!(peak > 45_000, "peak queue = {peak}");
    }

    #[test]
    fn trace_sampling_records_flow_state() {
        let sc = Scenario::new(link_10mbps_20ms(), Dur::from_secs(5))
            .flow(FlowSpec::bulk("p", Dur::ZERO, || {
                Box::new(TestPaced { rate: 250_000.0 }) // 2 Mbps
            }))
            .with_trace();
        let res = run(sc);
        assert!(res.trace.len() >= 45, "got {} samples", res.trace.len());
        let e = &res.trace[10];
        assert_eq!(e.flow, 0);
        assert_eq!(e.rate_mbps, Some(2.0));
        assert_eq!(e.cwnd_bytes, None, "TestPaced is unwindowed");
        assert!(e.srtt_ms.unwrap() > 19.0, "srtt = {:?}", e.srtt_ms);
        assert!(e.rttvar_ms.is_some());
        assert!(e.mode.is_none(), "test stub exposes no snapshot");
        // Samples are on a strict 100 ms clock.
        assert!((res.trace[1].t - res.trace[0].t - 0.1).abs() < 1e-9);
    }

    #[test]
    fn trace_empty_when_disabled() {
        let sc = Scenario::new(link_10mbps_20ms(), Dur::from_secs(2)).flow(FlowSpec::bulk(
            "p",
            Dur::ZERO,
            || Box::new(TestPaced { rate: 250_000.0 }),
        ));
        assert!(run(sc).trace.is_empty());
    }

    #[test]
    fn base_rtt_respected_without_queueing() {
        let sc = Scenario::new(
            LinkSpec::new(100.0, Dur::from_millis(40), 500_000),
            Dur::from_secs(3),
        )
        .flow(FlowSpec::bulk("p", Dur::ZERO, || {
            Box::new(TestPaced { rate: 125_000.0 }) // 1 Mbps
        }));
        let res = run(sc);
        let min = res.flows[0]
            .rtt_values()
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        // base 40ms + 0.12ms serialization
        assert!((min - 0.04012).abs() < 1e-4, "min rtt = {min}");
    }

    #[test]
    fn pacing_keeps_one_live_event_per_flow() {
        // Every ACK finds the flow pacing-limited and re-arms the timer it
        // already has; re-pushing on each re-arm doubled the Pace events.
        let sc = Scenario::new(link_10mbps_20ms(), Dur::from_secs(5)).flow(FlowSpec::bulk(
            "paced",
            Dur::ZERO,
            || Box::new(TestPaced { rate: 500_000.0 }),
        ));
        let res = run(sc);
        let (pace_pops, sent) = (res.events.pops[K_TIMERS], res.flows[0].pkts_sent);
        assert!(sent > 1_500, "sent {sent}");
        assert!(
            pace_pops as f64 <= 1.1 * sent as f64,
            "{pace_pops} Pace pops for {sent} packets"
        );
    }

    /// Paces at 500 kB/s until its timer fires at t = 1 s, at 250 kB/s from
    /// then on, and logs every send time.
    struct TestRateStep {
        rate: f64,
        step_at: Option<Time>,
        sends_ns: Arc<std::sync::Mutex<Vec<u64>>>,
    }

    impl CongestionControl for TestRateStep {
        fn name(&self) -> &str {
            "test-rate-step"
        }
        fn on_packet_sent(&mut self, now: Time, _pkt: &SentPacket) {
            self.sends_ns.lock().unwrap().push(now.as_nanos());
        }
        fn on_ack(&mut self, _now: Time, _ack: &AckInfo) {}
        fn on_loss(&mut self, _now: Time, _loss: &LossInfo) {}
        fn pacing_rate(&self) -> Option<f64> {
            Some(self.rate)
        }
        fn next_timer(&self) -> Option<Time> {
            self.step_at
        }
        fn on_timer(&mut self, _now: Time) {
            (self.rate, self.step_at) = (250_000.0, None);
        }
    }

    /// The pacing interval is remembered from packet to packet, keyed by
    /// `(bytes, rate)`: the first packet sent after the controller changes
    /// its rate must already be followed by the new gap.
    #[test]
    fn rate_change_applies_to_the_very_next_pacing_gap() {
        let sends_ns = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = sends_ns.clone();
        let sc = Scenario::new(link_10mbps_20ms(), Dur::from_secs(2)).flow(FlowSpec::bulk(
            "step",
            Dur::ZERO,
            move || {
                Box::new(TestRateStep {
                    rate: 500_000.0,
                    step_at: Some(Time::from_millis(1000)),
                    sends_ns: log,
                })
            },
        ));
        run(sc);
        let sends = sends_ns.lock().unwrap();
        let gaps: Vec<(u64, u64)> = sends.windows(2).map(|w| (w[0], w[1] - w[0])).collect();
        // 1500 B at 500 kB/s is 3 ms; the send at t = 999 ms still is. The
        // one at 1002 ms is the first to see 250 kB/s: 6 ms from there on.
        assert_eq!(gaps[332], (996_000_000, 3_000_000));
        assert_eq!(gaps[333], (999_000_000, 3_000_000));
        assert_eq!(gaps[334], (1_002_000_000, 6_000_000));
        assert!(gaps[..334].iter().all(|&(_, gap)| gap == 3_000_000));
        assert!(gaps[334..].iter().all(|&(_, gap)| gap == 6_000_000));
        assert!(gaps.len() > 490, "{} sends", sends.len());
    }

    /// `TestPaced` with a 10 ms controller timer that logs its last call.
    struct TestTicker {
        next: Time,
        last_tick_ns: Arc<AtomicU64>,
    }

    impl CongestionControl for TestTicker {
        fn name(&self) -> &str {
            "test-ticker"
        }
        fn on_ack(&mut self, _now: Time, _ack: &AckInfo) {}
        fn on_loss(&mut self, _now: Time, _loss: &LossInfo) {}
        fn pacing_rate(&self) -> Option<f64> {
            Some(250_000.0)
        }
        fn next_timer(&self) -> Option<Time> {
            Some(self.next)
        }
        fn on_timer(&mut self, now: Time) {
            self.last_tick_ns.store(now.as_nanos(), Ordering::Relaxed);
            self.next = now + Dur::from_millis(10);
        }
    }

    /// Runs `sc`'s event loop to the end but keeps the engine, so a test can
    /// look at its state.
    fn run_in_place(sc: Scenario) -> Sim {
        let end = Time::ZERO + sc.duration;
        let mut sim = Sim::new(sc);
        while let Some((at, seq, ev)) = sim.queue.pop_through(end) {
            (sim.now, sim.now_seq) = (at, seq);
            sim.dispatch(ev);
        }
        sim
    }

    #[test]
    fn stopped_flow_retires_without_churn() {
        let last_tick_ns = Arc::new(AtomicU64::new(0));
        let log = Arc::clone(&last_tick_ns);
        let sc = Scenario::new(link_10mbps_20ms(), Dur::from_secs(4)).flow(
            FlowSpec::bulk("t", Dur::ZERO, move || {
                Box::new(TestTicker {
                    next: Time::ZERO,
                    last_tick_ns: Arc::clone(&log),
                })
            })
            .with_stop(Dur::from_secs(1)),
        );
        let sim = run_in_place(sc);
        assert!(sim.flows.retired[0]);
        assert_eq!(sim.flows.cc[0].name(), "retired", "controller box released");
        // Stopped at 1 s with one RTT of packets in flight; the controller
        // ticked until they drained and never again.
        let last = last_tick_ns.load(Ordering::Relaxed);
        assert!(
            (990_000_000..1_100_000_000).contains(&last),
            "last on_timer at {last} ns"
        );
    }

    fn churn_scenario(seed: u64) -> Scenario {
        let classes = vec![ChurnClass::new(
            "w",
            1.0,
            proteus_transport::factory(|_| TestWindow { cwnd: 30_000 }),
        )];
        Scenario::new(
            LinkSpec::new(100.0, Dur::from_millis(20), 500_000),
            Dur::from_secs(12),
        )
        .with_churn(
            ChurnSpec::new(4.0, Dur::from_secs(2), classes)
                .with_initial(5)
                .with_window(Dur::ZERO, Dur::from_secs(10)),
        )
        .with_seed(seed)
    }

    #[test]
    fn churn_spawns_and_ages_out_flows() {
        let res = run(churn_scenario(11));
        let n = res.flows.len();
        // 5 initial + ~40 expected arrivals over 10 s.
        assert!(n > 20 && n < 90, "spawned {n}");
        // Every flow started; the vast majority also stopped (mean
        // lifetime 2 s against a 12 s run with arrivals ending at 10 s).
        assert!(res.flows.iter().all(|f| f.started_at.is_some()));
        let stopped = res.flows.iter().filter(|f| f.finished_at.is_some()).count();
        assert!(
            stopped as f64 > 0.8 * n as f64,
            "stopped {stopped}/{n} flows"
        );
        // The population actually transferred data.
        assert!(res.flows.iter().map(|f| f.bytes_acked).sum::<u64>() > 10_000_000);
    }

    #[test]
    fn static_cross_and_churn_flows_all_register_through_spawn() {
        let sc = churn_scenario(3)
            .flow(FlowSpec::bulk("static-a", Dur::ZERO, || {
                Box::new(TestWindow { cwnd: 30_000 })
            }))
            .flow(FlowSpec::sized(
                "static-b",
                Dur::from_secs(1),
                50_000,
                || Box::new(TestWindow { cwnd: 30_000 }),
            ))
            .with_cross_traffic(CrossTrafficSpec {
                arrivals_per_sec: 3.0,
                size_range: (20_000, 100_000),
                cc: proteus_transport::factory(|_| TestWindow { cwnd: 30_000 }),
                start: Dur::ZERO,
                stop: Dur::from_secs(10),
            });
        let sim = run_in_place(sc);
        // One table row per metrics row, ids in step, whatever the source.
        assert_eq!(sim.flows.len(), sim.metrics.len());
        assert!(sim.metrics.iter().enumerate().all(|(i, m)| m.id == i));
        // Static flows first, then the warm-start churn population, then
        // arrivals of both processes interleaved, each numbered by its own.
        let names: Vec<&str> = sim.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names[..7],
            ["static-a", "static-b", "w~1", "w~2", "w~3", "w~4", "w~5"]
        );
        let numbered = |prefix: &str| -> Vec<usize> {
            let tail = names.iter().filter_map(|n| n.strip_prefix(prefix));
            tail.map(|n| n.parse().unwrap()).collect()
        };
        let (cross, churn) = (numbered("cross-"), numbered("w~"));
        assert!(cross.len() > 10 && churn.len() > 20, "{names:?}");
        assert!(cross.iter().copied().eq(1..=cross.len()));
        assert!(churn.iter().copied().eq(1..=churn.len()));
        assert_eq!(names.len(), 2 + cross.len() + churn.len());
        // Only churn flows carry a stop time; every flow that started has
        // a row that says so.
        for (i, name) in names.iter().enumerate() {
            assert_eq!(sim.flows.stop_at[i].is_some(), name.starts_with("w~"));
            assert!(sim.metrics[i].started_at.is_some(), "{name} never started");
        }
    }

    #[test]
    fn churn_is_deterministic_and_scheduler_independent() {
        let digest = |res: &SimResult| {
            res.flows
                .iter()
                .map(|f| (f.name.clone(), f.bytes_acked, f.pkts_lost))
                .collect::<Vec<_>>()
        };
        let r1 = run(churn_scenario(17));
        let r2 = run(churn_scenario(17));
        assert_eq!(digest(&r1), digest(&r2));
        let r3 = Sim::reference(churn_scenario(17), Scheduler::Heap, WirePath::Fused).run();
        assert_eq!(digest(&r1), digest(&r3));
    }

    #[test]
    fn churn_stream_leaves_main_rng_untouched() {
        // Same seed, same loss process: attaching churn must not shift the
        // main RNG's draw sequence for pre-existing flows.
        let base = |churn: bool| {
            let mut sc =
                Scenario::new(link_10mbps_20ms().with_random_loss(0.02), Dur::from_secs(5))
                    .flow(FlowSpec::bulk("w", Dur::ZERO, || {
                        Box::new(TestWindow { cwnd: 30_000 })
                    }))
                    .with_seed(5);
            if churn {
                // Arrivals start after the run ends: zero churn flows ever
                // start, but the churn stream is live.
                sc = sc.with_churn(
                    ChurnSpec::new(
                        1.0,
                        Dur::from_secs(1),
                        vec![ChurnClass::new(
                            "c",
                            1.0,
                            proteus_transport::factory(|_| TestWindow { cwnd: 30_000 }),
                        )],
                    )
                    .with_window(Dur::from_secs(100), Dur::from_secs(200)),
                );
            }
            sc
        };
        let without = run(base(false));
        let with = run(base(true));
        assert_eq!(
            without.flows[0].pkts_lost, with.flows[0].pkts_lost,
            "churn must draw from its own RNG stream"
        );
        assert_eq!(without.flows[0].bytes_acked, with.flows[0].bytes_acked);
    }

    #[test]
    fn event_accounting_tracks_both_paths() {
        let mk = || {
            Scenario::new(link_10mbps_20ms(), Dur::from_secs(3)).flow(FlowSpec::bulk(
                "win",
                Dur::ZERO,
                || Box::new(TestWindow { cwnd: 50_000 }),
            ))
        };
        let fused = run(mk());
        let staged = Sim::reference(mk(), Scheduler::Wheel, WirePath::Staged).run();

        // Dispatched-by-kind counts are path-independent: the fused wire
        // phases count under the event kind they replace.
        assert_eq!(fused.events.pops, staged.events.pops);
        assert!(fused.events.dispatched() > 0);
        // The fused path routes the per-packet chain around the scheduler:
        // strictly fewer pushes, a strictly shallower queue, and every wire
        // dispatch attributed to the ring.
        assert!(fused.events.pushes < staged.events.pushes);
        assert!(fused.events.peak_queue <= staged.events.peak_queue);
        assert_eq!(
            fused.events.fused,
            fused.events.pops[2] + fused.events.pops[3] + fused.events.pops[4],
            "fused dispatches must equal the three replaced wire kinds"
        );
        assert_eq!(staged.events.fused, 0);
        assert!(fused.events.fused_fraction() > 0.5);

        // Session totals accumulate across runs; lower bounds only, because
        // other tests in this binary run concurrently and add their own.
        let totals = take_session_event_totals();
        assert!(totals.dispatched >= fused.events.dispatched() + staged.events.dispatched());
        assert!(totals.fused >= fused.events.fused);
    }
}
