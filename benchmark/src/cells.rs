//! One simulation cell: build the scenario, run it through `netsim`'s
//! public API, read the result back, check it, and fold it into the digest
//! and the pass totals.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use proteus_netsim::{FlowSpec, LinkSpec, Scenario, Sim, SimResult, EVENT_KIND_NAMES};
use proteus_transport::{Dur, DEFAULT_PACKET_BYTES};

use crate::alloc;
use crate::decorate::Proto;
use crate::inputs::{CellInputs, Nominal};
use crate::spans::Spans;

/// A cell of a simulation workload.
#[derive(Clone, Copy)]
pub struct CellDef {
    /// Cell name (span `cell.<name>`).
    pub name: &'static str,
    /// Parameters before the seeded draw.
    pub nominal: Nominal,
    /// Builds the scenario from the drawn inputs; `traced` selects
    /// decorated controllers and applications.
    pub build: fn(&CellInputs, bool) -> Scenario,
}

impl CellDef {
    /// Names a cell.
    pub fn new(
        name: &'static str,
        nominal: Nominal,
        build: fn(&CellInputs, bool) -> Scenario,
    ) -> Self {
        Self {
            name,
            nominal,
            build,
        }
    }
}

/// The link the drawn inputs describe.
pub fn link(c: &CellInputs) -> LinkSpec {
    LinkSpec::new(c.bw_mbps, Dur::from_secs_f64(c.rtt_ms / 1e3), 1).with_buffer_bdp(c.buffer_bdp)
}

/// A point `frac` of the way through the cell's simulated duration.
pub fn at(c: &CellInputs, frac: f64) -> Dur {
    Dur::from_secs_f64(c.secs * frac)
}

/// A single-link scenario over [`link`].
pub fn dumbbell(c: &CellInputs) -> Scenario {
    Scenario::new(link(c), at(c, 1.0)).with_seed(c.seed)
}

/// A bulk flow; `index` separates the seeds of a cell's flows.
pub fn bulk(proto: Proto, index: u64, start: Dur, c: &CellInputs, traced: bool) -> FlowSpec {
    let seed = c.seed ^ index.wrapping_mul(0x9E37_79B9);
    FlowSpec::bulk(format!("{}#{index}", proto.name()), start, move || {
        proto.controller(seed, traced)
    })
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds in eight bytes.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Folds in a byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.byte(b));
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Exact counts and sums over the cells of one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTotals {
    /// Data packets acknowledged end to end: the useful simulated work
    /// every per-packet figure is normalised by.
    pub pkts: u64,
    /// Data packets sent, delivered or not.
    pub sent_pkts: u64,
    /// Events the engine dispatched.
    pub events: u64,
    /// Wire-path events (queue drain, hop arrival, delivery, ACK arrival):
    /// the per-packet chain the engine can fuse.
    pub wire_events: u64,
    /// Events served by the fused wire path.
    pub fused: u64,
    /// Events pushed into the scheduler.
    pub pushes: u64,
    /// Deepest scheduler queue over the cells.
    pub peak_queue: u64,
    /// Flows simulated.
    pub flows: u64,
    /// Bytes that completed service, over all links.
    pub link_delivered_bytes: u64,
    /// Capacity × duration over all links, bytes.
    pub link_capacity_bytes: f64,
    /// Packets admitted by link queues.
    pub link_accepted_pkts: u64,
    /// Packets tail-dropped by link queues.
    pub link_dropped_pkts: u64,
    /// Packets the senders declared lost.
    pub flow_lost_pkts: u64,
    /// Link changes, fault drops, reorderings and held ACKs injected.
    pub faults_injected: u64,
    /// Media frames encoded.
    pub media_frames: u64,
    /// Simulated seconds.
    pub sim_secs: f64,
    /// Allocator calls inside `Sim::new` (traced build only).
    pub new_allocs: u64,
    /// Allocator calls inside `Sim::run` (traced build only).
    pub run_allocs: u64,
    /// Bytes requested inside `Sim::run` (traced build only).
    pub run_alloc_bytes: u64,
    /// Wall milliseconds of each cell, in cell order.
    pub cell_wall_ms: Vec<f64>,
}

/// Links each static flow traverses; later (churned) flows take every link.
fn flow_paths(sc: &Scenario) -> Vec<Vec<usize>> {
    let all: Vec<usize> = (0..sc.topology.len()).collect();
    sc.flows
        .iter()
        .map(|f| match &f.path {
            Some(p) => p.iter().map(|&l| l as usize).collect(),
            None => all.clone(),
        })
        .collect()
}

/// The conservation checks readable from a `SimResult`.
fn check(res: &SimResult, paths: &[Vec<usize>]) -> Result<(), String> {
    let secs = res.duration.as_secs_f64();
    let acked: u64 = res.flows.iter().map(|f| f.bytes_acked).sum();
    if acked == 0 {
        return Err("delivered zero bytes".into());
    }
    let mut acked_through = vec![0u64; res.links.len()];
    for (i, f) in res.flows.iter().enumerate() {
        let loss = f.loss_rate();
        if !(0.0..=1.0).contains(&loss) {
            return Err(format!("flow {} loss rate {loss}", f.name));
        }
        match paths.get(i) {
            Some(p) => p.iter().for_each(|&l| acked_through[l] += f.bytes_acked),
            None => acked_through.iter_mut().for_each(|a| *a += f.bytes_acked),
        }
    }
    for (l, link) in res.links.iter().enumerate() {
        // Slack: the engine rounds each serialization delay to whole
        // nanoseconds (up to 5e-5 of a gigabit packet time), and service of
        // the last packet may straddle the end of the run.
        let capacity = link.rate_bps / 8.0 * secs * 1.0001 + DEFAULT_PACKET_BYTES as f64;
        if link.delivered_bytes as f64 > capacity {
            return Err(format!(
                "link {l} delivered {} B over a capacity of {capacity:.0} B",
                link.delivered_bytes
            ));
        }
        if acked_through[l] > link.delivered_bytes {
            return Err(format!(
                "link {l}: flows acked {} B but the link delivered {} B",
                acked_through[l], link.delivered_bytes
            ));
        }
    }
    Ok(())
}

/// Folds the behaviour of one run into the digest. `EventStats` stays out:
/// it records mechanics, not behaviour.
fn fold(digest: &mut Digest, res: &SimResult) {
    digest.word(res.flows.len() as u64);
    for f in &res.flows {
        digest.word(f.bytes_acked);
        digest.word(f.pkts_sent);
        digest.word(f.pkts_lost);
        digest.word(f.rtt_percentile(50.0).map_or(0, f64::to_bits));
        digest.word(f.rtt_percentile(95.0).map_or(0, f64::to_bits));
    }
    for l in &res.links {
        digest.word(l.delivered_bytes);
        digest.word(l.dropped_pkts);
    }
}

/// Whether an event kind belongs to the per-packet wire chain.
fn is_wire_event(kind: &str) -> bool {
    matches!(
        kind,
        "QueueDrain" | "HopArrival" | "Delivery" | "AckArrival"
    )
}

fn accumulate(totals: &mut SimTotals, res: &SimResult) {
    totals.events += res.events.dispatched();
    totals.wire_events += EVENT_KIND_NAMES
        .iter()
        .zip(&res.events.pops)
        .filter(|(kind, _)| is_wire_event(kind))
        .map(|(_, pops)| pops)
        .sum::<u64>();
    totals.fused += res.events.fused;
    totals.pushes += res.events.pushes;
    totals.peak_queue = totals.peak_queue.max(res.events.peak_queue);
    totals.flows += res.flows.len() as u64;
    totals.sim_secs += res.duration.as_secs_f64();
    for f in &res.flows {
        totals.pkts += f.pkts_acked;
        totals.sent_pkts += f.pkts_sent;
        totals.flow_lost_pkts += f.pkts_lost;
        if let Some(m) = f.media() {
            totals.media_frames += m.frames_generated();
        }
    }
    for l in &res.links {
        totals.link_delivered_bytes += l.delivered_bytes;
        totals.link_capacity_bytes += l.rate_bps / 8.0 * res.duration.as_secs_f64();
        totals.link_accepted_pkts += l.accepted_pkts;
        totals.link_dropped_pkts += l.dropped_pkts;
        let fs = &l.fault_stats;
        totals.faults_injected += fs.link_changes
            + fs.outage_drops
            + fs.burst_losses
            + fs.reordered_pkts
            + fs.compressed_acks;
    }
}

/// Runs one cell under spans `cell.<name>` → `netsim.new | netsim.run |
/// netsim.read` and returns why the operation failed, if it did. A panic
/// anywhere inside counts as a failed operation.
pub fn run_cell(
    def: &CellDef,
    inputs: &CellInputs,
    traced: bool,
    spans: &mut Spans,
    digest: &mut Digest,
    totals: &mut SimTotals,
) -> Option<String> {
    let started = Instant::now();
    let depth = spans.depth();
    spans.enter(&format!("cell.{}", def.name));
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let scenario = (def.build)(inputs, traced);
        let paths = flow_paths(&scenario);

        let a0 = alloc::counts();
        spans.enter("netsim.new");
        let sim = Sim::new(scenario);
        spans.exit();
        let a1 = alloc::counts();

        spans.enter("netsim.run");
        let res = sim.run();
        spans.exit();
        let a2 = alloc::counts();

        spans.enter("netsim.read");
        fold(digest, &res);
        accumulate(totals, &res);
        let verdict = check(&res, &paths);
        spans.exit();

        if let (Some(a0), Some(a1), Some(a2)) = (a0, a1, a2) {
            totals.new_allocs += a1.since(a0).allocs;
            totals.run_allocs += a2.since(a1).allocs;
            totals.run_alloc_bytes += a2.since(a1).bytes;
        }
        verdict
    }));
    // A panic leaves its inner span open; close it along with the cell's.
    spans.close_to(depth);
    totals
        .cell_wall_ms
        .push(started.elapsed().as_secs_f64() * 1e3);
    match result {
        Ok(Ok(())) => None,
        Ok(Err(why)) => Some(format!("{}: {why}", def.name)),
        Err(_) => Some(format!("{}: panicked", def.name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Hold;

    #[test]
    fn fnv1a_matches_published_vectors() {
        let mut d = Digest::default();
        assert_eq!(d.hex(), "cbf29ce484222325");
        d.bytes(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.hex(), "85944171f73967e8");
    }

    fn tiny(c: &CellInputs, traced: bool) -> Scenario {
        dumbbell(c)
            .flow(bulk(Proto::Cubic, 0, Dur::ZERO, c, traced))
            .flow(bulk(Proto::ProteusS, 1, at(c, 0.2), c, traced))
    }

    fn run_tiny(traced: bool) -> (Digest, SimTotals, Option<String>) {
        let def = CellDef {
            name: "tiny",
            nominal: Nominal {
                hold: Hold::LinkBits,
                bw_mbps: 20.0,
                rtt_ms: 30.0,
                buffer_bdp: 2.0,
                secs: 2.0,
            },
            build: tiny,
        };
        let inputs = def
            .nominal
            .draw(&mut crate::inputs::SplitMix64::new(1), 1, 1.0);
        let mut spans = Spans::new(traced);
        let (mut digest, mut totals) = (Digest::default(), SimTotals::default());
        let out = run_cell(&def, &inputs, traced, &mut spans, &mut digest, &mut totals);
        if traced {
            let names: Vec<&str> = spans.all().iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                names,
                ["cell.tiny", "netsim.new", "netsim.run", "netsim.read"]
            );
        }
        (digest, totals, out)
    }

    #[test]
    fn decorated_run_matches_bare_run() {
        crate::decorate::take_totals();
        let (bare, bare_totals, failure) = run_tiny(false);
        assert_eq!(failure, None);
        let (traced, traced_totals, failure) = run_tiny(true);
        assert_eq!(failure, None);
        assert_eq!(bare, traced, "decorators changed behaviour");
        assert_eq!(bare_totals.pkts, traced_totals.pkts);
        assert!(bare_totals.pkts > 1000);
        let t = crate::decorate::take_totals();
        assert!(t[crate::decorate::Layer::Core as usize].cc_callbacks() > 0);
        assert!(t[crate::decorate::Layer::Baselines as usize].cc_callbacks() > 0);
    }

    #[test]
    fn a_panicking_cell_is_a_failed_operation() {
        fn boom(_: &CellInputs, _: bool) -> Scenario {
            panic!("scenario build failed")
        }
        let def = CellDef {
            name: "boom",
            nominal: Nominal {
                hold: Hold::LinkBits,
                bw_mbps: 1.0,
                rtt_ms: 1.0,
                buffer_bdp: 1.0,
                secs: 1.0,
            },
            build: boom,
        };
        let inputs = def
            .nominal
            .draw(&mut crate::inputs::SplitMix64::new(1), 1, 1.0);
        let mut spans = Spans::new(true);
        let out = run_cell(
            &def,
            &inputs,
            true,
            &mut spans,
            &mut Digest::default(),
            &mut SimTotals::default(),
        );
        assert_eq!(out.as_deref(), Some("boom: panicked"));
        // The cell span was closed despite the panic.
        spans.enter("next");
        assert_eq!(spans.all()[1].parent, None);
    }
}
