//! The four workloads. Three are lists of simulation cells driven through
//! [`SimWorkload`]; the fourth replays the experiment registry.

pub mod campaign_replay;
pub mod churn_population;
pub mod clean_dumbbell;
pub mod impaired_multihop;

use std::io;
use std::path::Path;

use crate::cells::{run_cell, CellDef, Digest, SimTotals};
use crate::decorate::{self, Layer, LayerTotals};
use crate::inputs::{CellInputs, SplitMix64};
use crate::spans::Spans;
use crate::stats::median;
use crate::yardstick::Yardstick;
use crate::{probes, Kind};

/// What one pass over a workload's operations produced.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Operations run (cells or experiments).
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// `sim_digest` of the pass, as hex.
    pub digest: String,
    /// Name and wall seconds of each operation, in run order.
    pub ops: Vec<(String, f64)>,
    /// Yardstick seconds sampled before each operation and after the last.
    pub yard: Vec<f64>,
}

/// What the traced run hands a workload to derive its layer metrics from.
pub struct LayerCtx<'a> {
    /// Spans of the traced passes (recording was off otherwise).
    pub spans: &'a Spans,
    /// Number of traced passes the spans and decorator totals cover.
    pub traced_passes: usize,
    /// Median wall seconds of the untraced passes of this run.
    pub untraced_wall_s: f64,
    /// Scratch directory for probes that touch the disk.
    pub scratch: &'a Path,
}

/// A named layer metric value.
pub type LayerValue = (String, f64);

/// A benchmark workload: a closed batch of operations run back to back from
/// one thread.
pub trait Workload {
    /// Fewest timed passes a full-scale run makes, however slow the host.
    fn min_reps(&self) -> usize;

    /// How many times set-up is repeated for the `setup_s` median.
    fn setup_reps(&self) -> usize;

    /// Generates the inputs from the seed and readies fresh state under
    /// `scratch`. The pass that follows is the untimed first pass.
    fn prepare(&mut self, scratch: &Path) -> io::Result<()>;

    /// Whether the first pass after `prepare` is itself something the layer
    /// metrics report on (the cold campaign), so the traced run records it.
    fn first_pass_is_measured(&self) -> bool {
        false
    }

    /// Runs every operation once.
    fn pass(&mut self, traced: bool, spans: &mut Spans) -> PassOutcome;

    /// Layer metrics of the traced passes run so far.
    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>) -> Vec<LayerValue>;
}

/// Builds the workload `kind` names.
pub fn build(kind: Kind, seed: u64, smoke: bool) -> Box<dyn Workload> {
    let sim = |cells| Box::new(SimWorkload::new(kind, cells, seed, smoke)) as Box<dyn Workload>;
    match kind {
        Kind::CleanDumbbell => sim(clean_dumbbell::cells()),
        Kind::ImpairedMultihop => sim(impaired_multihop::cells()),
        Kind::ChurnPopulation => sim(churn_population::cells()),
        Kind::CampaignReplay => Box::new(campaign_replay::CampaignReplay::new(seed, smoke)),
    }
}

/// Simulated-duration multiplier of `--smoke` runs.
const SMOKE_SCALE: f64 = 0.02;

/// A list of simulation cells run back to back.
pub struct SimWorkload {
    kind: Kind,
    cells: Vec<CellDef>,
    seed: u64,
    scale: f64,
    inputs: Vec<CellInputs>,
    yardstick: Yardstick,
    last_untraced: SimTotals,
    last_traced: SimTotals,
}

impl SimWorkload {
    fn new(kind: Kind, cells: Vec<CellDef>, seed: u64, smoke: bool) -> Self {
        Self {
            kind,
            cells,
            seed,
            scale: if smoke { SMOKE_SCALE } else { 1.0 },
            inputs: Vec::new(),
            yardstick: Yardstick::default(),
            last_untraced: SimTotals::default(),
            last_traced: SimTotals::default(),
        }
    }
}

impl Workload for SimWorkload {
    fn min_reps(&self) -> usize {
        5
    }

    fn setup_reps(&self) -> usize {
        3
    }

    fn prepare(&mut self, _scratch: &Path) -> io::Result<()> {
        let mut rng = SplitMix64::new(self.seed);
        self.inputs = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                cell.nominal
                    .draw(&mut rng, self.seed.wrapping_add(i as u64), self.scale)
            })
            .collect();
        Ok(())
    }

    fn pass(&mut self, traced: bool, spans: &mut Spans) -> PassOutcome {
        let mut digest = Digest::default();
        let mut totals = SimTotals::default();
        let mut failures = Vec::new();
        let mut yard = Vec::with_capacity(self.cells.len() + 1);
        for (cell, inputs) in self.cells.iter().zip(&self.inputs) {
            yard.push(self.yardstick.sample());
            let out = run_cell(cell, inputs, traced, spans, &mut digest, &mut totals);
            failures.extend(out);
        }
        yard.push(self.yardstick.sample());
        let ops = self
            .cells
            .iter()
            .zip(&totals.cell_wall_ms)
            .map(|(cell, ms)| (cell.name.to_string(), ms / 1e3))
            .collect();
        if traced {
            self.last_traced = totals;
        } else {
            self.last_untraced = totals;
        }
        PassOutcome {
            attempted: self.cells.len() as u64,
            failures,
            digest: digest.hex(),
            ops,
            yard,
        }
    }

    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>) -> Vec<LayerValue> {
        let passes = ctx.traced_passes.max(1) as f64;
        let t = &self.last_traced;
        let pkts = t.pkts.max(1) as f64;
        let per_pass = |span: &str| ctx.spans.total_secs(span) / passes;
        let (new_s, run_s, read_s) = (
            per_pass("netsim.new"),
            per_pass("netsim.run"),
            per_pass("netsim.read"),
        );
        let decorated = decorate::take_totals();
        let busy = |l: Layer| decorated[l as usize].busy_s() / passes;
        let (core_s, base_s, apps_s) =
            (busy(Layer::Core), busy(Layer::Baselines), busy(Layer::Apps));

        let mut out: Vec<LayerValue> = Vec::new();
        let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
        put("netsim.new_s", new_s);
        put("netsim.run_s", run_s);
        put("netsim.read_s", read_s);
        put(
            "netsim.run_self_s",
            (run_s - core_s - base_s - apps_s).max(0.0),
        );
        put("netsim.pkts", t.pkts as f64);
        put("netsim.events", t.events as f64);
        put("netsim.flows", t.flows as f64);
        put("netsim.events_per_pkt", t.events as f64 / pkts);
        put("netsim.sched.pushes_per_pkt", t.pushes as f64 / pkts);
        put("netsim.sched.peak_queue", t.peak_queue as f64);
        put(
            "netsim.fused_share",
            t.fused as f64 / t.wire_events.max(1) as f64,
        );
        let offered = (t.link_accepted_pkts + t.link_dropped_pkts).max(1) as f64;
        put(
            "netsim.link.drop_share",
            t.link_dropped_pkts as f64 / offered,
        );
        put(
            "netsim.link.utilization",
            t.link_delivered_bytes as f64 / t.link_capacity_bytes.max(1.0),
        );
        put(
            "netsim.flow.loss_share",
            t.flow_lost_pkts as f64 / t.sent_pkts.max(1) as f64,
        );
        if self.kind == Kind::ImpairedMultihop {
            put("netsim.fault.injected", t.faults_injected as f64);
        }
        // Rates use the untraced passes: tracing must not flatter or
        // penalise the figure a user would see.
        put("netsim.ns_per_pkt", ctx.untraced_wall_s * 1e9 / pkts);
        put("netsim.events_per_s", t.events as f64 / ctx.untraced_wall_s);
        put("netsim.sim_s_per_wall_s", t.sim_secs / ctx.untraced_wall_s);
        let cell_ms = &self.last_untraced.cell_wall_ms;
        put("netsim.cell_wall_ms.p50", median(cell_ms));
        put(
            "netsim.cell_wall_ms.max",
            cell_ms.iter().copied().fold(0.0, f64::max),
        );
        put("netsim.run.allocs_per_pkt", t.run_allocs as f64 / pkts);
        put(
            "netsim.run.alloc_bytes_per_pkt",
            t.run_alloc_bytes as f64 / pkts,
        );
        put(
            "netsim.new.allocs_per_flow",
            t.new_allocs as f64 / t.flows.max(1) as f64,
        );

        for (layer, name, busy_s) in [
            (Layer::Core, "core", core_s),
            (Layer::Baselines, "baselines", base_s),
        ] {
            let calls = decorated[layer as usize].cc_callbacks() as f64 / passes;
            put(&format!("{name}.cc.calls"), calls);
            put(&format!("{name}.cc.busy_s"), busy_s);
            put(
                &format!("{name}.cc.ns_per_call"),
                busy_s * 1e9 / calls.max(1.0),
            );
            put(
                &format!("{name}.cc.share"),
                busy_s / run_s.max(f64::MIN_POSITIVE),
            );
        }
        if self.kind == Kind::ImpairedMultihop {
            put(
                "apps.calls",
                decorated[Layer::Apps as usize].all_calls() as f64 / passes,
            );
            put("apps.busy_s", apps_s);
            put("apps.share", apps_s / run_s.max(f64::MIN_POSITIVE));
            put("apps.media.frames", t.media_frames as f64);
        }
        let (timed, timer_ns) = decorated
            .iter()
            .map(LayerTotals::timer_samples)
            .fold((0, 0), |(n, ns), (dn, dns)| (n + dn, ns + dns));
        put("benchmark.timer_ns", timer_ns as f64 / timed.max(1) as f64);
        if self.kind == Kind::CleanDumbbell {
            out.extend(probes::leaf_probes());
        }
        out
    }
}
