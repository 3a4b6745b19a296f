//! Ad-hoc scenario runner: compose arbitrary flow mixes on a dumbbell from
//! the command line.
//!
//! ```text
//! proteus-sim [options] --flow <PROTO[@START_S]> [--flow ...]
//!
//!   --bw <Mbps>        bottleneck bandwidth      (default 50)
//!   --rtt <ms>         base RTT                  (default 30)
//!   --links <N>        chain of N identical bottlenecks (default 1, at most
//!                      65536); the base RTT is split evenly so the path RTT
//!                      stays at --rtt, and every flow crosses all N links.
//!                      Fault flags keep targeting the first link.
//!   --buffer <KB|xBDP> bottleneck buffer         (default 2xBDP; "375" = KB)
//!   --loss <rate>      random loss, e.g. 0.01    (default 0)
//!   --wifi             WiFi-style latency noise
//!   --secs <s>         duration                  (default 60); every
//!                      flow's START_S and fault's T must fall before it
//!   --seed <n>         RNG seed                  (default 1)
//!   --churn <a,l>      Poisson flow churn: `a` arrivals/sec, mean
//!                      lifetime `l` seconds; arrivals draw uniformly from
//!                      the --flow protocol list (equal-weight classes);
//!                      the population plus a x --secs arrivals may not
//!                      exceed 1000000 flows
//!   --population <N>   N long-lived background flows of the same class
//!                      mix, started at t=0 (with --churn: the warm-start
//!                      population)
//!   --media <FPS,L1:L2:...>
//!                      make the FIRST --flow a frame-paced media source:
//!                      FPS frames/sec on the ascending bitrate ladder
//!                      L1:L2:... (Mbps). The flow turns reliable and
//!                      app-limited; per-frame latency stats are printed
//!                      after the flow table (see SCENARIOS.md "Media
//!                      sources")
//!   --timeline         print 5-second per-flow throughput bins
//!   --trace <file>     write per-flow telemetry JSONL (100 ms samples)
//!   --trace-mi         record structured decision traces (see OBSERVABILITY.md)
//!   --trace-format <f> decision-trace format: jsonl, chrome or both
//!   --trace-out <dir>  decision-trace directory (default results/trace-mi)
//!
//! Fault injection (see SCENARIOS.md; all flags repeatable where sensible):
//!
//!   --bw-step <T:MBPS>      set bottleneck bandwidth to MBPS at T seconds
//!   --rtt-step <T:MS>       set base RTT to MS at T seconds (route change)
//!   --outage <T:LEN>        link down at T seconds for LEN seconds
//!   --burst-loss <PE:PX:PB> Gilbert-Elliott loss: p_enter, p_exit, loss_bad
//!   --reorder <PROB:MS>     delay PROB of packets by up to MS past FIFO order
//!   --ack-comp <EVERY:HOLD> hold ACKs for HOLD ms roughly every EVERY seconds
//! ```
//!
//! Protocols: CUBIC, BBR, BBR-S, COPA, LEDBAT, LEDBAT-25, Cross, Proteus-P,
//! Proteus-S, PCC-Vivace, PCC-Allegro, `probe:<mbps>`.
//!
//! Example — the paper's headline scenario:
//!
//! ```text
//! proteus-sim --bw 50 --rtt 30 --flow BBR --flow Proteus-S@5 --timeline
//! ```
//!
//! Example — a 30 fps call (Cross) with a Proteus-S scavenger underneath:
//!
//! ```text
//! proteus-sim --media 30,0.35:0.75:1.5:2.5 --flow Cross --flow Proteus-S@5
//! ```

use std::env;
use std::fs;
use std::process::ExitCode;

use proteus_apps::{MediaSource, MediaSpec};
use proteus_bench::protocols::NAMES;
use proteus_bench::{
    cc, mi_trace, tail_window, trace_jsonl, try_cc, MiTraceSink, TraceFormat, TRACE_EVERY,
};
use proteus_netsim::{
    run, AckCompression, ChurnClass, ChurnSpec, FaultSchedule, FlowSpec, GilbertElliott,
    LinkChange, LinkSpec, NoiseConfig, ReorderConfig, Scenario, Topology,
};
use proteus_transport::{Dur, Time, DEFAULT_PACKET_BYTES};

struct Args {
    bw: f64,
    rtt_ms: u64,
    links: usize,
    buffer_bytes: u64,
    loss: f64,
    wifi: bool,
    secs: f64,
    seed: u64,
    timeline: bool,
    trace: Option<String>,
    trace_mi: bool,
    trace_format: TraceFormat,
    flows: Vec<(String, f64)>,
    /// `(fps, bitrate ladder in Mbps)` for the first flow, from `--media`.
    media: Option<(f64, Vec<f64>)>,
    faults: FaultSchedule,
    /// `(arrivals_per_sec, mean_lifetime_secs)`.
    churn: Option<(f64, f64)>,
    population: usize,
}

/// What a numeric field must satisfy, and how the error says so.
type Rule = (fn(f64) -> bool, &'static str);

/// Parses `v` as a finite number that satisfies the rule `(ok, need)`.
fn number(v: &str, flag: &str, (ok, need): Rule) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && ok(x) => Ok(x),
        _ => Err(format!("{flag} needs {need}, got {v:?}")),
    }
}

/// Longest simulated time a flag may name, seconds: the engine stores send
/// times in 48 bits of nanoseconds (~78.2 h) and rejects longer runs.
const MAX_SECS: f64 = 78.0 * 3600.0;

/// A point in simulated time, seconds.
const AT: Rule = (|x| (0.0..MAX_SECS).contains(&x), "a time in [0 s, 78 h)");
/// A positive length of simulated time, seconds.
const LENGTH: Rule = (
    |x| x > 0.0 && x < MAX_SECS,
    "a length above 0 s and under 78 h",
);
/// A non-negative extra delay, milliseconds.
const DELAY_MS: Rule = (
    |x| (0.0..MAX_SECS * 1e3).contains(&x),
    "a delay in [0 ms, 78 h)",
);
/// A link bandwidth, Mbps.
const BANDWIDTH: Rule = (|x| x > 0.0, "a bandwidth above 0 Mbps");
/// A probability.
const PROB: Rule = (|x| (0.0..=1.0).contains(&x), "a probability in [0, 1]");
/// A chain length: whole links, as many as 16-bit link ids can name.
const LINKS: Rule = (
    |x| x.fract() == 0.0 && (1.0..=65_536.0).contains(&x),
    "a whole number of links in [1, 65536]",
);
/// Most flows a run may create, warm-start and churned together (the
/// registry's largest, `churn-100k`, creates about 110 000), so a typo is
/// an error, not an allocation that aborts.
const MAX_FLOWS: f64 = 1e6;

/// A warm-start population: whole flows, at most [`MAX_FLOWS`].
const POPULATION: Rule = (
    |x| x.fract() == 0.0 && (0.0..=MAX_FLOWS).contains(&x),
    "a whole number of flows in [0, 1000000]",
);

/// Splits `spec` into exactly `N` colon-separated numbers, each checked
/// against its rule.
fn fields<const N: usize>(spec: &str, flag: &str, rules: [Rule; N]) -> Result<[f64; N], String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != N {
        return Err(format!(
            "{flag} expects {N} colon-separated numbers, got {spec:?}"
        ));
    }
    let mut out = [0.0; N];
    for ((x, v), rule) in out.iter_mut().zip(parts).zip(rules) {
        *x = number(v, flag, rule)?;
    }
    Ok(out)
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        bw: 50.0,
        rtt_ms: 30,
        links: 1,
        buffer_bytes: 0,
        loss: 0.0,
        wifi: false,
        secs: 60.0,
        seed: 1,
        timeline: false,
        trace: None,
        trace_mi: false,
        trace_format: TraceFormat::Both,
        flows: Vec::new(),
        media: None,
        faults: FaultSchedule::new(),
        churn: None,
        population: 0,
    };
    let mut buffer = String::from("2xBDP");
    let mut it = env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, what: &str| {
        it.next().ok_or(format!("{what} requires a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bw" => {
                let v = need(&mut it, "--bw")?;
                a.bw = number(&v, "--bw", BANDWIDTH)?;
            }
            "--rtt" => {
                let v = need(&mut it, "--rtt")?;
                a.rtt_ms = match v.parse() {
                    Ok(ms) if ms > 0 => ms,
                    _ => return Err(format!("--rtt needs a whole number of ms >= 1, got {v:?}")),
                }
            }
            "--links" => {
                let v = need(&mut it, "--links")?;
                a.links = number(&v, "--links", LINKS)? as usize;
            }
            "--buffer" => buffer = need(&mut it, "--buffer")?,
            "--loss" => {
                let v = need(&mut it, "--loss")?;
                let unit = |p| (0.0..1.0).contains(&p);
                a.loss = number(&v, "--loss", (unit, "a probability in [0, 1)"))?;
            }
            "--wifi" => a.wifi = true,
            "--secs" => {
                let v = need(&mut it, "--secs")?;
                a.secs = number(&v, "--secs", LENGTH)?;
            }
            "--seed" => {
                a.seed = need(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--churn" => {
                let v = need(&mut it, "--churn")?;
                let (arr, life) = v.split_once(',').ok_or(format!(
                    "--churn expects ARRIVALS,LIFETIME (e.g. 50,10), got {v:?}"
                ))?;
                let arrivals: f64 = arr
                    .parse()
                    .map_err(|e| format!("bad --churn arrival rate: {e}"))?;
                let lifetime: f64 = life
                    .parse()
                    .map_err(|e| format!("bad --churn mean lifetime: {e}"))?;
                if !arrivals.is_finite()
                    || arrivals < 0.0
                    || !lifetime.is_finite()
                    || lifetime <= 0.0
                {
                    return Err(format!(
                        "--churn needs arrivals >= 0 and lifetime > 0, got {v:?}"
                    ));
                }
                a.churn = Some((arrivals, lifetime));
            }
            "--population" => {
                let v = need(&mut it, "--population")?;
                a.population = number(&v, "--population", POPULATION)? as usize;
            }
            "--media" => {
                let v = need(&mut it, "--media")?;
                let (fps, ladder) = v.split_once(',').ok_or(format!(
                    "--media expects FPS,L1:L2:... (e.g. 30,0.35:0.75:1.5:2.5), got {v:?}"
                ))?;
                let fps: f64 = fps.parse().map_err(|e| format!("bad --media fps: {e}"))?;
                let ladder: Vec<f64> = ladder
                    .split(':')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad --media ladder: {e}"))?;
                if !fps.is_finite() || fps <= 0.0 {
                    return Err(format!("--media needs fps > 0, got {fps}"));
                }
                if ladder.is_empty()
                    || ladder.iter().any(|r| !r.is_finite() || *r <= 0.0)
                    || ladder.windows(2).any(|w| w[1] <= w[0])
                {
                    return Err(format!(
                        "--media ladder must be strictly ascending positive Mbps, got {v:?}"
                    ));
                }
                a.media = Some((fps, ladder));
            }
            "--timeline" => a.timeline = true,
            "--trace" => a.trace = Some(need(&mut it, "--trace")?),
            "--trace-mi" => a.trace_mi = true,
            "--trace-format" => {
                let v = need(&mut it, "--trace-format")?;
                a.trace_format = TraceFormat::parse(&v).ok_or(format!(
                    "--trace-format must be jsonl, chrome or both, got {v:?}"
                ))?;
            }
            "--trace-out" => mi_trace::set_mi_trace_dir(need(&mut it, "--trace-out")?),
            "--bw-step" => {
                let [at, mbps] =
                    fields(&need(&mut it, "--bw-step")?, "--bw-step", [AT, BANDWIDTH])?;
                a.faults =
                    std::mem::take(&mut a.faults).bandwidth_step(Dur::from_secs_f64(at), mbps);
            }
            "--rtt-step" => {
                let [at, ms] = fields(
                    &need(&mut it, "--rtt-step")?,
                    "--rtt-step",
                    [AT, (|x| x > 0.0 && x < MAX_SECS * 1e3, "an RTT above 0 ms")],
                )?;
                a.faults = std::mem::take(&mut a.faults)
                    .rtt_step(Dur::from_secs_f64(at), Dur::from_secs_f64(ms / 1e3));
            }
            "--outage" => {
                let [at, len] = fields(&need(&mut it, "--outage")?, "--outage", [AT, LENGTH])?;
                a.faults = std::mem::take(&mut a.faults)
                    .outage(Dur::from_secs_f64(at), Dur::from_secs_f64(len));
            }
            "--burst-loss" => {
                let [p_enter, p_exit, loss_bad] =
                    fields(&need(&mut it, "--burst-loss")?, "--burst-loss", [PROB; 3])?;
                a.faults = std::mem::take(&mut a.faults).with_burst_loss(GilbertElliott {
                    p_enter,
                    p_exit,
                    loss_good: 0.0,
                    loss_bad,
                });
            }
            "--reorder" => {
                let [prob, ms] =
                    fields(&need(&mut it, "--reorder")?, "--reorder", [PROB, DELAY_MS])?;
                a.faults = std::mem::take(&mut a.faults).with_reorder(ReorderConfig {
                    prob,
                    max_extra: Dur::from_secs_f64(ms / 1e3),
                });
            }
            "--ack-comp" => {
                let [every, hold] = fields(
                    &need(&mut it, "--ack-comp")?,
                    "--ack-comp",
                    [LENGTH, DELAY_MS],
                )?;
                a.faults = std::mem::take(&mut a.faults).with_ack_compression(AckCompression {
                    every: Dur::from_secs_f64(every),
                    hold: Dur::from_secs_f64(hold / 1e3),
                });
            }
            "--flow" => {
                let spec = need(&mut it, "--flow")?;
                let (proto, start) = match spec.split_once('@') {
                    Some((p, s)) => (p.to_string(), number(s, "--flow start", AT)?),
                    None => (spec, 0.0),
                };
                if try_cc(&proto, 0).is_none() {
                    return Err(format!(
                        "unknown protocol {proto:?}: expected probe:<mbps> (mbps > 0) or one of {}",
                        NAMES.join(", ")
                    ));
                }
                a.flows.push((proto, start));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if a.flows.is_empty() {
        return Err("at least one --flow is required".into());
    }
    // Checked last: a start or a fault at or after the final --secs never
    // happens. (An outage may outlast the run; its end is not checked.)
    let starts = a
        .flows
        .iter()
        .map(|(proto, at)| (format!("--flow {proto}"), *at));
    let faults = a.faults.link_events.iter().filter_map(|(at, change)| {
        let flag = match change {
            LinkChange::Bandwidth(_) => "--bw-step",
            LinkChange::Rtt(_) => "--rtt-step",
            LinkChange::Down => "--outage",
            LinkChange::Up => return None,
        };
        Some((flag.to_string(), at.as_secs_f64()))
    });
    if let Some((what, at)) = starts.chain(faults).find(|&(_, at)| at >= a.secs) {
        return Err(format!(
            "{what} at {at} s never happens: the run ends at --secs {}",
            a.secs
        ));
    }
    // Checked last: the expected arrivals need the final --secs.
    let arrivals = a.churn.map_or(0.0, |(arrivals, _)| arrivals);
    if a.population as f64 + arrivals * a.secs > MAX_FLOWS {
        return Err(format!(
            "--churn {arrivals}/s over {} s plus --population {} exceeds 1000000 flows",
            a.secs, a.population
        ));
    }
    // Sized last: "xBDP" needs the final --bw and --rtt.
    a.buffer_bytes = buffer_bytes(&buffer, a.bw, a.rtt_ms)?;
    Ok(a)
}

/// `--buffer`: `<x>xBDP` (of the end-to-end path) or kilobytes.
fn buffer_bytes(spec: &str, bw: f64, rtt_ms: u64) -> Result<u64, String> {
    let positive = |x: f64| x > 0.0;
    let bytes = if let Some(x) = spec.strip_suffix("xBDP") {
        let mult = number(x, "--buffer", (positive, "a BDP multiple above 0"))?;
        let link = LinkSpec::new(bw, Dur::from_millis(rtt_ms), 1);
        link.with_buffer_bdp(mult).buffer_bytes
    } else {
        (number(spec, "--buffer", (positive, "KB above 0, or <x>xBDP"))? * 1000.0) as u64
    };
    // `with_buffer_bdp` floors at one byte, so a vanishing BDP passes the
    // positivity checks above; a buffer must hold one whole packet.
    if bytes < DEFAULT_PACKET_BYTES {
        return Err(format!(
            "--buffer {spec:?} is {bytes} B: it must hold one {DEFAULT_PACKET_BYTES} B packet"
        ));
    }
    Ok(bytes)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage: proteus-sim [--bw Mbps] [--rtt ms] [--links N] [--buffer KB|xBDP] [--loss p] \
                 [--wifi] [--secs s] [--seed n] [--timeline] [--trace FILE] \
                 [--trace-mi] [--trace-format jsonl|chrome|both] [--trace-out DIR] \
                 [--churn ARRIVALS,LIFETIME] [--population N] [--media FPS,L1:L2:...] \
                 [--bw-step T:MBPS] [--rtt-step T:MS] [--outage T:LEN] \
                 [--burst-loss PE:PX:PB] [--reorder PROB:MS] [--ack-comp EVERY:HOLD] \
                 --flow PROTO[@START] ..."
            );
            return ExitCode::from(2);
        }
    };

    let mut link = LinkSpec::new(args.bw, Dur::from_millis(args.rtt_ms), args.buffer_bytes)
        .with_random_loss(args.loss);
    if args.wifi {
        link = link.with_noise(NoiseConfig::wifi_default());
    }

    // --links N: a chain of N identical bottlenecks. The base RTT is split
    // evenly across the hops so the end-to-end path RTT (and the BDP the
    // buffer was sized against) is unchanged; fault flags keep targeting
    // the first link, matching the single-link default.
    let topology = if args.links == 1 {
        Topology::single(link)
    } else {
        let mut hop = link;
        hop.rtt = Dur::from_secs_f64(link.rtt.as_secs_f64() / args.links as f64);
        Topology::chain(std::iter::repeat_n(hop, args.links))
    };
    let mut sc = Scenario::over(topology, Dur::from_secs_f64(args.secs))
        .with_seed(args.seed)
        .with_faults(args.faults.clone());
    if args.trace.is_some() || args.trace_mi {
        sc = sc.with_trace(TRACE_EVERY);
    }
    for (i, (proto, start)) in args.flows.iter().enumerate() {
        let name = format!("{proto}#{i}");
        let proto = proto.clone();
        let seed = args.seed + i as u64;
        let mut spec = FlowSpec::bulk(name, Dur::from_secs_f64(*start), move || cc(&proto, seed));
        if i == 0 {
            if let Some((fps, ladder)) = &args.media {
                let media = MediaSpec {
                    fps: *fps,
                    ladder_mbps: ladder.clone(),
                    seed: args.seed ^ 0x4EC,
                    ..MediaSpec::default()
                };
                spec = spec
                    .with_app(move || Box::new(MediaSource::new(media)))
                    .with_reliability(true);
            }
        }
        sc = sc.flow(spec);
    }
    if args.churn.is_some() || args.population > 0 {
        // One churn class per --flow protocol, equal weight; listing a
        // protocol twice doubles its share. Churn flows draw per-id seeds
        // from the scenario seed so each arrival gets a distinct CC RNG.
        let classes: Vec<ChurnClass> = args
            .flows
            .iter()
            .map(|(proto, _)| {
                let proto = proto.clone();
                let seed = args.seed;
                ChurnClass::new(
                    proto.clone(),
                    1.0,
                    Box::new(move |id| cc(&proto, seed.wrapping_add(id as u64))),
                )
            })
            .collect();
        let (arrivals, lifetime) = match args.churn {
            Some((a, l)) => (a, l),
            // --population alone: a fixed background population whose mean
            // lifetime far exceeds the run, so departures are negligible.
            None => (0.0, args.secs * 1000.0),
        };
        sc = sc.with_churn(
            ChurnSpec::new(arrivals, Dur::from_secs_f64(lifetime), classes)
                .with_initial(args.population),
        );
        eprintln!(
            "churn: {arrivals}/s arrivals, mean lifetime {lifetime}s, warm-start {}",
            args.population
        );
    }

    eprintln!(
        "link: {} Mbps, {} ms RTT over {} hop(s), {} KB buffer/hop, loss {}, noise {}",
        args.bw,
        args.rtt_ms,
        args.links,
        link.buffer_bytes / 1000,
        args.loss,
        if args.wifi { "wifi" } else { "none" }
    );
    let res = run(sc);
    if let Some(path) = &args.trace {
        match fs::write(path, trace_jsonl(&res)) {
            Ok(()) => eprintln!("trace: {} samples -> {path}", res.trace.len()),
            Err(e) => {
                eprintln!("error: cannot write trace to {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if args.trace_mi {
        let mix = args
            .flows
            .iter()
            .map(|(p, _)| p.as_str())
            .collect::<Vec<_>>()
            .join("+");
        let sink = MiTraceSink::new("adhoc", format!("{mix}-s{}", args.seed), args.trace_format);
        sink.write(&res);
        for path in sink.paths() {
            eprintln!(
                "decision trace: {} events -> {}",
                res.decisions.len(),
                path.display()
            );
        }
    }

    let (from, to) = tail_window(args.secs);
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>8}",
        "flow", "mbps(tail)", "p50 RTT", "p95 RTT", "loss"
    );
    for f in &res.flows {
        println!(
            "{:<18} {:>10.2} {:>8.1}ms {:>8.1}ms {:>7.2}%",
            f.name,
            f.throughput_mbps(from, to),
            f.rtt_percentile(50.0).unwrap_or(0.0) * 1e3,
            f.rtt_percentile(95.0).unwrap_or(0.0) * 1e3,
            f.loss_rate() * 100.0,
        );
    }
    let util = res.utilization(from, to);
    println!("joint utilization: {:.1}%", util * 100.0);
    if args.media.is_some() {
        if let Some(m) = res.flows[0].media() {
            println!(
                "media: {}/{} frames ({} pending), p95 {:.1} ms, p99 {:.1} ms, \
                 {} freeze(s) ({:.2} s frozen)",
                m.frames_completed(),
                m.frames_generated(),
                m.frames_pending(),
                m.frame_delay_percentile(95.0).unwrap_or(0.0) * 1e3,
                m.frame_delay_percentile(99.0).unwrap_or(0.0) * 1e3,
                m.freeze_count(),
                m.time_in_freeze(),
            );
        }
    }
    if !args.faults.is_empty() {
        let s = res.links[0].fault_stats;
        println!(
            "faults: {} link change(s), {} outage drop(s), {} burst loss(es) in {} episode(s), \
             {} reordered pkt(s), {} compressed ACK(s)",
            s.link_changes,
            s.outage_drops,
            s.burst_losses,
            s.loss_episodes,
            s.reordered_pkts,
            s.compressed_acks
        );
    }

    if args.timeline {
        println!();
        let bins = (args.secs / 5.0).ceil() as usize;
        print!("{:>5}", "t");
        for f in &res.flows {
            print!(" {:>12}", &f.name[..f.name.len().min(12)]);
        }
        println!();
        for b in 0..bins {
            let from = Time::from_secs_f64(b as f64 * 5.0);
            let to = Time::from_secs_f64((b as f64 + 1.0) * 5.0);
            print!("{:>4}s", b * 5);
            for f in &res.flows {
                print!(" {:>12.2}", f.throughput_mbps(from, to));
            }
            println!();
        }
    }
    ExitCode::SUCCESS
}
