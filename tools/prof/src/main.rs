//! `proteus-prof WORKLOAD [PASSES]`: runs one benchmark workload — set-up,
//! the first pass and `PASSES - 1` more, seed 1, exactly as
//! `proteus-benchmark` builds them — under a CPU-time sampling timer, and
//! prints one line per distinct program counter hit: `COUNT 0xADDRESS` for
//! an address inside this executable (load bias removed, so `addr2line -e`
//! takes it as is), `COUNT [object]` for one inside a shared object (libm's
//! `round`, libc's `memmove`, the vDSO). `tools/prof.sh` builds this, runs
//! it and turns the addresses into functions and lines.
//!
//! `proteus-prof --heap WORKLOAD [PASSES]` runs the same thing under the
//! heap census of [`heap`] instead of the timer and prints where the memory
//! is at the peak: live bytes, and the live allocations by exact size.
//!
//! Sampling from inside the process needs no `perf`, no privileges and no
//! engine code; the cost is that only the interrupted PC is recorded, not
//! its stack — `addr2line -i` recovers the inline chain, which is where this
//! simulator's per-packet work lives.

mod heap;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler;

#[global_allocator]
static GLOBAL: heap::CensusAlloc = heap::CensusAlloc;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() -> std::process::ExitCode {
    use std::collections::BTreeMap;
    use std::process::ExitCode;

    use proteus_benchmark::spans::Spans;
    use proteus_benchmark::{workloads, Kind};

    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let census = args.first().is_some_and(|arg| arg == "--heap");
    if census {
        args.remove(0);
    }
    let kind = args.first().and_then(|name| Kind::parse(name));
    let passes = args.get(1).map_or(Some(3), |n| n.parse::<usize>().ok());
    let (Some(kind), Some(passes @ 1..), true) = (kind, passes, args.len() <= 2) else {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        eprintln!("usage: proteus-prof [--heap] WORKLOAD [PASSES]");
        eprintln!("  --heap    count live heap by allocation size instead of sampling the PC");
        eprintln!("  WORKLOAD  one of {}", names.join(", "));
        eprintln!("  PASSES    passes to run, the first one included (default 3)");
        return ExitCode::from(2);
    };

    // Scratch state beside the executable (under the ignored target
    // directory); a quick-mode experiment must never reach `results/`.
    let exe = std::env::current_exe().expect("own path");
    let scratch = exe.with_file_name(format!("prof-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    std::env::set_var("PROTEUS_RESULTS_DIR", scratch.join("results"));

    let mut workload = workloads::build(kind, 1, false);
    let mut spans = Spans::new(false);
    if census {
        heap::enable();
    } else {
        sampler::start();
    }
    workload.prepare(&scratch).expect("workload set-up");
    let mut failures = Vec::new();
    let mut digest = String::new();
    for _ in 0..passes {
        let pass = workload.pass(false, &mut spans);
        failures.extend(pass.failures);
        digest = pass.digest;
    }
    if census {
        let report = heap::report();
        let _ = std::fs::remove_dir_all(&scratch);
        let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
        let hwm = status.lines().find_map(|line| line.strip_prefix("VmHWM:"));
        println!(
            "# workload {} seed 1 passes {passes} sim_digest {digest} failed {}",
            kind.name(),
            failures.len(),
        );
        println!(
            "# live_bytes {} peak_live_bytes {} VmHWM {}",
            report.live,
            report.peak,
            hwm.map_or("?", str::trim),
        );
        println!(
            "# live allocations by size at {} live bytes (copied every {} KiB of rise); \
             {} distinct sizes, {} allocations untracked",
            report.copied_at,
            heap::STEP >> 10,
            report.rows.len(),
            report.untracked,
        );
        println!("{:>12} {:>8} {:>10}", "bytes", "count", "size");
        for (size, count) in &report.rows {
            println!("{:>12} {count:>8} {size:>10}", *size as u64 * count);
        }
        return exit_status(&failures);
    }
    let (pcs, dropped) = sampler::stop();
    let _ = std::fs::remove_dir_all(&scratch);

    // Attribute each PC to the mapping holding it.
    let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
    let mappings: Vec<(u64, u64, &str)> = maps
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (start, end) = fields.next()?.split_once('-')?;
            let path = fields.nth(4).unwrap_or("[anon]");
            let hex = |s| u64::from_str_radix(s, 16).ok();
            Some((hex(start)?, hex(end)?, path))
        })
        .collect();
    let exe_path = exe.to_string_lossy();
    let own = |path: &str| path == exe_path;
    let bias = mappings.iter().filter(|m| own(m.2)).map(|m| m.0).min();
    let mut hits: BTreeMap<String, u64> = BTreeMap::new();
    for &pc in &pcs {
        let label = match mappings.iter().find(|m| (m.0..m.1).contains(&pc)) {
            Some(m) if own(m.2) => format!("0x{:016x}", pc - bias.expect("own mapping")),
            Some(m) => format!("[{}]", m.2.rsplit('/').next().unwrap_or(m.2)),
            None => "[unmapped]".into(),
        };
        *hits.entry(label).or_default() += 1;
    }

    println!(
        "# workload {} seed 1 passes {passes} samples {} dropped {dropped} interval_us {} \
         sim_digest {digest} failed {}",
        kind.name(),
        pcs.len(),
        sampler::INTERVAL_US,
        failures.len(),
    );
    println!("# exe {exe_path}");
    for (label, count) in &hits {
        println!("{count} {label}");
    }
    exit_status(&failures)
}

/// Lists the workload's failed operations on standard error; success when
/// there are none.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn exit_status(failures: &[String]) -> std::process::ExitCode {
    for failure in failures {
        eprintln!("failed: {failure}");
    }
    if failures.is_empty() {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() -> std::process::ExitCode {
    eprintln!(
        "proteus-prof reads the interrupted PC out of an x86-64 Linux ucontext; not this host"
    );
    std::process::ExitCode::from(2)
}
