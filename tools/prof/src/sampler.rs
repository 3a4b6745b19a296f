//! The `unsafe` half: a `SIGPROF` handler that records the program counter it
//! interrupted, driven by `setitimer(ITIMER_PROF)` — one signal per
//! [`INTERVAL_US`] of CPU time the process burns. x86-64 Linux only: the
//! handler reads `RIP` out of the `ucontext_t` the kernel hands it, at the
//! offset glibc lays it out at, and `sigaction`/`setitimer` are declared by
//! hand because the workspace vendors no `libc` crate.
//!
//! The handler does two relaxed atomic operations on preallocated statics and
//! nothing else, so it is async-signal-safe; samples past [`CAPACITY`] are
//! counted and dropped.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// CPU microseconds between samples.
pub const INTERVAL_US: i64 = 1000;

/// Samples kept (8 MiB of zero pages, touched only as they fill).
const CAPACITY: usize = 1 << 20;

static PCS: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
static TAKEN: AtomicUsize = AtomicUsize::new(0);

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;

/// glibc's `struct sigaction` on x86-64.
#[repr(C)]
struct SigAction {
    handler: extern "C" fn(i32, *const u8, *const UContext),
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

/// The head of glibc's `ucontext_t` on x86-64, up to the general registers.
#[repr(C)]
struct UContext {
    flags: u64,
    link: usize,
    stack: [u64; 3],
    gregs: [i64; 23],
}

/// Index of `RIP` in `gregs` (`REG_RIP`).
const REG_RIP: usize = 16;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Itimerval {
    interval: Timeval,
    value: Timeval,
}

extern "C" {
    fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
}

extern "C" fn on_sigprof(_signum: i32, _info: *const u8, context: *const UContext) {
    let slot = TAKEN.fetch_add(1, Ordering::Relaxed);
    if let Some(cell) = PCS.get(slot) {
        // SAFETY: with SA_SIGINFO the kernel passes a valid `ucontext_t`.
        let pc = unsafe { (*context).gregs[REG_RIP] };
        cell.store(pc as u64, Ordering::Relaxed);
    }
}

fn set_timer(usec: i64) {
    let tick = || Timeval { sec: 0, usec };
    let timer = Itimerval {
        interval: tick(),
        value: tick(),
    };
    // SAFETY: `timer` outlives the call; a null `old` is allowed.
    let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "setitimer(ITIMER_PROF) failed");
}

/// Installs the handler and starts the timer.
pub fn start() {
    let action = SigAction {
        handler: on_sigprof,
        mask: [0; 16],
        flags: SA_SIGINFO | SA_RESTART,
        restorer: 0,
    };
    // SAFETY: `action` is laid out as glibc expects and outlives the call;
    // the handler only touches the statics above.
    let rc = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "sigaction(SIGPROF) failed");
    set_timer(INTERVAL_US);
}

/// Stops the timer and returns the sampled program counters and how many
/// samples did not fit.
pub fn stop() -> (Vec<u64>, usize) {
    set_timer(0);
    let taken = TAKEN.load(Ordering::Relaxed);
    let kept = taken.min(CAPACITY);
    let pcs = PCS[..kept]
        .iter()
        .map(|pc| pc.load(Ordering::Relaxed))
        .collect();
    (pcs, taken - kept)
}
