#!/usr/bin/env bash
# Where a benchmark workload's CPU time goes, by sampling, or where its
# memory is at the peak, by a heap census (DESIGN.md §4c).
#
#   tools/prof.sh WORKLOAD [PASSES]          e.g. tools/prof.sh clean_dumbbell 10
#   tools/prof.sh --heap WORKLOAD [PASSES]   e.g. tools/prof.sh --heap churn_population 1
#
# Builds tools/prof (a package of its own, path-dependent on benchmark/),
# runs WORKLOAD's set-up and PASSES passes (default 3) under a SIGPROF timer
# that records the interrupted program counter (x86-64 Linux; the kernel
# ticks it at CONFIG_HZ, so expect one sample per 4 ms of CPU, not per 1 ms),
# and prints three tables, each as a share of all samples:
#   - outer symbols: the function the PC belongs to in the symbol table;
#   - inlined functions: the innermost function of the PC's inline chain
#     (`addr2line -f -C -i`) that is defined in a file of this repository —
#     what the source says was running, std's leaf helpers folded into their
#     caller; the chain's innermost function when none is;
#   - in-repo lines: that function's line.
# Samples inside a shared object show as `[libm.so.6]` and the like.
# With --heap the same passes run under a counting allocator instead of the
# timer, and the output is the live heap where it peaked: live bytes now, the
# peak, the process's VmHWM, and one row per exact allocation size — bytes
# held, live allocations, size — largest holding first. `144 x 114688` names
# its data structure (144 buffers of 2 048 56-byte entries); the gap to VmHWM
# is the allocator's rounding and free lists, the binary and the stacks.
# TOP=N sets the rows per table (default 25).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cargo build --release --offline --quiet --manifest-path "$here/prof/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/prof/target}/release/proteus-prof"
if [[ "${1:-}" == --heap ]]; then
    "$bin" "$@" | awk -v top="${TOP:-25}" '/^#/ { print; next } rows++ <= top'
    exit "${PIPESTATUS[0]}"
fi
raw="$(mktemp)"
trap 'rm -f "$raw" "$raw.sym"' EXIT
"$bin" "$@" >"$raw"
grep '^#' "$raw"
awk '$2 ~ /^0x/ { print $2 }' "$raw" | addr2line -a -f -C -i -e "$bin" >"$raw.sym"
awk -v root="$root/" -v top="${TOP:-25}" '
    function flush_group() {
        if (addr == "") return
        n = cnt[addr]
        outer[fn[frames]] += n
        for (i = 1; i <= frames && index(at[i], root) != 1; i++);
        if (i <= frames) { inner[fn[i]] += n; line[substr(at[i], length(root) + 1)] += n }
        else { inner[fn[1]] += n; line["(no in-repo frame)"] += n }
        addr = ""
    }
    function table(title, t,    k, cmd) {
        printf "\n## %s\n", title
        cmd = "sort -t\"\t\" -k1,1nr | head -n " top
        for (k in t) printf "%6.2f %%\t%s\n", 100 * t[k] / total, k | cmd
        close(cmd)
    }
    NR == FNR {
        if ($1 == "#") next
        total += $1
        if ($2 ~ /^0x/) cnt[$2] = $1
        else { outer[$2] += $1; inner[$2] += $1; line[$2] += $1 }
        next
    }
    /^0x[0-9a-f]+$/ { flush_group(); addr = $0; frames = 0; want_fn = 1; next }
    want_fn { frames++; sub(/::h[0-9a-f]{16}$/, ""); fn[frames] = $0; want_fn = 0; next }
    { sub(/ \(discriminator [0-9]+\)$/, ""); at[frames] = $0; want_fn = 1 }
    END {
        flush_group()
        table("outer symbols", outer)
        table("inlined functions", inner)
        table("in-repo lines", line)
    }
' "$raw" "$raw.sym"
