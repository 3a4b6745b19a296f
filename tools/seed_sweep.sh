#!/usr/bin/env bash
# Seed sweep of one invariant campaign (stress, scale, topology, rtc): how
# much of a verdict is the mechanism and how much is the seed.
#
#   tools/seed_sweep.sh [--full] CAMPAIGN SEED...
#
# Runs `repro --quick --no-cache --jobs 0 --seed S CAMPAIGN` once per seed
# (`--full` drops `--quick`), each into its own scratch PROTEUS_RESULTS_DIR
# so the committed results/ are never touched, and prints one row per
# invariant — read from that run's invariants.csv — with the number of seeds
# it passed on, the min and max of its value, and the seeds it failed on;
# then the seeds on which every invariant passed. Exits 1 if any invariant
# failed on any seed, so CI can use a sweep as a gate.
#
# REPRO=<path> sweeps another build's binary (the parent commit's, when
# telling a change's effect from seed noise); by default the workspace's
# release binary is built and used.

set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

mode=--quick
if [[ "${1:-}" == --full ]]; then
    mode=
    shift
fi
if [[ $# -lt 2 ]]; then
    echo "usage: tools/seed_sweep.sh [--full] CAMPAIGN SEED..." >&2
    exit 2
fi
campaign=$1
shift

if [[ -z "${REPRO:-}" ]]; then
    cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p proteus-bench --bin repro
    REPRO="$root/target/release/repro"
fi

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

csvs=()
for seed in "$@"; do
    # Exit 1 is a failed invariant: that is a row of the table, not an error.
    PROTEUS_RESULTS_DIR="$scratch/$seed" "$REPRO" $mode --no-cache --jobs 0 \
        --seed "$seed" "$campaign" >/dev/null 2>&1 || true
    csv="$scratch/$seed/$campaign/invariants.csv"
    if [[ ! -f "$csv" ]]; then
        echo "seed $seed: $campaign wrote no invariants.csv" >&2
        exit 2
    fi
    csvs+=("$csv")
done

# Columns are <scope...>,check,value,verdict; a check's key is everything
# before the value.
awk -F, -v seeds="$*" -v campaign="$campaign" '
FNR == 1 { file++; next }
{
    key = $1
    for (i = 2; i <= NF - 2; i++) key = key "/" $i
    value = $(NF - 1) + 0
    if (!(key in runs)) { order[++nkeys] = key; min[key] = value; max[key] = value }
    runs[key]++
    if (value < min[key]) min[key] = value
    if (value > max[key]) max[key] = value
    if ($NF == "PASS") pass[key]++
    else {
        failed_on[key] = failed_on[key] " " seed_of[file]
        if (!(file in bad)) { bad[file] = 1; nbad++ }
    }
}
BEGIN { nseeds = split(seeds, seed_of, " ") }
END {
    printf "%s, seeds %s\n", campaign, seeds
    printf "%-64s %7s %12s %12s  %s\n", "check", "pass", "min", "max", "failed on"
    for (k = 1; k <= nkeys; k++) {
        key = order[k]
        printf "%-64s %3d/%-3d %12.4f %12.4f %s\n", key, pass[key], runs[key], min[key], max[key], failed_on[key]
    }
    clean = ""
    for (f = 1; f <= nseeds; f++) if (!(f in bad)) clean = clean " " seed_of[f]
    printf "every invariant passed on seeds:%s\n", clean == "" ? " none" : clean
    exit nbad > 0
}' "${csvs[@]}"
