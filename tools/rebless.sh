#!/usr/bin/env bash
# Re-bless procedure (EXPERIMENTS.md, "Golden pins"): for a change that
# moves simulated numbers on purpose.
#
#   tools/rebless.sh
#
#   1. rewrites every golden under results/golden/ (PROTEUS_BLESS=1 over the
#      four golden suites; campaign_invariants still requires every
#      invariant green and --jobs 1 == --jobs 4, so a blessing cannot hide
#      a failed check);
#   2. regenerates the full-fidelity results/ with the cache off — `repro`
#      exits 1 if any campaign invariant fails, and so does this script;
#   3. lists what changed under results/, for the commit message: a blessing
#      without a rationale per file defeats the pin.
#
# About 10 minutes on 2 cores. Afterwards re-read every verdict row of
# EXPERIMENTS.md against the new results/ (a second `repro --no-cache all`
# must reproduce them byte for byte), and tell the change's effect from seed
# noise with tools/seed_sweep.sh.

set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

unset PROTEUS_RESULTS_DIR
PROTEUS_BLESS=1 cargo test -q --release -p proteus-bench \
    --test golden_outputs --test golden_trace --test golden_tune --test campaign_invariants
cargo run -q --release -p proteus-bench --bin repro -- --no-cache --jobs 0 all >/dev/null

echo "changed under results/:"
git status --porcelain -- results | sed 's/^/  /'
