#!/usr/bin/env bash
# Entry point of BENCHMARK.json's `command`: builds both binaries from source
# (nothing to do when they are up to date) and runs the benchmark with the
# arguments given. Results and the per-process scratch directory go to
# `out/` beside this file, whatever the working directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/proteus-benchmark"
case "${1:-}" in
    compare | list) exec "$bin" "$@" ;;
    *) exec "$bin" --out "$here/out" "$@" ;;
esac
