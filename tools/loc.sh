#!/usr/bin/env bash
# Code lines per Rust file under DIR, and their total: lines that are not
# blank and not a `//` comment (doc comments included), counted up to the
# file's first `#[cfg(test)]` — the number ISSUE/ROADMAP size bars quote.
#
#   tools/loc.sh crates/netsim/src

set -euo pipefail
if [[ $# -ne 1 || ! -d "$1" ]]; then
    echo "usage: tools/loc.sh DIR" >&2
    exit 2
fi

find "$1" -name '*.rs' | sort | while read -r f; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
             !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
             END { print n + 0 }' "$f")
    printf '%6d  %s\n' "$n" "$f"
done | awk '{ print; total += $1 } END { printf "%6d  total\n", total }'
