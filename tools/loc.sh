#!/usr/bin/env bash
# Code lines per Rust file under each DIR, a total per DIR and, for more
# than one DIR, a grand total: lines that are not blank and not a `//`
# comment (doc comments included), counted up to the file's first
# `#[cfg(test)]` — the number ISSUE/ROADMAP size bars quote.
#
#   tools/loc.sh crates/netsim/src
#   tools/loc.sh crates/*/src        # every crate's total in one go

set -euo pipefail
if [[ $# -eq 0 ]]; then
    echo "usage: tools/loc.sh DIR..." >&2
    exit 2
fi
for dir in "$@"; do
    if [[ ! -d "$dir" ]]; then
        echo "usage: tools/loc.sh DIR... ($dir is not a directory)" >&2
        exit 2
    fi
done

for dir in "$@"; do
    find "$dir" -name '*.rs' | sort | while read -r f; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
                 !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
                 END { print n + 0 }' "$f")
        printf '%6d  %s\n' "$n" "$f"
    done | awk -v dir="$dir" '{ print; t += $1 } END { printf "%6d  total %s\n", t, dir }'
done | awk -v dirs=$# '{ print } $2 == "total" { g += $1 }
                       END { if (dirs > 1) printf "%6d  total\n", g }'
