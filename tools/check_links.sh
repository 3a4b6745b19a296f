#!/usr/bin/env bash
# Relative-link checker for the repo's Markdown docs (a minimal
# `cargo deadlinks` stand-in, run in CI).
#
# Two kinds of cross-reference are verified, over every git-tracked *.md
# outside vendor/:
#
#   1. inline Markdown links `[text](target)` whose target is not an
#      absolute URL or a pure fragment — resolved relative to the file
#      (a `#fragment` suffix is stripped; fragments themselves are not
#      checked);
#   2. backticked file mentions like `OBSERVABILITY.md`,
#      `crates/bench/tests/golden_trace.rs` or `results/golden/rtc_quick.txt`
#      — any `-escaped token ending in .md, .rs, .sh, .toml, .yml, .txt,
#      .json, .jsonl or .csv with no spaces or placeholders — resolved
#      relative to the repo root, then the file's directory. Tokens
#      containing `<`, `*` or `$` (path templates such as
#      `results/trace/<exp>/<run>.jsonl`) and bare suffixes (`.trace.json`)
#      are skipped. Two more ways to resolve, because the docs name report
#      files the way `repro` prints them: a git-ignored path is a generated
#      output (`results/campaigns.jsonl`), and a bare file name with no
#      directory resolves if any tracked file carries it (`invariants.csv`
#      for `results/stress/invariants.csv`).
#
# ISSUE.md and ROADMAP.md are excluded: task state and plans name files that
# do not exist yet, or no longer do.
#
# Exits non-zero listing every broken reference.

set -u
cd "$(dirname "$0")/.."

tracked_names=$(git ls-files | sed 's|.*/||' | sort -u)

fail=0
complain() { # file, reference
    echo "BROKEN: $1 -> $2" >&2
    fail=1
}

while IFS= read -r md; do
    dir=$(dirname "$md")

    # 1. Inline links. One match per line is enough for these docs.
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:* | '#'*) continue ;;
        esac
        path=${target%%#*}
        [ -z "$path" ] && continue
        [ -e "$dir/$path" ] || complain "$md" "($target)"
    done < <(grep -o '\][(][^)]*[)]' "$md" | sed 's/^](//; s/)$//')

    # 2. Backticked file mentions.
    while IFS= read -r token; do
        case "$token" in
        *'<'* | *'*'* | *'$'* | *' '*) continue ;;
        esac
        [ -e "$token" ] || [ -e "$dir/$token" ] && continue
        git check-ignore -q "$token" && continue
        case "$token" in
        */*) ;;
        *) grep -qx "$token" <<<"$tracked_names" && continue ;;
        esac
        complain "$md" "\`$token\`"
    done < <(grep -o '`[^`]*`' "$md" | sed 's/^`//; s/`$//' |
        grep -E '^([A-Za-z0-9_.-]+/)*[A-Za-z0-9_][A-Za-z0-9_.-]*\.(md|rs|sh|toml|yml|txt|json|jsonl|csv)$')
done < <(git ls-files '*.md' ':!vendor/' ':!ISSUE.md' ':!ROADMAP.md')

if [ "$fail" -ne 0 ]; then
    echo "Markdown cross-references are broken (see above)." >&2
    exit 1
fi
echo "All Markdown cross-references resolve."
