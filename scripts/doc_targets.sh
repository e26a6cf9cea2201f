#!/usr/bin/env bash
# Every `--bin X`, `--example X` and `--test X` that README.md, DESIGN.md,
# EXPERIMENTS.md or the verify skill names must have a source file:
# src/bin/X.rs (or src/bin/X/main.rs), examples/X.rs or tests/X.rs, at the
# root, in a crate under crates/, or under perf/. `<…>` placeholders are
# skipped. Prints one "<doc>: --<kind> <name>" row per name with no source
# and exits 1 if there is any.
set -euo pipefail
cd "$(dirname "$0")/.."
docs=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
bad=0
while IFS= read -r hit; do
    doc=${hit%%:*}
    rest=${hit#*:--}
    kind=${rest%%[ =]*}
    name=${rest#*[ =]}
    name=${name%%[,.;:]}
    [[ $name == *"<"* ]] && continue
    case $kind in
        bin) files=(src/bin/"$name".rs src/bin/"$name"/main.rs) ;;
        example) files=(examples/"$name".rs) ;;
        test) files=(tests/"$name".rs) ;;
    esac
    found=0
    for f in "${files[@]}"; do
        for root in . crates/* perf; do
            [[ -f $root/$f ]] && found=1
        done
    done
    if ((found == 0)); then
        echo "$doc: --$kind $name"
        bad=1
    fi
done < <(grep -oE -- '--(bin|example|test)[ =][^ `)"'"'"']+' "${docs[@]}" | sort -u)
exit "$bad"
