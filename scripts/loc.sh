#!/usr/bin/env bash
# Non-test lines of code per crate: for every crates/<c>/src/**/*.rs, the
# non-blank lines before the file's first `#[cfg(test)]` line. Prints one
# "<crate> <lines>" row per crate, then the total over crates/*/src.
# Informational (CI writes it to the job summary); not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    n=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && NF > 0 { n++ }
        END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
