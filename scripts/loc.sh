#!/usr/bin/env bash
# Non-test lines of code per crate: for every crates/<c>/src/**/*.rs, the
# non-blank lines before the file's first `#[cfg(test)]` line. Prints one
# "<crate> <lines>" row per crate, then the total over crates/*/src.
# Informational (CI writes it to the job summary); not a gate.
#
# Exits 1 if a `#[cfg(test)]` line is not followed by a `mod` item: code
# gated on its own in the middle of a file would silently drop out of the
# count, along with everything after it.
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    n=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0; want_mod = 0 }
        want_mod {
            want_mod = 0
            if ($0 !~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) {
                printf "%s:%d: #[cfg(test)] must gate a mod\n", FILENAME, FNR - 1 > "/dev/stderr"
                bad = 1
            }
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1; want_mod = 1 }
        !in_test && NF > 0 { n++ }
        END { print n + 0; exit bad }') || exit 1
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
