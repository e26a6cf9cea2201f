#!/usr/bin/env bash
# Silently dropped results per file: occurrences of `let _ =` and `.ok();`
# in crates/*/src/**/*.rs, counting only the lines before the file's first
# `#[cfg(test)]` line (the rule scripts/loc.sh uses). Prints one
# "<path> <count>" row per file with at least one, then the total.
#
# CI diffs this output against scripts/silent_drops.txt, so a new drop
# shows up in review: either handle the error, or re-record the file
# (scripts/silent_drops.sh > scripts/silent_drops.txt) and say why.
#
# Exits 1 if a `#[cfg(test)]` line is not followed by a `mod` item, since
# everything after it would silently drop out of the count.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_test = 0; want_mod = 0 }
    want_mod {
        want_mod = 0
        if ($0 !~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) {
            printf "%s:%d: #[cfg(test)] must gate a mod\n", FILENAME, FNR - 1 > "/dev/stderr"
            bad = 1
        }
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1; want_mod = 1 }
    !in_test {
        n = gsub(/let _ =/, "&") + gsub(/\.ok\(\);/, "&")
        if (n > 0) { count[FILENAME] += n; total += n }
    }
    END {
        for (f in count) printf "%s %d\n", f, count[f] | "sort"
        close("sort")
        printf "total %d\n", total
        exit bad
    }' || exit 1
