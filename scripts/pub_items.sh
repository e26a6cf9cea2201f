#!/usr/bin/env bash
# Public items per crate, counting only the lines of crates/<c>/src/**/*.rs
# before the file's first `#[cfg(test)]` line (the rule scripts/loc.sh
# uses). Prints one "<crate> <module> <assoc>" row per crate, then the
# totals:
#   module  unindented `pub` items (not `pub(crate)`/`pub(super)`): fns,
#           types, traits, consts, statics, modules and re-exports;
#   assoc   indented `pub fn` and `pub const`: associated items, plus the
#           items of inline modules and macro bodies.
# Struct fields are not items and are not counted. Informational (CI
# writes it to the job summary); not a gate.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."
printf '%-10s %6s %6s\n' crate module assoc
total_m=0
total_a=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    read -r m a < <(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        /^pub[[:space:]]/ { m++; next }
        /^[[:space:]]+pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*fn[[:space:]]/ { a++; next }
        /^[[:space:]]+pub[[:space:]]+const[[:space:]]/ { a++ }
        END { print m + 0, a + 0 }')
    printf '%-10s %6d %6d\n' "$crate" "$m" "$a"
    total_m=$((total_m + m))
    total_a=$((total_a + a))
done
printf '%-10s %6d %6d\n' total "$total_m" "$total_a"
