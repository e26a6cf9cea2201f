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
#
# `--unused-outside` instead lists every `pub` item of a crate's library
# (crates/<c>/src minus src/bin, same lines as above) whose name no code
# outside that library spells: other crates, the crate's own src/bin,
# tests/, benches/ and examples/, the root src/, tests/ and examples/,
# perf/, and the library's own doc-test blocks (comments do not count).
# The scan is name-based: a name used anywhere outside keeps every item
# that bears it, and so does a name in the signature of an item kept that
# way (a type that a used function returns stays public, as the
# compiler's `private_interfaces` lint requires). One row per item,
# "<crate> <file> <name>", followed by the reason given in a
# `// Public: <reason>` comment above the item. CI diffs this output
# against scripts/pub_unused.txt: an item nobody outside names is
# `pub(crate)`, deleted, or kept public with a reason.
#
# Exits 1 if a `#[cfg(test)]` line is not followed by a `mod` item, since
# everything after it would silently drop out of the counts.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

# Awk rules shared by both modes: skip from the first `#[cfg(test)]` line
# on, and fail on one that does not gate a module.
guard='
    FNR == 1 { in_test = 0; want_mod = 0 }
    want_mod {
        want_mod = 0
        if ($0 !~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) {
            printf "%s:%d: #[cfg(test)] must gate a mod\n", FILENAME, FNR - 1 > "/dev/stderr"
            bad = 1
        }
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1; want_mod = 1 }
    in_test { next }'

if [[ "${1:-}" == --unused-outside ]]; then
    # Prints the code of each line: doc-test lines unwrapped, other comments
    # dropped. `doc` is set on the lines that come from a doc-test.
    code='
        FNR == 1 { fence = 0 }
        { doc = 0 }
        /^[[:space:]]*\/\/[\/!]/ {
            if ($0 ~ /```/) { fence = !fence; test = fence && $0 !~ /```[[:space:]]*text/; next }
            if (!(fence && test)) next
            doc = 1
            sub(/^[[:space:]]*\/\/[\/!]/, "")
        }
        { sub(/(^|[[:space:]])\/\/.*/, "") }'
    tokens=$(mktemp)
    trap 'rm -f "$tokens"' EXIT
    status=0
    roots=()
    for root in crates/*/src crates/*/tests crates/*/benches crates/*/examples \
        src tests examples perf/src perf/tests perf/benches; do
        [[ -d "$root" ]] && roots+=("$root")
    done
    for dir in crates/*/src; do
        crate=$(basename "$(dirname "$dir")")
        # Every identifier outside code spells: comments do not count,
        # except the code of doc-tests (fenced doc blocks not marked `text`),
        # the library's own included.
        {
            find "${roots[@]}" -name '*.rs' \( -path "$dir/bin/*" -o -not -path "$dir/*" \) -print0 |
                xargs -0 awk "$code"' { print }'
            find "$dir" -name '*.rs' -not -path "$dir/bin/*" -print0 |
                xargs -0 awk "$code"' !doc { next } { print }'
        } | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$tokens"
        find "$dir" -name '*.rs' -not -path "$dir/bin/*" -print0 | sort -z |
            xargs -0 awk -v crate="$crate" -v src="$dir/" -v tokens="$tokens" "$guard"'
            BEGIN { while ((getline t < tokens) > 0) used[t] = 1 }
            function record(name, own, shown, listed) {
                n++
                iname[n] = name; iowner[n] = own; ishown[n] = shown
                ifile[n] = file; ireason[n] = reason; ilisted[n] = listed
                isig[n] = $0
                return n
            }
            FNR == 1 { owner = ""; reason = ""; in_use = 0; collect = 0 }
            { file = substr(FILENAME, length(src) + 1) }
            # The rest of a signature (up to `stop`) started on an earlier line.
            collect {
                isig[cur] = isig[cur] " " $0
                if ($0 ~ stop) collect = 0
                next
            }
            # Associated items are shown as Owner::name, where Owner is the
            # type, impl, trait or inline module they are indented under.
            /^impl[[:space:]<]/ {
                line = $0
                sub(/[[:space:]]*(where.*)?\{?[[:space:]]*$/, "", line)
                while (gsub(/<[^<>]*>/, "", line)) {}
                n_w = split(line, w, /[[:space:]]+/)
                owner = w[n_w]
            }
            /^(pub(\([a-z]+\))?[[:space:]]+)?(trait|mod|struct|enum|union)[[:space:]]/ {
                line = $0
                sub(/^(pub(\([a-z]+\))?[[:space:]]+)?[a-z]+[[:space:]]+/, "", line)
                match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
                owner = substr(line, 1, RLENGTH)
            }
            /^\}/ { owner = "" }
            # A re-export runs to its `;`: one row per name it exports.
            in_use || /^[[:space:]]*pub[[:space:]]+use[[:space:]]/ {
                stmt = stmt " " $0
                in_use = $0 !~ /;/
                if (in_use) next
                sub(/^[[:space:]]*pub[[:space:]]+use[[:space:]]+/, "", stmt)
                gsub(/[{};]/, ",", stmt)
                n_p = split(stmt, part, ",")
                for (i = 1; i <= n_p; i++) {
                    name = part[i]
                    gsub(/^[[:space:]]+|[[:space:]]+$/, "", name)
                    sub(/.*[[:space:]]as[[:space:]]+/, "", name)
                    sub(/.*::/, "", name)
                    if (name ~ /^[A-Za-z_][A-Za-z0-9_]*$/ && name != "self") {
                        cur = record(name, "", name, 1)
                        isig[cur] = ""
                    }
                }
                stmt = ""; reason = ""
                next
            }
            /^[[:space:]]*pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*(fn|struct|enum|trait|type|const|static|mod|union)[[:space:]]+[A-Za-z_]/ {
                line = $0
                match(line, /^[[:space:]]*/)
                indent = substr(line, 1, RLENGTH)
                sub(/^[[:space:]]*pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*/, "", line)
                kind = line
                sub(/[[:space:]].*/, "", kind)
                sub(/^[a-z]+[[:space:]]+/, "", line)
                match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
                name = substr(line, 1, RLENGTH)
                own = indent == "" ? "" : owner
                cur = record(name, own, (own != "" ? own "::" : "") name, 1)
                # Where the signature ends: a fn at its body or `;`, a const,
                # static or alias at its value, an enum or trait (whose
                # variants and methods are public with it) at its closing
                # brace; struct, union and mod headers are one line.
                if (kind == "fn") stop = "[{;]"
                else if (kind ~ /^(const|static|type)$/) stop = "[=;]"
                else if (kind ~ /^(enum|trait)$/ && $0 ~ /\{[[:space:]]*$/) stop = "^" indent "}"
                else stop = ""
                collect = stop != "" && $0 !~ (kind ~ /^(enum|trait)$/ ? "}" : stop)
                reason = ""
                next
            }
            # A public field is in the signature of its struct.
            /^[[:space:]]+pub[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:/ {
                line = $0
                sub(/^[[:space:]]*pub[[:space:]]+/, "", line)
                sub(/[^A-Za-z0-9_].*/, "", line)
                record(line, owner, "", 0)
                next
            }
            /^[[:space:]]*\/\/ Public: / { reason = $0; sub(/^[[:space:]]*\/\/ Public: /, "", reason); next }
            /^[[:space:]]*(#|\/\/)/ { next }
            { reason = "" }
            END {
                # Close over signatures: the names in the signature of a
                # used item (for an associated item, one whose owner is used
                # too) count as used, as the compiler requires.
                do {
                    grew = 0
                    for (i = 1; i <= n; i++) {
                        if (done[i] || !(iname[i] in used) || (iowner[i] != "" && !(iowner[i] in used))) continue
                        done[i] = 1
                        m = split(isig[i], w, /[^A-Za-z0-9_]+/)
                        for (j = 1; j <= m; j++)
                            if (w[j] != "" && !(w[j] in used)) { used[w[j]] = 1; grew = 1 }
                    }
                } while (grew)
                for (i = 1; i <= n; i++)
                    if (ilisted[i] && !(iname[i] in used))
                        printf "%s %s %s%s\n", crate, ifile[i], ishown[i], ireason[i] == "" ? "" : "  # " ireason[i]
                exit bad
            }' || status=1
    done
    exit "$status"
fi

printf '%-10s %6s %6s\n' crate module assoc
total_m=0
total_a=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    counts=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk "$guard"'
        /^pub[[:space:]]/ { m++; next }
        /^[[:space:]]+pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*fn[[:space:]]/ { a++; next }
        /^[[:space:]]+pub[[:space:]]+const[[:space:]]/ { a++ }
        END { print m + 0, a + 0; exit bad }') || exit 1
    read -r m a <<<"$counts"
    printf '%-10s %6d %6d\n' "$crate" "$m" "$a"
    total_m=$((total_m + m))
    total_a=$((total_a + a))
done
printf '%-10s %6d %6d\n' total "$total_m" "$total_a"
