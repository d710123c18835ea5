#!/bin/sh
# Production line count, the rule every PR since 18 reports: Rust lines
# under crates/*/src, src and vendor/bytes/src, not counting blank lines,
# comment lines, or any item behind #[cfg(test)] (brace-matched, so a test
# module in the middle of a file hides only itself).
#
#   scripts/prod_loc.sh [tree]     # tree defaults to the repo of this script
set -eu
cd "${1:-$(dirname "$0")/..}"
find crates/*/src src vendor/bytes/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
FNR == 1 { skipping = 0; depth = 0; in_block = 0 }
{
    line = $0
    # Block comments: drop what lies inside /* ... */.
    if (in_block) {
        if (index(line, "*/") == 0) next
        line = substr(line, index(line, "*/") + 2); in_block = 0
    }
    while ((start = index(line, "/*")) > 0) {
        rest = substr(line, start + 2)
        if ((stop = index(rest, "*/")) == 0) { line = substr(line, 1, start - 1); in_block = 1; break }
        line = substr(line, 1, start - 1) substr(rest, stop + 2)
    }
    sub(/^[ \t]+/, "", line)
    if (line == "" || line ~ /^\/\//) next
    if (!skipping && line ~ /^#\[cfg\(test\)\]/) { skipping = 1; depth = 0; opened = 0; next }
    if (skipping) {
        # The item the attribute guards: up to its `;` (or the `,` that ends
        # a field or a struct-literal entry), or to the brace
        # that closes the first one it opens.
        if (!opened && line ~ /^#\[/) next
        code = line; sub(/\/\/.*$/, "", code)
        opens = gsub(/\{/, "{", code); closes = gsub(/\}/, "}", code)
        if (opens > 0) opened = 1
        depth += opens - closes
        if ((opened && depth <= 0) || (!opened && code ~ /[;,][ \t]*$/)) skipping = 0
        next
    }
    count++
}
END { print count + 0 }' | awk '{ total += $1 } END { print total }' # xargs may split the list
