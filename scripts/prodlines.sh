#!/bin/sh
# Line counts behind ROADMAP item 7 ("production builds compile no
# oracle and no inert code"). Prints three numbers:
#
#   production   every .rs file under crates/*/src, src/ and examples/,
#                counted up to (not including) its first `#[cfg(test)]`
#                line: the rule the item's target is stated in
#   compiled     the same count without the items gated by
#                `#[cfg(any(test, feature = "oracle"))]` (with their doc
#                comments and attributes): what a production build
#                compiles
#   all-rust     every .rs file under crates/, examples/, tests/ and src/
#
# Item extents are found by bracket depth, line by line: an item ends on
# the first line that leaves the depth at zero and ends in `}`, `;` or
# `,`. Report only; it never fails.
#
# Usage: scripts/prodlines.sh
set -eu
cd "$(dirname "$0")/.."

prod_files() {
    find crates/*/src src examples -name '*.rs' | sort
}

production=0
compiled=0
for f in $(prod_files); do
    set -- $(awk '
        function depth_of(s,    t) {
            t = s
            gsub(/"([^"\\]|\\.)*"/, "", t)  # drop string literals
            gsub(/\/\/.*/, "", t)            # and line comments
            return gsub(/[({[]/, "", t) - gsub(/[)}\]]/, "", t)
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        {
            all++
            line = $0
            sub(/^[[:space:]]+/, "", line)
            if (skipping) {
                depth += depth_of(line)
                if (depth == 0 && line ~ /[};,]$/) skipping = 0
                next
            }
            if (line ~ /^(\/\/\/|#\[)/) {
                # Doc comments and attributes belong to the next item.
                held++
                if (line ~ /^#\[cfg\(any\(test, feature = "oracle"\)\)\]/) gated = 1
                next
            }
            if (gated) {
                depth = depth_of(line)
                if (!(depth == 0 && line ~ /[};,]$/)) skipping = 1
                held = 0
                gated = 0
                next
            }
            kept += held + 1
            held = 0
        }
        END { print all + 0, kept + held }
    ' "$f")
    production=$((production + $1))
    compiled=$((compiled + $2))
done
all_rust=$(find crates examples tests src -name '*.rs' -exec cat {} + | wc -l)

printf 'production (up to the first #[cfg(test)]): %s\n' "$production"
printf 'production without cfg(any(test, feature = "oracle")) items: %s\n' "$compiled"
printf 'all Rust (crates/ examples/ tests/ src/): %s\n' "$all_rust"
