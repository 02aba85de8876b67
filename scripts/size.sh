#!/usr/bin/env bash
# Prints the size of the public surface, one row per crate plus one
# each for src/, examples/ and tests/:
#
#   code  non-blank, non-comment lines above each file's first
#         column-0 `#[cfg(test)]`, i.e. the file's test module (a file
#         without one counts in full; an indented `#[cfg(test)]` on a
#         single item inside an impl does not stop the count)
#   pub   `pub` item lines (fn/struct/enum/trait/const/type/mod/use)
#         in the same region
#
# Informational only: it never fails on the numbers.
#
# Usage: scripts/size.sh [workspace-root]   (default: this script's repo)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    # args: .rs files → "code pub"
    if [ "$#" -eq 0 ]; then
        echo "0 0"
        return
    fi
    awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        !live { next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { code++ }
        /^[[:space:]]*pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*(fn|struct|enum|trait|const|type|mod|use)[^[:alnum:]_]/ { pubs++ }
        END { printf "%d %d\n", code, pubs }
    ' "$@"
}

row() {
    # args: label dir
    local label=$1 dir=$2
    local files=()
    if [ -d "$dir" ]; then
        while IFS= read -r f; do files+=("$f"); done \
            < <(find "$dir" -name '*.rs' | sort)
    fi
    read -r code pubs < <(count "${files[@]+"${files[@]}"}")
    printf '%-22s %7d %6d\n' "$label" "$code" "$pubs"
    lib_code=$((lib_code + code))
    lib_pub=$((lib_pub + pubs))
}

lib_code=0
lib_pub=0
printf '%-22s %7s %6s\n' "row" "code" "pub"
for crate in crates/*/; do
    crate=${crate%/}
    row "$crate/src" "$crate/src"
done
row "src" "src"
row "examples" "examples"
printf '%-22s %7d %6d\n' "crates+src+examples" "$lib_code" "$lib_pub"
row "tests" "tests"
