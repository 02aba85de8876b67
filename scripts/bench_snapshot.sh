#!/usr/bin/env bash
# Runs the Criterion suites and writes the median estimates to a
# machine-readable JSON snapshot at the repo root (BENCH_PR3.json by
# default) — the perf trajectory future PRs diff against. The snapshot
# also records the scripts/size.sh table (code lines and `pub` items
# per row) under "size", so code size is tracked alongside speed.
#
# Usage: scripts/bench_snapshot.sh [output.json]
#
# The vendored criterion shim prints one line per benchmark:
#   <name>  time: [<lo> <unit> <median> <unit> <hi> <unit>]
# We parse the median and normalise everything to nanoseconds.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR3.json}"
SUITES=(paper kernels)

parse_medians() {
    # stdin: cargo bench stdout → "name <median ns>" lines.
    awk '
        /time: \[/ {
            name = $1
            match($0, /\[[^]]*\]/)
            inner = substr($0, RSTART + 1, RLENGTH - 2)
            n = split(inner, f, " ")
            # pairs: lo unit median unit hi unit → median is f[3], f[4].
            val = f[3]; unit = f[4]
            if (unit == "ns")      m = 1
            else if (unit == "µs") m = 1e3
            else if (unit == "ms") m = 1e6
            else                   m = 1e9
            printf "%s %.3f\n", name, val * m
        }'
}

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

for suite in "${SUITES[@]}"; do
    echo "==> cargo bench -p psnt-bench --bench $suite" >&2
    # Echo through the inherited stderr: `tee /dev/stderr` would reopen
    # its target and truncate a log file stderr is redirected to.
    cargo bench -p psnt-bench --bench "$suite" 2>/dev/null | tee >(cat >&2) \
        | parse_medians >"$tmpdir/$suite.txt"
done

{
    echo "{"
    echo "  \"generated_by\": \"scripts/bench_snapshot.sh\","
    echo "  \"units\": \"median nanoseconds per iteration\","
    echo "  \"suites\": {"
    for si in "${!SUITES[@]}"; do
        suite="${SUITES[$si]}"
        echo "    \"$suite\": {"
        n=$(wc -l <"$tmpdir/$suite.txt")
        i=0
        while read -r name median; do
            i=$((i + 1))
            comma=","
            [ "$i" -eq "$n" ] && comma=""
            echo "      \"$name\": $median$comma"
        done <"$tmpdir/$suite.txt"
        if [ "$si" -eq $((${#SUITES[@]} - 1)) ]; then
            echo "    }"
        else
            echo "    },"
        fi
    done
    echo "  },"
    echo "  \"size\": {"
    scripts/size.sh | awk 'NR > 1 { rows[++n] = sprintf("    \"%s\": {\"code\": %d, \"pub\": %d}", $1, $2, $3) }
        END { for (i = 1; i <= n; i++) print rows[i] (i < n ? "," : "") }'
    echo "  }"
    echo "}"
} >"$OUT"

echo "wrote $OUT" >&2
