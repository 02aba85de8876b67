#!/usr/bin/env bash
# The full local CI gate: format, lint, build, test.
# Run from anywhere; operates on the workspace this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> catch_unwind containment gate"
# Panic isolation lives in exactly one place: the engine's per-job
# catch_unwind in run_batch_isolated. Everywhere else a panic must
# propagate (or be a structured error), so graceful degradation cannot
# silently spread through the tree.
unwind_calls=$(grep -rn 'catch_unwind(' \
    --include='*.rs' crates src examples tests \
    | grep -v '^crates/engine/' \
    || true)
if [ -n "$unwind_calls" ]; then
    echo "catch_unwind outside crates/engine:" >&2
    echo "$unwind_calls" >&2
    exit 1
fi

echo "==> thread containment gate"
# Threads and channels live in the engine's worker pool and in the open
# loop's solver thread (crates/workload/src/driver.rs). Everything else
# runs on its caller's thread and gets parallelism from the engine, so
# ordering and telemetry stay worker-count independent by construction.
thread_calls=$(grep -rn -e 'thread::scope' -e 'thread::spawn' -e 'mpsc::' \
    --include='*.rs' crates/*/src \
    | grep -v '^crates/engine/src/' \
    | grep -v '^crates/workload/src/driver.rs:' \
    || true)
if [ -n "$thread_calls" ]; then
    echo "threads or channels outside the engine and the solver thread:" >&2
    echo "$thread_calls" >&2
    exit 1
fi

echo "==> println-telemetry gate"
# Library code never prints: telemetry flows through psnt-obs sinks
# (events, metrics, spans), so it is structured, streamable and
# maskable. Binaries under src/bin/ own stdout; everything else in
# crates/*/src must not write to the terminal.
print_calls=$(grep -rn \
    -e 'println!' -e 'eprintln!' -e 'print!(' -e 'eprint!(' -e 'dbg!(' \
    --include='*.rs' crates/*/src \
    | grep -v '/src/bin/' \
    | grep -v '^crates/obs/src/' \
    || true)
if [ -n "$print_calls" ]; then
    echo "print-style telemetry outside psnt-obs sinks and src/bin/:" >&2
    echo "$print_calls" >&2
    exit 1
fi

echo "==> batch hot-loop allocation gate"
# The 64-lane batch kernels must not allocate per instance on their hot
# paths. crates/core/src/lanes.rs is barred from owning `Vec<` entirely
# (its lane state is fixed [f64; 64] planes); the event kernel's marked
# hot region in crates/netlist/src/batch.rs (schedule/apply/evaluate/
# capture) may index pre-sized buffers but never mention `Vec<`.
lanes_vec=$(grep -n 'Vec<' crates/core/src/lanes.rs || true)
if [ -n "$lanes_vec" ]; then
    echo "Vec< in crates/core/src/lanes.rs (bit-parallel lane kernel must stay allocation-free):" >&2
    echo "$lanes_vec" >&2
    exit 1
fi
batch_hot_vec=$(sed -n '/BATCH HOT LOOP START/,/BATCH HOT LOOP END/p' \
    crates/netlist/src/batch.rs | grep -n 'Vec<' || true)
if [ -n "$batch_hot_vec" ]; then
    echo "Vec< inside the batch.rs hot-loop region (between the BATCH HOT LOOP markers):" >&2
    echo "$batch_hot_vec" >&2
    exit 1
fi

echo "==> PDN hot-loop allocation gate"
# The per-cycle PDN path must not allocate: the banded substitution
# kernels (one lane and eight), the delta assembly and the delta
# batch's plan/settle/apply (crates/pdn/src/grid.rs), the stepper's
# activity and grid stages and the recycled stage type with its
# seal/advance (crates/workload/src/stepper.rs), the XY next-hop step
# flights advance by (crates/workload/src/noc.rs) and the cycle loop's
# pipeline hand-off of stages, seal -> receive or take back -> hand over -> recycle
# (crates/workload/src/driver.rs), reuse their buffers. Between the PDN HOT LOOP markers no `Vec<`,
# `vec!`, `.clone()`, `.to_vec()`, `.collect(`, `format!` or
# `route_xy(` (a route built per flit) may appear, and the markers must
# be present and paired so deleting one cannot switch the gate off.
pdn_hot=""
for f in crates/pdn/src/grid.rs crates/workload/src/stepper.rs \
         crates/workload/src/noc.rs crates/workload/src/driver.rs; do
    starts=$(grep -c 'PDN HOT LOOP START' "$f" || true)
    ends=$(grep -c 'PDN HOT LOOP END' "$f" || true)
    if [ "$starts" -eq 0 ] || [ "$starts" -ne "$ends" ]; then
        echo "$f: expected paired PDN HOT LOOP markers, found $starts START / $ends END" >&2
        exit 1
    fi
    hits=$(awk '/PDN HOT LOOP START/{on=1} /PDN HOT LOOP END/{on=0}
        on && /Vec<|vec!|\.clone\(\)|\.to_vec\(\)|\.collect\(|format!|route_xy\(/{print FILENAME ":" FNR ": " $0}' "$f")
    if [ -n "$hits" ]; then
        pdn_hot="${pdn_hot}${hits}
"
    fi
done
if [ -n "$pdn_hot" ]; then
    echo "allocation inside a PDN hot-loop region (between the PDN HOT LOOP markers):" >&2
    echo "$pdn_hot" >&2
    exit 1
fi

echo "==> sense read-path gate"
# The closed loop reads SensorSystem::hs_level 64 times a cycle. Its
# path (hs_level in crates/core/src/system.rs, the operating point's
# bit reads in crates/core/src/thermometer.rs) takes no lock and
# allocates nothing: between the SENSE READ PATH markers no `.lock(`,
# `collect`, `Vec<` or `LogicVector` may appear, and the markers must
# be present and paired.
sense_hot=""
for f in crates/core/src/system.rs crates/core/src/thermometer.rs; do
    starts=$(grep -c 'SENSE READ PATH START' "$f" || true)
    ends=$(grep -c 'SENSE READ PATH END' "$f" || true)
    if [ "$starts" -eq 0 ] || [ "$starts" -ne "$ends" ]; then
        echo "$f: expected paired SENSE READ PATH markers, found $starts START / $ends END" >&2
        exit 1
    fi
    hits=$(awk '/SENSE READ PATH START/{on=1} /SENSE READ PATH END/{on=0}
        on && /\.lock\(|collect|Vec<|LogicVector/{print FILENAME ":" FNR ": " $0}' "$f")
    if [ -n "$hits" ]; then
        sense_hot="${sense_hot}${hits}
"
    fi
done
if [ -n "$sense_hot" ]; then
    echo "lock or allocation inside the sense read path (between the SENSE READ PATH markers):" >&2
    echo "$sense_hot" >&2
    exit 1
fi

echo "==> sim-time purity gate (crates/control)"
# Controllers are sim-time pure: decisions are functions of observed
# frames and their own state, never wall-clock time. Any Instant::now
# (or SystemTime) in the control crate breaks closed-loop determinism.
control_clock=$(grep -rn -e 'Instant::now' -e 'SystemTime' \
    --include='*.rs' crates/control || true)
if [ -n "$control_clock" ]; then
    echo "wall-clock access inside crates/control (controllers must be sim-time pure):" >&2
    echo "$control_clock" >&2
    exit 1
fi

echo "==> supervisor-path unwrap gate"
# The supervision path degrades through structured errors
# (`WorkloadError::Interrupted`, `ScanError::Interrupted`,
# `WorkloadError::Checkpoint`) — it must never panic on the way down.
# Non-test code in the supervision-critical files is barred from bare
# `.unwrap()`; test modules (everything at and below the `#[cfg(test)]`
# marker) are exempt. The checkpoint module (format and rail-series
# codec) decodes untrusted disk input, so there `.expect(` is barred
# too: a malformed file must come back as `WorkloadError::Checkpoint`.
sup_unwraps=""
for f in crates/sup/src/lib.rs crates/ctx/src/lib.rs \
         crates/workload/src/checkpoint.rs crates/workload/src/driver.rs \
         crates/workload/src/campaign.rs crates/workload/src/mitigated.rs \
         crates/workload/src/stepper.rs \
         crates/scan/src/campaign.rs crates/engine/src/batch.rs \
         crates/bench/src/checkpointed.rs; do
    if [ ! -f "$f" ]; then
        echo "$f is listed in the supervisor-path unwrap gate but does not exist" >&2
        exit 1
    fi
    hits=$(awk '/#\[cfg\(test\)\]/{exit} /\.unwrap\(\)/{print FILENAME ":" FNR ": " $0}' "$f")
    if [ -n "$hits" ]; then
        sup_unwraps="${sup_unwraps}${hits}
"
    fi
done
ckpt_expects=$(awk '/#\[cfg\(test\)\]/{exit} /\.expect\(/{print FILENAME ":" FNR ": " $0}' \
    crates/workload/src/checkpoint.rs)
if [ -n "$ckpt_expects" ]; then
    sup_unwraps="${sup_unwraps}${ckpt_expects}
"
fi
if [ -n "$sup_unwraps" ]; then
    echo "bare .unwrap() (or .expect( in the checkpoint decoder) in supervision-path non-test code:" >&2
    echo "$sup_unwraps" >&2
    exit 1
fi

echo "==> code size (informational)"
# Code lines and `pub` items per crate, so every CI log shows the
# size of the public surface. Prints only; no threshold.
scripts/size.sh

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> portable-ISA output gate (target-cpu=x86-64 vs native)"
# .cargo/config.toml builds for the host ISA so the lane kernels
# auto-vectorize. Rust never contracts or reassociates float ops, so a
# build for the baseline x86-64 ISA must print byte-identical reports.
# RUSTFLAGS overrides the config's rustflags; the portable build gets
# its own target dir so it never evicts the native artifacts.
# characterize's CSV datasets are compared too; its stdout carries
# wall times, so only the CSVs count.
portable_target=target/portable-x86-64
RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR="$portable_target" \
    cargo build -q --release -p psnt-bench --bin repro --bin characterize
isa_out="$(mktemp -d)"
mkdir "$isa_out/native" "$isa_out/portable"
target/release/repro --out "$isa_out/native" >"$isa_out/native/stdout.txt"
"$portable_target/release/repro" --out "$isa_out/portable" >"$isa_out/portable/stdout.txt"
target/release/characterize "$isa_out/native/csv" >/dev/null
"$portable_target/release/characterize" "$isa_out/portable/csv" >/dev/null
if ! diff -r "$isa_out/native" "$isa_out/portable"; then
    echo "repro or characterize output differs between the native and the x86-64 build" >&2
    rm -rf "$isa_out"
    exit 1
fi
rm -rf "$isa_out"

echo "==> golden-report gate (repro --out vs artifacts/)"
# Every report repro writes must equal its committed artifact byte for
# byte, and every committed artifact must still be written. The report
# in the skip list is known stale: artifacts/fault-coverage.txt is
# still the seed's 32-plan table, and it stays listed until ROADMAP
# item 1 makes the batched fault sweep exact and re-pins it.
stale_reports="fault-coverage"
golden_out="$(mktemp -d)"
target/release/repro --out "$golden_out" >/dev/null
golden_fail=0
for report in "$golden_out"/*.txt; do
    name=$(basename "$report")
    case " $stale_reports " in
        *" ${name%.txt} "*)
            echo "skipped (stale, ROADMAP item 2): $name"
            continue
            ;;
    esac
    if [ ! -f "artifacts/$name" ]; then
        echo "repro writes $name but artifacts/ has no copy" >&2
        golden_fail=1
    elif ! diff -u "artifacts/$name" "$report" >&2; then
        echo "repro's $name differs from artifacts/$name" >&2
        golden_fail=1
    fi
done
for artifact in artifacts/*.txt; do
    name=$(basename "$artifact")
    if [ ! -f "$golden_out/$name" ]; then
        echo "artifacts/$name is no longer written by repro --out" >&2
        golden_fail=1
    fi
done
# The same for characterize's CSV datasets against artifacts/csv/.
target/release/characterize "$golden_out/csv" >/dev/null
for dataset in "$golden_out"/csv/*.csv; do
    name=$(basename "$dataset")
    if [ ! -f "artifacts/csv/$name" ]; then
        echo "characterize writes $name but artifacts/csv/ has no copy" >&2
        golden_fail=1
    elif ! diff -u "artifacts/csv/$name" "$dataset" >&2; then
        echo "characterize's $name differs from artifacts/csv/$name" >&2
        golden_fail=1
    fi
done
for artifact in artifacts/csv/*.csv; do
    name=$(basename "$artifact")
    if [ ! -f "$golden_out/csv/$name" ]; then
        echo "artifacts/csv/$name is no longer written by characterize" >&2
        golden_fail=1
    fi
done
rm -rf "$golden_out"
if [ "$golden_fail" -ne 0 ]; then
    exit 1
fi

echo "==> recorded-run gate (EXPERIMENTS.md vs repro stdout)"
# The recorded runs EXPERIMENTS.md quotes under XP-NOC and XP-DROOP
# are the first ```text block after each heading, and must equal what
# `repro --xp <id>` prints today (stdout's trailing blank line aside).
recorded_fail=0
for run in "XP-NOC:noc-campaign" "XP-DROOP:droop-mitigation"; do
    heading=${run%%:*}
    xp=${run#*:}
    recorded=$(awk -v h="## $heading " '
        index($0, h) == 1 { found = 1; next }
        found && !inside && /^## / { exit }
        found && /^```text$/ { inside = 1; next }
        inside && /^```$/ { exit }
        inside { print }' EXPERIMENTS.md)
    if [ -z "$recorded" ]; then
        echo "EXPERIMENTS.md has no recorded-run block under ## $heading" >&2
        recorded_fail=1
    elif ! diff -u <(printf '%s\n' "$recorded") \
        <(target/release/repro --xp "$xp" | sed -e :a -e '/^\n*$/{$d;N;ba' -e '}') >&2; then
        echo "EXPERIMENTS.md's $heading recorded run differs from repro --xp $xp" >&2
        recorded_fail=1
    fi
done
if [ "$recorded_fail" -ne 0 ]; then
    exit 1
fi

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo bench --no-run"
# Benches must always compile, even when nobody runs them.
cargo bench --no-run

echo "==> engine suite under PSNT_JOBS=4"
# The determinism contract, exercised with a real worker pool: the
# engine's own tests plus the end-to-end parallel proptests.
PSNT_JOBS=4 cargo test -q -p psnt-engine
PSNT_JOBS=4 cargo test -q -p psn-thermometer --test parallel

echo "==> kernel-equivalence proptests under PSNT_JOBS=4"
# The optimized-kernel contract: reset() reuse, the delay cache and
# selective tracing are bit-identical to the naive kernel.
PSNT_JOBS=4 cargo test -q -p psnt-netlist --test kernel_equiv

echo "==> fault suite under PSNT_JOBS=4"
# The fault-injection contract: empty plans are invisible, degraded
# campaigns and bounded retries are worker-count independent.
PSNT_JOBS=4 cargo test -q -p psnt-fault
PSNT_JOBS=4 cargo test -q -p psn-thermometer --test fault_equiv

echo "==> batch bit-identity suite under PSNT_JOBS=4"
# The bit-parallel batching contract: every lane of the 64-wide event
# kernel and the batched Monte-Carlo is bit-identical to the scalar
# reference — healthy, per-lane-faulted, ragged tails, any job count.
PSNT_JOBS=4 cargo test -q -p psnt-netlist batch
PSNT_JOBS=4 cargo test -q -p psn-thermometer --test batch_equiv

echo "==> workload suite under PSNT_JOBS=4"
# The chip-scale workload contract: traffic traces, delta-solve
# chains and streamed campaigns are worker-count independent.
PSNT_JOBS=4 cargo test -q -p psnt-workload

echo "==> control + stepper-equivalence suites under PSNT_JOBS=4"
# The co-simulation refactor contract: the batch entry points are
# stepper drivers bit-identical to the fused loops they replaced, and
# the closed control loop is stable and deterministic at every tested
# code latency.
PSNT_JOBS=4 cargo test -q -p psnt-control
PSNT_JOBS=4 cargo test -q -p psn-thermometer --test stepper_equiv
PSNT_JOBS=4 cargo test -q -p psn-thermometer --test control_loop

echo "==> supervision + resume suites under PSNT_JOBS=4"
# The supervision contract: cooperative interrupts are structured and
# lossless, and an interrupted-then-resumed run is bit-identical to an
# uninterrupted one at jobs ∈ {1, 4}.
PSNT_JOBS=4 cargo test -q -p psnt-sup
PSNT_JOBS=4 cargo test -q -p psn-thermometer --test supervision_resume

echo "==> chaos soak under PSNT_JOBS=4 (hard timeout)"
# Randomized combinations of every harness fault against the
# supervised workload: no hangs (the timeout below makes a hang a hard
# failure), no lost partials, clean resume. 600 s is ~50x the observed
# wall clock of the suite.
PSNT_JOBS=4 timeout 600 cargo test -q -p psn-thermometer --test chaos_soak

echo "==> bounded-memory gate (streamed 256-site campaign)"
# The streaming contract: a full 256-site campaign, streamed one
# 32-site chunk at a time to its sink, keeps peak RSS flat (VmHWM <
# 512 MiB, own test binary so the number reflects only this campaign).
cargo test -q --release -p psnt-workload --test bounded_memory

echo "==> perf-regression gate (soft)"
# Re-times the suites and diffs against the committed baseline. A
# regression past the threshold only WARNS here — shared/1-vCPU CI
# boxes time benches too noisily to hard-fail on — but an unreadable
# or malformed snapshot (bench-diff exit 2) fails the build.
fresh_bench="$(mktemp)"
scripts/bench_snapshot.sh "$fresh_bench" >/dev/null
baseline=$(ls BENCH_PR*.json | sort -V | tail -1)
rc=0
cargo run -q --release -p psnt-bench --bin bench-diff -- \
    "$baseline" "$fresh_bench" --threshold 25% || rc=$?
rm -f "$fresh_bench"
case "$rc" in
    0) ;;
    1) echo "WARNING: benches regressed past 25% vs $baseline (soft gate, not failing)" >&2 ;;
    *) echo "bench-diff failed (exit $rc)" >&2; exit 1 ;;
esac

echo "CI green."
