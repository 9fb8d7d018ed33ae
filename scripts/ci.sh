#!/bin/sh
# Staged CI gate.
#
# Every stage is named, timed, and logged: output streams to
# target/ci-logs/<stage>.log, the console shows one line per stage, and
# a wall-clock summary table is printed at the end (also on failure, so
# a red run still shows where the time went). A failing stage prints
# the tail of its log instead of swallowing it. Run a single stage with
# `scripts/ci.sh --stage <name>`.
#
# Stages, in order (tier 1 always runs first):
#   tier1        release build + full test suite + rustfmt
#                (scripts/tier1.sh — the per-commit gate)
#   clippy       whole-workspace clippy, then the benchmark package's,
#                warnings denied
#   doc          whole-workspace rustdoc, warnings denied, so a deleted
#                or renamed item cannot leave a dangling doc link
#   crates       the member crates' own tests (tier 1's `cargo test`
#                covers only the root package, the workspace's one
#                default member), in release; then the `checkpoint`
#                and `epidemic` crates' again in debug, so their
#                `debug_assert!`s run under their own unit tests
#   examples     run the four examples end to end (quickstart,
#                forensics, worm_outbreak, community_defense); a
#                nonzero exit from any of them fails the stage
#   no-unsafe    grep gate: the workspace stays `unsafe`-free
#                (DESIGN.md §7) — belt-and-braces on top of the
#                workspace-level `unsafe_code = "forbid"` lint; scans
#                src, crates, tests and examples
#   chaos-seeds  quarantined-seed replay: every seed in
#                tests/chaos_known_seeds.txt re-runs BEFORE the random
#                smoke, so once-interesting fault mixes stay covered
#   chaos-smoke  200 seeded fault-injection + differential fuzz cases
#                across all four guests, zero violations required
#   ckptparity   checkpoint parity: on every guest a 0.2 ms cadence
#                builds a >= 10-snapshot incremental chain, and every
#                retained snapshot must rebuild under its take-time
#                image digest and roll back to the identical machine
#   fleet-smoke  `tables fleet` at 1k hosts, run twice; the binary
#                asserts a finite p99 in both latency windows, and the
#                two printed tables must be byte-identical (the repeat-
#                run determinism gate, invariant I10). The 1k digest
#                itself is pinned in tier 1 (tests/pinned_outputs.rs)
#   epidemic-smoke  `tables fig9fail` at reduced hosts; the binary
#                asserts SoA/legacy parity (invariant I11, both
#                backends run and compared), K-invariance, and a
#                finite per-host tick rate
#   recovery-smoke  `tables fleetrecover` at 1k hosts, run twice: the
#                same outbreak under Full vs Domain recovery plus a
#                Differential oracle leg; the binary asserts domain
#                parity, zero I12 violations, and a Domain outbreak
#                p999 strictly below Full's, and the two printed tables
#                must be byte-identical (invariant I10)
#   fig9dist     `tables fig9dist` at 1k hosts; the binary asserts no
#                unverified deployment (invariant I8) in any cell
#   servicepath  `tables servicepath` at a reduced size: the service
#                path of a protected Squid request, layer by layer, in
#                host wall time. Gates on exit status only (every
#                request must be served); its wall numbers are
#                report-only
#   benchmark    the end-to-end benchmark package's tests, which include
#                `benchmark smoke`: every workload at a tiny size
#                through the same code and correctness checks
#   prodlines    report only, never fails: scripts/prodlines.sh prints
#                the production line count (ROADMAP item 7's rule), the
#                same without oracle-gated items, and all Rust
#
# Run from anywhere; works offline — all dependencies are in-tree.
set -eu
cd "$(dirname "$0")/.."

LOGDIR=target/ci-logs
mkdir -p "$LOGDIR"

ONLY=""
case "${1:-}" in
"") ;;
--stage)
    ONLY="${2:?usage: scripts/ci.sh [--stage <name>]}"
    ;;
*)
    echo "usage: scripts/ci.sh [--stage <name>]" >&2
    exit 2
    ;;
esac

SUMMARY=""
RAN=0

print_summary() {
    [ -n "$SUMMARY" ] || return 0
    printf '\n== stage summary\n'
    printf '   %-12s %8s  %s\n' stage wall status
    printf '%b' "$SUMMARY"
}

# run_stage <name> <fn>: time <fn>, logging to $LOGDIR/<name>.log. On
# failure: print the log tail, the summary so far, and exit non-zero.
# Lines the stage writes starting with "WARN" are surfaced on the
# console even when it passes.
run_stage() {
    name="$1"
    fn="$2"
    if [ -n "$ONLY" ] && [ "$name" != "$ONLY" ]; then
        return 0
    fi
    RAN=1
    log="$LOGDIR/$name.log"
    printf '== stage: %s\n' "$name"
    start=$(date +%s)
    if "$fn" >"$log" 2>&1; then
        end=$(date +%s)
        SUMMARY="$SUMMARY$(printf '   %-12s %7ss  ok' "$name" "$((end - start))")\n"
        grep '^WARN' "$log" || true
    else
        end=$(date +%s)
        SUMMARY="$SUMMARY$(printf '   %-12s %7ss  FAIL' "$name" "$((end - start))")\n"
        printf '== stage %s: FAIL — last 40 lines of %s\n' "$name" "$log" >&2
        tail -40 "$log" >&2
        print_summary
        exit 1
    fi
}

stage_tier1() {
    scripts/tier1.sh
}

stage_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings &&
        cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
}

stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

stage_crates() {
    cargo test --workspace --exclude sweeper-repro --release -q &&
        cargo test -q -p checkpoint -p epidemic
}

stage_examples() {
    for ex in quickstart forensics worm_outbreak community_defense; do
        cargo run --release --example "$ex" || return 1
    done
}

stage_no_unsafe() {
    if grep -rn --include='*.rs' -E 'unsafe[[:space:]]+(\{|fn|impl|trait)|allow\(unsafe_code\)' \
        src crates tests examples; then
        echo "FAIL: 'unsafe' construct found in workspace sources"
        return 1
    fi
    echo "workspace is unsafe-free"
}

stage_chaos_seeds() {
    cargo run --release -p chaos -- --seed-file tests/chaos_known_seeds.txt
}

stage_chaos_smoke() {
    cargo run --release -p chaos -- --smoke
}

stage_ckptparity() {
    cargo run --release -p bench --bin tables -- ckptparity
}

# The smoke stages below gate by exit status: each `tables` subcommand
# asserts its own gates and panics (nonzero exit) when one fails.

# tables_twice <subcommand> [flags]: run a `tables` subcommand twice.
# Each run asserts its own gates; the two printed tables carry no wall
# clock, so they must be byte-identical (repeat-run determinism,
# invariant I10).
tables_twice() {
    out="$LOGDIR/$1.out"
    cargo run --release -p bench --bin tables -- "$@" >"$out.1" &&
        cargo run --release -p bench --bin tables -- "$@" >"$out.2" &&
        cat "$out.1" &&
        cmp "$out.1" "$out.2"
}

stage_fleet_smoke() {
    tables_twice fleet --hosts=1000
}

stage_epidemic_smoke() {
    cargo run --release -p bench --bin tables -- fig9fail --hosts=50000
}

stage_recovery_smoke() {
    tables_twice fleetrecover --hosts=1000
}

stage_fig9dist() {
    cargo run --release -p bench --bin tables -- fig9dist --hosts=1000
}

stage_servicepath() {
    cargo run --release -p bench --bin tables -- servicepath --requests=1000 --rounds=3
}

stage_benchmark() {
    cargo test --offline --manifest-path benchmark/Cargo.toml
}

stage_prodlines() {
    scripts/prodlines.sh || true
}

run_stage tier1 stage_tier1
run_stage clippy stage_clippy
run_stage doc stage_doc
run_stage crates stage_crates
run_stage examples stage_examples
run_stage no-unsafe stage_no_unsafe
run_stage chaos-seeds stage_chaos_seeds
run_stage chaos-smoke stage_chaos_smoke
run_stage ckptparity stage_ckptparity
run_stage fleet-smoke stage_fleet_smoke
run_stage epidemic-smoke stage_epidemic_smoke
run_stage recovery-smoke stage_recovery_smoke
run_stage fig9dist stage_fig9dist
run_stage servicepath stage_servicepath
run_stage benchmark stage_benchmark
run_stage prodlines stage_prodlines

if [ "$RAN" -eq 0 ]; then
    echo "ci: unknown stage '$ONLY' (see the stage list in scripts/ci.sh)" >&2
    exit 2
fi
print_summary
echo "== ci: OK"
