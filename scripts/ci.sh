#!/usr/bin/env bash
# The full local CI gate: build, test, lint, format.
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh --fast     # skip the release build
#
# Keep this in sync with the "Observability" section of README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo build --workspace"
cargo build --workspace --all-targets

if [[ "$fast" -eq 0 ]]; then
    echo "==> cargo build --workspace --release"
    cargo build --workspace --release
fi

echo "==> cargo test --workspace"
cargo test --workspace -q

# Serial/parallel equivalence matrix: the same pipeline artifacts must be
# byte-identical under PAR_THREADS=1 and PAR_THREADS=4 (ordered joins).
# On divergence the test writes both variants under target/par-divergence/
# and the failure message names the diverging artifact path.
echo "==> determinism matrix (PAR_THREADS=1 and PAR_THREADS=4)"
PAR_THREADS=1 cargo test -q --test par_equivalence
PAR_THREADS=4 cargo test -q --test par_equivalence

# Deterministic fault-injection suite over the full seed corpus. Debug
# test runs above already cover a reduced corpus; this stage pins the
# release binary to the fixed 32-seed corpus (override with CHAOS_SEEDS=N)
# and runs it on the multithreaded build (PAR_THREADS=4) so the corpus
# exercises the parallel fan-out too. Each seed is one campaign — every
# day a chaotic poll and a chaotic stream drain, checked against that
# day's fault-free reference poll — plus its determinism rerun. On failure the suite prints a
# CHAOS_REPLAY='{"seed":...,"plan":...}' command that replays the exact
# failing (seed, fault plan) pair. The same invocation runs the crate's
# other test targets in release too, among them the JSON differential
# (tests/json_differential.rs: streamed text vs. the Value tree, both
# directions, on hostile and mutated frames).
if [[ "$fast" -eq 0 ]]; then
    echo "==> chaos (32-seed fault-injection corpus + JSON differential, release, PAR_THREADS=4)"
    CHAOS_SEEDS="${CHAOS_SEEDS:-32}" PAR_THREADS=4 cargo test -q -p chaos --release
    # The export plane's own oracle (tests/policy_proptests.rs: every
    # member's export against a reference worked out without the kept
    # export forms, through re-announce, withdraw and session down), and
    # the wire codec's round trips and hostile-bytes decoders
    # (bgp-wire tests/wire_proptests.rs), on the optimized build — the
    # one the benchmark measures. The wire suite lives in bgp-wire, so
    # the chaos stage above no longer runs it in release.
    echo "==> route-server + bgp-wire (export and wire property tests, release)"
    cargo test -q --release -p route-server -p bgp-wire
fi

# The 84-day campaign goldens, on the release build (the heaviest
# tests): each runs one chaotic campaign over the paper's window, under
# a seed-derived fault plan (stream_equivalence seed 0x57E4,
# incremental_equivalence seed 0x1C4E). Stream: the BMP-style feed's end-of-day state must
# fingerprint byte-identically to the fault-free polled reference on
# every day. Incremental: both paths run the same aggregation core
# (analysis::core), so the golden checks state, not derivations: the
# aggregates *maintained* per RibEvent (apply + retract + merge,
# O(churn)) must serialize byte-identical to the ones *folded from
# scratch* over the same end-of-day snapshot, with zero counter
# underflows. Every other campaign oracle must stay silent too. Each test
# pins PAR_THREADS=1 and 4 itself; divergence dumps land under
# target/stream-divergence/ and target/incremental-divergence/. The
# release `repro stream` drive then re-checks the per-day verdicts end
# to end and prints the stream.* metrics and the incremental-vs-batch
# timings (exit nonzero on any oracle violation). What the incremental
# path costs is measured by the benchmark package's longitudinal_stream
# workload, not here. The chaos corpus stage above runs the same
# campaign per seed, so the 32-seed sweep covers this path.
if [[ "$fast" -eq 0 ]]; then
    echo "==> campaign golden (84-day chaotic campaign: stream + incremental equivalence, release)"
    cargo test -q --release --test stream_equivalence
    echo "==> incremental golden (84-day chaotic campaign, second seed, release)"
    cargo test -q --release --test incremental_equivalence
    echo "==> repro stream (one campaign, stream.* metrics, incremental verdicts)"
    STREAM_DAYS=12 target/release/repro stream >/dev/null
fi

# Every example runs once on the release build, so a failing assertion
# or a panic in one fails CI instead of going unnoticed; the build steps
# above only compile them. export_dataset writes its dataset under
# target/. Together they take about 8 s on a 2-CPU machine.
if [[ "$fast" -eq 0 ]]; then
    echo "==> examples (one release run each)"
    for example in examples/*.rs; do
        name=$(basename "$example" .rs)
        echo "    $name"
        if [[ "$name" == export_dataset ]]; then
            cargo run -q --release --example "$name" -- target/example-dataset >/dev/null
        else
            cargo run -q --release --example "$name" >/dev/null
        fi
    done
fi

# The benchmark package has its own [workspace] table, so nothing above
# builds it — yet it derives Serialize/Deserialize on its own structs and
# parses its child sessions' result lines with from_str: the strictest
# outside consumer of the vendored serde, and of every public signature
# it path-depends on. Unit tests plus the tiny-scale smoke run of all
# five workloads (< 15 s once built).
echo "==> benchmark package (unit + tiny-scale smoke)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Static analysis: the policy verifier (SC001-SC006), the metric-name
# registry lints (SC103/SC104) and the lock-order check (SC110). The
# scan runs once: it must exit 0, print its `per-check:` counts, and
# stay inside a 5-second wall-clock budget so the analyzer never becomes
# the reason people skip CI. The rules about calls (no panics in library
# code, no raw clock reads, no ad-hoc threads, no hand-rolled trace
# context) are clippy lints, run below; rustc's `F: Sync` bound on
# par::map_indexed and the determinism matrix above cover the other
# concurrency and hash-order hazards (TESTING.md, "Static gates").
echo "==> staticheck (policy verifier + registry lints + lock order)"
sc_bin=target/debug/staticheck
sc_status=0
sc_start=$(date +%s%N)
"$sc_bin" all > target/staticheck.txt || sc_status=$?
sc_ms=$(( ($(date +%s%N) - sc_start) / 1000000 ))
cat target/staticheck.txt
[[ "$sc_status" -eq 0 ]]
grep -q '^per-check: ' target/staticheck.txt
echo "    staticheck ${sc_ms}ms"
if (( sc_ms > 5000 )); then
    echo "staticheck run exceeded its 5s budget (${sc_ms}ms)" >&2
    exit 1
fi

# Warnings are errors: this also fails on an `#[expect(..)]` waiver
# whose call is gone (see clippy.toml).
echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "CI OK"
