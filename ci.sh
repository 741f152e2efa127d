#!/bin/sh
# Local CI gate: formatting, lints (warnings are errors), full test suite.
# Run from the repository root before pushing.
set -eu

cargo fmt --all -- --check

# Workspace invariant analyzer (DESIGN.md §11, flow-aware tier §16):
# panic-freedom on untrusted paths, fail-closed Restriction matching,
# constant-time secret comparison, determinism, crate-root hygiene, the
# workspace lock-order graph (L6), durability ordering around the journal
# (L7), and untrusted-length taint into allocation sinks (L8).
# Suppressions live in lint-allow.toml and must each carry a
# justification; stale entries fail the run. The run also emits a
# machine-readable artifact and is budgeted: the deeper flow passes must
# not become the slowest CI step.
cargo run -q --release -p proxy-lint -- --workspace --explain \
    --json target/proxy-lint-report.json --budget-secs 10
echo "ci.sh: lint artifact at target/proxy-lint-report.json"

# Allowlist rot check: every lint-allow.toml entry must still suppress a
# real finding; entries that match nothing fail here so dead exemptions
# cannot accumulate and silently cover future regressions. The list may
# also only shrink: more live entries than the ceiling fails the run.
audit="$(cargo run -q --release -p proxy-lint -- --audit-allows)"
printf '%s\n' "$audit"
live="$(printf '%s\n' "$audit" | sed -n 's/^proxy-lint: \([0-9]*\) live entries.*/\1/p')"
if [ -z "$live" ] || [ "$live" -gt 14 ]; then
    echo "ci.sh: lint-allow.toml has '$live' live entries, ceiling 14" >&2
    exit 1
fi

# The audited `unsafe` surface may also only shrink: `unsafe {` blocks
# outside `//` comments under crates/*/src and vendor/*/src (proxy-lint,
# whose rules name the token, is skipped). 8 today: the four epoll calls
# in runtime/src/sys.rs and the four System calls in
# bench/src/alloc_count.rs.
unsafe_blocks="$(find crates/*/src vendor/*/src -name '*.rs' ! -path 'crates/lint/*' \
    -exec sed -e 's://.*$::' {} + | grep -o 'unsafe {' | wc -l)"
if [ "$unsafe_blocks" -gt 8 ]; then
    echo "ci.sh: $unsafe_blocks unsafe blocks, ceiling 8" >&2
    exit 1
fi

# Clippy is driven by the [workspace.lints] table in Cargo.toml. Guarded:
# minimal toolchains ship without the clippy component.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "ci.sh: cargo clippy unavailable on this toolchain, skipping" >&2
fi

cargo test --workspace -q

# Concurrency stress: run the shared-&self server tests with real
# parallelism (8 test threads, release mode so races aren't serialized
# by debug-build slowness).
RUST_TEST_THREADS=8 cargo test --release -q --test concurrency

# Networked service layer: the end-to-end TCP protocol flows and the
# wire-format property suite (round-trips over real crypto payloads,
# hostile-input rejection), both in release so the Ed25519 paths and
# the 10k-frame mutation loops run at full speed.
cargo test --release -q --test net_integration
cargo test --release -q -p proxy-wire --test proptests --test corpus

# Pipelined wire path (DESIGN.md §12): correlation of out-of-order
# replies, accept-once/fail-closed invariants under deep pipelines and
# racing clients, pooled-connection recovery after (mid-frame)
# disconnects, and a forged seal's failure isolation among racing
# deposits — release mode so the Ed25519 batch equations run at full
# speed.
cargo test --release -q --test pipeline
cargo test --release -q --test security_adversarial forged_seal_among_racing_deposits

# The figure reproductions (DESIGN.md §4): the default mode must run to
# the end and print every experiment, F1–F6 and the ablations A1–A5.
figures_out="$(cargo run -q -p proxy-bench --bin figures --release)"
for prefix in F1 F2 F3 F4 F5 F6 A1 A2 A3 A4 A5; do
    if ! printf '%s\n' "$figures_out" | grep -q "^\[$prefix\] "; then
        echo "ci.sh: figures printed no [$prefix] row" >&2
        exit 1
    fi
done

# Readiness-driven net core (DESIGN.md §13): per-connection state
# machines under partial reads/writes, slow-loris, backpressure, idle
# reap, and thousands of idle registrations — release mode so the
# event loop runs at realistic speed. Then a reduced-scale C10k smoke
# (512 concurrent pipelined connections, flat-p99 gate asserted by the
# harness itself).
cargo test --release -q -p proxy-net --test event_loop
cargo run -q -p proxy-bench --bin figures --release -- --c10k-smoke

# Revocation index + membership mirror (DESIGN.md §14): reduced-scale
# smoke (100k serials / 100k members) asserting the O(1) contains
# ratio, the ≤5% cascade-verify overhead, and the zero-round-trip
# membership tally. The quantile gates compare timing ratios, so one
# retry absorbs a noisy-neighbor window on shared hosts.
cargo run -q -p proxy-bench --bin figures --release -- --revocation-smoke \
    || cargo run -q -p proxy-bench --bin figures --release -- --revocation-smoke

# Durable accounting (DESIGN.md §15): crash-injection suite in release
# mode — exactly-once deposits across kill points, torn-tail recovery,
# bit-flip fail-closed, conservation across repeated restarts — plus the
# WAL framing property/hostile-corpus suite. Then the group-commit
# amortization gate (16 writers ≥ 3× a lone writer, who pays one fsync
# per record). The gate compares throughput ratios on real fsyncs, so
# one retry absorbs a noisy-neighbor window.
cargo test --release -q --test storage_crash
cargo test --release -q -p proxy-storage --test framing
# A snapshot the server wrote is one it can read: 2^20 + 1 accept-once
# marks (26 MB, one more than a counted collection decodes) compact and
# reopen. Release only; the debug run of it is ignored as too slow.
cargo test --release -q -p proxy-accounting --lib a_snapshot_of_more_than_a_million_marks_reopens
cargo run -q -p proxy-bench --bin figures --release -- --wal \
    || cargo run -q -p proxy-bench --bin figures --release -- --wal

# The repository's benchmark (crates/bench/src/bin/e2e, a package of
# its own): its unit tests plus a smoke run of every workload.
cargo test --release -q --manifest-path crates/bench/src/bin/e2e/Cargo.toml
# The instrument is frozen: an edit to it, or a dependency change that
# made cargo rewrite its lockfile just now, fails here and not at the
# benchmark gate.
git diff --exit-code -- BENCHMARK.json crates/bench/src/bin/e2e

# `e2e_metric JSON NAME`: one metric's value out of an e2e result line.
e2e_metric() {
    printf '%s\n' "$1" | sed -n "s/.*\"$2\": {\"value\": \([0-9.eE+-]*\).*/\1/p"
}

# `e2e_gate WORKLOAD NAME CEILING ...`: a 2 s traced run of WORKLOAD
# must be correct and each NAME at or under its CEILING.
e2e_gate() {
    workload="$1"
    shift
    e2e_result="$(bash crates/bench/src/bin/e2e/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 1 | tail -n 1)"
    case "$e2e_result" in
        *'"correct": true'*) ;;
        *) echo "ci.sh: e2e $workload traced run not correct: $e2e_result" >&2; exit 1 ;;
    esac
    while [ "$#" -ge 2 ]; do
        value="$(e2e_metric "$e2e_result" "$1")"
        if ! awk -v a="$value" -v c="$2" 'BEGIN { exit !(a != "" && a + 0 <= c + 0) }'; then
            echo "ci.sh: $workload $1 = '$value', ceiling $2" >&2
            exit 1
        fi
        echo "ci.sh: $workload $1 = $value (ceiling $2)"
        shift 2
    done
}

# Zero-allocation hot path (DESIGN.md §17): a short traced e2e run with
# the counting global allocator (feature `alloc-count`) — the run must
# be correct and steady-state allocs/op on the authz-query wire path
# must stay at or under the fixed ceiling (21 today, exact). The same
# run holds the shared-key grant to the per-key work a key pays once
# (DESIGN.md §8, "Conventional keys"): 2.5 us today; 5.96 when every
# grant re-derived the seal subkeys and re-absorbed both keys' pads.
e2e_gate fig3_query 'alloc.allocs_per_op' 22 'authz.request_authorization_us' 4.5

# Per-key work paid once per key (DESIGN.md §8, "Prepared keys"): the
# check-deposit path decodes an Ed25519 proxy key it never uses and
# verifies every check under the one payor key. Decoding must stay a
# copy of the seed (1.2 us today; 16.4 when `SigningKey::from_seed`
# expanded eagerly), and allocs/op at or under the ceiling (53.10
# today: a deposit reads its check once and its marks move into the
# Settle record; one more allocation per deposit trips it).
e2e_gate fig5_mem 'wire.decode_req_us' 5 'alloc.allocs_per_op' 54.1

# One equation per cold presentation (DESIGN.md §8, "One settle step"):
# four seals and the possession proof share one scratch buffer, one
# vector of pending checks and one vector of Straus terms. 18 allocs/op
# today (33 when every deferred seal copied its body and `verify_batch`
# built nine vectors).
e2e_gate fig4_cold 'alloc.allocs_per_op' 25

# A warm presentation is one lone check under a prepared key (DESIGN.md
# §8, "Prepared keys" / "Stride 32"): the chain walks thirty-two
# doublings over tables the key table already holds and allocates
# nothing. 15 allocs/op today, exact. No timing ceiling here: the
# benchmark's `rtt_p50_us` bound carries that.
e2e_gate fig4_hot 'alloc.allocs_per_op' 16

# Documentation gate: rustdoc warnings (broken intra-doc links, bad
# HTML) are errors.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
