#!/bin/sh
# Local CI gate: formatting, lints (warnings are errors), full test suite.
# Run from the repository root before pushing.
set -eu

cargo fmt --all -- --check

# The workspace invariants (DESIGN.md §11) have no analyzer of their
# own: each is carried by the compiler, a stock lint or the test suite.
# Panic-free decode (L1), fail-closed matches (L2), no ambient time (L4),
# crate-root hygiene (L5) and bounded allocation sizes (L8) are clippy
# lints, checked by the clippy step below. Constant-time secrets (L3) and
# the fail-stop latch of every durable entry point (L7) are types that
# rustc checks: `proxy_crypto::ct::Secret` has no `==`, and only
# `proxy_storage::Latch::run` makes a `Latched`. The lock order and "no
# stripe held across a blocking call" (L6) are a debug-build witness in
# `restricted_proxy::shard::rank` that `cargo test --workspace` runs.

# Every member manifest carries a [lints] table (the former L5 header):
# without one a crate runs with rustc's and clippy's defaults, no
# unsafe_code or missing_docs level at all. A table that does not
# inherit the workspace is an exception, counted below.
own_tables=0
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    if ! grep -q '^\[lints' "$manifest"; then
        echo "ci.sh: $manifest has no [lints] table" >&2
        exit 1
    fi
    if ! grep -A1 '^\[lints\]$' "$manifest" | grep -q '^workspace = true$'; then
        own_tables=$((own_tables + 1))
    fi
done

# The lints that carry L1, L2, L4, L5 and L8 may be waived only by an
# `#[expect]`, which fails the build once its site stops matching;
# an `allow(` naming one of them would outlive its reason silently.
migrated='unwrap_used|expect_used|panic|unreachable|unimplemented|indexing_slicing'
migrated="$migrated|cast_possible_truncation|disallowed_macros|disallowed_methods"
migrated="$migrated|wildcard_enum_match_arm"
lint_allows="$(grep -rzoE --include='*.rs' 'allow\([^)]*\)' crates src tests examples vendor \
    | tr '\0\n' '\n ' | grep -E "clippy::($migrated)\b|\bmissing_docs\b" || true)"
if [ -n "$lint_allows" ]; then
    echo "ci.sh: allow( names a lint that carries a workspace invariant: $lint_allows" >&2
    exit 1
fi

# Exceptions may only shrink: `#[expect]` attributes and manifests
# outside the workspace lint table, together. 11 today: 7 + 4 (runtime
# and crypto deny instead of forbid unsafe_code; the two vendored
# stand-ins waive missing_docs). The counting allocator lives in
# runtime's audited module, so bench inherits the workspace table; that
# pays for crypto's, whose SHA-NI call and eight-lane engine call need
# scoped allows. One
# of the seven is the allocator of `restricted_proxy::encode::Bounded`,
# where every bounded size is spent.
expects="$(grep -rhoE --include='*.rs' '#!?\[expect\(' crates src tests examples vendor | wc -l)"
exceptions=$((expects + own_tables))
echo "ci.sh: $exceptions lint exceptions ($expects #[expect]s, $own_tables own [lints] tables)"
if [ "$exceptions" -gt 11 ]; then
    echo "ci.sh: $exceptions lint exceptions, ceiling 11" >&2
    exit 1
fi

# The audited `unsafe` surface may also only shrink: `unsafe {` blocks
# outside `//` comments under crates/*/src and vendor/*/src. 5 today:
# the `epoll_wait` call in runtime/src/sys.rs, the two System calls
# (alloc, dealloc) in runtime/src/alloc_count.rs, the call into the
# SHA-NI compression in crypto/src/sha256/ni.rs and the one call into
# the eight-lane AVX-512 IFMA engine in crypto/src/ed25519/edwards/
# ifma.rs (`enter`, through which every lane kernel runs).
# `epoll_create1` and `epoll_ctl` need no block: they are declared
# `safe fn`s, the first returning `Option<OwnedFd>` (the fd is fresh
# and owned by nothing else), the second taking the epoll fd as a
# `BorrowedFd` and the event as `&mut EpollEvent` (a live value the
# kernel copies), so each claim moved from a call-site block into the
# declaration's types. `epoll_ctl`'s target fd stays a `RawFd`: a
# number that names no open file is `EBADF`, not undefined behaviour.
unsafe_blocks="$(find crates/*/src vendor/*/src -name '*.rs' \
    -exec sed -e 's://.*$::' {} + | grep -o 'unsafe {' | wc -l)"
if [ "$unsafe_blocks" -gt 5 ]; then
    echo "ci.sh: $unsafe_blocks unsafe blocks, ceiling 5" >&2
    exit 1
fi

# A `safe fn` (or `safe static`) in an `unsafe extern` block is an
# unsafe claim with no block to count: the declaration vouches for
# every call. Such declarations live only in the audited FFI module,
# runtime/src/sys.rs.
safe_externs="$(find crates src tests examples vendor -name '*.rs' -not -path '*/target/*' \
    -exec awk '{ sub(/\/\/.*/, "") } /(^|[^A-Za-z0-9_])safe (fn|static) / { print FILENAME }' {} + \
    | grep -v '^crates/runtime/src/sys\.rs$' || true)"
if [ -n "$safe_externs" ]; then
    echo "ci.sh: safe extern item outside runtime/src/sys.rs: $safe_externs" >&2
    exit 1
fi

# `MemoryReplayGuard` is the old name of `ReplayCache`, kept only for the
# frozen benchmark's sources: the alias may only lose users until a
# benchmark change deletes it.
alias_users="$(grep -rlw --include='*.rs' MemoryReplayGuard crates src tests examples \
    | grep -v -e '^crates/proxy/src/replay\.rs$' -e '^crates/proxy/src/lib\.rs$' \
        -e '^crates/bench/src/bin/e2e/' || true)"
if [ -n "$alias_users" ]; then
    echo "ci.sh: MemoryReplayGuard used outside its alias: $alias_users" >&2
    exit 1
fi

# `ReplayCache::forget` gives a taken accept-once mark back. Its one
# non-test caller is the `Drop` of `Taken` (crates/accounting/src/
# journal.rs), which gives back every mark no built record kept: a
# hand-written give-back beside it could return a mark a record keeps,
# or miss one. Test modules (from a column-0 `#[cfg(test)]`) and `//`
# comments are skipped; each call is reported with its enclosing `impl`.
forget_callers="$(find crates/*/src src examples -name '*.rs' \
    -exec awk '/^#\[cfg\(test\)\]/ { nextfile } /^impl/ { owner = $0 }
        { sub(/\/\/.*/, "") } /\.forget\(/ { print FILENAME ": " owner }' {} +)"
if [ "$forget_callers" != "crates/accounting/src/journal.rs: impl Drop for Taken<'_> {" ]; then
    echo "ci.sh: ReplayCache::forget called outside Taken's Drop: $forget_callers" >&2
    exit 1
fi

# Clippy is driven by the [workspace.lints] table in Cargo.toml, the
# scoped attributes on the crate roots and clippy.toml; it is the only
# checker of L1, L2, L4, L5 and L8 (DESIGN.md §11), so a toolchain
# without clippy fails here rather than skipping them.
cargo clippy --workspace --all-targets -- -D warnings

# The debug build runs the lock-rank witness (L6) under every test.
cargo test --workspace -q

# Concurrency stress: run the shared-&self server tests with real
# parallelism (8 test threads, release mode so races aren't serialized
# by debug-build slowness). Among them the two epoch-feed publisher
# races, roster_snapshots_match_their_deltas_while_members_churn and
# revocation_snapshots_match_their_deltas_while_serials_are_revoked: a
# snapshot sealed from two critical sections drifts off its deltas.
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
# disconnects, a cold burst whose checks settle together answered as
# the same calls one by one, and a forged seal's failure isolation among
# racing deposits — release mode so the Ed25519 batch equations run at
# full speed.
cargo test --release -q --test pipeline
cargo test --release -q --test security_adversarial forged_seal_among_racing_deposits
# Cross-request settle (DESIGN.md §8, "One settle step"): a group of
# presentations settled together decides what each decides alone —
# verdicts, blamed indices, accept-once marks, cached seals — and
# settles in equations of bounded size.
cargo test --release -q -p restricted-proxy --lib verify::group_tests
# One payor, one term (DESIGN.md §8, "One settle step"): the cofactored
# equation on every Ed25519 path (a torsioned R or A gets one verdict
# alone and in every company), the one-key equation against lone checks,
# and a group of deposits — in-process and over TCP at depth 16 — equal
# to the same deposits one by one. On an IFMA build the `ed25519` filter
# also runs the eight-lane engine's oracle tests (DESIGN.md §8, "Eight
# lanes"), and both equations against lone checks at n = 1-100.
cargo test --release -q -p proxy-crypto --lib ed25519
cargo test --release -q -p proxy-crypto --test prepared_key
cargo test --release -q -p proxy-accounting --test deposit_group

# The portable SHA-256 compression and the scalar Ed25519 batch
# equations are the product paths on a host without the SHA extensions
# or AVX-512 IFMA; on a host with them the default build runs the
# SHA-NI kernel and the eight-lane engine, and the portable paths serve
# only as their oracles and ablation rows. One step builds and tests
# the crate with both features switched off, in a target dir of its
# own, so both portable product paths keep their vectors, proptests and
# equation tests (`prepared_key` among the crate's tests) here too.
RUSTFLAGS="-C target-cpu=native -C target-feature=-sha,-avx512ifma" \
    cargo test -q -p proxy-crypto --target-dir target/portable

# The figure reproductions (DESIGN.md §4): the default mode must run to
# the end and print every experiment, F1–F6 and the ablations A1–A5.
figures_out="$(cargo run -q -p proxy-bench --bin figures --release)"
for prefix in F1 F2 F3 F4 F5 F6 A1 A2 A3 A4 A5; do
    if ! printf '%s\n' "$figures_out" | grep -q "^\[$prefix\] "; then
        echo "ci.sh: figures printed no [$prefix] row" >&2
        exit 1
    fi
done

# `require_rows OUTPUT PREFIX ROW...`: fail unless OUTPUT holds a
# `PREFIX ROW: x=` line for every ROW. Each list below is every row the
# named EXPERIMENTS.md section cites, so no table there can cite a row
# that is gone: rename a row there and here together.
require_rows() {
    rows_out="$1"
    prefix="$2"
    shift 2
    for row in "$@"; do
        if ! printf '%s\n' "$rows_out" | grep -qF "$prefix $row: x="; then
            echo "ci.sh: figures printed no '$prefix $row: x=' row" >&2
            exit 1
        fi
    done
}

# The signature-engine ablation (EXPERIMENTS.md, "Signature-engine
# ablation"): one run of `figures --ablate-crypto`, ~6 s, whose rows
# assert their own results (every signature valid, one cold chain walk
# behind the warm seal cache).
ablate_out="$(cargo run -q -p proxy-bench --bin figures --release -- --ablate-crypto)"
require_rows "$ablate_out" ']' naive-double-and-add fixed-base-table sign \
    two-naive-ladders straus-two-dynamic-tables straus-basepoint-table \
    verify verify-decompressed verify-prepared prepare-key \
    decompress-one decompress-pair invert scalar-mul scalar-wide-reduce \
    sequential-verify-2 sequential-verify-4 sequential-verify-8 \
    sequential-verify-16 sequential-verify-32 \
    batch-2 batch-3 batch-4 batch-5 batch-8 batch-9 batch-16 batch-32 batch-80 \
    batch-16-portable batch-32-portable batch-80-portable batch-vs-portable \
    one-key-portable one-key-vs-portable decompress-8 decompress-8-portable \
    decompress-8-vs-portable tables-8 tables-8-portable tables-8-vs-portable \
    chain chain-portable chain-lanes-vs-portable \
    batch-marginal-signature \
    batch-1-plus-lone batch-2-plus-lone batch-4-plus-lone batch-8-plus-lone \
    batch-1-plus-prepared-lone batch-2-plus-prepared-lone \
    batch-3-plus-prepared-lone batch-4-plus-prepared-lone \
    one-key 'prepared-lone×n' one-key-vs-prepared-lone \
    group verify-each group-per-request verify-each-per-request \
    group-vs-verify-each cascade8-cold cascade8-warm-seal-cache \
    sha256-block sha256-block-portable hmac-87B-raw-key hmac-87B-keyed-context \
    seal-key32-first-use seal-key32-warm grant-shared-key-first-use \
    grant-shared-key-warm grant-warm-vs-first-use verify-hmac-link-warm

# Readiness-driven net core (DESIGN.md §13): per-connection state
# machines under partial reads/writes, slow-loris, backpressure, idle
# reap, and thousands of idle registrations — release mode so the
# event loop runs at realistic speed. Then a reduced-scale C10k smoke
# (64 and 2048 concurrent pipelined connections, flat-p99 gate — the
# median of each point's per-round p99s — asserted by the
# harness itself), which must print every row EXPERIMENTS.md's C10k
# section cites.
cargo test --release -q -p proxy-net --test event_loop
c10k_out="$(cargo run -q -p proxy-bench --bin figures --release -- --c10k-smoke)"
printf '%s\n' "$c10k_out"
require_rows "$c10k_out" '[C10K]' event-loop-throughput event-loop-burst-p50 \
    event-loop-burst-p99 event-loop-connect event-loop-p99-ratio

# Revocation index + membership mirror (DESIGN.md §14): reduced-scale
# smoke (100k serials / 100k members) asserting the O(1) contains and
# single-revoke ratios, the zero-round-trip membership tally, and the
# cascade-verify overhead of the mirror at ≤ 5 % at p50 and at p95.
# The overhead compares the quantiles of 24 000 verifies a side, timed
# in alternating mirror-on/mirror-off pairs, so host noise lands in
# both sides alike: p95 read 1.6–3.4 % in 20 runs, and 105–261 % when
# one probe in 64 clones the issuer's serial set. The SHA-NI kernel cut
# the HMAC cascade's verify to a third, so the same probes weigh three
# times as much: p95 read 5.9–6.6 % with one shard read per link, and
# 2.7–3.6 % in 15 pinned runs (4.06 % in one unpinned run of this
# script) with one per issuer (`first_revoked`).
# Every gate passed 20 of 20 runs, so the step has no retry. The rows
# must include every row EXPERIMENTS.md's revocation section cites.
rev_out="$(cargo run -q -p proxy-bench --bin figures --release -- --revocation-smoke)"
printf '%s\n' "$rev_out"
require_rows "$rev_out" '[R]' contains-small contains-large contains-ratio \
    revoke-one-small revoke-one-large revoke-one-ratio \
    snapshot-artifact snapshot-artifact-encode snapshot-artifact-decode delta-apply \
    cascade-verify-off-p50 cascade-verify-off-p99 cascade-verify-on-p50 \
    cascade-verify-on-p99 cascade-verify-on-overhead-p50 cascade-verify-on-overhead-p95 \
    cascade-verify-on-overhead-p99 verify-under-churn-p50 membership-mirror-roster \
    membership-mirror-asserts membership-mirror-assert-cost membership-mirror-messages

# Durable accounting (DESIGN.md §15): crash-injection suite in release
# mode — exactly-once deposits across kill points, torn-tail recovery,
# bit-flip fail-closed, conservation across repeated restarts — plus the
# WAL framing property/hostile-corpus suite. Then the group-commit
# amortization gate (16 writers ≥ 3× a lone writer, who pays one fsync
# per record). The gate compares throughput ratios on real fsyncs, so
# one retry absorbs a noisy-neighbor window.
cargo test --release -q --test storage_crash
# The group-commit protocol's own tests (leader/follower hand-off,
# waiters released by a snapshot rotation's publish) at full speed with
# real parallelism, as the concurrency stress step runs the servers.
cargo test --release -q -p proxy-storage --lib
cargo test --release -q -p proxy-storage --test framing
# The accounting library in release, where `debug_assert!` is compiled
# out: the money paths must hold without it. This also runs, once, the
# test that a snapshot the server wrote is one it can read: 2^20 + 1
# accept-once marks (26 MB, one more than a counted collection decodes)
# compact and reopen — release only; the debug run of it is ignored as
# too slow.
cargo test --release -q -p proxy-accounting --lib
wal_out="$(cargo run -q -p proxy-bench --bin figures --release -- --wal \
    || cargo run -q -p proxy-bench --bin figures --release -- --wal)"
printf '%s\n' "$wal_out"
require_rows "$wal_out" '[W]' append-mem append-wal-nofsync append-wal-lone-writer \
    append-wal-group-commit group-commit-speedup

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
# (DESIGN.md §8, "Conventional keys"): on the SHA-NI kernel, 20 runs
# of this step read 0.87-0.97 us, and 1.51-1.62 in 5 of 5 runs when
# `SymmetricKey::mac` and `seal_keys` derived per call (re-absorbing
# the pads and re-deriving the seal subkeys on every grant). The
# ceiling assumes the SHA-NI kernel: the portable compression reads
# about 2.5, so a host without the SHA extensions fails it.
e2e_gate fig3_query 'alloc.allocs_per_op' 22 'authz.request_authorization_us' 1.3

# Per-key work paid once per key (DESIGN.md §8, "Prepared keys"): the
# check-deposit path decodes an Ed25519 proxy key it never uses and
# verifies every check under the one payor key. Decoding must stay a
# copy of the seed (1.2 us today; 16.4 when `SigningKey::from_seed`
# expanded eagerly), and allocs/op at or under the ceiling (47.10
# today: a deposit reads its check once, is presented without a copy
# of its certificates, and the marks its `Taken` holds move into the
# Settle record; one more allocation per deposit trips it; 53.10 when
# the presentation cloned the certificates).
e2e_gate fig5_mem 'wire.decode_req_us' 5 'alloc.allocs_per_op' 48.1

# One equation per read (DESIGN.md §8, "One settle step"): four seals
# and the possession proof share one scratch buffer and one vector of
# pending checks; the presentations of a group share one vector of
# Straus terms, and the worker's group vectors keep their capacity.
# 17 allocs/op today at depth 1, a group of one (33 when every deferred
# seal copied its body and `verify_batch` built nine vectors).
e2e_gate fig4_cold 'alloc.allocs_per_op' 25

# A warm presentation is one lone check under a prepared key (DESIGN.md
# §8, "Prepared keys" / "Stride 32"): the chain walks thirty-two
# doublings over tables the key table already holds and allocates
# nothing. 14 allocs/op today, exact. No timing ceiling here: the
# benchmark's `rtt_p50_us` bound carries that.
e2e_gate fig4_hot 'alloc.allocs_per_op' 16

# Documentation gate: rustdoc warnings (broken intra-doc links, bad
# HTML) are errors.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
