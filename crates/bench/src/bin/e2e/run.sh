#!/usr/bin/env bash
# Builds the benchmark and runs one workload pinned to one CPU.
#
#   bash crates/bench/src/bin/e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Everything written goes under
# $CARGO_TARGET_DIR (default target/e2e). The traced run (--trace 1) is
# a second build of the same sources with the counting allocator
# (feature alloc-count); the two binaries are kept side by side.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/e2e}"

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" ]]; then
        trace="${args[i + 1]:-0}"
    fi
done

# One copy of the binary per build flavour: cargo puts both at
# release/e2e, so each is copied aside once built.
if [[ "$trace" == "1" ]]; then
    flavour=traced
    features=(--features alloc-count)
else
    flavour=plain
    features=()
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" "${features[@]}" >&2
bin="$CARGO_TARGET_DIR/release/e2e-$flavour"
cp -f "$CARGO_TARGET_DIR/release/e2e" "$bin"

# Pinned to the highest online CPU: unpinned, client and event-loop
# thread flip between sharing a CPU and not, which moves the round trip
# by 4x (README.md, "Why it repeats"). Without taskset the run goes
# ahead unpinned and says so (host.pinned 0).
if command -v taskset >/dev/null 2>&1; then
    online="$(cat /sys/devices/system/cpu/online 2>/dev/null || echo 0)"
    cpu="${online##*[-,]}"
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
