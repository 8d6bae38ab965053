#!/usr/bin/env bash
# Stage: bench-smoke — the host-cost benchmark's own checks: its tests
# (every workload at small size, traced and untraced) and, per workload,
# two full-size seed-1 epochs against the pinned digests. The report
# binaries' assertions run in the regress stage, which regenerates every
# canonical report.
set -euo pipefail
cd "$(dirname "$0")/.."
source ci/lib.sh

say "perfbench tests (every workload at small size, traced and untraced)"
cargo test --release -q --manifest-path perfbench/Cargo.toml

for workload in pkt-steady ctl-upgrade fleet-churn; do
    say "perfbench $workload: two full-size epochs against the seed-1 pins"
    cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0 --trace 0
done
