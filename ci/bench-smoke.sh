#!/usr/bin/env bash
# Stage: bench-smoke — one pass over each bench smoke's internal
# assertions (packet counts, shard invariance, zero trace overhead),
# then the host-cost benchmark's own checks (its model checks and its
# pinned seed-1 digests).
# The determinism stage re-runs the smokes for cross-process hash
# compares; this stage exists so `--stage bench-smoke` gives a quick
# sanity pass without the soak.
set -euo pipefail
cd "$(dirname "$0")/.."
source ci/lib.sh

say "throughput smoke"
cargo run --release -q -p bench --bin throughput -- --smoke

say "netbench smoke"
cargo run --release -q -p bench --bin netbench -- --smoke

say "profile smoke"
cargo run --release -q -p bench --bin profile -- --smoke

say "churn smoke (2 shards, storm armed)"
cargo run --release -q -p bench --bin churn -- --smoke

say "hooks smoke (3 scenarios, 2 shards, storm armed)"
cargo run --release -q -p bench --bin hooks -- --smoke

say "perfbench tests (every workload at small size, traced and untraced)"
cargo test --release -q --manifest-path perfbench/Cargo.toml

for workload in pkt-steady ctl-upgrade fleet-churn; do
    say "perfbench $workload: two full-size epochs against the seed-1 pins"
    cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0 --trace 0
done
