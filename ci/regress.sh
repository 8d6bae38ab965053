#!/usr/bin/env bash
# Stage: regress — the perf-regression gate. Regenerates every bench
# report with baseline-identical parameters into a scratch directory and
# compares it against the committed BENCH_*.json baselines:
#
#   * simulated-cost metrics at ±10% (REGRESS_TOLERANCE overrides);
#     deterministic, so on an unchanged tree the drift is exactly 0%.
#   * every *_sha256 field (canonical logs, merged audits, canonical
#     traces) must match exactly.
#   * host-capacity rows (host_pps) are printed as gains and losses only:
#     they move with the machine and its load, so they never fail this
#     stage. The host-cost gate is the benchmark in BENCHMARK.json.
#
# A PR that deliberately changes modelled costs or canonical bytes must
# regenerate the committed baselines (ci/regen-baselines.sh).
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=ci/lib.sh
source ci/lib.sh

FRESH=target/ci-regress

say "regenerating bench reports into $FRESH"
gen_reports "$FRESH"

say "perf-regression gate (sim tolerance ${REGRESS_TOLERANCE:-0.10}, hashes exact)"
cargo run --release -q -p analysis --bin regress -- --baseline . --fresh "$FRESH"
