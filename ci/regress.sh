#!/usr/bin/env bash
# Stage: regress — the report gate. Regenerates all eleven canonical
# reports (the nine BENCH_*.json, BENCH_profile_flame.txt and the
# reproducer store BENCH_fuzz_corpus.txt) with baseline-identical
# parameters into a scratch directory, and requires each to equal its
# committed copy byte for byte. A mismatch prints every differing value
# by report, row ids and field, or by line, after aligning both sides so
# that a removed or added row or line is named once; a report missing on
# either side fails too.
#
# Canonical reports depend only on code and seed. Host measurements go
# to BENCH_*.host.json siblings, which are gitignored and never gated;
# host cost is gated by the benchmark in BENCHMARK.json. A PR that
# changes a modelled cost, a verdict or a canonical log regenerates the
# committed reports (ci/regen-baselines.sh), and review reads the diff.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=ci/lib.sh
source ci/lib.sh

FRESH=target/ci-regress

say "regenerating bench reports into $FRESH"
rm -rf "$FRESH"
gen_reports "$FRESH"

say "report gate (every canonical report, byte for byte)"
cargo run --release -q -p analysis --bin regress -- --baseline . --fresh "$FRESH"
