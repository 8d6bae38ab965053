#!/usr/bin/env bash
# Stage: determinism — the differential soak. Cross-process determinism
# of every canonical report is the regress stage's job: it compares a
# fresh process's bytes with the bytes another process committed.
set -euo pipefail
cd "$(dirname "$0")/.."
source ci/lib.sh

say "differential soak (200 seeds; full run uses 1000+)"
cargo run --release -p bench --bin soak -- 200
