#!/usr/bin/env bash
# Regenerates every committed BENCH_*.json baseline in one command.
#
# A PR that deliberately shifts modelled costs (or adds bench rows) must
# refresh the committed baselines or the regress stage fails. Doing that
# by hand means remembering seven report binaries and their output names;
# this script regenerates all of them into a scratch directory, shows
# the drift against the committed baselines *before* installing (so the
# diff you are about to commit is visible and reviewable), installs the
# fresh reports into the repo root, and re-runs the gate — which must
# then pass with zero drift.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=ci/lib.sh
source ci/lib.sh

FRESH=target/ci-regen

say "regenerating every bench report into $FRESH"
gen_reports "$FRESH"

say "drift vs committed baselines (informational — about to be installed)"
cargo run --release -q -p analysis --bin regress -- --baseline . --fresh "$FRESH" ||
    say "drift present; installing fresh baselines anyway"

say "installing fresh baselines into the repo root"
cp "$FRESH"/BENCH_*.json .

say "post-install gate (must pass with zero drift)"
cargo run --release -q -p analysis --bin regress -- --baseline . --fresh "$FRESH"

say "baselines regenerated; review 'git diff -- \"BENCH_*.json\"' and commit"
