#!/usr/bin/env bash
# Regenerates all eleven committed canonical reports (the nine
# BENCH_*.json, BENCH_profile_flame.txt and the reproducer store
# BENCH_fuzz_corpus.txt) in place, then lists the ones that moved.
#
# Canonical reports depend only on code and seed, so on an unchanged
# tree the list is empty. A PR that deliberately changes a modelled
# cost, a verdict or a canonical log runs this and commits the diff,
# which review reads. Host measurements land in the gitignored
# BENCH_*.host.json siblings.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=ci/lib.sh
source ci/lib.sh

say "regenerating every canonical report in the repo root"
gen_reports .

say "reports that moved (review 'git diff -- \"BENCH_*\"' and commit)"
git status --short -- 'BENCH_*'
