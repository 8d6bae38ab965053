#!/usr/bin/env bash
# Stage: fmt-lint — formatting, clippy, and the feature matrix.
set -euo pipefail
cd "$(dirname "$0")/.."
source ci/lib.sh

say "cargo fmt --check"
cargo fmt --check

# Shell hygiene: every CI script must pass shellcheck. Hosted CI pins
# shellcheck 0.10.0 (see .github/workflows/ci.yml); locally the check
# runs with whatever version is installed and is skipped when the binary
# is absent, so the stage stays runnable in minimal containers.
say "shellcheck ci.sh ci/*.sh"
if command -v shellcheck >/dev/null 2>&1; then
    shellcheck --version | grep '^version:'
    shellcheck -S style -x ci.sh ci/*.sh
else
    say "shellcheck not installed; skipping (hosted CI runs pinned 0.10.0)"
fi

say "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Feature matrix: the workspace must build with default features off,
# and the ebpf crate with its bug replicas compiled in. Either breaking
# silently is how feature-gated code rots.
say "feature matrix: cargo check --workspace --no-default-features"
cargo check --workspace --no-default-features

say "feature matrix: cargo check -p ebpf --features bug-replicas"
cargo check -p ebpf --features bug-replicas

# Sandbox row: the SFI lane's structural invariants (mask closure,
# inner windows inside the domain) re-validated on every check. One ctx
# builder and one helper dispatcher serve every bytecode lane, so every
# ebpf suite runs under them, plus the sandbox property tests.
say "feature matrix: cargo test -p ebpf --features sandbox-strict"
cargo test -q -p ebpf --features sandbox-strict
say "feature matrix: sandbox proptests under ebpf/sandbox-strict"
cargo test -q --features ebpf/sandbox-strict --test sandbox_proptests

# Ladder feature matrix: each verifier feature-growth rung (bpf2bpf,
# tail calls, spin locks, ringbuf reservations) keeps its focused
# suites green — generator strata and shrinker coverage, the ladder
# measurement harness, and the stored-bug replay pair.
say "feature matrix: ladder strata (fuzz gen/shrink/bugdb)"
cargo test -q -p fuzz --lib
say "feature matrix: ladder measurement harness (bench ladder)"
cargo test -q -p bench --lib ladder
say "feature matrix: ladder replay suites"
cargo test -q --test feature_ladder_proptests --test bugdb_replay
