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

# perfbench is its own workspace, so the root fmt and clippy --workspace
# never reach it.
say "perfbench: cargo fmt --check"
cargo fmt --check --manifest-path perfbench/Cargo.toml
say "perfbench: cargo clippy --all-targets -- -D warnings"
cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

# Feature matrix: the workspace must build with default features off,
# and the ebpf crate both without and with its bug replicas compiled in.
# Either side breaking silently is how feature-gated code rots.
say "feature matrix: cargo check --workspace --no-default-features"
cargo check --workspace --no-default-features

say "feature matrix: cargo check -p ebpf"
cargo check -p ebpf

say "feature matrix: cargo check -p ebpf --features bug-replicas"
cargo check -p ebpf --features bug-replicas
