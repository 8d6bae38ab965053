#!/usr/bin/env bash
# CI driver: runs the staged pipeline under ci/.
#
#   ./ci.sh                  run every stage
#   ./ci.sh --fast           fmt-lint + tier1 only (pre-push loop)
#   ./ci.sh --stage NAME     run one stage (fmt-lint, tier1, bench-smoke,
#                            regress)
#   ./ci.sh --list           print the stage names, one per line
#
# Every run ends with a per-stage wall-clock timing summary, so a slow
# stage is visible locally before it ever hits hosted CI.
set -euo pipefail
cd "$(dirname "$0")"
# shellcheck source=ci/lib.sh
source ci/lib.sh

STAGES=(fmt-lint tier1 bench-smoke regress)

usage() {
    echo "usage: ./ci.sh [--fast | --list | --stage <${STAGES[*]// /|}>]" >&2
    exit 2
}

case "${1:-}" in
"")
    ;;
--fast)
    STAGES=(fmt-lint tier1)
    ;;
--list)
    printf '%s\n' "${STAGES[@]}"
    exit 0
    ;;
--stage)
    [ $# -ge 2 ] || usage
    found=no
    for s in "${STAGES[@]}"; do
        [ "$s" = "$2" ] && found=yes
    done
    if [ "$found" = no ]; then
        echo "ci.sh: unknown stage: $2" >&2
        usage
    fi
    STAGES=("$2")
    ;;
*)
    usage
    ;;
esac

TIMINGS=()
for stage in "${STAGES[@]}"; do
    echo "=== stage: $stage ==="
    stage_t0=$(now_ms)
    bash "ci/$stage.sh"
    TIMINGS+=("$stage $(($(now_ms) - stage_t0))")
done

echo "=== stage timing ==="
total_ms=0
for entry in "${TIMINGS[@]}"; do
    stage=${entry% *}
    ms=${entry#* }
    total_ms=$((total_ms + ms))
    printf '  %-12s %8s\n' "$stage" "$(fmt_ms "$ms")"
done
printf '  %-12s %8s\n' total "$(fmt_ms "$total_ms")"

echo "CI: all gates passed (${STAGES[*]})"
