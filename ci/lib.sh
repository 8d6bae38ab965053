# shellcheck shell=bash
# Shared helpers for the staged CI pipeline. Sourced, not executed.

say() {
    echo "==> $*"
}

# now_ms: wall-clock milliseconds, for the per-stage timing summary.
now_ms() {
    date +%s%3N
}

# fmt_ms <milliseconds>: human-readable seconds with one decimal.
fmt_ms() {
    local ms=$1
    printf '%d.%01ds' $((ms / 1000)) $(((ms % 1000) / 100))
}

# assert_same_hash <label> <grep-pattern> <cmd...>
#
# Runs <cmd...> twice and compares the lines matching <grep-pattern>
# between the two invocations. The smoke binaries already verify
# determinism *within* a process; comparing two separate invocations
# additionally catches nondeterminism across process boundaries (ASLR,
# thread scheduling, hash-map iteration order).
assert_same_hash() {
    local label=$1 pattern=$2
    shift 2
    local run_a run_b
    run_a=$("$@" | grep "$pattern")
    run_b=$("$@" | grep "$pattern")
    if [ "$run_a" != "$run_b" ]; then
        echo "CI: $label hashes differ between same-seed invocations" >&2
        printf 'run A:\n%s\nrun B:\n%s\n' "$run_a" "$run_b" >&2
        exit 1
    fi
}

# gen_reports <dir>
#
# Regenerates every canonical report, with baseline-identical parameters,
# into <dir>: the seven BENCH_*.json (each beside its BENCH_*.host.json
# when it measures the host) and BENCH_profile_flame.txt, which the
# profile report writes beside itself. The one list of report commands:
# the regress stage and ci/regen-baselines.sh both call it.
gen_reports() {
    local dir=$1
    mkdir -p "$dir"
    cargo run --release -q -p bench --bin throughput -- --out "$dir/BENCH_throughput.json"
    cargo run --release -q -p bench --bin netbench -- --out "$dir/BENCH_net.json"
    cargo run --release -q -p fuzz --bin fuzzstats -- --out "$dir/BENCH_fuzz.json"
    cargo run --release -q -p bench --bin profile -- --out "$dir/BENCH_profile.json"
    cargo run --release -q -p bench --bin verifier_ladder -- --out "$dir/BENCH_verifier.json"
    cargo run --release -q -p bench --bin churn -- --out "$dir/BENCH_churn.json"
    cargo run --release -q -p bench --bin hooks -- --out "$dir/BENCH_hooks.json"
}
