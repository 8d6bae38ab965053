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

# gen_reports <dir>
#
# Regenerates all eleven canonical reports, with baseline-identical
# parameters, into <dir>: the nine BENCH_*.json (each beside its
# BENCH_*.host.json when it measures the host), among them
# BENCH_repro.json, the paper's figures and tables, and BENCH_soak.json,
# the differential fault-injection soak;
# BENCH_profile_flame.txt, which the profile report writes beside itself;
# and BENCH_fuzz_corpus.txt, the reproducer store fuzzstats writes beside
# its report. The one list of report commands: the regress stage and
# ci/regen-baselines.sh both call it. Every report binary takes only
# --out. The fuzz sweep always runs threaded, on one shard per available
# core; its reports do not depend on the shard count.
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
    cargo run --release -q -p bench --bin repro -- --out "$dir/BENCH_repro.json"
    cargo run --release -q -p bench --bin soak -- --out "$dir/BENCH_soak.json"
}
