#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml — run before pushing.
# The workspace is hermetic (no registry dependencies); everything runs
# --offline, and a build that tries to reach a registry is a failure.
#
# IRON_STRESS=1 ./ci.sh additionally runs the stress lane: every
# #[ignore]d concurrency-differential test (serve, fsck, campaign,
# crash) at elevated thread counts (IRON_TEST_THREADS, default 16).
#
# ./ci.sh results and ./ci.sh bench run that one step alone; the
# workflow's `results` and `bench-smoke` jobs are exactly those calls, so
# each loop exists once.
set -eu

results() {
    echo '== results =='
    # Every file in crates/bench/src/bin/ except the bench_check gate is a
    # result generator: its stdout must reproduce results/<bin>.txt byte for
    # byte (all campaigns run on fixed seeds and simulated time).
    for f in crates/bench/src/bin/*.rs; do
        b="$(basename "$f" .rs)"
        [ "$b" = bench_check ] && continue
        if ! cargo run -q --release --offline -p iron-bench --bin "$b" | diff "results/$b.txt" -; then
            echo "ERROR: results/$b.txt differs from what --bin $b generates" >&2
            exit 1
        fi
    done
}

bench() {
    echo '== bench smoke =='
    # Absolute path: cargo runs bench binaries with the package dir as cwd.
    BENCH_DIR="${IRON_BENCH_DIR:-$(pwd)/target/bench-smoke}"
    mkdir -p "$BENCH_DIR"
    # Discovery-driven: every file in crates/bench/benches/ is a bench
    # target (each has a [[bench]] entry in crates/bench/Cargo.toml), so a
    # new bench is picked up — and gated — without touching this script.
    bench_count=0
    for f in crates/bench/benches/*.rs; do
        b="$(basename "$f" .rs)"
        bench_count=$((bench_count + 1))
        IRON_BENCH_DIR="$BENCH_DIR" cargo bench -q --offline -p iron-bench --bench "$b" -- --smoke
    done
    if [ "$bench_count" -eq 0 ]; then
        echo 'ERROR: no bench targets found in crates/bench/benches/' >&2
        exit 1
    fi
    for f in "$BENCH_DIR"/BENCH_*.json; do
        python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$f"
    done

    echo '== bench regression gate =='
    cargo run -q --offline -p iron-bench --bin bench_check -- \
        --baseline results/baselines --current "$BENCH_DIR"
}

case "${1:-}" in
    results | bench)
        "$1"
        exit 0
        ;;
    '') ;;
    *)
        echo "usage: $0 [results|bench]" >&2
        exit 2
        ;;
esac

echo '== build (release, offline) =='
cargo build --workspace --release --offline

echo '== test (offline) =='
cargo test --workspace -q --offline

echo '== benchmark workspace (offline) =='
# benchmark/ is a Cargo workspace of its own that path-depends on
# crates/* and pins their public API (PolicyHandle, RetryConfig,
# FsUnderTest::mount_retry, …); the root build never sees it.
cargo test --offline --manifest-path benchmark/Cargo.toml

echo '== fmt =='
cargo fmt --all --check

echo '== clippy =='
cargo clippy --workspace --all-targets --offline -- -D warnings

results

bench

if [ "${IRON_STRESS:-0}" = "1" ]; then
    echo '== stress lane (--ignored differential suites) =='
    IRON_TEST_THREADS="${IRON_TEST_THREADS:-16}" \
        cargo test --workspace --release -q --offline -- --ignored
fi

echo 'CI OK'
