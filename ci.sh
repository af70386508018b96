#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml — run before pushing.
# The workspace is hermetic (no registry dependencies); everything runs
# --offline, and a build that tries to reach a registry is a failure.
#
# IRON_STRESS=1 ./ci.sh additionally runs the stress lane: every
# #[ignore]d concurrency-differential test (serve, fsck, campaign,
# crash) at elevated thread counts (IRON_TEST_THREADS, default 16).
#
# ./ci.sh results runs that one step alone; the workflow's `results` job
# is exactly that call, so the loop exists once.
#
# ./ci.sh loc prints the non-test line count of every crate's src/ — the
# number ROADMAP aim 2's line target is counted in. Not a gate.
set -eu

loc() {
    # A file's non-test lines are those before its first #[cfg(test)].
    total=0
    for d in crates/* .; do
        n=$(find "$d/src" -name '*.rs' -exec awk '
            FNR == 1 { test = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
            !test { n++ }
            END { print n + 0 }' {} +)
        [ "$d" = . ] && d=ironfs
        printf '%-12s %6d\n' "$(basename "$d")" "$n"
        total=$((total + n))
    done
    printf '%-12s %6d\n' total "$total"
}

results() {
    echo '== results =='
    # Every file in crates/bench/src/bin/ is a result generator: its stdout
    # must reproduce results/<bin>.txt byte for byte (all campaigns and cost
    # kernels run on fixed seeds and simulated time).
    for f in crates/bench/src/bin/*.rs; do
        b="$(basename "$f" .rs)"
        if ! cargo run -q --release --offline -p iron-bench --bin "$b" | diff "results/$b.txt" -; then
            echo "ERROR: results/$b.txt differs from what --bin $b generates" >&2
            exit 1
        fi
    done
}

case "${1:-}" in
    results)
        results
        exit 0
        ;;
    loc)
        loc
        exit 0
        ;;
    '') ;;
    *)
        echo "usage: $0 [results|loc]" >&2
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

if [ "${IRON_STRESS:-0}" = "1" ]; then
    echo '== stress lane (--ignored differential suites) =='
    IRON_TEST_THREADS="${IRON_TEST_THREADS:-16}" \
        cargo test --workspace --release -q --offline -- --ignored
fi

echo 'CI OK'
