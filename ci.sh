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
#
# ./ci.sh pairs <parent-ref> <workload>|all [n] is the paired-run procedure a
# wall-clock claim rests on (choosing-metrics §8): n (default 10) pairs of
# the whole-stack benchmark, <parent-ref> against this checkout, alternating
# which side runs first. <workload> `all` runs every workload BENCHMARK.json
# names, one after the other on the one parent build — the whole "must not
# move" table. Not a gate, and not part of the default run.
set -eu

loc() {
    # A file's non-test lines are those before the #[cfg(test)] that opens
    # its test module (a #[cfg(test)] on anything else is counted as code).
    total=0
    for d in crates/* .; do
        n=$(find "$d/src" -name '*.rs' -exec awk '
            FNR == 1 { test = 0; held = 0 }
            test { next }
            held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { test = 1; next }
            { n += held + 1; held = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { n--; held = 1 }
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

pairs() {
    ref=$1 workload=$2 n=${3:-10}
    # The parent's committed files, under target/ (ignored). `git archive`
    # rather than a worktree: nothing to prune, and .git is not written to.
    # Kept between calls while <parent-ref> names the same commit, so the
    # five workloads share one parent build.
    parent_dir=target/pairs/parent
    samples=target/pairs/$workload.samples
    commit=$(git rev-parse --verify "$ref^{commit}")
    if [ "$(cat "$parent_dir/.pairs-commit" 2>/dev/null)" != "$commit" ]; then
        rm -rf "$parent_dir"
        mkdir -p "$parent_dir"
        git archive "$commit" | tar -x -C "$parent_dir"
        echo "$commit" >"$parent_dir/.pairs-commit"
    fi
    rm -f "$samples"
    parent=$parent_dir/benchmark/target/release/iron-benchmark
    change=benchmark/target/release/iron-benchmark
    cargo build --release --offline --quiet --manifest-path "$parent_dir/benchmark/Cargo.toml"
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

    i=1
    while [ "$i" -le "$n" ]; do
        order='parent change'
        [ $((i % 2)) -eq 0 ] && order='change parent'
        for side in $order; do
            eval "bin=\$$side"
            # The program's `  name = value unit` lines, and whether its
            # closing JSON line says the run was correct with nothing failed.
            "$bin" --workload "$workload" --seed 1 --seconds 10 --trace 0 |
                awk -v pair="$i" -v side="$side" '
                    $2 == "=" { print pair, side, $1, $3 }
                    /^\{/ { print pair, side, "correct", (/"correct": true/ && /"failed": 0,/) }' >>"$samples"
        done
        echo "pair $i/$n done" >&2
        i=$((i + 1))
    done

    echo "== pairs: $workload, parent $(git rev-parse --short "$commit") vs this checkout, $n pairs, seed 1, 10 s =="
    awk '
        # BENCHMARK.json: the end-to-end metrics, in order, and which way is better.
        FNR == NR {
            if (/"end_to_end"/) e2e = 1
            else if (e2e && /^  \]/) e2e = 0
            gsub(/[",]/, "")
            if (e2e && $1 == "name:") metric[++metrics] = $2
            if (e2e && $1 == "better:") better[metric[metrics]] = $2
            next
        }
        { v[$2, $3, $1] = $4; if ($1 > pairs) pairs = $1 }
        # Quartile p of one side of metric m (linear interpolation), and its samples.
        function quartile(side, m, p,    i, j, t, x, lo) {
            for (i = 1; i <= pairs; i++) x[i] = v[side, m, i]
            for (i = 2; i <= pairs; i++)
                for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
            t = 1 + (pairs - 1) * p; lo = int(t)
            return lo >= pairs ? x[pairs] : x[lo] + (t - lo) * (x[lo + 1] - x[lo])
        }
        function row(side, m,    i, s) {
            s = sprintf("  %-6s q1 %.6g  median %.6g  q3 %.6g  samples", side,
                        quartile(side, m, 0.25), quartile(side, m, 0.5), quartile(side, m, 0.75))
            for (i = 1; i <= pairs; i++) s = s " " v[side, m, i]
            return s
        }
        END {
            for (i = 1; i <= pairs; i++) correct += v["parent", "correct", i] + v["change", "correct", i]
            printf "runs that ended correct with 0 failed: %d of %d\n", correct, 2 * pairs
            for (k = 1; k <= metrics; k++) {
                m = metric[k]; won = 0; ties = 0
                for (i = 1; i <= pairs; i++) {
                    d = v["change", m, i] - v["parent", m, i]
                    if (d == 0) ties++
                    else if ((d < 0) == (better[m] == "lower")) won++
                }
                decided = pairs - ties
                verdict = decided == 0 ? "every pair tied" : \
                    sprintf("%s 9/10 of the %d decided", won * 10 >= decided * 9 ? "at least" : "fewer than", decided)
                printf "%s (%s is better): change won %d of %d pairs, %d ties (%s)\n", m, better[m], won, pairs, ties, verdict
                print row("parent", m)
                print row("change", m)
            }
        }' BENCHMARK.json "$samples"
}

usage() {
    echo "usage: $0 [results|loc|pairs <parent-ref> <workload>|all [n]]" >&2
    exit 2
}

case "${1:-}" in
    results)
        results
        exit 0
        ;;
    pairs)
        shift
        [ $# -ge 2 ] || usage
        if [ "$2" = all ]; then
            # BENCHMARK.json's workload names, in its order.
            for w in $(awk '
                /"workloads"/ { on = 1 }
                on && /^  \]/ { exit }
                on && /"name":/ { gsub(/[",]/, ""); print $2 }' BENCHMARK.json); do
                pairs "$1" "$w" ${3:+"$3"}
            done
        else
            pairs "$@"
        fi
        exit 0
        ;;
    loc)
        loc
        exit 0
        ;;
    '') ;;
    *) usage ;;
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
