#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml — run before pushing.
# The workspace is hermetic (no registry dependencies); everything runs
# --offline, and a build that tries to reach a registry is a failure.
#
# IRON_STRESS=1 ./ci.sh additionally runs the stress lane: every
# #[ignore]d concurrency-differential test (serve, campaign, crash) at
# elevated thread counts (IRON_TEST_THREADS, default 16).
#
# ./ci.sh results runs that one step alone; the workflow's `results` job
# is exactly that call, so the loop exists once. ./ci.sh examples likewise
# runs the example programs alone, as the workflow's build-and-test job
# does.
#
# ./ci.sh deps checks that no manifest names a workspace crate its crate
# does not use: every `iron-x` in a Cargo.toml must appear as `iron_x` in
# a source file under that crate's src/, tests/, benches/ or examples/.
#
# ./ci.sh unsafe checks that unsafe code stays where it is: every crate's
# lib.rs forbids it except iron-core's, which denies it, and only
# crates/core/src/checksum.rs allows it back, at most once (the call into
# the SHA-NI kernel).
#
# ./ci.sh policy checks that ext3 reacts to a failed device write in one
# place, Ext3Fs::checked_write: outside its test modules, crates/ext3/src
# calls write_tagged( or write_page( only inside a checked_write(...) call,
# or from a function whose reaction differs on purpose, at most as many
# times as listed below: mkfs (a formatting error is fatal), the journal
# log's append (log and commit blocks, judged after the whole batch), mount
# and unmount (the superblock: EIO, no journal abort) and replay_journal
# (recovery semantics: read-only, the mount succeeds).
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
#
# ./ci.sh profile <workload> [seed] says where a workload's CPU time goes:
# the benchmark rebuilt with frame pointers under target/profile/, run under
# tools/sprof.c (a SIGPROF sampler; the box has no perf), self and inclusive
# share per symbol, a sample inside a library named by that library's
# exported symbols and its caller in the binary: the return address on top
# of the stack when that is in the binary's text, else the first of the 40
# words at the top of the stack that is (a libc function without a frame
# pointer, malloc's helpers say, keeps its caller's return address further
# up), else the first frame of the chain that is. Above the table it
# prints the run's peak RSS and minor page faults (getrusage at exit), so
# memory and page-fault churn show beside the CPU. Not a gate; skipped
# with a message when gcc is absent.
set -eu

loc() {
    # A file's non-test lines are those before the #[cfg(test)] that opens
    # its test module (a #[cfg(test)] on anything else is counted as code).
    # A file that is only ever compiled under `#[cfg(test)] mod name;` is
    # test code in whole: a first pass over the crate collects those.
    total=0
    for d in crates/* .; do
        files=$(find "$d/src" -name '*.rs')
        # shellcheck disable=SC2086 # one word per file, no spaces in paths
        n=$(awk '
            FNR == 1 {
                counting = seen[FILENAME]++; test = 0; held = 0
                for (p in test_only) if (index(FILENAME, p) == 1) test = 1
            }
            !counting {
                if (held && match($0, /mod [a-z_0-9]+;/)) {
                    # name.rs or name/, beside this file (or under its stem).
                    dir = FILENAME; sub(/[^\/]*$/, "", dir)
                    stem = FILENAME; sub(/.*\//, "", stem); sub(/\.rs$/, "", stem)
                    if (stem != "lib" && stem != "main" && stem != "mod") dir = dir stem "/"
                    name = substr($0, RSTART + 4, RLENGTH - 5)
                    test_only[dir name ".rs"]; test_only[dir name "/"]
                }
                held = /^[[:space:]]*#\[cfg\(test\)\]/
                next
            }
            test { next }
            held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/ { held = 0; next }
            held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { test = 1; next }
            { n += held + 1; held = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { n--; held = 1 }
            END { print n + 0 }' $files $files)
        [ "$d" = . ] && d=ironfs
        printf '%-12s %6d\n' "$(basename "$d")" "$n"
        total=$((total + n))
    done
    printf '%-12s %6d\n' total "$total"
}

deps() {
    echo '== deps =='
    stale=0
    for d in crates/* .; do
        dirs=
        for s in src tests benches examples; do
            [ -d "$d/$s" ] && dirs="$dirs $d/$s"
        done
        for dep in $(sed -n 's/^\(iron-[a-z0-9-]*\)\.workspace.*/\1/p' "$d/Cargo.toml"); do
            ident=$(echo "$dep" | tr - _)
            # shellcheck disable=SC2086 # one word per directory
            if ! find $dirs -name '*.rs' -exec cat {} + | grep -w "$ident" >/dev/null; then
                # benchmark/Cargo.lock records this one edge, and cargo
                # rewrites a lock file that disagrees with the manifests:
                # it goes in the PR that may edit benchmark/ (ROADMAP 3).
                if [ "$d $dep" = 'crates/fingerprint iron-ixt3' ]; then
                    echo "note: $d/Cargo.toml names $dep, unused; kept while benchmark/Cargo.lock records it"
                    continue
                fi
                echo "ERROR: $d/Cargo.toml names $dep and no source file of that crate mentions $ident" >&2
                stale=1
            fi
        done
    done
    return $stale
}

unsafe_surface() {
    echo '== unsafe =='
    bad=0
    for lib in crates/*/src/lib.rs src/lib.rs; do
        want='#![forbid(unsafe_code)]'
        [ "$lib" = crates/core/src/lib.rs ] && want='#![deny(unsafe_code)]'
        if ! grep -qxF "$want" "$lib"; then
            echo "ERROR: $lib does not keep $want" >&2
            bad=1
        fi
    done
    # Every Rust file, tracked or not (build output is ignored): the lints
    # above bind only a crate's library, not its binaries, tests or examples.
    files=$(git ls-files --cached --others --exclude-standard '*.rs')
    # shellcheck disable=SC2086 # one word per file, no spaces in paths
    if grep -n 'allow(unsafe_code)' $files | grep -v '^crates/core/src/checksum\.rs:' >&2; then
        echo 'ERROR: allow(unsafe_code) outside crates/core/src/checksum.rs' >&2
        bad=1
    fi
    allows=$(grep -c 'allow(unsafe_code)' crates/core/src/checksum.rs || true)
    if [ "$allows" -gt 1 ]; then
        echo "ERROR: crates/core/src/checksum.rs allows unsafe code $allows times (at most 1)" >&2
        bad=1
    fi
    # shellcheck disable=SC2086
    if grep -nE '\bunsafe[[:space:]]*(\{|fn\b|impl\b|trait\b|extern\b)' $files |
        grep -v '^crates/core/src/checksum\.rs:' >&2; then
        echo 'ERROR: unsafe code outside crates/core/src/checksum.rs' >&2
        bad=1
    fi
    return $bad
}

policy() {
    echo '== policy =='
    # shellcheck disable=SC2046 # one word per file, no spaces in paths
    awk '
        BEGIN {
            n = split("mkfs:1 append:1 mount:1 unmount:1 replay_journal:2", kept, " ")
            for (i = 1; i <= n; i++) { split(kept[i], kv, ":"); allowed[kv[1]] = kv[2] }
        }
        # Open parens minus closed ones in s.
        function nest(s,    o, c) { o = gsub(/\(/, "", s); c = gsub(/\)/, "", s); return o - c }
        FNR == 1 { test = 0; held = 0; depth = 0; fn = "" }
        test { next }
        # A #[cfg(test)] on a mod opens the test module, which runs to the
        # end of the file.
        held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { test = 1; next }
        { held = /^[[:space:]]*#\[cfg\(test\)\]/ }
        /^[[:space:]]*\/\// { next }
        match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
        {
            inside = depth > 0
            if (depth > 0) depth += nest($0)
            else if ((i = index($0, "checked_write(")) && fn != "checked_write") {
                depth = nest(substr($0, i)); inside = 1
            }
        }
        /(write_tagged|write_page)\(/ && !inside && ++calls[fn] > allowed[fn] {
            printf "ERROR: %s:%d: %s writes the device outside checked_write\n", FILENAME, FNR, fn > "/dev/stderr"
            bad = 1
        }
        END { exit bad }' $(find crates/ext3/src -name '*.rs' | sort)
}

examples() {
    echo '== examples (release, offline) =='
    # `cargo test` builds the top-level examples but runs none; a panic or a
    # failed assert in one fails the run.
    for e in crash_recovery disk_scrubbing failure_policy_comparison quickstart; do
        cargo run -q --release --offline --example "$e" >/dev/null
    done
    # The iron-crash examples likewise (~4 s together in release);
    # crash_witness explains one image on stderr.
    cargo run -q --release --offline -p iron-crash --example crash_matrix >/dev/null
    cargo run -q --release --offline -p iron-crash --example gen_legacy_probe >/dev/null
    cargo run -q --release --offline -p iron-crash --example gen_matrix seq2 >/dev/null
    cargo run -q --release --offline -p iron-crash --example crash_witness ext3 0 0
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

profile() {
    workload=$1 seed=${2:-1}
    command -v gcc >/dev/null || {
        echo "profile: no gcc to build tools/sprof.c with; skipped" >&2
        return 0
    }
    # The benchmark with frame pointers, in a target directory of its own
    # (RUSTFLAGS would otherwise rebuild benchmark/target every time).
    dir=target/profile
    mkdir -p "$dir"
    gcc -O2 -shared -fPIC -o "$dir/libsprof.so" tools/sprof.c -ldl
    CARGO_TARGET_DIR=$dir RUSTFLAGS='-C force-frame-pointers=yes' \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
    bin=$dir/release/iron-benchmark
    SPROF_OUT=$dir/$workload.sprof LD_PRELOAD=$dir/libsprof.so \
        "$bin" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 >/dev/null
    # Symbols by address: the binary's (nm -n), then each library the run
    # mapped with its exported ones (libc ships no others), every object
    # named on a `LIB` line above its symbols.
    binpath=$(realpath "$bin")
    {
        echo "LIB $binpath"
        nm -nC --defined-only "$bin"
        awk -v bin="$binpath" '
            /^MAPS$/ { maps = 1; next }
            maps && $6 ~ /^\// && $6 != bin && !seen[$6]++ { print $6 }' "$dir/$workload.sprof" |
            while read -r lib; do
                echo "LIB $lib"
                nm -Dn --defined-only "$lib" 2>/dev/null || true
            done
    } >"$dir/$workload.syms"
    echo "== profile: $workload, seed $seed, one sample per 500 us of CPU =="
    echo "a sample in a library goes to the nearest exported symbol below it (nm -D, plus the"
    echo "memcpy/memset/... variants glibc picked at load time), so any other unexported"
    echo "function shows under its exported neighbour's name (malloc's helpers under"
    echo "__default_morecore); such a sample's self row is \`symbol <- caller\`, the caller"
    echo "being the return address on top of the stack when that is in this binary's text,"
    echo "else the first of the 40 words at the top of the stack that is, else the first"
    echo "frame of the chain that is; the bare \`symbol\` row sums its callers"
    # The samples: self share goes to the symbol under the PC, inclusive
    # share to every symbol on the chain.
    awk -v bin="$binpath" '
        FNR == NR {
            if ($1 == "LIB") obj = $2
            else if ($2 ~ /^[tTwWi]$/) {
                addr[obj, ++syms[obj]] = hex($1); $1 = $2 = ""; sub(/@.*/, "")
                name[obj, syms[obj]] = substr($0, 3)
            }
            next
        }
        /^MAPS$/ { maps = 1; next }
        $1 == "RUSAGE" { maxrss_kib = $2; minflt = $3; next }
        $1 == "IFUNC" { picked_addr[++picked] = hex($2); picked_name[picked] = $3; next }
        !maps { line[++samples] = $0; next }
        # The lowest mapping of a file is its load base (PIE, shared object).
        {
            split($1, range, "-"); lo = hex(range[1])
            if (!($6 in base)) base[$6] = lo
            map_lo[++nmaps] = lo; map_hi[nmaps] = hex(range[2]); map_name[nmaps] = $6; map_exec[nmaps] = $2 ~ /x/
        }
        function hex(s,    i, v) {
            for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
            return v
        }
        # Sets sym[p] and whether p is in the text of the binary itself.
        function resolve(p,    a, i, f, l, h, m, below) {
            if (p in sym) return
            a = hex(p)
            for (i = 1; i <= nmaps; i++) if (a >= map_lo[i] && a < map_hi[i]) break
            f = map_name[i]
            in_bin[p] = i <= nmaps && f == bin && map_exec[i]
            a -= base[f]
            if (i > nmaps) sym[p] = "[?]"
            else if (!syms[f] || a < addr[f, 1]) { sub(/.*\//, "", f); sym[p] = "[" f "]" }
            else {
                l = 1; h = syms[f]
                while (l < h) { m = int((l + h + 1) / 2); if (addr[f, m] <= a) l = m; else h = m - 1 }
                sym[p] = name[f, l]; below = addr[f, l]
                for (i = 1; i <= picked; i++) {
                    m = picked_addr[i] - base[f]
                    if (m <= a && m > below) { sym[p] = picked_name[i]; below = m }
                }
            }
        }
        # One more sample has f somewhere on its chain.
        function count(f) { if (!(f in on_chain)) { on_chain[f]; incl[f]++ } }
        END {
            for (s = 1; s <= samples; s++) {
                n = split(line[s], word, " "); split("", on_chain); tops = 0; frames = 0
                for (i = 1; i <= n; i++) {
                    if (word[i] ~ /^\^/) top[++tops] = substr(word[i], 2)
                    else { pc[++frames] = word[i]; resolve(pc[frames]) }
                }
                leaf = sym[pc[1]]
                if (!in_bin[pc[1]]) {
                    count(leaf); caller = ""
                    # The top-of-stack word, else the first word above it,
                    # that is in the binary text; else the chain.
                    for (i = 1; i <= tops && caller == ""; i++) {
                        resolve(top[i])
                        if (in_bin[top[i]]) { caller = sym[top[i]]; count(caller) }
                    }
                    for (i = 2; i <= frames && caller == ""; i++) if (in_bin[pc[i]]) caller = sym[pc[i]]
                    if (caller != "") leaf = leaf " <- " caller
                }
                self[leaf]++; count(leaf)
                for (i = 2; i <= frames; i++) count(sym[pc[i]])
            }
            # getrusage at exit; the peak counts the sampler buffers too.
            if (maxrss_kib != "")
                printf "peak RSS %.1f MiB (%.1f MiB of it samples), %d minor page faults\n",
                    maxrss_kib / 1024, samples * 704 / 1048576, minflt
            printf "%d samples\n%7s %7s  symbol\n", samples, "self%", "incl%"
            for (f in incl) if (incl[f] * 200 >= samples)
                printf "%7.1f %7.1f  %s\n", 100 * self[f] / samples, 100 * incl[f] / samples, f | "sort -k2,2nr"
        }' "$dir/$workload.syms" "$dir/$workload.sprof"
}

usage() {
    echo "usage: $0 [results|examples|deps|unsafe|policy|loc|pairs <parent-ref> <workload>|all [n]|profile <workload> [seed]]" >&2
    exit 2
}

case "${1:-}" in
    results)
        results
        exit 0
        ;;
    examples)
        examples
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
    deps)
        deps
        exit 0
        ;;
    unsafe)
        unsafe_surface
        exit 0
        ;;
    policy)
        policy
        exit 0
        ;;
    loc)
        loc
        exit 0
        ;;
    profile)
        [ $# -ge 2 ] || usage
        profile "$2" ${3:+"$3"}
        exit 0
        ;;
    '') ;;
    *) usage ;;
esac

echo '== build (release, offline) =='
cargo build --workspace --release --offline

echo '== test (offline) =='
cargo test --workspace -q --offline

examples

echo '== benchmark workspace (offline) =='
# benchmark/ is a Cargo workspace of its own that path-depends on
# crates/* and pins their public API (PolicyHandle, RetryConfig,
# FsUnderTest::mount_retry, …); the root build never sees it. --locked:
# a change to the crate graph that would rewrite benchmark/Cargo.lock
# fails here instead of editing the lock file.
cargo test --offline --locked --manifest-path benchmark/Cargo.toml

deps

unsafe_surface

policy

echo '== fmt =='
cargo fmt --all --check

echo '== clippy =='
cargo clippy --workspace --all-targets --offline -- -D warnings

echo '== doc =='
# An intra-doc link to a renamed or private item is an error, not a
# warning that scrolls past.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

results

if [ "${IRON_STRESS:-0}" = "1" ]; then
    echo '== stress lane (--ignored differential suites) =='
    IRON_TEST_THREADS="${IRON_TEST_THREADS:-16}" \
        cargo test --workspace --release -q --offline -- --ignored
fi

echo 'CI OK'
