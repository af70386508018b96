#!/usr/bin/env sh
# Do two sets of runs of the same code agree within the benchmark's own
# bounds?
#
# Runs every workload twice on the default seed and once on a second seed,
# then prints, per workload x end-to-end metric, both same-seed medians,
# their relative gap (positive = the second run is worse) and the bound
# from BENCHMARK.json. Exits non-zero if a same-seed gap exceeds its bound
# or any run reports a failed or incorrect result. The second seed is shown
# beside them, ungated: simulated time legitimately differs between seeds.
#
#   SEED=1 SEED2=2 RUN_SECONDS=10 benchmark/repeat.sh
set -eu
cd "$(dirname "$0")/.."

SEED="${SEED:-1}"
SEED2="${SEED2:-2}"
RUN_SECONDS="${RUN_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

run() { # workload seed label
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seed "$2" --seconds "$RUN_SECONDS" --trace 0 | tail -n 1 >"$OUT/$1.$3.json"
}

WORKLOADS="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for w in $WORKLOADS; do
    echo "== $w ==" >&2
    run "$w" "$SEED" first
    run "$w" "$SEED" second
    run "$w" "$SEED2" other
done

python3 - "$OUT" "$SEED" "$SEED2" <<'EOF'
import json, sys

out, seed, seed2 = sys.argv[1:4]
manifest = json.load(open("BENCHMARK.json"))
bad = False
print(f"{'workload':<12} {'metric':<16} {'unit':<5} {'seed ' + seed:>13} {'again':>13} "
      f"{'gap':>8} {'bound':>6}   {'seed ' + seed2:>13}")
for w in (w["name"] for w in manifest["workloads"]):
    runs = {k: json.load(open(f"{out}/{w}.{k}.json")) for k in ("first", "second", "other")}
    for label, r in runs.items():
        if not r["correct"] or r["failed"]:
            print(f"{w}: the {label} run is incorrect ({r['failed']} of {r['attempted']} failed)")
            bad = True
    for m in manifest["end_to_end"]:
        a, b, c = (runs[k]["metrics"][m["name"]]["value"] for k in ("first", "second", "other"))
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        over = worse > m["bound"]
        bad |= over
        print(f"{w:<12} {m['name']:<16} {m['unit']:<5} {a:>13.6g} {b:>13.6g} "
              f"{worse:>+8.2%} {m['bound']:>6.0%} {'X' if over else ' '} {c:>13.6g}")
sys.exit(1 if bad else 0)
EOF
