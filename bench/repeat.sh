#!/usr/bin/env bash
# Is the benchmark steady enough to carry its own bounds?
#
#   bench/repeat.sh              two full untraced sets on one build, plus one
#                                set on a second seed; prints both values and
#                                their ratio per (metric, workload) and fails
#                                if a pair disagrees by more than the metric's
#                                bound in BENCHMARK.json
#   bench/repeat.sh --spread N   N runs per workload, each on another seed;
#                                prints (q3 - q1) / median per (metric,
#                                workload) as the driver computes it and
#                                fails if one exceeds its bound
#
# A timing metric that fails here has to leave the end-to-end list (it
# keeps its name in the per-layer list); bounds are never widened to fit.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=pair
runs=2
if [[ "${1:-}" == "--spread" ]]; then
    mode=spread
    runs="${2:?--spread needs a run count}"
fi
seed="${SEED:-20210620}"
out=bench/out/repeat
mkdir -p "$out"
rm -f "$out"/*.json

cargo build --release --quiet --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/wallbench"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

run() { # label workload seed
    echo "run $1: $2 seed $3" >&2
    "$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 \
        --out "$out/$1-$2.json" | grep -E '^(host|run):' >&2
}

if [[ $mode == pair ]]; then
    for set in 1 2; do
        for w in $workloads; do run "set$set" "$w" "$seed"; done
    done
    for w in $workloads; do run "seed2" "$w" "$((seed + 1))"; done
else
    for i in $(seq 1 "$runs"); do
        for w in $workloads; do run "run$i" "$w" "$((seed + i - 1))"; done
    done
fi

python3 - "$mode" "$out" <<'EOF'
import glob, json, statistics, sys

mode, out = sys.argv[1], sys.argv[2]
decl = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in decl["workloads"]]
bad = []

def load(label, workload):
    doc = json.load(open(f"{out}/{label}-{workload}.json"))
    result = doc["workloads"][workload]
    if not result["correct"]:
        bad.append(f"{workload}: {result['failed']} of {result['attempted']} operations failed ({label})")
    return {k: v["value"] for k, v in result["metrics"].items()}

if mode == "pair":
    print(f"{'metric @ workload':<44}{'set 1':>14}{'set 2':>14}{'2/1':>8}{'bound':>7}   {'seed+1':>14}")
    for m in decl["end_to_end"]:
        for w in workloads:
            a, b, c = (load(label, w)[m["name"]] for label in ("set1", "set2", "seed2"))
            ratio = b / a
            verdict = ""
            if abs(ratio - 1) > m["bound"]:
                verdict = "  DISAGREES: demote to per-layer" if m["unit"] in ("ms", "s", "1/s") else "  DISAGREES"
                bad.append(f"{m['name']} @ {w}: sets disagree by {abs(ratio - 1):.1%}, bound {m['bound']:.0%}")
            print(f"{m['name'] + ' @ ' + w:<44}{a:>14.4f}{b:>14.4f}{ratio:>8.3f}{m['bound']:>7.2f}   {c:>14.4f}{verdict}")
else:
    labels = sorted({p.split("/")[-1].split("-")[0] for p in glob.glob(f"{out}/run*-*.json")})
    print(f"{'metric @ workload':<44}{'median':>14}{'(q3-q1)/median':>16}{'bound':>7}{'spread/bound':>14}")
    for m in decl["end_to_end"]:
        for w in workloads:
            values = [load(label, w)[m["name"]] for label in labels]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            verdict = ""
            if spread > m["bound"] and m["name"] != "setup_s":
                verdict = "  TOO WIDE"
                bad.append(f"{m['name']} @ {w}: spread {spread:.1%} over {len(values)} seeds, bound {m['bound']:.0%}")
            print(f"{m['name'] + ' @ ' + w:<44}{med:>14.4f}{spread:>16.4f}{m['bound']:>7.2f}{spread / m['bound']:>14.2f}{verdict}")

for line in sorted(set(bad)):
    print("FAIL", line)
sys.exit(1 if bad else 0)
EOF
