#!/usr/bin/env bash
# Runs <sets> full sets of the benchmark on the code as it is (set i uses
# seed i), then prints, per workload and end-to-end metric, the median, the
# quartiles and the spread (interquartile range over median, as Python's
# statistics.quantiles(n=4) gives it) next to the metric's bound from
# BENCHMARK.json.  Fails if a run is incorrect or if any spread other than
# setup_s's exceeds its bound.
#
#   benchmark/repeat.sh 10            # ten sets at run_seconds
#   benchmark/repeat.sh 2 3           # two sets of 3 s windows
#   WORKLOADS="hold_smq hold_mq" benchmark/repeat.sh 5
set -euo pipefail
cd "$(dirname "$0")/.."

sets=${1:?usage: benchmark/repeat.sh <sets> [seconds]}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
workloads=${WORKLOADS:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}
out=benchmark/out/repeat
mkdir -p "$out"
rm -f "$out"/*.jsonl

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/smq-benchmark

for set in $(seq 1 "$sets"); do
    for workload in $workloads; do
        echo "set $set/$sets: $workload" >&2
        "$bin" --workload "$workload" --seed "$set" --seconds "$seconds" --trace 0 \
            | tail -n 1 >>"$out/$workload.jsonl"
    done
done

python3 - "$out" $workloads <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = []
print(f'{"workload":<16} {"metric":<18} {"median":>14} {"q1":>14} {"q3":>14} {"spread":>8} {"bound":>6}')
for workload in workloads:
    runs = [json.loads(line) for line in open(f"{out}/{workload}.jsonl")]
    for run in runs:
        if not run["correct"] or run["failed"]:
            bad.append(f'{workload}: incorrect run ({run["failed"]} of {run["attempted"]} failed)')
    for name, bound in bounds.items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median
        flag = ""
        if name != "setup_s" and spread > bound:
            flag = "  <-- over its bound"
            bad.append(f"{workload} {name}: spread {spread:.3f} > bound {bound}")
        print(f"{workload:<16} {name:<18} {median:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.3f} {bound:>6}{flag}")
if bad:
    print("\n".join(["", "FAILED:"] + bad))
    sys.exit(1)
print("\nall runs correct, every gated spread within its bound")
EOF
