#!/usr/bin/env bash
# Fast wiring check: the unit tests, then every workload once untraced and
# once traced with 1 s windows.  Checks that each run exits 0, ends with a
# result line saying correct, and that every traced run left its trace
# file.  The numbers of a 1 s window mean nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p benchmark/out
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/smq-benchmark

for trace in 0 1; do
    # No --workload: every workload in turn, one result line each.
    "$bin" --seed "${SEED:-1}" --seconds 1 --trace "$trace" | tee benchmark/out/smoke-$trace.log \
        | grep -E '^(#|\{)' | cut -c1-120
    lines=$(grep -c '^{"correct": true, ' benchmark/out/smoke-$trace.log || true)
    if [ "$lines" -ne 7 ]; then
        echo "smoke: expected 7 correct result lines with --trace $trace, got $lines" >&2
        exit 1
    fi
done
for workload in hold_smq hold_mq skew_smq sssp_road sssp_social route_closed route_open_live; do
    test -s "benchmark/out/trace-$workload.json" || {
        echo "smoke: no trace file for $workload" >&2
        exit 1
    }
done
echo "smoke: ok"
