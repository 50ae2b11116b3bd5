#!/usr/bin/env bash
# Runs `cargo test [args...]` N times and fails on the first run that fails
# or whose set of passing tests differs from the first run's (ROADMAP item
# 3(e)).  Tests are keyed by the test binary that ran them, so two crates'
# tests of the same name are told apart.  Leave out `-q`: the quiet format
# prints no test names.
#   scripts/flake.sh 10 --release --features fault-inject --test chaos
#   scripts/flake.sh 100 --release -p smq-pool --features fault-inject
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || ! [ "$1" -ge 1 ] 2>/dev/null; then
    echo "usage: $0 N [cargo test args...]" >&2
    exit 2
fi
runs=$1
shift

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The passing tests of one run's output, one `<binary line> :: <test>` each.
passing() {
    awk '/^ *(Running|Doc-tests) / { unit = $0; sub(/^ +/, "", unit) }
         / \.\.\. ok$/            { print unit " :: " $2 }' "$1" | sort
}

start=$SECONDS
for i in $(seq 1 "$runs"); do
    if ! cargo test "$@" >"$work/out" 2>&1; then
        tail -n 40 "$work/out" >&2
        echo "flake: run $i of $runs failed (cargo test $*)" >&2
        exit 1
    fi
    passing "$work/out" >"$work/run"
    if [ "$i" -eq 1 ]; then
        mv "$work/run" "$work/first"
    elif ! diff -u "$work/first" "$work/run" >&2; then
        echo "flake: run $i of $runs passed a different set of tests than run 1 (cargo test $*)" >&2
        exit 1
    fi
done
echo "flake: $runs of $runs runs of 'cargo test $*' passed the same $(wc -l <"$work/first") tests ($((SECONDS - start)) s)"
