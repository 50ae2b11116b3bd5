#!/usr/bin/env bash
# Runs a crate's unit and integration tests under AddressSanitizer on the
# nightly toolchain (ROADMAP item 3(c)).  With no argument it covers the
# crates this script has been brought up on so far; name others to try them:
#   scripts/asan.sh                 # smq-graph smq-dheap smq-scheduler
#   scripts/asan.sh smq-skiplist
# An explicit --target keeps the sanitizer off build scripts and proc
# macros, which run on the host and must not be instrumented.  Doctests are
# left out (--lib --tests): smq-scheduler's fails to link under ASan
# (undefined symbol __asan_handle_no_return).  Miri and TSan cannot run in
# the build container (ROADMAP re-anchor note).
set -euo pipefail
cd "$(dirname "$0")/.."

target=${ASAN_TARGET:-x86_64-unknown-linux-gnu}
crates=("$@")
[ ${#crates[@]} -gt 0 ] || crates=(smq-graph smq-dheap smq-scheduler)
for crate in "${crates[@]}"; do
    echo "asan: $crate"
    RUSTFLAGS="${RUSTFLAGS:-} -Zsanitizer=address" \
        cargo +nightly test -q -p "$crate" --lib --tests --target "$target"
done
