#!/usr/bin/env bash
# Runs a crate's tests under AddressSanitizer on the nightly toolchain
# (ROADMAP item 3(c)).  With no argument it covers every crate that still
# has `unsafe` code; the others `#![forbid(unsafe_code)]`.  Name crates to
# run only those:
#   scripts/asan.sh                 # smq-skiplist smq-pool smq-core
#   scripts/asan.sh smq-skiplist
# An explicit --target keeps the sanitizer off build scripts and proc
# macros, which run on the host and must not be instrumented.  None of the
# default crates has a doctest; a crate whose doctest fails to link under
# ASan (undefined symbol __asan_handle_no_return) needs `--lib --tests`.
# Miri and TSan cannot run in the build container (ROADMAP re-anchor note).
set -euo pipefail
cd "$(dirname "$0")/.."

target=${ASAN_TARGET:-x86_64-unknown-linux-gnu}
crates=("$@")
[ ${#crates[@]} -gt 0 ] || crates=(smq-skiplist smq-pool smq-core)
for crate in "${crates[@]}"; do
    echo "asan: $crate"
    RUSTFLAGS="${RUSTFLAGS:-} -Zsanitizer=address" \
        cargo +nightly test -q -p "$crate" --target "$target"
done
