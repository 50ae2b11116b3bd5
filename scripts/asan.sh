#!/usr/bin/env bash
# Runs a crate's tests under AddressSanitizer on the nightly toolchain
# (ROADMAP item 3(c)).  With no argument it covers every crate that still
# has `unsafe` code (the others `#![forbid(unsafe_code)]`), plus the chaos
# suite, which drives the pool's `unsafe` job hand-off through job
# panics and scheduler rebuilds.  Name crates to run only those:
#   scripts/asan.sh                 # smq-spraylist smq-pool smq-core, chaos
#   scripts/asan.sh smq-spraylist
# An explicit --target keeps the sanitizer off build scripts and proc
# macros, which run on the host and must not be instrumented.  None of the
# default runs has a doctest; a crate whose doctest fails to link under
# ASan (undefined symbol __asan_handle_no_return) needs `--lib --tests`.
# Miri and TSan cannot run in the build container (ROADMAP re-anchor note).
set -euo pipefail
cd "$(dirname "$0")/.."

target=${ASAN_TARGET:-x86_64-unknown-linux-gnu}
runs=()
for crate in "$@"; do
    runs+=("-p $crate")
done
[ ${#runs[@]} -gt 0 ] || runs=("-p smq-spraylist" "-p smq-pool" "-p smq-core" "-p smq-repro --test chaos")
for run in "${runs[@]}"; do
    echo "asan: $run"
    # `$run` is split into its cargo arguments on purpose.
    # shellcheck disable=SC2086
    RUSTFLAGS="${RUSTFLAGS:-} -Zsanitizer=address" \
        cargo +nightly test -q $run --target "$target"
done
