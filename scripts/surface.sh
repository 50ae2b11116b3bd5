#!/usr/bin/env bash
# The numbers every simplicity PR reports before and after (ROADMAP's
# standing notes), from tracked files only:
#   1. Rust lines: tracked *.rs outside benchmark/ and crates/shims/
#   2. non-test Rust lines per crate: the lines of each crates/<c>/src file
#      before its first `#[cfg(test)]`
#   3. `unsafe {` / `unsafe fn` / `unsafe impl` sites per crate
#   4. options: `pub` fields and `with_*` builders of every `*Config` /
#      `*Policy` struct (cfg-gated test-only fields included)
#   5. pub items per crate: `pub fn|struct|enum|trait|type|const` lines
#      (`pub unsafe fn` included, `pub(crate)` not) in non-test code, as
#      counted for 2
# Run it on both commits and diff the output.  It also holds the `unsafe`
# ratchet: it fails when a crate has no `unsafe` site left but its lib.rs
# does not `#![forbid(unsafe_code)]`, so no crate can quietly grow one back.
set -euo pipefail
cd "$(dirname "$0")/.."

product_rs() {
    git ls-files '*.rs' | grep -v -e '^benchmark/' -e '^crates/shims/'
}

echo "rust_lines $(product_rs | xargs cat | wc -l)"

crates=$(product_rs | grep '^crates/' | cut -d/ -f2 | sort -u)

echo "non_test_lines"
total=0
for crate in $crates; do
    n=$(product_rs | grep "^crates/$crate/src/" | xargs awk \
        'FNR == 1 { in_tests = 0 } /#\[cfg\(test\)\]/ { in_tests = 1 } !in_tests { n++ } END { print n + 0 }')
    echo "  $crate $n"
    total=$((total + n))
done
echo "  total $total"

echo "pub_items"
total=0
for crate in $crates; do
    n=$(product_rs | grep "^crates/$crate/src/" | xargs awk \
        'FNR == 1 { in_tests = 0 } /#\[cfg\(test\)\]/ { in_tests = 1 }
         !in_tests && /^[ \t]*pub (unsafe )?(fn|struct|enum|trait|type|const) / { n++ }
         END { print n + 0 }')
    echo "  $crate $n"
    total=$((total + n))
done
echo "  total $total"

echo "unsafe_sites"
total=0
unforbidden=()
for crate in $crates; do
    n=$(product_rs | grep "^crates/$crate/" | xargs grep -hE 'unsafe (\{|fn|impl)' | wc -l || true)
    [ "$n" -eq 0 ] || echo "  $crate $n"
    total=$((total + n))
    if [ "$n" -eq 0 ] && ! grep -qxF '#![forbid(unsafe_code)]' "crates/$crate/src/lib.rs"; then
        unforbidden+=("$crate")
    fi
done
echo "  total $total"

echo "options"
total=0
for file in $(product_rs | xargs grep -lE '^pub struct [A-Za-z]+(Config|Policy) \{'); do
    for name in $(grep -ohE '^pub struct [A-Za-z]+(Config|Policy) \{' "$file" | cut -d' ' -f3); do
        fields=$(sed -n "/^pub struct $name {/,/^}/p" "$file" | grep -cE '^    pub [a-z_]+:' || true)
        builders=$(sed -n "/^impl $name {/,/^}/p" "$file" | grep -cE '^    pub fn with_' || true)
        echo "  $name fields=$fields builders=$builders"
        total=$((total + fields + builders))
    done
done
echo "  total $total"

if [ ${#unforbidden[@]} -gt 0 ]; then
    echo "unsafe ratchet: no unsafe left but no #![forbid(unsafe_code)] in lib.rs: ${unforbidden[*]}" >&2
    exit 1
fi
