#!/usr/bin/env bash
# Static lint: no public item that nothing names.
#
# rustc's dead-code lint stops at `pub`: a public function, type or
# constant no caller uses compiles silently and is carried forever. This
# catches the cheap half of that class with grep alone: every name
# declared `pub fn|struct|enum|trait|const|type` in the product part of
# crates/*/src (above a file's first `#[cfg(test)]`, as in ci/loc.sh) must
# occur as a word at least twice under crates/ src/ tests/ examples/
# bench/src bench/tests — once is its own declaration. Comments (from `//`
# to the end of the line) and `pub use` lists do not count: a doc link or
# a re-export is not a use. A name that belongs to two items passes; this
# is a floor, not a proof. There is no allow-list: delete the item or use
# it.
#
# A second section reports, without failing, the items that pass only
# because a *test* names them: no product text (the product part of
# crates/*/src, src/, bench/src) does. That is how a maintained-but-never-
# read structure stays invisible; the count goes in CHANGES.md beside
# ci/loc.sh's.

set -euo pipefail
cd "$(dirname "$0")/.."

# Rust text on stdin with its comments and `pub use` lists dropped.
code() {
  awk '
    in_use { in_use = !index($0, ";"); next }
    /^[ \t]*pub(\([a-z]+\))?[ \t]+use[ \t]/ { in_use = !index($0, ";"); next }
    { sub(/\/\/.*/, ""); print }'
}

# Every identifier in the scanned trees, with its number of occurrences.
COUNTS=$(find crates src tests examples bench/src bench/tests -name '*.rs' -print0 |
  xargs -0 cat | code | grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c)

# "name file:line" for every pub declaration in product code.
DECLS=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests && match($0, /^[ \t]*pub[ \t]+((const|unsafe)[ \t]+)*(fn|struct|enum|trait|const|type)[ \t]+[A-Za-z_][A-Za-z0-9_]*/) {
    n = split(substr($0, RSTART, RLENGTH), w, /[ \t]+/)
    printf "%s %s:%d\n", w[n], FILENAME, FNR
  }')

UNREFERENCED=$(awk '
  NR == FNR { count[$2] = $1; next }
  count[$1] < 2 { printf "%s: pub item `%s` is named nowhere else\n", $2, $1 }
' <(echo "$COUNTS") <(echo "$DECLS"))

if [ -n "$UNREFERENCED" ]; then
  echo "$UNREFERENCED"
  echo "unreferenced-pub: delete these or use them" >&2
  exit 1
fi
echo "unreferenced-pub: clean ($(echo "$DECLS" | wc -l) pub items)"

# Identifier counts over product text only.
PRODUCT_COUNTS=$({
  find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests'
  find src bench/src -name '*.rs' -print0 | xargs -0 cat
} | code | grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c)

TEST_ONLY=$(awk '
  NR == FNR { count[$2] = $1; next }
  count[$1] < 2 { printf "%s: pub item `%s` is named only by tests\n", $2, $1 }
' <(echo "$PRODUCT_COUNTS") <(echo "$DECLS"))
[ -z "$TEST_ONLY" ] || echo "$TEST_ONLY"
echo "test-only-pub: $(echo -n "$TEST_ONLY" | grep -c '^' || true) pub items no product text names"
