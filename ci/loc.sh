#!/usr/bin/env bash
# First-party lines of Rust — the ROADMAP's tracked number (aim 2).
#
# Counts every line of every `.rs` file under crates/ src/ tests/
# examples/ (vendor/ and bench/ are not first-party product code), split:
#   * tests   — files under a tests/ or benches/ directory, plus, in any
#               other file, everything from its first `#[cfg(test)]` down
#               (test modules sit at the bottom of their file here);
#   * product — the rest.
# Moving code into a test file therefore moves it between the columns; it
# never shrinks the total.
#
# Usage: ci/loc.sh [repo-root]     (default: the checkout holding this script)

set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates src tests examples -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = (FILENAME ~ /(^|\/)(tests|benches)\//) }
  /#\[cfg\(test\)\]/ { in_tests = 1 }
  { if (in_tests) tests++; else product++ }
  END {
    printf "first-party .rs lines: %d (product %d, tests %d)\n",
           product + tests, product, tests
  }'
