#!/usr/bin/env bash
# Runs `cargo test --release <args>` and fails unless at least one test
# passed: a name filter that selects no test (a renamed test, say)
# would otherwise pass silently.
#
# Usage: .github/scripts/cargo-test-filtered.sh [cargo test args] <name filter>
set -uo pipefail
out=$(cargo test --release "$@" 2>&1) || { echo "$out"; exit 1; }
echo "$out"
passed=$(echo "$out" | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' | awk '{s += $1} END {print s + 0}')
if [ "$passed" -eq 0 ]; then
  echo "::error::cargo test $* selected no tests"
  exit 1
fi
