#!/usr/bin/env bash
# Runs one gtest binary with its arguments and fails when no test ran.
#
#   tools/gtest_nonempty.sh ./build/tests/core_test --gtest_filter='Foo.*'
#
# gtest 1.12 exits 0 when --gtest_filter selects nothing, so a renamed suite
# would silently empty a CI step; this reads the "[  PASSED  ] N tests"
# summary instead and treats a missing or zero count as a failure.
set -uo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"$@" 2>&1 | tee "$log"
status=${PIPESTATUS[0]}
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
passed=$(sed -n 's/^\[  PASSED  \] \([0-9][0-9]*\) test.*/\1/p' "$log" | tail -n 1)
if [ -z "$passed" ] || [ "$passed" -eq 0 ]; then
  echo "error: no test ran: $*" >&2
  exit 1
fi
