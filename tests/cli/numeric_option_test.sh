#!/usr/bin/env bash
# Exit-code regression for strict numeric options: a value that is not a
# whole number for an option with a numeric default must be refused with
# exit 1 and a message naming the option, not parsed as 0.
#
#   tests/cli/numeric_option_test.sh <dimacs_solver>
set -u

SOLVER=$1

fail=0

expect_refusal() {
  local option=$1
  shift
  local err
  err=$("$SOLVER" --generate hole:4 "$@" 2>&1 >/dev/null)
  local rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL: $*: expected exit 1, got $rc"
    fail=1
  fi
  case "$err" in
    *"option --$option expects a number"*) ;;
    *)
      echo "FAIL: $*: stderr lacks 'option --$option expects a number': $err"
      fail=1
      ;;
  esac
}

expect_refusal threads --threads abc
expect_refusal timeout --timeout 1.5x
expect_refusal conflicts --conflicts=

# Well-formed numbers still run: hole:4 is UNSAT (exit 20).
"$SOLVER" --generate hole:4 --threads 1 --timeout 1.5 >/dev/null 2>&1
rc=$?
if [ "$rc" -ne 20 ]; then
  echo "FAIL: --threads 1 --timeout 1.5: expected exit 20, got $rc"
  fail=1
fi

exit $fail
