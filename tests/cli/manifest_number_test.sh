#!/usr/bin/env bash
# Exit-code regression for strict batch_solver manifest overrides: a
# per-line numeric value with trailing characters (or a fraction on an
# integer key) must be refused with exit 1 and a message naming the key,
# not parsed up to the first bad character.
#
#   tests/cli/manifest_number_test.sh <batch_solver>
set -u

BATCH=$1

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0

expect_refusal() {
  local key=$1 line=$2
  echo "$line" >"$tmp/manifest.txt"
  local err
  err=$("$BATCH" "$tmp/manifest.txt" 2>&1 >/dev/null)
  local rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL: '$line': expected exit 1, got $rc"
    fail=1
  fi
  case "$err" in
    *"bad value for manifest key '$key'"*) ;;
    *)
      echo "FAIL: '$line': stderr lacks \"bad value for manifest key '$key'\": $err"
      fail=1
      ;;
  esac
}

expect_refusal threads "hole:5 threads=2x"
expect_refusal threads "hole:5 threads=2.5"
expect_refusal deadline-ms "hole:5 deadline-ms=100abc"
expect_refusal conflicts "hole:5 conflicts=5k"
expect_refusal conflicts "hole:5 conflicts="
expect_refusal priority "hole:5 priority=1z"
expect_refusal assume "hole:5 assume=1,2x"

# Well-formed overrides still run every job to a terminal state (exit 0).
echo "hole:5 threads=2 deadline-ms=5000.5 conflicts=100000 priority=1 assume=1,-2" \
  >"$tmp/manifest.txt"
"$BATCH" "$tmp/manifest.txt" >/dev/null 2>&1
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: well-formed overrides: expected exit 0, got $rc"
  fail=1
fi

exit $fail
