#!/usr/bin/env bash
# Exit-code regression for the --preprocess/--drat combination. The
# --preprocess round runs inside each solver (one subsumption pass of the
# inprocessor before search) and logs through the solver's own proof
# writer, so the trace certifies against the input formula at one thread
# and across a portfolio. Duplicated input clauses must survive splicing
# while any worker still holds a copy. The only refusal is the genuinely
# unsupported combo: incremental scripts + proofs + threads > 1.
#
#   tests/cli/preprocess_drat_exit_test.sh <dimacs_solver> <drat_check>
set -u

SOLVER=$1
CHECKER=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0

check_rc() {
  local what=$1 want=$2 got=$3
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $what: expected exit $want, got $got"
    fail=1
  fi
}

# UNSAT + preprocessing + proof, single-threaded: exit 20 and a trace the
# checker verifies against the unpreprocessed formula.
"$SOLVER" --generate hole:6 --preprocess --drat "$tmp/seq.drat" >/dev/null 2>&1
check_rc "hole:6 --preprocess --drat" 20 $?
"$CHECKER" --generate hole:6 "$tmp/seq.drat" --quiet
check_rc "drat_check of preprocessed trace" 0 $?

# Same through a 4-worker portfolio: every worker runs the round, and the
# spliced trace must also verify.
"$SOLVER" --generate hole:6 --preprocess --threads 4 --drat "$tmp/par.drat" \
  >/dev/null 2>&1
check_rc "hole:6 --preprocess --threads 4 --drat" 20 $?
"$CHECKER" --generate hole:6 "$tmp/par.drat" --quiet
check_rc "drat_check of spliced preprocessed trace" 0 $?

# SAT + preprocessing + proof + model validation: exit 10.
"$SOLVER" --generate par:12:10:3:sat:5 --preprocess --drat "$tmp/sat.drat" \
  --check-model >/dev/null 2>&1
check_rc "par(sat) --preprocess --drat --check-model" 10 $?

# A formula fully decided before search (unit chain to a contradiction)
# still answers 20 with a checkable trace.
cat >"$tmp/units.cnf" <<'EOF'
p cnf 3 4
1 0
-1 2 0
-2 3 0
-3 -1 0
EOF
"$SOLVER" "$tmp/units.cnf" --preprocess --drat "$tmp/units.drat" \
  >/dev/null 2>&1
check_rc "preprocess-only UNSAT" 20 $?
"$CHECKER" "$tmp/units.cnf" "$tmp/units.drat" --quiet
check_rc "drat_check of preprocess-only trace" 0 $?

# hole:7 with every third clause listed twice, through a 2-worker
# portfolio: each worker subsumes its own copy of a duplicate, yet the
# spliced trace must keep one until the last holder drops it.
"$SOLVER" --generate hole:7 --write-dimacs "$tmp/hole7.cnf" --conflicts 1 \
  >/dev/null 2>&1
awk '/^p cnf/ { vars = $3; next } /^[-0-9]/ { c[n++] = $0 }
  END {
    total = n; for (i = 0; i < n; i += 3) total++
    print "p cnf", vars, total
    for (i = 0; i < n; i++) print c[i]
    for (i = 0; i < n; i += 3) print c[i]
  }' "$tmp/hole7.cnf" >"$tmp/dup.cnf"
for extra in "" --preprocess; do
  "$SOLVER" "$tmp/dup.cnf" --threads 2 $extra --drat "$tmp/dup.drat" \
    >/dev/null 2>&1
  check_rc "duplicated hole:7 --threads 2 $extra --drat" 20 $?
  "$CHECKER" "$tmp/dup.cnf" "$tmp/dup.drat" --quiet
  check_rc "drat_check of duplicated hole:7 trace ($extra)" 0 $?
done

# The round reports under the inprocess phase of --metrics-out.
"$SOLVER" --generate hole:5 --preprocess --metrics-out "$tmp/metrics.json" \
  >/dev/null 2>&1
if ! grep -q '"inprocess"' "$tmp/metrics.json"; then
  echo "FAIL: --metrics-out of a --preprocess run lacks the inprocess phase"
  fail=1
fi

# The surviving refusal: incremental scripts with proofs need one thread.
cat >"$tmp/script.icnf" <<'EOF'
p inccnf
1 2 0
a 0
EOF
"$SOLVER" "$tmp/script.icnf" --drat "$tmp/inc.drat" --threads 2 \
  >/dev/null 2>&1
check_rc "icnf --drat --threads 2 (refused)" 1 $?
"$SOLVER" "$tmp/script.icnf" --drat "$tmp/inc.drat" >/dev/null 2>&1
check_rc "icnf --drat --threads 1 (allowed)" 10 $?

if [ "$fail" -eq 0 ]; then
  echo "preprocess/drat exit codes OK"
fi
exit "$fail"
