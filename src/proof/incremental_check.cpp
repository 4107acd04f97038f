#include "proof/incremental_check.h"

#include <algorithm>

namespace berkmin::proof {

Cnf active_formula(std::span<const GroupedClause> clauses,
                   std::span<const GroupId> parked) {
  Cnf formula;
  for (const GroupedClause& clause : clauses) {
    if (std::find(parked.begin(), parked.end(), clause.group) == parked.end()) {
      formula.add_clause(clause.lits);
    }
  }
  return formula;
}

CheckResult check_incremental_answer(std::span<const GroupedClause> clauses,
                                     std::span<const GroupId> parked,
                                     std::span<const Lit> failed_assumptions,
                                     Proof& trace,
                                     const telemetry::SolverTelemetry* sink) {
  Cnf formula = active_formula(clauses, parked);
  const bool appended_empty = !trace.ends_with_empty();
  if (appended_empty) {
    // An empty failed set means the open groups alone refute the formula.
    for (const Lit a : failed_assumptions) formula.add_unit(a);
    trace.add({});
  }
  DratChecker checker(formula);
  checker.set_telemetry(sink);
  CheckOptions options;
  options.allow_unverified_adds = true;
  const CheckResult result = checker.check(trace, options);
  if (appended_empty) trace.steps.pop_back();
  return result;
}

}  // namespace berkmin::proof
