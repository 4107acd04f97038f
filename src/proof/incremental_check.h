// Certification of the answers of an incremental (push/pop) engine.
//
// An incremental engine logs one DRAT trace across all its solves, in
// external numbering with the group selectors elided. An UNSAT answer is
// certified against the formula that was active when it was given: the
// root clauses plus the clauses of live groups that were not parked. Steps
// derived from groups popped since are not RUP against that formula, so
// the check runs in the lenient mode (CheckOptions::allow_unverified_adds),
// which skips them without letting them support later steps.
//
// Typical use (one engine, a mirror of its input):
//   std::vector<proof::GroupedClause> mirror;  // erase a group's on pop
//   ...
//   if (engine.solve_with_assumptions(a) == SolveStatus::unsatisfiable) {
//     proof::Proof trace = writer.proof();
//     const proof::CheckResult r = proof::check_incremental_answer(
//         mirror, {}, engine.failed_assumptions(), trace);
//   }
#pragma once

#include <span>
#include <vector>

#include "cnf/cnf_formula.h"
#include "cnf/literal.h"
#include "core/solver_types.h"
#include "proof/drat_checker.h"
#include "proof/proof.h"
#include "telemetry/solver_telemetry.h"

namespace berkmin::proof {

// One input clause of an incremental run, tagged with the group that owns
// it (no_group = the root formula, never retracted). Popping a group erases
// exactly its clauses from the mirror, whatever the push order.
struct GroupedClause {
  std::vector<Lit> lits;
  GroupId group = no_group;
};

// The formula the engine solved: every mirrored clause except those of the
// parked (inactive) groups.
Cnf active_formula(std::span<const GroupedClause> clauses,
                   std::span<const GroupId> parked);

// Checks one UNSAT answer against active_formula(clauses, parked). When the
// trace does not end with the empty clause, the answer depended on the
// assumptions or the open groups: the failed-assumption units join the
// formula, and an empty step is appended for the check and popped again,
// so `trace` comes back unchanged.
CheckResult check_incremental_answer(
    std::span<const GroupedClause> clauses, std::span<const GroupId> parked,
    std::span<const Lit> failed_assumptions, Proof& trace,
    const telemetry::SolverTelemetry* sink = nullptr);

}  // namespace berkmin::proof
