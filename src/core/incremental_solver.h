// IncrementalSolver: the one incremental-solving surface shared by the
// sequential Solver and the PortfolioSolver race.
//
// Callers that serve either engine — the SolverService's sessions and
// submitted jobs, dimacs_solver's scripted mode — hold a
// std::unique_ptr<IncrementalSolver> and never branch on which engine is
// behind it. Both implementations are `final`, so code that names the
// concrete type (one-shot solving, the model-checking engines' backend,
// the portfolio benches) keeps devirtualized calls.
//
// Typical use:
//   std::unique_ptr<IncrementalSolver> engine;
//   if (threads > 1) engine = std::make_unique<portfolio::PortfolioSolver>(popts);
//   else engine = std::make_unique<Solver>(options);
//   engine->load(cnf);
//   const GroupId g = engine->push_group();
//   engine->add_clause(extra);
//   if (engine->solve_with_assumptions(assumptions, budget) ==
//       SolveStatus::unsatisfiable)
//     use(engine->failed_assumptions());
//   engine->pop_group(g);
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cnf/cnf_formula.h"
#include "cnf/literal.h"
#include "core/solver_types.h"

namespace berkmin {

namespace telemetry {
class SolverTelemetry;
}

// Shape of the clause database after the last solve, as a JobResult
// reports it.
struct DatabaseShape {
  std::uint64_t max_live_clauses = 0;
  std::uint64_t initial_clauses = 0;
  // Identical binaries dropped at import time (zero for an engine that
  // never imports).
  std::uint64_t duplicate_binaries_skipped = 0;
};

class IncrementalSolver {
 public:
  virtual ~IncrementalSolver() = default;

  // ---- variables and clauses (external numbering) -----------------------
  virtual Var new_var() = 0;
  virtual int num_vars() const = 0;
  // Adds a clause to the innermost open group (the root formula when none
  // is open). Returns false when the engine already knows the formula is
  // unsatisfiable at the root.
  virtual bool add_clause(std::span<const Lit> lits) = 0;
  virtual bool load(const Cnf& cnf) = 0;

  // ---- named clause groups ----------------------------------------------
  // push_group returns the new group's handle, or no_group when the engine
  // cannot serve groups in its configuration. Groups retract in any order;
  // the calls below return false for a dead handle.
  virtual GroupId push_group() = 0;
  virtual bool pop_group(GroupId id) = 0;
  virtual bool add_clause_to_group(GroupId id, std::span<const Lit> lits) = 0;
  // Parks (false) or revives (true) a live group for later solves.
  virtual bool set_group_active(GroupId id, bool active) = 0;

  // ---- solving ------------------------------------------------------------
  // Solves under the assumptions and the active groups. `unknown` means the
  // budget ran out or a stop was requested; a budget stop is resumable.
  virtual SolveStatus solve_with_assumptions(
      std::span<const Lit> assumptions,
      const Budget& budget = Budget::unlimited()) = 0;
  // Thread-safe and sticky: a stop requested before a solve starts still
  // cancels it, and later solves stay cancelled until clear_stop().
  virtual void request_stop() = 0;
  virtual void clear_stop() = 0;

  // ---- results of the last solve -----------------------------------------
  // The model (satisfiable) or the failed subset of the caller's
  // assumptions (unsatisfiable).
  virtual const std::vector<Value>& model() const = 0;
  virtual const std::vector<Lit>& failed_assumptions() const = 0;
  // Work done by the last solve call alone.
  virtual const SliceStats& last_slice() const = 0;
  virtual DatabaseShape database_shape() const = 0;
  // Cumulative search statistics (group counters included).
  virtual const SolverStats& stats() const = 0;

  // Attaches the calling thread's telemetry sink for the next solves
  // (nullptr detaches). An engine whose work runs on its own threads
  // reports through its own sinks and ignores this.
  virtual void set_telemetry(const telemetry::SolverTelemetry* sink) = 0;
};

}  // namespace berkmin
