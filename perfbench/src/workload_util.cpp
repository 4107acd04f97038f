#include "workload_util.h"

#include <optional>
#include <stdexcept>

#include "cnf/dimacs.h"
#include "telemetry/phase.h"

namespace perfbench {

using berkmin::gen::Expectation;

std::vector<Instance> spec_instances(std::uint64_t seed,
                                     const std::vector<std::string>& specs,
                                     bool serialize) {
  std::vector<Instance> out;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::string spec = specs[i];
    if (const std::size_t at = spec.find("{s}"); at != std::string::npos) {
      spec.replace(at, 3, std::to_string(seed * 1000 + i));
    }
    if (const std::size_t at = spec.find("{i}"); at != std::string::npos) {
      spec.replace(at, 3, std::to_string(i));
    }
    std::string error;
    std::optional<berkmin::gen::GeneratedInstance> generated =
        berkmin::gen::generate_from_spec(spec, &error);
    if (!generated) throw std::invalid_argument("perfbench: " + error);
    Instance inst{spec, std::move(generated->cnf), generated->expected, {}};
    if (serialize) inst.dimacs = berkmin::dimacs::write_string(inst.cnf);
    out.push_back(std::move(inst));
  }
  return out;
}

berkmin::SolverOptions cli_options() {
  berkmin::SolverOptions options = berkmin::SolverOptions::berkmin();
  options.inprocess.enabled = true;
  options.inprocess.var_elim = true;
  return options;
}

void check_verdict(const Instance& instance, berkmin::SolveStatus status,
                   const std::vector<berkmin::Value>& model) {
  if (status == berkmin::SolveStatus::satisfiable) {
    if (instance.expected == Expectation::unsat) {
      wrong_answer(instance.name + ": SAT on an unsatisfiable instance");
    }
    if (!instance.cnf.is_satisfied_by(model)) {
      wrong_answer(instance.name + ": model does not satisfy the formula");
    }
  } else if (status == berkmin::SolveStatus::unsatisfiable &&
             instance.expected == Expectation::sat) {
    wrong_answer(instance.name + ": UNSAT on a satisfiable instance");
  }
}

void add_core_stats(Sample& sample, const berkmin::SolverStats& stats) {
  const auto add = [&sample](const char* name, std::uint64_t value) {
    sample[name] += static_cast<double>(value);
  };
  add("core.conflicts", stats.conflicts);
  add("core.decisions", stats.decisions);
  add("core.propagations", stats.propagations);
  add("core.restarts", stats.restarts);
  add("core.reductions", stats.reductions);
  add("core.learned_clauses", stats.learned_clauses);
  add("core.deleted_clauses", stats.deleted_clauses);
  add("core.max_live_clauses", stats.max_live_clauses);
  add("core.inprocessings", stats.inprocessings);
  add("core.inprocess_items", stats.probed_units + stats.subsumed_clauses +
                                  stats.vivified_clauses + stats.eliminated_vars);
}

void finish_core_stats(Sample& sample, double solve_s) {
  const double passes = sample["core.inprocessings"];
  sample["core.inprocess_yield"] =
      passes > 0 ? sample["core.inprocess_items"] / passes : 0.0;
  sample.erase("core.inprocessings");
  sample.erase("core.inprocess_items");
  if (solve_s <= 0) return;
  sample["core.solve_s"] = solve_s;
  sample["core.props_per_s"] = sample["core.propagations"] / solve_s;
  sample["core.conflicts_per_s"] = sample["core.conflicts"] / solve_s;
}

void add_phase_totals(Sample& sample, const berkmin::telemetry::Telemetry& hub,
                      double solve_s) {
  using berkmin::telemetry::Phase;
  const auto secs = [&hub](Phase phase) {
    return static_cast<double>(hub.phases().totals(phase).ns) * 1e-9;
  };
  const double bcp = secs(Phase::bcp);
  const double analyze = secs(Phase::analyze);
  const double decide = secs(Phase::decide);
  const double reduce = secs(Phase::reduce);
  sample["core.phase.bcp_s"] = bcp;
  sample["core.phase.analyze_s"] = analyze;
  sample["core.phase.decide_s"] = decide;
  sample["core.phase.reduce_s"] = reduce;
  sample["core.phase.gc_s"] = secs(Phase::garbage_collect);
  sample["core.phase.dark_s"] = solve_s - (bcp + analyze + decide + reduce);
}

}  // namespace perfbench
