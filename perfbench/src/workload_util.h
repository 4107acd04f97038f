// Helpers shared by the workloads: paper-family inputs with their
// expected verdicts, the answer checks, and the core/telemetry counters
// every workload reports under the same names.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "cnf/cnf_formula.h"
#include "core/options.h"
#include "core/solver_types.h"
#include "gen/registry.h"
#include "telemetry/telemetry.h"

namespace perfbench {

struct Instance {
  std::string name;
  berkmin::Cnf cnf;
  berkmin::gen::Expectation expected = berkmin::gen::Expectation::unknown;
  std::string dimacs;  // the CNF as DIMACS text, when serialized at set-up
};

// Generates instances from the library's generator registry
// (gen::generate_from_spec). In a spec, "{s}" stands for a generator seed
// drawn from `seed` and the spec's position in the list, and "{i}" for a
// seed fixed by the position alone. Families whose solve or generation
// time has a heavy tail across generator seeds (miters, BMC unrollings,
// buggy pipelines) use "{i}": a different workload seed must not swap in
// a ten-times-harder instance.
// `serialize` also fills Instance::dimacs. Throws on a bad spec.
std::vector<Instance> spec_instances(std::uint64_t seed,
                                     const std::vector<std::string>& specs,
                                     bool serialize = true);

// The command-line solver's single-thread configuration: the BerkMin
// preset with inprocessing and bounded variable elimination on.
berkmin::SolverOptions cli_options();

// Checks a definitive answer against the instance: a model must satisfy
// the original formula, and the verdict must match a known expectation.
// Aborts the run on a wrong answer. `model` may be empty for UNSAT.
void check_verdict(const Instance& instance, berkmin::SolveStatus status,
                   const std::vector<berkmin::Value>& model);

// Adds the solver's work counters to `sample` under the core.* names.
void add_core_stats(Sample& sample, const berkmin::SolverStats& stats);
// Derives core.inprocess_yield from the summed counters and, when
// `solve_s` (seconds inside solve calls) is known, core.solve_s and the
// per-second rates.
void finish_core_stats(Sample& sample, double solve_s);

// Adds core.phase.*_s from the hub's phase totals; the part of `solve_s`
// (the solve time the hub observed) that the four top-level phases do
// not cover becomes core.phase.dark_s.
void add_phase_totals(Sample& sample, const berkmin::telemetry::Telemetry& hub,
                      double solve_s);

}  // namespace perfbench
