// oneshot: the command-line user who certifies every answer, at 1 thread.
//
// Each paper-family instance is serialized to DIMACS text during set-up.
// A round then takes every instance through parse -> Solver::load ->
// solve with the CLI's settings (BerkMin preset, inprocessing and
// variable elimination on), validates SAT models against the original
// formula and DRAT-checks every UNSAT answer from its in-memory trace.
#include <algorithm>
#include <memory>

#include "cnf/dimacs.h"
#include "core/solver.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"
#include "spans.h"
#include "telemetry/solver_telemetry.h"
#include "workload_util.h"

namespace perfbench {
namespace {

using berkmin::SolveStatus;

// The paper families at the paper-table benches' default scale (2), as
// generator specs. Solve times span 1 ms to 0.5 s and no one class
// dominates: hole9, hanoi6 and the larger pipes would each outweigh the
// rest, and the bench-scale miters' DRAT checks take tens of seconds on
// some generator seeds, so the miters run at their scale-1 size.
const std::vector<std::string> kInstances = {
    "hole:6", "hole:7", "hole:8",
    "blocks:8:10:sat:{s}", "blocks:8:11:sat:{s}", "blocks:8:2:unsat:{s}",
    "par:32:48:5:sat:{s}", "par:32:48:5:sat:{s}",
    "par:32:48:5:unsat:{s}", "par:32:48:5:unsat:{s}",
    "bmc:6:120:8:6:unsat:{i}", "bmc:6:120:8:6:unsat:{i}",
    "mult_mut:5:1:{s}",
    "pipe:7:2:unsat:{s}:1:0", "pipe:7:3:sat:{i}:1:1",
    "adder:24:0:1", "adder:24:1:1", "mult:5:1", "adder_mut:24:0:{s}",
    "adder_sum:16:{s}",
    "hanoi:4", "hanoi:5",
    "miter:15:200:unsat:{i}:60", "miter:15:200:unsat:{i}:60",
    "miter:15:200:unsat:{i}:60",
    "rand3:150:639:{s}", "rand3:150:639:{s}", "rand3:150:639:{s}",
    "rand3:150:639:{s}", "rand3:150:639:{s}", "rand3:150:639:{s}"};

class Oneshot final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    instances_ = spec_instances(seed, kInstances);
  }

  Sample round(Tracer* tracer, OpCount* ops) override {
    Sample s;
    std::unique_ptr<berkmin::telemetry::Telemetry> hub;
    std::unique_ptr<berkmin::telemetry::SolverTelemetry> sink;
    if (tracer != nullptr) {
      hub = std::make_unique<berkmin::telemetry::Telemetry>();
      sink = std::make_unique<berkmin::telemetry::SolverTelemetry>(*hub);
    }
    std::vector<double> latencies;
    double solve_s = 0;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const double t0 = now_seconds();
      const double cpu0 = process_cpu_seconds();
      const double verdict = run_instance(i, tracer, sink.get(), &s, ops, &solve_s);
      add_op(s, "verdict_s", i, verdict);
      add_op(s, "wall_s", i, now_seconds() - t0);
      add_op(s, "cpu_s", i, process_cpu_seconds() - cpu0);
      latencies.push_back(verdict);
    }
    s["latency_p50_s"] = quantile(latencies, 0.5);
    s["latency_p90_s"] = quantile(latencies, 0.9);
    finish_core_stats(s, solve_s);
    if (tracer == nullptr) return s;
    const auto totals = total_seconds_by_name(tracer->spans());
    const auto get = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second;
    };
    double text_bytes = 0;
    for (const Instance& inst : instances_) {
      text_bytes += static_cast<double>(inst.dimacs.size());
    }
    add_phase_totals(s, *hub, get("solve"));
    s["cnf.parse_s"] = get("parse");
    s["cnf.parse_mb_per_s"] =
        get("parse") > 0 ? text_bytes / (1024.0 * 1024.0) / get("parse") : 0.0;
    s["cnf.model_check_s"] = get("validate_model");
    s["core.load_s"] = get("load");
    s["proof.check_s"] = get("drat_check");
    return s;
  }

 private:
  // Takes instance i from text to a checked verdict; returns the seconds
  // from input to answer (before the check).
  double run_instance(std::size_t i, Tracer* tracer,
                      const berkmin::telemetry::SolverTelemetry* sink, Sample* s,
                      OpCount* ops, double* solve_s) {
    const Instance& inst = instances_[i];
    ScopedSpan instance_span(tracer, "instance", i);
    ++ops->attempted;
    const double t0 = now_seconds();
    berkmin::dimacs::ParseResult parsed;
    {
      ScopedSpan span(tracer, "parse", i);
      parsed = berkmin::dimacs::read_checked_string(inst.dimacs);
    }
    if (!parsed.ok()) wrong_answer(inst.name + ": " + parsed.first_error());
    berkmin::proof::MemoryProofWriter trace;
    berkmin::Solver solver(cli_options());
    solver.set_proof(&trace);
    solver.set_telemetry(sink);
    {
      ScopedSpan span(tracer, "load", i);
      solver.load(parsed.cnf);
    }
    SolveStatus status;
    const double solve_start = now_seconds();
    {
      ScopedSpan span(tracer, "solve", i);
      status = solver.solve(berkmin::Budget::wall_clock(60.0));
    }
    const double answered = now_seconds();
    *solve_s += answered - solve_start;
    add_core_stats(*s, solver.stats());
    (*s)["proof.trace_adds"] += static_cast<double>(trace.num_added());
    (*s)["proof.trace_deletes"] += static_cast<double>(trace.num_deleted());
    if (status == SolveStatus::unknown) {
      ++ops->failed;
    } else if (status == SolveStatus::satisfiable) {
      ScopedSpan span(tracer, "validate_model", i);
      check_verdict(inst, status, solver.model());
    } else {
      check_verdict(inst, status, {});
      ScopedSpan span(tracer, "drat_check", i);
      berkmin::proof::DratChecker checker(inst.cnf);
      const berkmin::proof::CheckResult check = checker.check(trace.proof());
      if (!check.valid || !check.derived_empty) {
        wrong_answer(inst.name + ": DRAT check failed: " + check.error);
      }
      double& peak = (*s)["proof.peak_live_clauses"];
      peak = std::max(peak, static_cast<double>(check.peak_live_clauses));
    }
    return answered - t0;
  }

  std::vector<Instance> instances_;
};

}  // namespace

std::unique_ptr<Workload> make_oneshot() { return std::make_unique<Oneshot>(); }

}  // namespace perfbench
