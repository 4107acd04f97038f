// model_check: BMC and IC3 at 1 thread over an in-process SolverBackend.
//
// The circuits are lockstep counter pairs (circuits.h): safe ones, and
// fault-injected ones whose broken carry bit sets the counterexample
// depth. Ground truth comes from explicit-state search
// (TransitionSystem::reachable_bad_step) on the 8-bit pairs and from the
// construction on the 16-bit ones. IC3 certifies its invariants; every
// counterexample is replayed by simulation. Inprocessing stays off, as in
// the engines' default solver configuration.
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits.h"
#include "core/solver.h"
#include "engines/bmc.h"
#include "engines/ic3.h"
#include "engines/transition_system.h"
#include "spans.h"
#include "telemetry/solver_telemetry.h"
#include "traced_backend.h"
#include "workload_util.h"

namespace perfbench {
namespace {

using berkmin::engines::EngineResult;
using berkmin::engines::Verdict;

struct Case {
  std::string name;
  std::unique_ptr<berkmin::engines::TransitionSystem> ts;
  std::optional<int> bad_depth;  // ground truth: shortest counterexample
  int bmc_bound = 0;
};

// Width, fault bit and BMC bound of each case shape. Every shape runs
// with each carry style; the seed shuffles the latch order of every case,
// which renumbers the solver's variables (and so changes its search)
// without changing the verdict or the counterexample depth.
struct CaseShape {
  int width;
  int fault_bit;
  int bmc_bound;
};
constexpr int kShuffles = 2;  // latch orders per (shape, style)
constexpr CaseShape kShapes[] = {
    {16, 0, 40}, {16, 5, 40}, {16, 6, 40}, {8, 0, 30}, {8, 4, 30},
};

void check_result(const Case& c, const char* engine, const EngineResult& r) {
  const std::string who = c.name + " (" + engine + ")";
  if (r.verdict == Verdict::unsafe) {
    if (!c.bad_depth.has_value()) wrong_answer(who + ": unsafe on a safe system");
    if (!r.cex.has_value() || !r.cex_validated ||
        !c.ts->trace_reaches_bad(r.cex->inputs)) {
      wrong_answer(who + ": counterexample does not replay");
    }
    if (r.cex->depth() < *c.bad_depth) {
      wrong_answer(who + ": counterexample shorter than the shortest one");
    }
    if (std::string(engine) == "bmc" && r.cex->depth() != *c.bad_depth) {
      wrong_answer(who + ": BMC missed the shortest counterexample");
    }
  } else if (r.verdict == Verdict::safe_bounded) {
    if (c.bad_depth.has_value() && *c.bad_depth <= r.bound) {
      wrong_answer(who + ": bounded-safe past the counterexample depth");
    }
  } else if (r.verdict == Verdict::safe_invariant) {
    if (c.bad_depth.has_value()) wrong_answer(who + ": proved a buggy system safe");
    if (!r.certified) wrong_answer(who + ": invariant not certified");
  }
}

Case make_case(const CaseShape& shape, int style, std::uint64_t shuffle_seed) {
  LockstepParams p;
  p.width = shape.width;
  p.fault_bit = shape.fault_bit;
  p.style = static_cast<CarryStyle>(style);
  p.shuffle_seed = shuffle_seed;
  Case c;
  c.name = "lockstep" + std::to_string(p.width) + "_style" +
           std::to_string(style) + "_fault" + std::to_string(p.fault_bit);
  c.ts = std::make_unique<berkmin::engines::TransitionSystem>(lockstep_counters(p));
  c.bad_depth = lockstep_bad_depth(p);
  if (2 * p.width <= 22 && c.ts->reachable_bad_step() != c.bad_depth) {
    throw std::logic_error(c.name + ": construction and search disagree");
  }
  c.bmc_bound = shape.bmc_bound;
  return c;
}

class ModelCheck final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    cases_.clear();
    std::uint64_t index = 0;
    for (int copy = 0; copy < kShuffles; ++copy) {
      for (const CaseShape& shape : kShapes) {
        for (int style = 0; style < kNumCarryStyles; ++style) {
          cases_.push_back(make_case(shape, style, seed * 1000 + ++index));
        }
      }
    }
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
    std::vector<double> query_us;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      ScopedSpan case_span(tracer, "case", i);
      for (const bool ic3 : {false, true}) {
        const std::size_t op = 2 * i + (ic3 ? 1 : 0);
        const double w0 = now_seconds();
        const double cpu0 = process_cpu_seconds();
        ++ops->attempted;
        berkmin::Solver solver;
        if (sink) solver.set_telemetry(sink.get());
        berkmin::engines::SolverBackend direct(solver);
        std::unique_ptr<TracedBackend> traced;
        if (tracer != nullptr) traced = std::make_unique<TracedBackend>(direct, tracer);
        berkmin::engines::EngineBackend& backend =
            traced ? static_cast<berkmin::engines::EngineBackend&>(*traced) : direct;
        EngineResult result;
        const double t0 = now_seconds();
        {
          ScopedSpan run_span(tracer, ic3 ? "ic3_run" : "bmc_run", i);
          if (ic3) {
            berkmin::engines::Ic3Options options;
            options.certify = true;
            // The 16-bit safe pairs need 56-73 frames depending on the
            // latch order; the default cap of 64 would turn some into
            // unknowns.
            options.max_frames = 256;
            result = berkmin::engines::Ic3Engine(*c.ts, backend, options).run();
          } else {
            berkmin::engines::BmcOptions options;
            options.bound = c.bmc_bound;
            result = berkmin::engines::BmcEngine(*c.ts, backend, options).run();
          }
        }
        const double took = now_seconds() - t0;
        add_op(s, ic3 ? "ic3_s" : "bmc_s", op, took);
        add_op(s, "verdict_s", op, took);
        latencies.push_back(took);
        if (traced) {
          query_us.insert(query_us.end(), traced->query_us().begin(),
                          traced->query_us().end());
        }
        {
          ScopedSpan check_span(tracer, "replay_check", i);
          check_result(c, ic3 ? "ic3" : "bmc", result);
        }
        add_op(s, "wall_s", op, now_seconds() - w0);
        add_op(s, "cpu_s", op, process_cpu_seconds() - cpu0);
        if (result.verdict == Verdict::unknown) ++ops->failed;
        add_core_stats(s, solver.stats());
        s["engines.queries"] += static_cast<double>(result.stats.solves);
        s["engines.obligations"] += static_cast<double>(result.stats.obligations);
        s["engines.frames"] += static_cast<double>(result.stats.frames);
        s["engines.generalization_drops"] +=
            static_cast<double>(result.stats.generalization_drops);
      }
    }
    s["latency_p50_s"] = quantile(latencies, 0.5);
    s["latency_p90_s"] = quantile(latencies, 0.9);
    if (tracer == nullptr) {
      finish_core_stats(s, 0.0);
      return s;
    }
    const std::vector<Span> spans = tracer->spans();
    const auto totals = total_seconds_by_name(spans);
    const auto get = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second;
    };
    const double query_s = get("query");
    const double edit_s = get("edit.new_vars") + get("edit.add") +
                          get("edit.push") + get("edit.pop") +
                          get("edit.activate");
    finish_core_stats(s, query_s);
    add_phase_totals(s, *hub, query_s);
    s["engines.solve_s"] = query_s;
    s["engines.edit_s"] = edit_s;
    s["engines.self_s"] = get("bmc_run") + get("ic3_run") - query_s - edit_s;
    s["engines.query_us_p50"] = quantile(query_us, 0.5);
    s["engines.query_us_p99"] = quantile(query_us, 0.99);
    return s;
  }

 private:
  std::vector<Case> cases_;
};

}  // namespace

std::unique_ptr<Workload> make_model_check() {
  return std::make_unique<ModelCheck>();
}

}  // namespace perfbench
