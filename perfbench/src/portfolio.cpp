// portfolio: PortfolioSolver at 2 and 4 threads on the harder paper
// instances, as the command-line user with --threads N runs it: parse ->
// load -> race, the default diversified lineup, inprocessing on and
// variable elimination off, clause exchange on. Models are validated and
// verdicts compared with the generators' expectations.
//
// Runs are nondeterministic (the race and the exchange depend on thread
// timing), so a round sums many instances and the run reports medians.
// Traced rounds add a 1-thread pass to measure scaling against.
#include <map>
#include <memory>

#include "cnf/dimacs.h"
#include "portfolio/portfolio.h"
#include "spans.h"
#include "workload_util.h"

namespace perfbench {
namespace {

using berkmin::SolveStatus;

// The harder end of the paper families at bench scale 2, 0.1-1.2 s each
// at one thread. hole9 and the bench-scale miters are left out: their
// race times swing by several times from run to run or seed to seed.
const std::vector<std::string> kInstances = {
    "hole:8", "pipe:8:2:unsat:{s}:1:0", "hanoi:6", "mult:6:1", "adder:24:1:1",
    "pipe:7:2:unsat:{s}:1:0", "pipe:7:2:unsat:{s}:1:0",
    "miter:15:200:unsat:{i}:60", "miter:15:200:unsat:{i}:60",
    "miter:15:200:unsat:{i}:60", "miter:15:200:unsat:{i}:60"};

class Portfolio final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    instances_ = spec_instances(seed, kInstances);
  }

  Sample round(Tracer* tracer, OpCount* ops) override {
    Sample s;
    std::unique_ptr<berkmin::telemetry::Telemetry> hub;
    if (tracer != nullptr) hub = std::make_unique<berkmin::telemetry::Telemetry>();
    std::vector<double> latencies;
    double exported = 0, imported = 0, published = 0, accepted = 0;
    double winner_conflicts = 0, all_conflicts = 0;
    double solve_cpu = 0, solve_capacity = 0, worker_s = 0;
    std::map<int, double> verdict_by_threads;
    std::vector<int> thread_counts = {2, 4};
    if (tracer != nullptr) thread_counts.insert(thread_counts.begin(), 1);
    for (const int threads : thread_counts) {
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        const Instance& inst = instances_[i];
        const std::uint64_t id = static_cast<std::uint64_t>(threads) * 1000 + i;
        ScopedSpan instance_span(tracer, "instance", id);
        ++ops->attempted;
        const double t0 = now_seconds();
        const double cpu0 = process_cpu_seconds();
        berkmin::dimacs::ParseResult parsed;
        {
          ScopedSpan span(tracer, "parse", id);
          parsed = berkmin::dimacs::read_checked_string(inst.dimacs);
        }
        if (!parsed.ok()) wrong_answer(inst.name + ": " + parsed.first_error());
        berkmin::portfolio::PortfolioOptions popts;
        popts.num_threads = threads;
        popts.base_seed = berkmin::SolverOptions::berkmin().seed;
        popts.configs = berkmin::portfolio::diversified_configs(threads, popts.base_seed);
        for (berkmin::portfolio::WorkerConfig& config : popts.configs) {
          config.options.inprocess.enabled = true;
          config.options.inprocess.var_elim = false;
        }
        popts.telemetry = hub.get();
        berkmin::portfolio::PortfolioSolver solver(popts);
        {
          ScopedSpan span(tracer, "load", id);
          solver.load(parsed.cnf);
        }
        SolveStatus status;
        const double solve_start = now_seconds();
        const double solve_cpu_start = process_cpu_seconds();
        {
          ScopedSpan span(tracer, "portfolio_solve", id);
          status = solver.solve(berkmin::Budget::wall_clock(60.0));
        }
        const double answered = now_seconds();
        solve_cpu += process_cpu_seconds() - solve_cpu_start;
        solve_capacity += threads * (answered - solve_start);
        verdict_by_threads[threads] += answered - t0;
        if (threads > 1) {
          exported += static_cast<double>(solver.clauses_exported());
          imported += static_cast<double>(solver.clauses_imported());
          published += static_cast<double>(solver.exchange_stats().published);
          accepted += static_cast<double>(solver.exchange_stats().accepted);
        }
        for (std::size_t w = 0; w < solver.reports().size(); ++w) {
          const auto& report = solver.reports()[w];
          add_core_stats(s, report.stats);
          worker_s += report.seconds;
          all_conflicts += static_cast<double>(report.stats.conflicts);
          if (static_cast<int>(w) == solver.winner()) {
            winner_conflicts += static_cast<double>(report.stats.conflicts);
          }
        }
        if (status == SolveStatus::unknown) {
          ++ops->failed;
        } else {
          ScopedSpan span(tracer, "validate_model", id);
          check_verdict(inst, status, solver.model());
        }
        // The end-to-end figures cover the 2- and 4-thread races only, so
        // traced rounds (which add a 1-thread pass) compare with untraced.
        if (threads == 1) continue;
        add_op(s, "verdict_s", id, answered - t0);
        add_op(s, threads == 2 ? "verdict_s.t2" : "verdict_s.t4", id, answered - t0);
        add_op(s, "wall_s", id, now_seconds() - t0);
        add_op(s, "cpu_s", id, process_cpu_seconds() - cpu0);
        latencies.push_back(answered - t0);
      }
    }
    s["latency_p50_s"] = quantile(latencies, 0.5);
    s["latency_p90_s"] = quantile(latencies, 0.9);
    if (tracer == nullptr) {
      finish_core_stats(s, 0.0);
      return s;
    }
    const auto totals = total_seconds_by_name(tracer->spans());
    const auto get = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second;
    };
    finish_core_stats(s, get("portfolio_solve"));
    // The hub's phase totals add up over the workers' threads, so the
    // uncovered remainder is taken against the workers' summed solve time.
    add_phase_totals(s, *hub, worker_s);
    s["cnf.parse_s"] = get("parse");
    s["cnf.model_check_s"] = get("validate_model");
    s["core.load_s"] = get("load");
    s["portfolio.cpu_util"] = solve_capacity > 0 ? solve_cpu / solve_capacity : 0.0;
    s["portfolio.exported"] = exported;
    s["portfolio.imported"] = imported;
    s["portfolio.import_per_export"] = exported > 0 ? imported / exported : 0.0;
    s["portfolio.exchange_accept_frac"] = published > 0 ? accepted / published : 0.0;
    s["portfolio.winner_share"] =
        all_conflicts > 0 ? winner_conflicts / all_conflicts : 0.0;
    s["portfolio.scaling_t2"] = verdict_by_threads[1] / verdict_by_threads[2];
    s["portfolio.scaling_t4"] = verdict_by_threads[1] / verdict_by_threads[4];
    return s;
  }

 private:
  std::vector<Instance> instances_;
};

}  // namespace

std::unique_ptr<Workload> make_portfolio() { return std::make_unique<Portfolio>(); }

}  // namespace perfbench
