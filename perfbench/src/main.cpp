// perfbench: runs one workload of the repository benchmark and prints its
// run record (every metric measured, by name and unit) as one JSON line.
//
//   perfbench --workload oneshot|model_check|service_mix|portfolio
//             --seed N --seconds S --trace 0|1 [--spans FILE]
//
// The set-up (input generation, serialization, service start) runs nine
// times and setup_s is the median. Rounds then repeat until S seconds have
// passed, and each metric is the median over the rounds.
//
// --trace 1 alternates untraced and traced rounds: the traced ones record
// spans around every call into the library and attach the telemetry hub,
// and give the per-layer metrics; the untraced ones give the wall time
// the trace overhead is measured against. The last traced round's spans
// are written to FILE.
//
// Exit codes: 0 success, 2 usage, 3 wrong answer, 4 broken trace.
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.h"
#include "spans.h"

namespace perfbench {
namespace {

constexpr int kSetups = 9;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opts.workload = value;
      } else if (key == "--seed") {
        opts.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (key == "--trace") {
        opts.trace = std::stoi(value) != 0;
      } else if (key == "--spans") {
        opts.spans_path = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (opts.workload.empty()) usage("--workload is required");
  return opts;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "oneshot") return make_oneshot();
  if (name == "model_check") return make_model_check();
  if (name == "service_mix") return make_service_mix();
  if (name == "portfolio") return make_portfolio();
  usage("unknown workload " + name);
}

// Folds per-operation entries ("metric#op", see add_op) into their metric.
Sample fold_ops(const Sample& sample) {
  Sample out;
  for (const auto& [name, value] : sample) {
    out[name.substr(0, name.find('#'))] += value;
  }
  return out;
}

// Median of every metric over the rounds; per-operation entries take their
// median first and are then summed.
Sample medians_of(const std::vector<Sample>& samples) {
  std::map<std::string, std::vector<double>> columns;
  for (const Sample& sample : samples) {
    for (const auto& [name, value] : sample) columns[name].push_back(value);
  }
  Sample out;
  for (auto& [name, values] : columns) out[name] = median(std::move(values));
  return fold_ops(out);
}

// Runs one traced round and checks the span invariants the per-layer
// numbers rest on: every child inside its parent, no negative self time.
Sample traced_round(Workload& workload, Tracer& tracer, OpCount* ops) {
  tracer.clear();
  Sample sample;
  {
    ScopedSpan round(&tracer, "round");
    sample = workload.round(&tracer, ops);
  }
  const std::vector<Span> spans = tracer.spans();
  if (const std::string error = check_nesting(spans); !error.empty()) {
    std::cerr << "perfbench: broken trace: " << error << std::endl;
    std::exit(4);
  }
  for (const double self : self_seconds(spans)) {
    if (self < 0) {
      std::cerr << "perfbench: broken trace: negative self time" << std::endl;
      std::exit(4);
    }
  }
  return sample;
}

int run(const Options& opts) {
  std::unique_ptr<Workload> workload = make_workload(opts.workload);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) workload->teardown();
    const double t0 = now_seconds();
    workload->setup(opts.seed);
    setups.push_back(now_seconds() - t0);
  }

  RunRecord record;
  record.workload = opts.workload;
  record.seed = opts.seed;
  record.trace = opts.trace;
  Tracer tracer;
  std::vector<Sample> plain;
  std::vector<Sample> traced;
  const double deadline = now_seconds() + opts.seconds;
  do {
    plain.push_back(workload->round(nullptr, &record.ops));
    if (opts.trace) traced.push_back(traced_round(*workload, tracer, &record.ops));
  } while (now_seconds() < deadline);
  workload->teardown();

  if (opts.trace) {
    record.rounds = static_cast<int>(traced.size());
    record.medians = medians_of(traced);
    record.first_round = fold_ops(traced.front());
    const double plain_wall = medians_of(plain)["wall_s"];
    record.medians["telemetry.trace_overhead_frac"] =
        plain_wall > 0 ? record.medians["wall_s"] / plain_wall - 1.0 : 0.0;
    if (!opts.spans_path.empty() &&
        !write_spans_jsonl(tracer.spans(), opts.spans_path)) {
      std::cerr << "perfbench: cannot write " << opts.spans_path << std::endl;
      return 2;
    }
  } else {
    record.rounds = static_cast<int>(plain.size());
    record.medians = medians_of(plain);
    record.first_round = fold_ops(plain.front());
  }
  record.medians["setup_s"] = median(setups);
  record.medians["peak_rss_mb"] = peak_rss_mb();
  record.medians["failed_frac"] =
      record.ops.attempted > 0 ? static_cast<double>(record.ops.failed) /
                                     static_cast<double>(record.ops.attempted)
                               : 0.0;
  write_record(std::cout, record);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << ex.what() << std::endl;
    return 2;
  }
}
