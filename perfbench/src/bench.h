// Shared plumbing of the repository benchmark: options, per-round metric
// samples, wall/CPU clocks, quantiles and the wrong-answer gate.
//
// A workload is run as repeated *rounds* over one fixed, seed-generated
// input set. Each round returns a Sample (metric name -> value); main.cpp
// reports the median of every metric over the rounds of one run, so a
// run's figures do not hinge on one noisy round.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // traced runs: where the last round's spans go
};

// One round's measurements, by metric name. The unit follows from the
// name (metrics.h), so a name means the same thing in every workload.
using Sample = std::map<std::string, double>;

// Records one operation's share of an additive metric (wall_s, cpu_s,
// verdict_s, ...). For such a metric a run reports the sum over operations
// of each operation's median across rounds, which a burst of machine
// noise inside one round moves less than it moves the round's total.
// `op` must name the same operation in every round.
void add_op(Sample& sample, const std::string& metric, std::size_t op, double value);

// Operations a round attempted and how many ended without an answer
// (unknown, refused, deadline, error). A wrong answer never lands here:
// it aborts the run through wrong_answer().
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// A workload's inputs are built once per set-up; rounds then reuse them.
class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the inputs from the seed (and starts pools or services).
  virtual void setup(std::uint64_t seed) = 0;
  // Runs every input once, checks every answer, and returns the round's
  // metrics. `tracer` is null in untraced rounds.
  virtual Sample round(Tracer* tracer, OpCount* ops) = 0;
  // Releases what setup() started (called before a repeated set-up).
  virtual void teardown() {}
};

std::unique_ptr<Workload> make_oneshot();
std::unique_ptr<Workload> make_model_check();
std::unique_ptr<Workload> make_service_mix();
std::unique_ptr<Workload> make_portfolio();

// Seconds on a monotonic clock.
double now_seconds();
// User + system CPU seconds of the whole process (all threads).
double process_cpu_seconds();
// Peak resident set of the process, in MiB.
double peak_rss_mb();

double median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> values, double q);

// Prints the reason and exits with status 3: a wrong answer is never
// counted as a mere failure.
[[noreturn]] void wrong_answer(const std::string& what);

}  // namespace perfbench
