// Unit tests of the benchmark's own machinery: span nesting and self time,
// quantiles, metric units, and the lockstep-counter ground truth.
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "circuits.h"
#include "engines/transition_system.h"
#include "metrics.h"
#include "spans.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK(" #cond ") failed\n"; \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span span(const char* name, int parent, std::int64_t start,
                     std::int64_t end) {
  perfbench::Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_times_partition_a_sequential_tree() {
  // root [0,100]: a [10,40] (with a.x [15,20]), b [50,90].
  const std::vector<perfbench::Span> spans = {
      span("root", -1, 0, 100), span("a", 0, 10, 40), span("x", 1, 15, 20),
      span("b", 0, 50, 90)};
  CHECK(perfbench::check_nesting(spans).empty());
  const std::vector<double> self = perfbench::self_seconds(spans);
  CHECK(near(self[0], 30e-9));
  CHECK(near(self[1], 25e-9));
  CHECK(near(self[2], 5e-9));
  CHECK(near(self[3], 40e-9));
  double sum = 0;
  for (const double s : self) sum += s;
  CHECK(near(sum, spans[0].seconds()));
}

void test_overlapping_children_count_once() {
  const std::vector<perfbench::Span> spans = {
      span("root", -1, 0, 100), span("c1", 0, 10, 60), span("c2", 0, 40, 80)};
  CHECK(perfbench::check_nesting(spans).empty());
  const std::vector<double> self = perfbench::self_seconds(spans);
  CHECK(near(self[0], 30e-9));  // 100 minus the union [10,80]
  for (const double s : self) CHECK(s >= 0);
}

void test_nesting_violations_are_reported() {
  CHECK(!perfbench::check_nesting({span("root", -1, 0, 10), span("late", 0, 5, 11)})
             .empty());
  CHECK(!perfbench::check_nesting({span("open", -1, 0, -1)}).empty());
  CHECK(!perfbench::check_nesting({span("self-parent", 0, 0, 1)}).empty());
}

void test_tracer_nests_across_threads() {
  perfbench::Tracer tracer;
  {
    perfbench::ScopedSpan root(&tracer, "root");
    { perfbench::ScopedSpan child(&tracer, "child", 7); }
    const int parent = perfbench::Tracer::current();
    std::thread worker([&] {
      const int s = tracer.open_under(parent, "remote");
      { perfbench::ScopedSpan inner(&tracer, "remote_child"); }
      tracer.close(s);
    });
    worker.join();
    const std::int64_t now = perfbench::monotonic_ns();
    tracer.record(parent, "recorded", 9, now, now);
  }
  const std::vector<perfbench::Span> spans = tracer.spans();
  CHECK(spans.size() == 5);
  CHECK(perfbench::check_nesting(spans).empty());
  CHECK(spans[1].parent == 0 && spans[1].id == 7);
  CHECK(spans[2].parent == 0);
  CHECK(spans[3].parent == 2);  // joined the remote span's thread stack
  CHECK(perfbench::Tracer::current() == -1);
  double sum = 0;
  for (const double s : perfbench::self_seconds(spans)) {
    CHECK(s >= 0);
    sum += s;
  }
  CHECK(std::fabs(sum - spans[0].seconds()) < 1e-9);
}

void test_quantiles() {
  CHECK(near(perfbench::median({3, 1, 2}), 2));
  CHECK(near(perfbench::quantile({1, 2, 3, 4}, 0.5), 2.5));
  CHECK(near(perfbench::quantile({1, 2, 3, 4}, 1.0), 4));
  CHECK(near(perfbench::quantile({}, 0.9), 0));
}

void test_units() {
  CHECK(perfbench::unit_of("wall_s") == "s");
  CHECK(perfbench::unit_of("verdict_s.t2") == "s");
  CHECK(perfbench::unit_of("service.queue_s_p90") == "s");
  CHECK(perfbench::unit_of("engines.query_us_p99") == "us");
  CHECK(perfbench::unit_of("core.props_per_s") == "1/s");
  CHECK(perfbench::unit_of("cnf.parse_mb_per_s") == "MB/s");
  CHECK(perfbench::unit_of("peak_rss_mb") == "MB");
  CHECK(perfbench::unit_of("failed_frac") == "frac");
  CHECK(perfbench::unit_of("portfolio.scaling_t4") == "ratio");
  CHECK(perfbench::unit_of("portfolio.import_per_export") == "ratio");
  CHECK(perfbench::unit_of("core.max_live_clauses") == "count");
}

void test_lockstep_ground_truth() {
  // Explicit-state search agrees with the construction for every carry
  // style, fault bit and latch order at a width BFS can handle.
  for (int style = 0; style < perfbench::kNumCarryStyles; ++style) {
    for (int fault = 0; fault < 6; ++fault) {
      for (const std::uint64_t shuffle : {0, 17}) {
        perfbench::LockstepParams p;
        p.width = 6;
        p.style = static_cast<perfbench::CarryStyle>(style);
        p.fault_bit = fault;
        p.shuffle_seed = shuffle;
        const berkmin::engines::TransitionSystem ts(perfbench::lockstep_counters(p));
        CHECK(ts.reachable_bad_step() == perfbench::lockstep_bad_depth(p));
      }
    }
  }
}

}  // namespace

int main() {
  test_self_times_partition_a_sequential_tree();
  test_overlapping_children_count_once();
  test_nesting_violations_are_reported();
  test_tracer_nests_across_threads();
  test_quantiles();
  test_units();
  test_lockstep_ground_truth();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench unit tests passed\n";
  return 0;
}
