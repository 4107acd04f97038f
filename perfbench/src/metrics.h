// The run record: every metric a run measured, by name, with its unit.
//
// perfbench writes one JSON object per run; perfbench/run.py picks the
// metrics BENCHMARK.json names out of it for the result line, and
// perfbench/compare.py diffs whole records.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "bench.h"

namespace perfbench {

// Unit of a metric, from the naming convention: `_s` seconds, `_mb` MiB,
// `_us_*` microseconds, `_per_s` a rate, `_frac` a fraction; counts and
// ratios otherwise.
std::string unit_of(const std::string& name);

struct RunRecord {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  OpCount ops;
  int rounds = 0;
  Sample medians;      // median over the run's rounds
  Sample first_round;  // the exact counts of round 1, for determinism checks
};

void write_record(std::ostream& out, const RunRecord& record);

}  // namespace perfbench
