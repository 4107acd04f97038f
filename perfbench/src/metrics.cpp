#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <ostream>

namespace perfbench {
namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void write_sample(std::ostream& out, const Sample& sample) {
  out << "{";
  bool first = true;
  for (const auto& [name, value] : sample) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << unit_of(name) << "\"}";
    first = false;
  }
  out << "}";
}

}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_op(Sample& sample, const std::string& metric, std::size_t op, double value) {
  sample[metric + "#" + std::to_string(op)] = value;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void wrong_answer(const std::string& what) {
  std::cerr << "perfbench: WRONG ANSWER: " << what << std::endl;
  std::_Exit(3);
}

std::string unit_of(const std::string& name) {
  if (ends_with(name, "_mb_per_s")) return "MB/s";
  if (ends_with(name, "_per_s")) return "1/s";
  if (ends_with(name, "_mb")) return "MB";
  if (name.find("_us_") != std::string::npos) return "us";
  if (ends_with(name, "_frac") || ends_with(name, "_util") ||
      ends_with(name, "_share")) {
    return "frac";
  }
  if (name.find("_s_") != std::string::npos || ends_with(name, "_s") ||
      name.find("_s.") != std::string::npos) {
    return "s";
  }
  if (name.find("scaling") != std::string::npos ||
      name.find("_per_") != std::string::npos ||
      ends_with(name, "_yield")) {
    return "ratio";
  }
  return "count";
}

void write_record(std::ostream& out, const RunRecord& record) {
  out << std::setprecision(17);
  out << "{\"workload\": \"" << record.workload << "\", \"seed\": " << record.seed
      << ", \"trace\": " << (record.trace ? 1 : 0)
      // A wrong answer ends the run before a record is written.
      << ", \"correct\": true"
      << ", \"attempted\": " << record.ops.attempted
      << ", \"failed\": " << record.ops.failed << ", \"rounds\": " << record.rounds
      << ", \"metrics\": ";
  write_sample(out, record.medians);
  out << ", \"first_round\": ";
  write_sample(out, record.first_round);
  out << "}\n";
}

}  // namespace perfbench
