#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {
namespace {

// This thread's open spans, innermost last.
thread_local std::vector<int> open_stack;

}  // namespace

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::current() { return open_stack.empty() ? -1 : open_stack.back(); }

int Tracer::open(const char* name, std::uint64_t id) {
  return open_under(current(), name, id);
}

int Tracer::open_under(int parent, const char* name, std::uint64_t id) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.id = id;
  span.start_ns = monotonic_ns();
  int index;
  {
    std::lock_guard<std::mutex> guard(mu_);
    spans_.push_back(span);
    index = static_cast<int>(spans_.size()) - 1;
  }
  open_stack.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const std::int64_t end = monotonic_ns();
  if (!open_stack.empty() && open_stack.back() == index) open_stack.pop_back();
  std::lock_guard<std::mutex> guard(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

int Tracer::record(int parent, const char* name, std::uint64_t id,
                   std::int64_t start_ns, std::int64_t end_ns) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.id = id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  std::lock_guard<std::mutex> guard(mu_);
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> guard(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> guard(mu_);
  spans_.clear();
}

std::string check_nesting(const std::vector<Span>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string where = "span " + std::to_string(i) + " (" + s.name + ")";
    if (s.end_ns < s.start_ns) return where + " is open or ends before it starts";
    if (s.parent < -1 || s.parent >= static_cast<int>(i)) {
      return where + " has an invalid parent " + std::to_string(s.parent);
    }
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        return where + " lies outside its parent (" + p.name + ")";
      }
    }
  }
  return {};
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                 s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the span.
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, double> total_seconds_by_name(const std::vector<Span>& spans) {
  std::map<std::string, double> totals;
  for (const Span& s : spans) totals[s.name] += s.seconds();
  return totals;
}

bool write_spans_jsonl(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - origin
        << ",\"end_ns\":" << s.end_ns - origin << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
