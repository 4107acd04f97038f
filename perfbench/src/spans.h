// In-memory spans recorded by the benchmark around each call it makes
// into a layer (parse, load, solve, check, engine runs, backend queries
// and edits, portfolio solves, service jobs and session queries).
//
// A span has a name, a start and end on the monotonic clock, the span
// that caused it, and the id of the instance, case, job or query it
// belongs to. Spans nest through a per-thread stack of open spans; a
// client thread joins another thread's tree with open_under, and an
// interval timed elsewhere (a service job, from submit to its completion
// on a worker) is added whole with record.
//
// Self time: a span's duration minus the part of its interval that its
// children cover (the union of their intervals, so overlapping children
// are not counted twice).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static storage: span names are literals
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  int parent = -1;           // index into the same span list, -1 = root
  std::uint64_t id = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

std::int64_t monotonic_ns();

class Tracer {
 public:
  // Opens a span whose parent is this thread's innermost open span.
  int open(const char* name, std::uint64_t id = 0);
  // Opens a span under an explicit parent, e.g. a span another thread
  // opened; it becomes this thread's innermost open span.
  int open_under(int parent, const char* name, std::uint64_t id = 0);
  void close(int index);
  // This thread's innermost open span, -1 when none.
  static int current();
  // Records a finished interval (for timestamps taken elsewhere).
  int record(int parent, const char* name, std::uint64_t id,
             std::int64_t start_ns, std::int64_t end_ns);

  std::vector<Span> spans() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span on the current thread; does nothing when `tracer` is null,
// which is how untraced rounds run the same code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer), index_(tracer ? tracer->open(name, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// Empty when every span is closed, every parent index is valid and
// earlier in the list, and every child lies inside its parent; otherwise
// a description of the first violation.
std::string check_nesting(const std::vector<Span>& spans);

// Self time of every span, in seconds (same order as `spans`).
std::vector<double> self_seconds(const std::vector<Span>& spans);

// Sum of the durations of the spans of each name.
std::map<std::string, double> total_seconds_by_name(const std::vector<Span>& spans);

// Writes one JSON object per span (name, start/end in ns relative to the
// first span, parent, id) to `path`. Returns false on an I/O error.
bool write_spans_jsonl(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
