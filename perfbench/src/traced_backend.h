// An EngineBackend decorator that forwards every call to the real backend,
// times every query, and, when a tracer is attached, records each query
// and each edit as a span. Engines see the same backend semantics either
// way.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "engines/backend.h"
#include "spans.h"

namespace perfbench {

class TracedBackend final : public berkmin::engines::EngineBackend {
 public:
  // `tracer` may be null: queries are then timed but no spans recorded.
  TracedBackend(berkmin::engines::EngineBackend& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  berkmin::Var new_vars(int n) override {
    ScopedSpan span(tracer_, "edit.new_vars");
    return inner_.new_vars(n);
  }
  bool add_clause(std::span<const berkmin::Lit> lits) override {
    ScopedSpan span(tracer_, "edit.add");
    return forward(inner_.add_clause(lits));
  }
  berkmin::GroupId push() override {
    ScopedSpan span(tracer_, "edit.push");
    const berkmin::GroupId group = inner_.push();
    if (group == berkmin::no_group) error_ = inner_.last_error();
    return group;
  }
  bool pop(berkmin::GroupId id) override {
    ScopedSpan span(tracer_, "edit.pop");
    return forward(inner_.pop(id));
  }
  bool pop() override {
    ScopedSpan span(tracer_, "edit.pop");
    return forward(inner_.pop());
  }
  bool add_clause_to(berkmin::GroupId id,
                     std::span<const berkmin::Lit> lits) override {
    ScopedSpan span(tracer_, "edit.add");
    return forward(inner_.add_clause_to(id, lits));
  }
  bool set_group_active(berkmin::GroupId id, bool active) override {
    ScopedSpan span(tracer_, "edit.activate");
    return forward(inner_.set_group_active(id, active));
  }
  berkmin::SolveStatus solve(std::span<const berkmin::Lit> assumptions,
                             const berkmin::Budget& budget) override {
    const std::int64_t start = monotonic_ns();
    berkmin::SolveStatus status;
    {
      ScopedSpan span(tracer_, "query", ++queries_);
      status = inner_.solve(assumptions, budget);
    }
    query_us_.push_back(static_cast<double>(monotonic_ns() - start) * 1e-3);
    if (status == berkmin::SolveStatus::unknown) error_ = inner_.last_error();
    if (after_query) after_query(status);
    return status;
  }
  bool model_value(berkmin::Lit l) const override { return inner_.model_value(l); }
  const std::vector<berkmin::Lit>& failed_assumptions() const override {
    return inner_.failed_assumptions();
  }
  std::string name() const override { return "traced(" + inner_.name() + ")"; }

  // Called after every query with its answer (answer checks hook in here).
  std::function<void(berkmin::SolveStatus)> after_query;

  // Microseconds of every query so far, in call order.
  const std::vector<double>& query_us() const { return query_us_; }

 private:
  bool forward(bool ok) {
    if (!ok) error_ = inner_.last_error();
    return ok;
  }

  berkmin::engines::EngineBackend& inner_;
  Tracer* tracer_;
  std::uint64_t queries_ = 0;
  std::vector<double> query_us_;
};

}  // namespace perfbench
