// Restarts and clause-database management (Section 8 of the paper).
//
// At every restart BerkMin physically removes clauses and compacts its
// data structures:
//
//  * assignments deduced at the root level ("retained" assignments) are
//    kept, and every clause they satisfy is removed;
//  * root-false literals are stripped from surviving clauses;
//  * surviving learned clauses are partitioned by stack distance into
//    young and old; young clauses are kept when length < 43 or activity
//    > 7, old ones when length < 9 or activity > threshold (the threshold
//    starts at 60 and grows each reduction so that once-active long
//    clauses eventually retire);
//  * the topmost clause of the stack is never removed (the paper's
//    anti-looping safeguard) unless a retained assignment satisfies it.
//
// The GRASP-like "limited_keeping" ablation replaces the partitioned rule
// with a pure length threshold.
#include <cassert>
#include <memory>

#include "core/inprocess.h"
#include "core/solver.h"
#include "telemetry/trace.h"
#include "util/memory_budget.h"

namespace berkmin {

void Solver::handle_restart() {
  if (!ok_) return;  // nothing to manage once the formula is refuted
  backtrack_to(0);
  ++stats_.restarts;
  ++luby_index_;
  conflicts_since_restart_ = 0;
  if (telemetry_ != nullptr) {
    telemetry_->emit(telemetry::EventKind::restart, telemetry_->now_ns(), 0,
                     stats_.conflicts, stats_.learned_clauses);
  }
  // The search loop only restarts at a propagation fixpoint, but the
  // public restart_now() can be called with root units still pending;
  // the reduction's literal stripping requires the fixpoint.
  if (propagate_internal() != no_clause) {
    ok_ = false;
    proof_emit_empty();
    return;
  }
  // Memory-pressure ladder first: an emergency reduction both frees memory
  // and replaces the regular (gentler) reduction for this restart.
  const bool emergency_reduced = apply_pressure_ladder();
  if (!emergency_reduced && opts_.reduction_policy != ReductionPolicy::none) {
    reduce_db();
  }
  // Watch-pool hygiene: span relocations during the search leave garbage
  // slots behind (reduce_db rebuilds the pools gap-free, but the policy
  // may be none). A restart is the one point where no scan is in flight,
  // so compacting here is safe. wasted() is O(1) and usually 0 right
  // after a rebuild; live() scans the span table, so check it second.
  if (watches_.wasted() > 1024 &&
      watches_.wasted() > watches_.live() + 1024) {
    watches_.compact();
  }
  if (bin_watches_.wasted() > 1024 &&
      bin_watches_.wasted() > bin_watches_.live() + 1024) {
    bin_watches_.compact();
  }
  // Restart boundary: decision level 0, propagation fixpoint, database
  // freshly reduced — the safe point for clause imports (portfolio).
  if (restart_callback_) restart_callback_();
  // Inprocessing runs after imports so fresh shared clauses participate in
  // (and are subject to) the simplification pass.
  maybe_inprocess();
  // Restarts are the periodic flush point for the shared hub counters: the
  // stats deltas since the previous flush become visible to concurrent
  // snapshots here, so a long-running solve is observable while it runs.
  if (telemetry_ != nullptr) telemetry_->publish(stats_, &telemetry_seen_);
}

// The graceful-degradation ladder (see Solver::set_memory_budget). Runs at
// the restart safe point: decision level 0, propagation fixpoint.
//   soft+    — emergency reduction keeping only the glue-core tier (and the
//              topmost clause, the paper's anti-looping safeguard);
//   hard+    — inprocessing switched off until pressure recedes;
//   below hard — inprocessing re-enabled if the ladder disabled it.
// A pending flag set by a denied learned-clause allocation forces the
// emergency reduction even if pressure dipped since the denial.
bool Solver::apply_pressure_ladder() {
  if (budget_ == nullptr || budget_infeasible_) return false;
  const util::Pressure p = budget_->pressure();

  if (p >= util::Pressure::hard) {
    if (opts_.inprocess.enabled && !inprocess_pressure_disabled_) {
      inprocess_pressure_disabled_ = true;
      budget_->note_degrade();
    }
  } else if (inprocess_pressure_disabled_) {
    inprocess_pressure_disabled_ = false;
  }

  if (p < util::Pressure::soft && !pressure_reduce_pending_) return false;
  pressure_reduce_pending_ = false;
  ++stats_.pressure_reductions;
  budget_->note_degrade();

  for (const Lit l : trail_) {
    reason_[l.var()] = no_clause;
    bin_reason_other_[l.var()] = undef_lit;
  }
  std::vector<char> keep(learned_stack_.size(), 0);
  for (std::size_t i = 0; i < learned_stack_.size(); ++i) {
    if (clause_is_satisfied(learned_stack_[i])) continue;  // migrate asserts
    const Clause c = arena_.deref(learned_stack_[i]);
    keep[i] = (c.glue() != 0 && c.glue() <= opts_.glue_core) ||
                      i + 1 == learned_stack_.size()
                  ? 1
                  : 0;
  }
  garbage_collect(keep);
  // An emergency reduction that leaves pressure at critical freed nothing
  // that matters: the limit is held down by the base formula or by charge
  // other tenants own. After a streak of those the limit is unattainable —
  // declare the budget infeasible for this solve and stop denying lemmas
  // and shedding the database, preferring a correct answer over thrashing
  // forever. The next solve() probes the budget afresh.
  if (budget_->pressure() == util::Pressure::critical) {
    if (++critical_reduce_streak_ >= kInfeasibleCriticalStreak) {
      budget_infeasible_ = true;
      ++stats_.budget_infeasible_solves;
      budget_->note_degrade();
    }
  } else {
    critical_reduce_streak_ = 0;
  }
  return true;
}

namespace {

// Number of unassigned literals, given that no literal is true (clauses
// satisfied at the root are handled separately).
std::uint32_t live_length(const Solver& solver, const Clause& c) {
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < c.size(); ++i) {
    if (solver.value(c[i]) == Value::unassigned) ++n;
  }
  return n;
}

}  // namespace

Solver::ReduceDecision Solver::classify_learned(std::size_t stack_index,
                                                std::size_t stack_size) {
  ReduceDecision decision;
  const ClauseRef ref = learned_stack_[stack_index];
  const Clause c = arena_.deref(ref);

  if (clause_is_satisfied(ref)) {
    // Satisfied by a retained (root) assignment: always removed.
    decision.satisfied_at_root = true;
    return decision;
  }

  if (opts_.reduction_policy == ReductionPolicy::none) {
    decision.keep = true;
    return decision;
  }

  const std::uint32_t length = live_length(*this, c);
  const std::uint32_t activity = c.activity();

  if (opts_.reduction_policy == ReductionPolicy::limited_keeping) {
    decision.keep = length <= opts_.limited_keeping_max_length;
    return decision;
  }

  if (opts_.reduction_policy == ReductionPolicy::glue_tiered) {
    // LBD tiers. Core clauses (low glue) capture tightly-coupled decision
    // levels and are kept unconditionally; the mid tier additionally
    // survives on conflict activity earned since the last reduction.
    // Everything else — the local tail, mid-tier clauses that earned
    // nothing, and shared clauses imported with unknown glue (0 means
    // unknown, not perfect) — falls through to BerkMin's age/activity
    // partition, so glue tiers only ever retain MORE than the paper's
    // policy. An early return here instead of a fall-through would delete
    // freshly-learned mid-glue clauses before they could earn activity,
    // defeating the young-clause anti-looping safeguard (hole:9 degrades
    // from ~31k conflicts to millions).
    const std::uint32_t glue = c.glue();
    if (glue != 0 && glue <= opts_.glue_core) {
      decision.keep = true;
      return decision;
    }
    if (glue != 0 && glue <= opts_.glue_tier2 &&
        (activity > 0 || length <= opts_.old_keep_max_length)) {
      decision.keep = true;
      return decision;
    }
  }

  // BerkMin policy (and the glue_tiered local tail). The topmost clause is
  // protected.
  if (stack_index + 1 == stack_size) {
    decision.keep = true;
    return decision;
  }
  const std::size_t distance = stack_size - 1 - stack_index;
  const bool young = distance * opts_.young_fraction_den <
                     stack_size * opts_.young_fraction_num;
  if (young) {
    decision.keep = length <= opts_.young_keep_max_length ||
                    activity >= opts_.young_keep_min_activity;
  } else {
    decision.keep =
        length <= opts_.old_keep_max_length || activity > old_threshold_;
  }
  return decision;
}

void Solver::reduce_db() {
  assert(decision_level() == 0);
  ++stats_.reductions;
  telemetry::PhaseScope reduce_scope(telemetry_, telemetry::Phase::reduce);
  const std::int64_t reduce_start_ns =
      telemetry_ != nullptr ? telemetry_->now_ns() : 0;
  const std::size_t learned_before = learned_stack_.size();

  // Root assignments are permanent from here on; drop their reason
  // references so reason clauses are free to be collected. (Conflict
  // analysis never expands level-0 literals, so the references are dead.)
  for (const Lit l : trail_) {
    reason_[l.var()] = no_clause;
    bin_reason_other_[l.var()] = undef_lit;
  }

  std::vector<char> keep(learned_stack_.size(), 0);
  for (std::size_t i = 0; i < learned_stack_.size(); ++i) {
    keep[i] = classify_learned(i, learned_stack_.size()).keep ? 1 : 0;
  }
  garbage_collect(keep);

  if (opts_.reduction_policy == ReductionPolicy::berkmin ||
      opts_.reduction_policy == ReductionPolicy::glue_tiered) {
    old_threshold_ += opts_.threshold_increment;
  }
  if (telemetry_ != nullptr) {
    telemetry_->emit(telemetry::EventKind::reduce, reduce_start_ns,
                     telemetry_->now_ns() - reduce_start_ns, learned_before,
                     learned_stack_.size());
  }
}

void Solver::maybe_inprocess() {
  if (!ok_ || !opts_.inprocess.enabled ||
      opts_.inprocess.interval_restarts == 0 ||
      inprocess_pressure_disabled_) {
    return;
  }
  if (++restarts_since_inprocess_ < opts_.inprocess.interval_restarts) return;
  restarts_since_inprocess_ = 0;
  if (inprocessor_ == nullptr) inprocessor_ = std::make_unique<Inprocessor>(*this);
  inprocessor_->run();
}

void Solver::notify_deleted(ClauseRef ref) {
  ++stats_.deleted_clauses;
  if (proof() != nullptr) {
    arena_.deref(ref).copy_to(callback_scratch_);
    proof_emit_delete(callback_scratch_);
  }
}

void Solver::garbage_collect(const std::vector<char>& keep_learned,
                             const std::vector<char>* keep_originals) {
  telemetry::PhaseScope gc_scope(telemetry_, telemetry::Phase::garbage_collect);
  const std::int64_t gc_start_ns =
      telemetry_ != nullptr ? telemetry_->now_ns() : 0;
  const std::size_t arena_words_before = arena_.size_words();
  ClauseArena new_arena;
  new_arena.reserve_words(arena_.size_words());
  std::vector<Lit> stripped;
  std::vector<Lit> before;

  // Emits the DRAT trace of strengthening: the shortened clause is RUP
  // (its removed literals are all false under root units), after which the
  // original is deleted.
  const auto strengthen_trace = [&](const Clause& c) {
    ++stats_.strengthened_clauses;
    // Proof before the learn callback, same as record_learned: the
    // callback may publish to a sharing pool, and a spliced trace needs
    // this add sequenced first. The callback may consult
    // last_learned_glue(); a strengthened clause keeps its learn-time glue
    // (strengthening only removes literals, never adds levels).
    last_learned_glue_ = c.glue() != 0
                             ? c.glue()
                             : static_cast<std::uint32_t>(stripped.size());
    proof_emit_add(stripped);
    if (learn_callback_) learn_callback_(stripped);
    if (proof() != nullptr) {
      c.copy_to(before);
      proof_emit_delete(before);
    }
  };

  // Copies a clause into the new arena, stripping root-false literals.
  const auto migrate = [&](ClauseRef ref, bool learned) -> ClauseRef {
    const Clause c = arena_.deref(ref);
    stripped.clear();
    for (std::uint32_t i = 0; i < c.size(); ++i) {
      const Value v = value(c[i]);
      assert(v != Value::true_value);
      if (v == Value::unassigned) stripped.push_back(c[i]);
    }
    assert(stripped.size() >= 2);
    if (stripped.size() < c.size()) strengthen_trace(c);
    const ClauseRef fresh = new_arena.alloc(stripped, learned, c.glue());
    // The glue_tiered mid tier survives on activity earned since the last
    // reduction, so its counter restarts each cycle; every other policy
    // keeps the cumulative count.
    const bool tier2 = opts_.reduction_policy == ReductionPolicy::glue_tiered &&
                       learned && c.glue() != 0 &&
                       c.glue() > opts_.glue_core && c.glue() <= opts_.glue_tier2;
    new_arena.deref(fresh).set_activity(tier2 ? 0 : c.activity());
    return fresh;
  };

  std::vector<ClauseRef> new_originals;
  new_originals.reserve(originals_.size());
  for (std::size_t i = 0; i < originals_.size(); ++i) {
    const ClauseRef ref = originals_[i];
    if (keep_originals != nullptr && !(*keep_originals)[i]) {
      // Removed by inprocessing (subsumed, strengthened away, or part of a
      // variable elimination); the pass already logged its replacement
      // adds, so the deletion here completes the add-before-delete pair.
      notify_deleted(ref);
      continue;
    }
    if (clause_is_satisfied(ref)) continue;  // satisfied by retained facts
    new_originals.push_back(migrate(ref, /*learned=*/false));
  }

  std::vector<ClauseRef> new_learned;
  new_learned.reserve(learned_stack_.size());
  for (std::size_t i = 0; i < learned_stack_.size(); ++i) {
    if (!keep_learned[i]) {
      notify_deleted(learned_stack_[i]);
      continue;
    }
    new_learned.push_back(migrate(learned_stack_[i], /*learned=*/true));
  }

  arena_ = std::move(new_arena);
  originals_ = std::move(new_originals);
  learned_stack_ = std::move(new_learned);
  satisfied_cache_.assign(learned_stack_.size(), undef_lit);

  // Rebuild watches and occurrence lists from scratch. Counting the
  // watchers first lets the flat pools lay every span out contiguously
  // with zero relocations and zero slack.
  for (auto& ol : occ_) ol.clear();
  std::vector<std::uint32_t> watch_counts(
      2 * static_cast<std::size_t>(num_internal_vars()), 0);
  std::vector<std::uint32_t> bin_counts(
      2 * static_cast<std::size_t>(num_internal_vars()), 0);
  const auto count_watches = [&](ClauseRef ref) {
    const Clause c = arena_.deref(ref);
    auto& counts = c.size() == 2 ? bin_counts : watch_counts;
    ++counts[(~c[0]).code()];
    ++counts[(~c[1]).code()];
  };
  for (const ClauseRef ref : originals_) count_watches(ref);
  for (const ClauseRef ref : learned_stack_) count_watches(ref);
  watches_.rebuild(watch_counts);
  bin_watches_.rebuild(bin_counts);

  for (const ClauseRef ref : originals_) {
    attach_clause(ref);
    const Clause c = arena_.deref(ref);
    for (std::uint32_t i = 0; i < c.size(); ++i) {
      occ_[c[i].code()].push_back(ref);
    }
  }
  for (const ClauseRef ref : learned_stack_) attach_clause(ref);
  sync_budget_charge();
  if (telemetry_ != nullptr) {
    telemetry_->emit(telemetry::EventKind::garbage_collect, gc_start_ns,
                     telemetry_->now_ns() - gc_start_ns, arena_words_before,
                     arena_.size_words());
  }
}

}  // namespace berkmin
