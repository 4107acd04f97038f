#include "proof/drat_checker.h"

#include <algorithm>
#include <cassert>

#include "telemetry/trace.h"

namespace berkmin::proof {

namespace {

// Order-independent hash of a literal set: the sum of one well-mixed word
// per literal, so any permutation of a clause hashes alike.
std::uint32_t literal_set_hash(const Lit* lits, std::size_t size) {
  std::uint64_t sum = size;
  for (std::size_t i = 0; i < size; ++i) {
    std::uint64_t x = static_cast<std::uint64_t>(lits[i].code()) + 1;
    x *= 0x9E3779B97F4A7C15ull;
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 32;
    sum += x;
  }
  return static_cast<std::uint32_t>(sum ^ (sum >> 32));
}

}  // namespace

DratChecker::DratChecker(const Cnf& cnf) {
  ensure_var(cnf.num_vars() - 1);

  // Store and attach every original clause first (nothing is assigned yet,
  // so any two literals may be watched), then seed propagation with the
  // units. A conflict here means the formula is refuted by unit
  // propagation alone.
  std::vector<std::uint32_t> units;
  for (std::size_t i = 0; i < cnf.num_clauses(); ++i) {
    if (!normalize(cnf.clause(i))) continue;  // tautology: can never matter
    const std::uint32_t id =
        store(/*from_proof=*/false, static_cast<std::uint32_t>(i));
    const std::uint32_t size = clauses_[id].size;
    if (size == 0) {
      antecedents_.assign(1, id);
      record_empty_derivation();
    } else if (size == 1) {
      units.push_back(id);
    } else {
      attach(id);
    }
  }
  num_original_clauses_ = clauses_.size();
  if (derived_empty_) return;

  for (const std::uint32_t id : units) {
    const Lit l = lits_of(id)[0];
    const Value v = value(l);
    if (v == Value::true_value) continue;
    if (v == Value::false_value) {
      collect_root_reason(l.var());
      antecedents_.push_back(id);
      record_empty_derivation();
      return;
    }
    enqueue(l, id);
  }
  const std::uint32_t conflict = propagate();
  if (conflict != invalid_clause) {
    collect_antecedents(conflict, trail_.size());
    record_empty_derivation();
  }
}

void DratChecker::ensure_var(Var v) {
  if (v < 0) return;
  const std::size_t needed = static_cast<std::size_t>(v) + 1;
  if (reason_.size() >= needed) return;
  reason_.resize(needed, invalid_clause);
  trail_pos_.resize(needed, 0);
  seen_.resize(needed, 0);
  lit_value_.resize(2 * needed, Value::unassigned);
  lit_mark_.resize(2 * needed, 0);
  watches_.resize(2 * needed);
  binaries_.resize(2 * needed);
}

bool DratChecker::normalize(std::span<const Lit> lits) {
  scratch_.assign(lits.begin(), lits.end());
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()), scratch_.end());
  for (std::size_t i = 1; i < scratch_.size(); ++i) {
    if (scratch_[i].var() == scratch_[i - 1].var()) return false;  // l, ~l
  }
  if (!scratch_.empty()) ensure_var(scratch_.back().var());
  return true;
}

std::uint32_t DratChecker::store(bool from_proof, std::uint32_t source) {
  const auto id = static_cast<std::uint32_t>(clauses_.size());
  assert(id < root_link);
  ClauseHeader h;
  h.start = static_cast<std::uint32_t>(lits_.size());
  h.size = static_cast<std::uint32_t>(scratch_.size());
  h.source = source;
  h.from_proof = from_proof;
  clauses_.push_back(h);
  lits_.insert(lits_.end(), scratch_.begin(), scratch_.end());
  if (from_proof) {
    ante_pool_.insert(ante_pool_.end(), antecedents_.begin(),
                      antecedents_.end());
  }
  ante_start_.push_back(static_cast<std::uint32_t>(ante_pool_.size()));
  if (index_built_) {
    index_.emplace(literal_set_hash(lits_of(id), h.size), id);
  }
  return id;
}

void DratChecker::attach(std::uint32_t id) {
  const Lit* c = lits_of(id);
  assert(clauses_[id].size >= 2);
  if (clauses_[id].size == 2) {
    binaries_[(~c[0]).code()].push_back({c[1], id});
    binaries_[(~c[1]).code()].push_back({c[0], id});
    return;
  }
  watches_[(~c[0]).code()].push_back({id, c[1]});
  watches_[(~c[1]).code()].push_back({id, c[0]});
}

void DratChecker::enqueue(Lit l, std::uint32_t reason) {
  assert(value(l) == Value::unassigned);
  lit_value_[static_cast<std::size_t>(l.code())] = Value::true_value;
  lit_value_[static_cast<std::size_t>((~l).code())] = Value::false_value;
  reason_[static_cast<std::size_t>(l.var())] = reason;
  trail_pos_[static_cast<std::size_t>(l.var())] =
      static_cast<std::uint32_t>(trail_.size());
  trail_.push_back(l);
  ++propagations_;
}

std::uint32_t DratChecker::propagate() {
  const auto conflict_at = [&](std::uint32_t id) {
    binary_head_ = long_head_ = trail_.size();
    return id;
  };
  for (;;) {
    // Binary implications first, to fixpoint: they need no arena access.
    while (binary_head_ < trail_.size()) {
      const Lit p = trail_[binary_head_++];
      for (const BinaryWatch& w : binaries_[p.code()]) {
        const Value v = value(w.implied);
        if (v == Value::true_value) continue;
        if (v == Value::false_value) return conflict_at(w.id);
        enqueue(w.implied, w.id);
      }
    }
    if (long_head_ == trail_.size()) return invalid_clause;

    // Then the long clauses watching one literal; any implication sends
    // the loop back to the binary lists.
    const Lit p = trail_[long_head_++];
    const Lit false_lit = ~p;
    std::vector<Watcher>& list = watches_[p.code()];
    std::size_t i = 0;
    std::size_t j = 0;
    const std::size_t n = list.size();
    while (i < n) {
      const Watcher w = list[i++];
      if (value(w.blocker) == Value::true_value) {
        list[j++] = w;
        continue;
      }
      const ClauseHeader& h = clauses_[w.id];
      if (!h.active) continue;  // deleted: drop the watcher on the way
      Lit* c = lits_.data() + h.start;
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      assert(c[1] == false_lit);
      const Lit first = c[0];
      if (first != w.blocker && value(first) == Value::true_value) {
        list[j++] = {w.id, first};
        continue;
      }
      bool moved = false;
      for (std::uint32_t k = 2; k < h.size; ++k) {
        if (value(c[k]) != Value::false_value) {
          std::swap(c[1], c[k]);
          watches_[(~c[1]).code()].push_back({w.id, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;

      list[j++] = {w.id, first};
      if (value(first) == Value::false_value) {
        while (i < n) list[j++] = list[i++];
        list.resize(j);
        return conflict_at(w.id);
      }
      enqueue(first, w.id);
    }
    list.resize(j);
  }
}

void DratChecker::undo_to(std::size_t trail_size) {
  while (trail_.size() > trail_size) {
    const Lit l = trail_.back();
    lit_value_[static_cast<std::size_t>(l.code())] = Value::unassigned;
    lit_value_[static_cast<std::size_t>((~l).code())] = Value::unassigned;
    reason_[static_cast<std::size_t>(l.var())] = invalid_clause;
    trail_.pop_back();
  }
  binary_head_ = long_head_ = trail_.size();
}

void DratChecker::collect_antecedents(std::uint32_t conflict,
                                      std::size_t root_end) {
  antecedents_.clear();
  // Marked non-root variables not yet met on the backward walk. Every
  // marked variable is assigned, and a reason's other literals were
  // assigned before the literal it implies, so the walk can stop at zero
  // without entering the root part of the trail.
  std::size_t pending = 0;
  const auto mark_clause = [&](std::uint32_t id) {
    antecedents_.push_back(id);
    const Lit* c = lits_of(id);
    for (std::uint32_t k = 0; k < clauses_[id].size; ++k) {
      const auto v = static_cast<std::size_t>(c[k].var());
      if (seen_[v]) continue;
      seen_[v] = 1;
      if (trail_pos_[v] < root_end) {
        // A root literal contributes only its own reason, tagged so the
        // backward pass expands the rest of its (permanent) root chain.
        antecedents_.push_back(reason_[v] | root_link);
        root_seen_.push_back(static_cast<Var>(v));
      } else {
        ++pending;
      }
    }
  };

  // Each reason is visited once (one per trail literal), and the conflict
  // clause is nobody's reason, so the collected ids are distinct.
  mark_clause(conflict);
  for (std::size_t i = trail_.size(); pending > 0;) {
    assert(i > root_end);
    const auto v = static_cast<std::size_t>(trail_[--i].var());
    if (!seen_[v]) continue;
    // Mark the reason before clearing v, so its own literal is not
    // counted again.
    if (reason_[v] != invalid_clause) mark_clause(reason_[v]);
    seen_[v] = 0;
    --pending;
  }
  for (const Var v : root_seen_) seen_[static_cast<std::size_t>(v)] = 0;
  root_seen_.clear();
}

void DratChecker::collect_root_reason(Var v) {
  assert(reason_[static_cast<std::size_t>(v)] != invalid_clause);
  antecedents_.assign(1, reason_[static_cast<std::size_t>(v)] | root_link);
}

bool DratChecker::check_rup() {
  const std::size_t mark = trail_.size();

  // Assert the negation. A literal already true at the root contradicts
  // its own negation immediately — the antecedents are the reason chain
  // that forced it.
  for (const Lit l : scratch_) {
    const Value v = value(l);
    if (v == Value::true_value) {
      undo_to(mark);
      collect_root_reason(l.var());
      return true;
    }
    if (v == Value::unassigned) enqueue(~l, invalid_clause);
  }

  const std::uint32_t conflict = propagate();
  if (conflict != invalid_clause) collect_antecedents(conflict, mark);
  undo_to(mark);
  return conflict != invalid_clause;
}

void DratChecker::record_empty_derivation() {
  if (derived_empty_) return;
  derived_empty_ = true;
  empty_antecedents_ = antecedents_;
}

void DratChecker::build_index() {
  index_built_ = true;
  index_.reserve(clauses_.size());
  for (std::uint32_t id = 0; id < clauses_.size(); ++id) {
    if (clauses_[id].active) {
      index_.emplace(literal_set_hash(lits_of(id), clauses_[id].size), id);
    }
  }
}

bool DratChecker::delete_clause() {
  if (!index_built_) build_index();
  for (const Lit l : scratch_) lit_mark_[l.code()] = 1;

  // A clause that is the recorded reason of a root-trail literal must
  // survive: dropping it would leave a literal assigned that unit
  // propagation could no longer re-derive. Skipping such deletions
  // (drat-trim does the same for unit deletions) only strengthens the
  // database, so later checks stay sound. Deletions run at the root
  // fixpoint, so the reason table holds root reasons only.
  const auto is_live_victim = [&](std::uint32_t id) {
    const ClauseHeader& h = clauses_[id];
    if (h.size != scratch_.size()) return false;
    const Lit* c = lits_of(id);
    for (std::uint32_t k = 0; k < h.size; ++k) {
      if (!lit_mark_[c[k].code()]) return false;  // same size, other set
    }
    for (std::uint32_t k = 0; k < h.size; ++k) {
      if (reason_[static_cast<std::size_t>(c[k].var())] == id) return false;
    }
    return true;
  };

  // Of several live copies, the newest goes.
  const auto [first, last] =
      index_.equal_range(literal_set_hash(scratch_.data(), scratch_.size()));
  auto victim = index_.end();
  for (auto it = first; it != last; ++it) {
    if ((victim == index_.end() || it->second > victim->second) &&
        is_live_victim(it->second)) {
      victim = it;
    }
  }
  for (const Lit l : scratch_) lit_mark_[l.code()] = 0;
  if (victim == index_.end()) return false;

  const std::uint32_t id = victim->second;
  index_.erase(victim);
  clauses_[id].active = false;  // long-clause watchers are pruned lazily
  if (clauses_[id].size == 2) {
    const Lit* c = lits_of(id);
    for (int k = 0; k < 2; ++k) {
      std::vector<BinaryWatch>& list = binaries_[(~c[k]).code()];
      const auto it = std::find_if(
          list.begin(), list.end(),
          [&](const BinaryWatch& w) { return w.id == id; });
      assert(it != list.end());
      *it = list.back();
      list.pop_back();
    }
  }
  return true;
}

CheckResult DratChecker::check(const Proof& proof,
                               const CheckOptions& options) {
  CheckResult result;
  if (checked_) {
    result.error = "DratChecker instances are single-use; construct a new one";
    return result;
  }
  checked_ = true;

  // Forward pass under Phase::verify; the span event carries the verdict,
  // so it is emitted from every exit path.
  telemetry::PhaseScope verify_scope(telemetry_, telemetry::Phase::verify);
  const std::int64_t verify_start_ns =
      telemetry_ != nullptr ? telemetry_->now_ns() : 0;
  const auto finish_verify = [&](CheckResult& r) {
    r.propagations = propagations_;
    if (telemetry_ == nullptr) return;
    telemetry_->emit(telemetry::EventKind::check_verify, verify_start_ns,
                     telemetry_->now_ns() - verify_start_ns, r.checked_adds,
                     r.valid ? 1 : 0);
  };
  // Root-level consequences of a newly stored clause that propagate to a
  // conflict close the proof, attributed to the step that caused it.
  const auto derive_empty_from = [&](std::int32_t producer) {
    empty_producer_ = producer;
    record_empty_derivation();
  };

  // Live-database high-water mark: starts at the stored originals and
  // follows every addition/deletion the forward pass applies.
  std::size_t live = clauses_.size();
  result.peak_live_clauses = live;

  for (std::size_t i = 0; i < proof.steps.size() && !derived_empty_; ++i) {
    const ProofStep& step = proof.steps[i];
    const bool tautology = !normalize(step.lits);

    if (step.is_delete()) {
      ++result.deletions;
      if (tautology || !delete_clause()) {
        ++result.skipped_deletions;
        continue;
      }
      --live;
      continue;
    }

    // Addition: must be RUP against the current database.
    if (tautology) continue;  // vacuously sound, never needed
    if (!check_rup()) {
      if (options.allow_unverified_adds) {
        // Incremental traces: the step's derivation rested on clauses of a
        // group popped before the answer under certification. Dropping it
        // keeps the check sound — the clause never enters the live
        // database, so no later step can lean on it.
        ++result.skipped_adds;
        continue;
      }
      result.error = "step " + std::to_string(i) + ": clause is not RUP";
      result.derived_empty = false;
      finish_verify(result);
      return result;
    }
    ++result.checked_adds;

    if (scratch_.empty()) {
      // check_rup on the empty clause succeeds only when the database
      // already propagates to a conflict, which record_empty_derivation
      // would have caught — defensive, not reachable for our traces.
      derive_empty_from(step.producer);
      break;
    }

    const std::uint32_t id =
        store(/*from_proof=*/true, static_cast<std::uint32_t>(i));
    if (++live > result.peak_live_clauses) result.peak_live_clauses = live;
    Lit* c = lits_of(id);
    const std::uint32_t size = clauses_[id].size;

    if (size == 1) {
      const Value v = value(c[0]);
      if (v == Value::false_value) {
        collect_root_reason(c[0].var());
        antecedents_.push_back(id);
        derive_empty_from(step.producer);
      } else if (v == Value::unassigned) {
        enqueue(c[0], id);
        const std::uint32_t conflict = propagate();
        if (conflict != invalid_clause) {
          collect_antecedents(conflict, trail_.size());
          derive_empty_from(step.producer);
        }
      }
      continue;
    }

    // Move two non-false literals into the watched slots. One non-false
    // literal means the clause is unit under the root assignment; zero is
    // unreachable after a successful RUP check (the negated clause would
    // have added no assumption and the fixpoint held no conflict).
    std::uint32_t found = 0;
    for (std::uint32_t k = 0; k < size && found < 2; ++k) {
      if (value(c[k]) != Value::false_value) std::swap(c[found++], c[k]);
    }
    attach(id);
    if (found == 0) {
      collect_antecedents(id, trail_.size());
      derive_empty_from(step.producer);
    } else if (found == 1 && value(c[0]) == Value::unassigned) {
      enqueue(c[0], id);
      const std::uint32_t conflict = propagate();
      if (conflict != invalid_clause) {
        collect_antecedents(conflict, trail_.size());
        derive_empty_from(step.producer);
      }
    }
  }

  result.derived_empty = derived_empty_;
  result.valid = derived_empty_;
  if (!result.valid && result.error.empty()) {
    result.error = "trace ended without deriving the empty clause";
  }
  finish_verify(result);
  if (result.valid) build_trim_and_core(proof);
  return result;
}

void DratChecker::build_trim_and_core(const Proof& proof) {
  telemetry::PhaseScope trim_scope(telemetry_, telemetry::Phase::trim);
  const std::int64_t trim_start_ns =
      telemetry_ != nullptr ? telemetry_->now_ns() : 0;
  // Worklist closure over the recorded antecedents. An entry tagged with
  // root_link is the first link of a root chain: the reason of a root
  // literal, whose other (root-false) literals the step also rests on, so
  // their reasons are root links in turn. Root reasons are permanent —
  // root assignments are never undone and deletions skip root reasons —
  // so the final reason table holds every link any step used. Only tagged
  // entries expand a chain; a clause a step used as a non-root reason
  // does not pull in the chain it may come to head later.
  constexpr char derivation_done = 1;
  constexpr char chain_done = 2;
  std::vector<char> done(clauses_.size(), 0);
  std::vector<std::uint32_t> work;  // ids, tagged for a chain expansion
  const auto need = [&](std::uint32_t entry) {
    const std::uint32_t id = entry & ~root_link;
    if (!(done[id] & derivation_done)) {
      done[id] |= derivation_done;
      work.push_back(id);
    }
    if ((entry & root_link) != 0 && !(done[id] & chain_done)) {
      done[id] |= chain_done;
      work.push_back(entry);
    }
  };
  for (const std::uint32_t entry : empty_antecedents_) need(entry);
  while (!work.empty()) {
    const std::uint32_t entry = work.back();
    work.pop_back();
    const std::uint32_t id = entry & ~root_link;
    if ((entry & root_link) == 0) {
      for (std::uint32_t k = ante_start_[id]; k < ante_start_[id + 1]; ++k) {
        need(ante_pool_[k]);
      }
      continue;
    }
    const Lit* c = lits_of(id);
    const std::uint32_t size = clauses_[id].size;
    for (std::uint32_t k = 0; k < size; ++k) {
      if (reason_[static_cast<std::size_t>(c[k].var())] != id) continue;
      for (std::uint32_t m = 0; m < size; ++m) {
        const std::uint32_t r = reason_[static_cast<std::size_t>(c[m].var())];
        if (m != k && r != invalid_clause) need(r | root_link);
      }
      break;
    }
  }

  core_.clear();
  for (std::size_t id = 0; id < num_original_clauses_; ++id) {
    if (done[id]) core_.push_back(clauses_[id].source);
  }

  trimmed_.steps.clear();
  for (std::size_t id = num_original_clauses_; id < clauses_.size(); ++id) {
    if (!done[id] || !clauses_[id].from_proof) continue;
    trimmed_.steps.push_back(proof.steps[clauses_[id].source]);
  }
  trimmed_.steps.push_back(ProofStep{StepKind::add, empty_producer_, {}});
  if (telemetry_ != nullptr) {
    telemetry_->emit(telemetry::EventKind::check_trim, trim_start_ns,
                     telemetry_->now_ns() - trim_start_ns,
                     trimmed_.steps.size(), core_.size());
  }
}

Cnf DratChecker::core_formula(const Cnf& original,
                              const std::vector<std::size_t>& core) {
  Cnf out(original.num_vars());
  for (const std::size_t index : core) out.add_clause(original.clause(index));
  return out;
}

}  // namespace berkmin::proof
