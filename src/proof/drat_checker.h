// In-tree DRAT proof checking, trimming and UNSAT-core extraction.
//
// DratChecker verifies a clausal proof against the original formula
// without trusting the solver that produced it: it is its own unit-
// propagation engine over the original clauses plus the proof's live
// additions. The check runs in two passes:
//
//  * forward — every added clause must be a reverse-unit-propagation
//    (RUP) consequence of the current database: asserting the negation of
//    its literals and propagating to fixpoint must yield a conflict. The
//    clauses touched by that conflict's resolution chain are recorded as
//    the step's antecedents. Deletions remove one live copy (deletions of
//    clauses that force a root literal are skipped, the standard DRUP
//    convention, which only grows the database and so never weakens a
//    later check).
//  * backward — starting from the antecedents of the empty clause, mark
//    every addition some marked step depends on. Unmarked additions are
//    dead weight: trimmed() returns the proof without them, and the
//    marked original clauses form an unsatisfiable core of the input.
//
// Storage and propagation follow the solver's own BCP layout:
//
//  * Every stored clause's literals live in one flat arena; a compact
//    per-clause header (start, size, source, flags) locates them, and the
//    antecedents recorded for additions sit in a separate flat pool.
//  * Clauses of three or more literals are watched by two literals; each
//    watcher carries a blocker (the clause's other watched literal when
//    the watcher was made) whose truth skips the clause without touching
//    the arena. Deleted clauses drop out of the watch lists lazily.
//  * Binary clauses live on per-literal implication lists (the implied
//    literal plus the clause id) and are propagated before any long
//    clause, so the binary part of BCP never reads the arena. Deleting a
//    binary removes both of its list entries at once.
//  * A step records the clauses of its conflict's resolution chain down
//    to the root literals it touches, and for each of those only its
//    reason, tagged as a root link: root reasons are permanent, so the
//    backward pass expands the rest of each tagged root chain once
//    instead of every step copying it.
//    The antecedent walk therefore stops once every non-root variable it
//    marked has been met, and never enters the root part of the trail.
//  * Deletions find their victim through a hash of the literal *set*
//    (order ignored, so the watch permutations of stored clauses do not
//    matter); each candidate is confirmed by comparing literal sets.
//
// The forward pass allocates nothing per step beyond the amortized growth
// of the arena, the antecedent pool and the watch lists.
//
// The engine checks strict RUP only — exactly what our CDCL solver (and
// any clause-learning solver that logs deletions) emits. RAT steps are
// rejected, which makes a successful check a stronger statement, not a
// weaker one.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cnf/cnf_formula.h"
#include "cnf/literal.h"
#include "proof/proof.h"
#include "telemetry/solver_telemetry.h"

namespace berkmin::proof {

struct CheckOptions {
  // Incremental (push/pop) traces contain additions whose derivations
  // depended on clause groups that were popped before the answer being
  // certified: checked against the *current* formula those steps are not
  // RUP — and not needed, because every such lemma was deleted at its pop
  // and nothing live depends on it. With this flag an unverifiable
  // addition is skipped (never entering the live database, so soundness
  // is preserved: only RUP-verified clauses can support later steps)
  // instead of failing the check; skipped steps are counted in
  // CheckResult::skipped_adds. Validity still requires deriving the empty
  // clause from verified steps alone.
  bool allow_unverified_adds = false;
};

struct CheckResult {
  // True iff every addition verified as RUP and the empty clause was
  // derived — the proof certifies unsatisfiability of the formula.
  bool valid = false;
  bool derived_empty = false;
  std::size_t checked_adds = 0;
  std::size_t deletions = 0;
  // Deletions ignored: the clause forces a root literal, or no live copy
  // matched (a spliced trace may carry two workers' deletions of one
  // shared original; the second finds nothing live and is skipped).
  std::size_t skipped_deletions = 0;
  // High-water mark of live clauses (originals plus undeleted additions)
  // during the forward pass — the checker's working-set size. Deletions
  // in the trace are what keep this bounded on long multi-worker races.
  std::size_t peak_live_clauses = 0;
  // Additions that failed RUP and were dropped from the live database
  // (only under CheckOptions::allow_unverified_adds; otherwise the first
  // failed addition aborts the check).
  std::size_t skipped_adds = 0;
  // Literals the checker enqueued (root units, negated candidate clauses
  // and everything unit propagation implied from them), counted from
  // construction on. An exact, deterministic work counter for one trace.
  std::uint64_t propagations = 0;
  // First failure, as "step <index>: <what>"; empty when valid.
  std::string error;
};

class DratChecker {
 public:
  explicit DratChecker(const Cnf& cnf);

  // Verifies the whole trace. May be called once per checker instance.
  CheckResult check(const Proof& proof) { return check(proof, CheckOptions{}); }
  CheckResult check(const Proof& proof, const CheckOptions& options);

  // Observability: times the forward pass (Phase::verify) and the
  // backward trim/core pass (Phase::trim) and emits check_verify /
  // check_trim span events. The sink must outlive the check() call.
  void set_telemetry(const telemetry::SolverTelemetry* sink) {
    telemetry_ = sink;
  }

  // Valid after a successful check(): the needed additions in original
  // order (producer tags preserved), ending with the empty clause.
  const Proof& trimmed() const { return trimmed_; }

  // Valid after a successful check(): indices into cnf.clauses() of the
  // original clauses the trimmed proof rests on, ascending. The induced
  // subformula is itself unsatisfiable.
  const std::vector<std::size_t>& core() const { return core_; }

  // Materializes a core as a formula over the same variable numbering.
  static Cnf core_formula(const Cnf& original,
                          const std::vector<std::size_t>& core);

 private:
  static constexpr std::uint32_t invalid_clause = 0xFFFFFFFFu;
  // Tags an antecedent entry as the first link of a root chain (the
  // reason of a root literal); clause ids stay below this bit.
  static constexpr std::uint32_t root_link = 0x80000000u;

  struct ClauseHeader {
    std::uint32_t start = 0;  // offset of the first literal in lits_
    std::uint32_t size = 0;
    // Originals: index into cnf.clauses(); additions: proof step index.
    std::uint32_t source = 0;
    bool active = true;
    bool from_proof = false;
  };
  struct Watcher {  // long clauses: skip the clause while blocker is true
    std::uint32_t id;
    Lit blocker;
  };
  struct BinaryWatch {  // binary {~p, implied}, listed under p
    Lit implied;
    std::uint32_t id;
  };

  void ensure_var(Var v);
  // Copies `lits` into scratch_ sorted and duplicate-free; false for a
  // tautology.
  bool normalize(std::span<const Lit> lits);
  // Stores scratch_ as a clause (additions keep antecedents_ as their
  // derivation); returns its id.
  std::uint32_t store(bool from_proof, std::uint32_t source);
  Lit* lits_of(std::uint32_t id) { return lits_.data() + clauses_[id].start; }
  // Links a stored clause of two or more literals into the watch lists
  // (long clauses watch their first two literals).
  void attach(std::uint32_t id);
  Value value(Lit l) const {
    return lit_value_[static_cast<std::size_t>(l.code())];
  }
  void enqueue(Lit l, std::uint32_t reason);
  // Propagates to fixpoint, binaries first; returns the conflicting
  // clause id or invalid_clause. On conflict the heads are left past the
  // end so a subsequent undo restores a consistent state.
  std::uint32_t propagate();
  void undo_to(std::size_t trail_size);
  // Collects into antecedents_ the clause ids of the resolution chain of
  // `conflict`. Literals at trail positions below root_end are root
  // literals: each contributes only its reason, tagged with root_link, and
  // the backward pass expands the rest of its chain.
  void collect_antecedents(std::uint32_t conflict, std::size_t root_end);
  // Sets antecedents_ to the root-link-tagged reason of root-assigned `v`:
  // the derivation of a clause containing a root-true literal, or the
  // first link of a contradiction with a root-false one.
  void collect_root_reason(Var v);
  // Verifies scratch_ as RUP; fills antecedents_ on success.
  bool check_rup();
  // Commits antecedents_ as the derivation of the empty clause.
  void record_empty_derivation();
  // Removes one live, non-root-reason copy of scratch_; false if none.
  bool delete_clause();
  // Builds the deletion index over every live clause.
  void build_index();
  void build_trim_and_core(const Proof& proof);

  std::size_t num_original_clauses_ = 0;
  std::vector<ClauseHeader> clauses_;
  std::vector<Lit> lits_;  // the clause arena
  // Antecedents of clause id: ante_pool_[ante_start_[id], ante_start_[id+1]),
  // root chain heads tagged with root_link.
  std::vector<std::uint32_t> ante_pool_;
  std::vector<std::uint32_t> ante_start_{0};

  // Deletion index, built on the first deletion: live clause ids keyed by
  // the hash of their literal set. Its nodes come from a pool that takes
  // back the node of every deleted clause, so steady-state upkeep does not
  // reach the heap.
  bool index_built_ = false;
  std::pmr::unsynchronized_pool_resource index_pool_;
  std::pmr::unordered_multimap<std::uint32_t, std::uint32_t> index_{
      &index_pool_};

  std::vector<std::vector<Watcher>> watches_;     // by literal code
  std::vector<std::vector<BinaryWatch>> binaries_;  // by literal code
  std::vector<Value> lit_value_;                 // by literal code
  std::vector<std::uint32_t> reason_;  // by variable; invalid for assumptions
  std::vector<std::uint32_t> trail_pos_;  // by variable, while assigned
  std::vector<Lit> trail_;
  std::size_t binary_head_ = 0;
  std::size_t long_head_ = 0;
  std::uint64_t propagations_ = 0;

  // Per-step scratch, reused so the forward pass does not allocate.
  std::vector<Lit> scratch_;                // the step's normalized literals
  std::vector<std::uint32_t> antecedents_;  // collect_antecedents output
  std::vector<char> seen_;                  // by variable
  std::vector<Var> root_seen_;              // root variables marked in seen_
  std::vector<char> lit_mark_;              // by literal code

  bool derived_empty_ = false;
  std::vector<std::uint32_t> empty_antecedents_;
  std::int32_t empty_producer_ = no_producer;

  bool checked_ = false;
  Proof trimmed_;
  std::vector<std::size_t> core_;
  const telemetry::SolverTelemetry* telemetry_ = nullptr;
};

}  // namespace berkmin::proof
