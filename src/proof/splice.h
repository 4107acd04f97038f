// Splicing per-worker proof traces into one checkable portfolio proof.
//
// A portfolio worker's trace is not checkable on its own: clauses imported
// from siblings appear in its derivations without a justification. The
// splicer fixes that by giving every worker a tagged ProofWriter whose
// steps carry the worker id and a global sequence number (one shared
// atomic counter), and by merging all per-worker buffers in sequence order
// after the race. The merged trace is a valid DRUP/DRAT proof of the
// shared formula because
//
//  * a clause is published to the exchange only after its addition was
//    logged, and an importer logs its (root-simplified) copy only after
//    collecting it, so every add appears after the adds it depends on —
//    the atomic counter's total order extends the export -> import
//    happens-before edges;
//  * every worker logs a deletion exactly when it drops a clause from its
//    own database, so at any prefix of the spliced trace the checker's
//    live multiset holds at least one copy of every clause some worker
//    still has — each worker's own copy-add precedes its own deletion,
//    and its derivations only lean on clauses still in its database;
//  * the one race that rule leaves open is closed by deferral: worker A
//    deleting a clause it PUBLISHED could otherwise land before a slow
//    sibling's copy-add (the sibling's cursor moves inside collect, its
//    import is logged after), leaving that copy-add without a live
//    justification. Deletions of published clauses are therefore parked
//    (keyed by their exchange entry index) and sequenced only once
//    note_collected() shows every worker's imports have been logged past
//    that entry; whatever is still parked when the race ends is flushed
//    at the tail of spliced(), where no later step can depend on it.
//
// Input clauses need their own rule. Every worker loads the input, but
// the checker holds each input clause only as many times as the input
// lists it — there is no per-worker copy-add to back a worker's deletion.
// If k workers each subsumed their copy of a duplicated input clause,
// passing those k deletions through would empty the checker of a clause
// some worker still holds. So a worker's first m deletions of an input
// clause listed m times are counted as dropping its input copies, and the
// j-th input copy's deletion is sequenced only once every worker has
// dropped j copies (note_input registers the input). Deletions beyond a
// worker's m input copies are backed by its own logged additions and
// follow the rules above and below.
//
// Deletions of clauses that were never accepted by the exchange pass
// through immediately: no sibling ever received a copy, and an identical
// independently-derived lemma elsewhere is backed by that worker's own
// logged addition (the checker deletes by literal multiset, one live copy
// per holder). Keeping deletions in the trace is what bounds a checker's
// live database on long multi-worker races — see
// CheckResult::peak_live_clauses.
//
// Thread safety: writer(i) and note_published(i, ...) must be used by
// worker i's thread only (they touch that worker's buffer and published
// map); note_collected() and the deferred queue are mutex-protected and
// may be called from any worker thread. note_input() and spliced() may be
// called only while no worker is solving.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "proof/proof.h"
#include "proof/proof_writer.h"

namespace berkmin::proof {

class ProofSplicer {
 public:
  explicit ProofSplicer(int num_workers);

  // The proof sink for worker `id`; owned by the splicer, valid for its
  // lifetime. Additions are tagged with `id`; deletions of published
  // clauses are deferred as described above, all others pass through.
  ProofWriter* writer(int id);

  // Worker `id` just had `lits` accepted by the clause exchange as entry
  // `entry_index`. Must be called from worker id's own thread, after the
  // clause's addition was logged (Solver logs at learn time, before the
  // learn callback publishes). A later deletion of the same literals by
  // this worker is deferred until the entry is safe to delete.
  void note_published(int id, std::span<const Lit> lits,
                      std::size_t entry_index);

  // Worker `id` has imported — and therefore logged copies for — every
  // exchange entry below `cursor`. Releases deferred deletions whose
  // entry is below every worker's noted cursor, giving them fresh
  // sequence numbers (i.e. "now", after all copy-adds they must follow).
  void note_collected(int id, std::size_t cursor);

  // Registers one clause of the input every worker loads. Call before the
  // workers load it, while none is solving; a clause listed m times is
  // registered m times. Tautologies are ignored (no solver stores one).
  void note_input(std::span<const Lit> lits);

  // Merges every worker's buffer (plus released deletions) into one trace
  // ordered by the global sequence, with any still-deferred deletions —
  // published clauses, and input copies some worker still holds — appended
  // at the end. Call only while no worker is solving.
  Proof spliced() const;

 private:
  struct SequencedStep {
    std::uint64_t seq = 0;
    ProofStep step;
  };

  class TaggedWriter : public ProofWriter {
   public:
    TaggedWriter(ProofSplicer* owner, std::int32_t id)
        : owner_(owner), id_(id) {}
    void add_clause(std::span<const Lit> lits) override;
    void delete_clause(std::span<const Lit> lits) override;

   private:
    friend class ProofSplicer;
    ProofSplicer* owner_;
    std::int32_t id_;
    std::vector<SequencedStep> buffer_;
    // Sorted-code key -> exchange entry index for every clause this
    // worker published. Touched only from this worker's thread.
    std::map<std::vector<std::int32_t>, std::size_t> published_;
  };

  struct DeferredDeletion {
    std::size_t entry_index = 0;
    ProofStep step;
  };

  // One distinct input clause: how often the input lists it, how many of
  // those copies each worker has deleted, and how many deletions were
  // sequenced (the minimum over workers of `dropped`).
  struct InputClause {
    std::uint32_t copies = 0;
    std::uint32_t released = 0;
    std::vector<std::uint32_t> dropped;  // per worker; empty until a drop
    ProofStep step;                      // the latest drop, for sequencing
  };

  // Counts worker `id`'s deletion of `key` against its input copies and
  // takes `step` for sequencing. Returns false, leaving `step` alone, when
  // `key` is no input clause or the worker already dropped every input
  // copy (its own additions back this deletion).
  bool drop_input_copy(std::int32_t id, const std::vector<std::int32_t>& key,
                       ProofStep& step);

  std::atomic<std::uint64_t> next_seq_{0};
  std::vector<std::unique_ptr<TaggedWriter>> writers_;

  mutable std::mutex deferred_mu_;
  std::vector<DeferredDeletion> deferred_;   // parked, unsequenced
  std::vector<SequencedStep> released_;      // sequenced by note_collected
  std::vector<std::size_t> import_cursors_;  // per worker, via note_collected
  // Sorted-code key -> input clause. Filled by note_input between races
  // and only looked up during one; the counters are guarded by
  // deferred_mu_.
  std::map<std::vector<std::int32_t>, InputClause> inputs_;
};

}  // namespace berkmin::proof
