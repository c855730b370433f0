#ifndef DBPH_SERVER_PLANNER_TRAPDOOR_INDEX_H_
#define DBPH_SERVER_PLANNER_TRAPDOOR_INDEX_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "storage/hash_index.h"
#include "swp/search.h"

namespace dbph {
namespace server {
namespace planner {

/// \brief Server-side trapdoor → posting-list index for one relation.
///
/// Memoizes the outcome of full trapdoor scans: after Eve has evaluated
/// trapdoor ϕ against every stored document once, the matched row ids
/// (in storage order) are cached so a repeat of the same ϕ becomes a
/// posting-list fetch instead of an O(n) scan.
///
/// Leakage argument (see README "Query planning & indexing"): every
/// posting list is computed from data Eve already holds — the trapdoor
/// bytes and ciphertext documents she logged, and the match outcomes she
/// herself evaluated. The index is a data structure Eve could build from
/// her ObservationLog alone; maintaining it reveals nothing beyond the
/// log, and serving from it must be (and is) byte-identical to scanning.
///
/// Thread model: an index is part of an immutable relation state. A
/// mutation (append, delete, memoizing a scan) copies it, applies the
/// change to the copy under the server's single-writer dispatch lock,
/// and installs the copy with the relation's successor state; readers
/// consult an installed index only via the const, stats-free Peek
/// (hit/miss accounting lives in server-side atomics; see
/// UntrustedServer::TryMemoizeFromSnapshot). The index is volatile
/// cache: recovery (RestoreState / WAL replay) starts cold and
/// deterministically rebuilds entries as queries repeat — correctness
/// never depends on index contents.
class TrapdoorIndex {
 public:
  /// Caps how many distinct trapdoors this index memoizes (0 =
  /// unlimited). The cap bounds two costs on a long-running server:
  /// index memory (otherwise O(distinct trapdoors ever queried)) and
  /// append maintenance (OnAppend evaluates every memoized trapdoor
  /// against each new document, inside the dispatch lock). At capacity
  /// the policy is stop-memoizing: existing entries keep serving and
  /// staying exact; new trapdoors simply keep scanning — a performance
  /// plateau, never a correctness cliff.
  void set_max_trapdoors(size_t max) { max_trapdoors_ = max; }
  bool AtCapacity() const {
    return max_trapdoors_ > 0 && trapdoors_.size() >= max_trapdoors_;
  }

  /// The memoized posting list for a trapdoor (row ids in storage
  /// order), or nullptr when this exact trapdoor has never completed a
  /// full scan. An empty list is a real answer ("scanned, nothing
  /// matched"), distinct from nullptr. Const and stats-free, so a frozen
  /// copy is safe to consult from any number of threads.
  const std::vector<uint64_t>* Peek(const Bytes& trapdoor_bytes) const;

  /// Memoizes a completed full scan. `trapdoor` is the parsed form of
  /// `trapdoor_bytes` (kept for incremental maintenance on appends).
  /// Idempotent: a trapdoor that is already memoized is left untouched —
  /// scans are deterministic, so the cached list is already correct. A
  /// no-op at capacity.
  void Memoize(const Bytes& trapdoor_bytes, const swp::Trapdoor& trapdoor,
               const std::vector<uint64_t>& postings);

  /// Incremental maintenance for AppendTuples: evaluates every memoized
  /// trapdoor against the newly appended documents and extends the
  /// matching posting lists. `added` pairs each new row id with its
  /// document, in storage (append) order, so extended lists stay in
  /// storage order.
  ///
  /// Eager maintenance bills added.size() trapdoor evaluations per
  /// memoized entry, inside the dispatch lock. Entries are maintained
  /// while the per-append evaluation budget lasts; the rest are evicted
  /// (always correct for a cache — they rebuild at their next scan), so
  /// an append can never stall the server behind index bookkeeping and
  /// a mutation-heavy deployment settles into a smaller warm memo.
  void OnAppend(
      uint32_t check_length,
      const std::vector<std::pair<uint64_t, const swp::EncryptedDocument*>>&
          added);

  /// Budget for OnAppend's eager maintenance, in trapdoor evaluations
  /// (0 = unlimited). Defaults to 16k ≈ a few milliseconds of HMACs,
  /// which also caps the steady-state memo size a write-heavy workload
  /// can keep warm (budget / documents-per-append entries).
  void set_max_append_evals(size_t max) { max_append_evals_ = max; }

  /// Incremental maintenance for DeleteWhere: removes the deleted row
  /// ids from every posting list. Relative order of survivors is
  /// preserved.
  void OnDelete(const std::vector<uint64_t>& removed);

  void Clear();

  size_t num_trapdoors() const { return trapdoors_.size(); }
  /// Total posting entries across all memoized trapdoors.
  size_t num_postings() const { return postings_.size(); }

  struct Stats {
    uint64_t memoized = 0;      ///< scans whose result was cached
    uint64_t append_evals = 0;  ///< trapdoor×document evaluations on append
    uint64_t invalidations = 0; ///< entries evicted by over-budget appends
  };
  const Stats& stats() const { return stats_; }

 private:
  size_t max_trapdoors_ = 0;
  size_t max_append_evals_ = 16 * 1024;
  /// Posting lists, keyed by serialized trapdoor bytes.
  storage::HashIndex postings_;
  /// Memoized trapdoors in parsed form (presence set + maintenance input).
  /// Keyed identically to postings_; a key present here with no postings_
  /// entry encodes a memoized empty result.
  std::map<Bytes, swp::Trapdoor> trapdoors_;
  Stats stats_;
};

}  // namespace planner
}  // namespace server
}  // namespace dbph

#endif  // DBPH_SERVER_PLANNER_TRAPDOOR_INDEX_H_
