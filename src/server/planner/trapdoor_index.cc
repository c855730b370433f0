#include "server/planner/trapdoor_index.h"

#include "swp/match_kernel.h"
#include "swp/params.h"

namespace dbph {
namespace server {
namespace planner {

const std::vector<uint64_t>* TrapdoorIndex::Peek(
    const Bytes& trapdoor_bytes) const {
  if (trapdoors_.count(trapdoor_bytes) == 0) return nullptr;
  // HashIndex drops a key whose last value is deleted, so a memoized
  // trapdoor with no surviving matches maps to the shared empty list.
  return &postings_.Lookup(trapdoor_bytes);
}

void TrapdoorIndex::Memoize(const Bytes& trapdoor_bytes,
                            const swp::Trapdoor& trapdoor,
                            const std::vector<uint64_t>& postings) {
  if (trapdoors_.count(trapdoor_bytes) > 0) return;  // already memoized
  if (AtCapacity()) return;  // full: existing entries keep serving
  trapdoors_.emplace(trapdoor_bytes, trapdoor);
  for (uint64_t rid : postings) postings_.Insert(trapdoor_bytes, rid);
  ++stats_.memoized;
}

void TrapdoorIndex::OnAppend(
    uint32_t check_length,
    const std::vector<std::pair<uint64_t, const swp::EncryptedDocument*>>&
        added) {
  if (added.empty() || trapdoors_.empty()) return;
  // Eager maintenance costs added.size() trapdoor evaluations per
  // memoized entry, inside the dispatch lock. Maintain entries while
  // the budget lasts; evict (not: serve stale) the entries we cannot
  // afford — they rebuild at their next scan. A mutation-heavy
  // deployment thus keeps a smaller warm memo instead of stalling the
  // server behind index bookkeeping.
  size_t spent = 0;
  for (auto it = trapdoors_.begin(); it != trapdoors_.end();) {
    const auto& [trapdoor_bytes, trapdoor] = *it;
    if (max_append_evals_ > 0 && spent + added.size() > max_append_evals_) {
      (void)postings_.DeleteKey(trapdoor_bytes);
      it = trapdoors_.erase(it);
      ++stats_.invalidations;
      continue;
    }
    swp::SwpParams params;
    params.word_length = trapdoor.target.size();
    params.check_length = check_length;
    // One precomputed schedule per memoized trapdoor, reused across all
    // appended documents — the dispatch-lock time this maintenance
    // spends is dominated by PRF evaluations, so halving the
    // compressions per eval matters here as much as in the scan.
    // Only membership is needed (not which slot matched), so the first
    // matching word short-circuits the document.
    swp::MatchContext context(params, trapdoor);
    // `added` is in storage (append) order and appended records sort
    // after every existing one, so pushing matches in this order keeps
    // each posting list in exact storage order.
    for (const auto& [rid, doc] : added) {
      ++stats_.append_evals;
      bool matched = false;
      for (const Bytes& word : doc->words) {
        if (context.Matches(word)) {
          matched = true;
          break;
        }
      }
      if (matched) postings_.Insert(trapdoor_bytes, rid);
    }
    spent += added.size();
    ++it;
  }
}

void TrapdoorIndex::OnDelete(const std::vector<uint64_t>& removed) {
  if (removed.empty() || trapdoors_.empty()) return;
  // One pass per posting list (order-preserving), set lookups per
  // element: O(index size + removed), a memory walk proportional to
  // what the index holds — no crypto, no budget needed.
  std::unordered_set<uint64_t> removed_set(removed.begin(), removed.end());
  for (const auto& [trapdoor_bytes, trapdoor] : trapdoors_) {
    (void)trapdoor;
    (void)postings_.DeleteValues(trapdoor_bytes, removed_set);
  }
}

void TrapdoorIndex::Clear() {
  postings_ = storage::HashIndex();
  trapdoors_.clear();
}

}  // namespace planner
}  // namespace server
}  // namespace dbph
