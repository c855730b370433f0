#include "server/snapshot.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace dbph {
namespace server {

namespace {
/// See SetArenaCapForTesting. Plain (non-atomic) because tests set it
/// on one thread before building snapshots; production never writes it.
uint64_t g_arena_cap = 0xffffffffull;
}  // namespace

void SnapshotChunk::SetArenaCapForTesting(uint64_t cap) {
  g_arena_cap = cap;
}

void SnapshotChunk::Seal() {
  pos_in_chunk.clear();
  pos_in_chunk.reserve(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    pos_in_chunk.emplace(docs[i].rid_packed, static_cast<uint32_t>(i));
  }

  // Build the scan arena: every word ciphertext copied into one
  // contiguous buffer, in (document, slot) order, so a trapdoor scan
  // streams linearly. Word boundaries come from CollectWordRefs, which
  // performs exactly the checks EncryptedDocument::ReadFrom does — a
  // document it rejects is marked and re-parsed at scan time for the
  // identical error status.
  word_arena.clear();
  word_refs.clear();
  word_first.assign(1, 0);
  doc_wellformed.assign(docs.size(), 1);
  arena_built = true;
  std::vector<swp::WordRef> doc_refs;
  for (size_t i = 0; i < docs.size() && arena_built; ++i) {
    doc_refs.clear();
    if (!swp::CollectWordRefs(docs[i].bytes, &doc_refs).ok()) {
      doc_wellformed[i] = 0;
      word_first.push_back(static_cast<uint32_t>(word_refs.size()));
      continue;
    }
    for (const swp::WordRef& ref : doc_refs) {
      const uint64_t at = word_arena.size();
      if (at + ref.length > g_arena_cap || word_refs.size() >= g_arena_cap) {
        // Offsets would overflow the 32-bit refs; scans of this chunk
        // fall back to the per-document scalar path.
        arena_built = false;
        break;
      }
      word_arena.insert(word_arena.end(), docs[i].bytes.begin() + ref.offset,
                        docs[i].bytes.begin() + ref.offset + ref.length);
      word_refs.push_back({static_cast<uint32_t>(at), ref.length});
    }
    word_first.push_back(static_cast<uint32_t>(word_refs.size()));
  }
  if (!arena_built) {
    word_arena.clear();
    word_refs.clear();
    word_first.clear();
    doc_wellformed.clear();
  }
}

uint64_t RelationSnapshot::PositionOf(uint64_t rid_packed) const {
  for (size_t c = 0; c < chunks.size(); ++c) {
    auto it = chunks[c]->pos_in_chunk.find(rid_packed);
    if (it != chunks[c]->pos_in_chunk.end()) {
      return chunk_first[c] + it->second;
    }
  }
  return kNotFound;
}

const SnapshotDoc& RelationSnapshot::doc(uint64_t position) const {
  // Find the chunk whose first position is the greatest <= position.
  size_t c = static_cast<size_t>(
      std::upper_bound(chunk_first.begin(), chunk_first.end(), position) -
      chunk_first.begin() - 1);
  return chunks[c]->docs[position - chunk_first[c]];
}

Result<swp::EncryptedDocument> RelationSnapshot::ParseDoc(
    uint64_t position) const {
  ByteReader reader(doc(position).bytes);
  return swp::EncryptedDocument::ReadFrom(&reader);
}

Status RelationSnapshot::FetchPostings(const std::vector<uint64_t>& postings,
                                       std::vector<SnapshotMatch>* out) const {
  out->reserve(postings.size());
  for (uint64_t packed : postings) {
    uint64_t position = PositionOf(packed);
    if (position == kNotFound) {
      // Unreachable by construction: the frozen index and frozen
      // documents come from the same critical section. Fail closed, as
      // a heap miss would.
      return Status::NotFound("record not found");
    }
    DBPH_ASSIGN_OR_RETURN(swp::EncryptedDocument parsed, ParseDoc(position));
    out->push_back({position, packed, std::move(parsed)});
  }
  return Status::OK();
}

size_t RelationSnapshot::ScanShardCount(size_t num_shards) const {
  return std::min(std::max<size_t>(num_shards, 1),
                  std::max<size_t>(num_docs, 1));
}

Status RelationSnapshot::Scan(const swp::Trapdoor& trapdoor, size_t num_shards,
                              runtime::ThreadPool* pool,
                              std::vector<SnapshotMatch>* out,
                              uint64_t* match_evals) const {
  // Balanced contiguous split: the first (n % num_shards) shards get one
  // extra document, and shard order is storage order.
  const size_t n = num_docs;
  num_shards = ScanShardCount(num_shards);
  const size_t base = n / num_shards;
  const size_t extra = n % num_shards;
  std::vector<std::pair<size_t, size_t>> ranges;
  ranges.reserve(num_shards);
  size_t begin = 0;
  for (size_t i = 0; i < num_shards; ++i) {
    size_t len = base + (i < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + len);
    begin += len;
  }

  swp::SwpParams params;
  params.word_length = trapdoor.target.size();
  params.check_length = check_length;

  std::vector<std::vector<SnapshotMatch>> shard_matches(ranges.size());
  std::vector<Status> shard_status(ranges.size(), Status::OK());
  std::vector<uint64_t> shard_evals(ranges.size(), 0);

  // The reference scalar sweep over global positions [begin, end):
  // parse every document, match every slot, keep matching documents in
  // position order. The kernel path below is bit-identical to this.
  const auto scan_scalar = [&](size_t shard, size_t begin, size_t end) {
    auto& matches = shard_matches[shard];
    for (size_t pos = begin; pos < end; ++pos) {
      ByteReader reader(doc(pos).bytes);
      auto parsed = swp::EncryptedDocument::ReadFrom(&reader);
      if (!parsed.ok()) {
        shard_status[shard] = parsed.status();
        return false;
      }
      if (!swp::SearchDocument(params, trapdoor, *parsed).empty()) {
        matches.push_back({pos, doc(pos).rid_packed, std::move(*parsed)});
      }
    }
    return true;
  };

  // The kernel sweep: one MatchContext per shard (precomputed HMAC
  // schedule + scratch), PRF evaluations batched through the multi-way
  // compression kernel over each chunk's contiguous word arena. Only
  // matching documents are parsed; a document CollectWordRefs rejected
  // is re-parsed for the exact scalar-path error status.
  const auto scan_kernel = [&](size_t shard) {
    swp::MatchContext context(params, trapdoor);
    std::vector<uint8_t> match_bits;
    auto& matches = shard_matches[shard];
    size_t pos = ranges[shard].first;
    const size_t end = ranges[shard].second;
    if (pos >= end) return;
    size_t c = static_cast<size_t>(
        std::upper_bound(chunk_first.begin(), chunk_first.end(), pos) -
        chunk_first.begin() - 1);
    for (; pos < end; ++c) {
      const SnapshotChunk& chunk = *chunks[c];
      const size_t cbegin = chunk_first[c];
      const size_t a = pos - cbegin;
      const size_t b = std::min(end - cbegin, chunk.docs.size());
      if (!chunk.arena_built) {
        if (!scan_scalar(shard, cbegin + a, cbegin + b)) return;
        pos = cbegin + b;
        continue;
      }
      size_t d = a;
      while (d < b) {
        if (!chunk.doc_wellformed[d]) {
          // Fail closed with the exact parse status the scalar path
          // would have surfaced for this document.
          shard_status[shard] = ParseDoc(cbegin + d).status();
          shard_evals[shard] = context.match_evals();
          return;
        }
        size_t e = d;
        while (e < b && chunk.doc_wellformed[e]) ++e;
        const uint32_t rbegin = chunk.word_first[d];
        const uint32_t rend = chunk.word_first[e];
        match_bits.resize(rend - rbegin);
        if (rend > rbegin) {
          context.MatchMany(
              std::span<const uint8_t>(chunk.word_arena.data(),
                                       chunk.word_arena.size()),
              std::span<const swp::WordRef>(chunk.word_refs.data() + rbegin,
                                            rend - rbegin),
              match_bits.data());
        }
        for (size_t w = d; w < e; ++w) {
          bool any = false;
          for (uint32_t r = chunk.word_first[w]; r < chunk.word_first[w + 1];
               ++r) {
            if (match_bits[r - rbegin] != 0) {
              any = true;
              break;
            }
          }
          if (!any) continue;
          auto parsed = ParseDoc(cbegin + w);
          if (!parsed.ok()) {  // unreachable: CollectWordRefs accepted it
            shard_status[shard] = parsed.status();
            shard_evals[shard] = context.match_evals();
            return;
          }
          matches.push_back(
              {cbegin + w, chunk.docs[w].rid_packed, std::move(*parsed)});
        }
        d = e;
      }
      pos = cbegin + b;
    }
    shard_evals[shard] = context.match_evals();
  };

  const auto scan_range = [&](size_t shard) {
    if (use_scan_kernel) {
      scan_kernel(shard);
    } else {
      scan_scalar(shard, ranges[shard].first, ranges[shard].second);
    }
  };
  if (pool != nullptr && ranges.size() > 1) {
    pool->ParallelFor(ranges.size(), scan_range);
  } else {
    for (size_t i = 0; i < ranges.size(); ++i) scan_range(i);
  }

  size_t total = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (match_evals != nullptr) *match_evals += shard_evals[i];
    DBPH_RETURN_IF_ERROR(shard_status[i]);
    total += shard_matches[i].size();
  }
  out->reserve(out->size() + total);
  for (auto& matches : shard_matches) {
    for (auto& match : matches) out->push_back(std::move(match));
  }
  return Status::OK();
}

}  // namespace server
}  // namespace dbph
