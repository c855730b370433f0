#include "server/snapshot.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace dbph {
namespace server {

namespace {

/// Serializes `doc` onto the end of `chunk` as its next row.
Status AppendRow(const swp::EncryptedDocument& doc, uint64_t row_id,
                 SealedChunk* chunk) {
  const uint32_t begin = static_cast<uint32_t>(chunk->bytes.size());
  doc.AppendTo(&chunk->bytes);
  const size_t first_ref = chunk->word_refs.size();
  DBPH_RETURN_IF_ERROR(
      swp::CollectWordRefs(std::span<const uint8_t>(chunk->bytes).subspan(begin),
                           &chunk->word_refs)
          .status());
  for (size_t r = first_ref; r < chunk->word_refs.size(); ++r) {
    chunk->word_refs[r].offset += begin;
  }
  chunk->doc_begin.push_back(static_cast<uint32_t>(chunk->bytes.size()));
  chunk->row_ids.push_back(row_id);
  chunk->word_first.push_back(static_cast<uint32_t>(chunk->word_refs.size()));
  return Status::OK();
}

/// Copies row `d` of `from` onto the end of `to`, rebasing its offsets.
void CopyRow(const SealedChunk& from, size_t d, SealedChunk* to) {
  const std::span<const uint8_t> doc = from.doc(d);
  const uint32_t shift = static_cast<uint32_t>(to->bytes.size());
  to->bytes.insert(to->bytes.end(), doc.begin(), doc.end());
  for (uint32_t r = from.word_first[d]; r < from.word_first[d + 1]; ++r) {
    swp::WordRef ref = from.word_refs[r];
    ref.offset = ref.offset - from.doc_begin[d] + shift;
    to->word_refs.push_back(ref);
  }
  to->doc_begin.push_back(static_cast<uint32_t>(to->bytes.size()));
  to->row_ids.push_back(from.row_ids[d]);
  to->word_first.push_back(static_cast<uint32_t>(to->word_refs.size()));
}

/// An empty chunk with exact capacity for `docs` rows, `bytes` bytes and
/// `words` word slots, so a sealed chunk holds no slack.
std::shared_ptr<SealedChunk> NewChunk(size_t docs, uint64_t bytes,
                                      size_t words) {
  auto chunk = std::make_shared<SealedChunk>();
  chunk->bytes.reserve(bytes);
  chunk->doc_begin.reserve(docs + 1);
  chunk->doc_begin.push_back(0);
  chunk->row_ids.reserve(docs);
  chunk->word_refs.reserve(words);
  chunk->word_first.reserve(docs + 1);
  chunk->word_first.push_back(0);
  return chunk;
}

Result<swp::EncryptedDocument> ParseSpan(std::span<const uint8_t> bytes) {
  ByteReader reader(bytes);
  return swp::EncryptedDocument::ReadFrom(&reader);
}

}  // namespace

std::vector<std::shared_ptr<const TrapdoorIndex::Entry>>::const_iterator
TrapdoorIndex::LowerBound(const Bytes& trapdoor_bytes) const {
  return std::lower_bound(entries_.begin(), entries_.end(), trapdoor_bytes,
                          [](const auto& e, const Bytes& key) {
                            return e->trapdoor_bytes < key;
                          });
}

const TrapdoorIndex::Entry* TrapdoorIndex::Find(
    const Bytes& trapdoor_bytes) const {
  auto it = LowerBound(trapdoor_bytes);
  if (it == entries_.end() || (*it)->trapdoor_bytes != trapdoor_bytes) {
    return nullptr;
  }
  return it->get();
}

std::shared_ptr<const TrapdoorIndex> TrapdoorIndex::With(
    std::shared_ptr<const Entry> entry) const {
  auto it = LowerBound(entry->trapdoor_bytes);
  const bool held =
      it != entries_.end() && (*it)->trapdoor_bytes == entry->trapdoor_bytes;
  if (held) {
    // Both answers are exact; keep the one a hit does less work with. The
    // order is strict, so racing refreshes cannot undo each other.
    const Entry& old = **it;
    if (entry->watermark < old.watermark ||
        (entry->watermark == old.watermark &&
         entry->row_ids.size() >= old.row_ids.size())) {
      return nullptr;
    }
  } else if (AtCapacity()) {
    return nullptr;
  }
  auto next = std::make_shared<TrapdoorIndex>(max_trapdoors_);
  next->memoized_ = memoized_ + 1;
  next->num_postings_ = num_postings_ + entry->row_ids.size();
  next->entries_.reserve(entries_.size() + (held ? 0 : 1));
  next->entries_.insert(next->entries_.end(), entries_.begin(), it);
  if (held) {
    next->num_postings_ -= (*it)->row_ids.size();
    ++it;
  }
  next->entries_.push_back(std::move(entry));
  next->entries_.insert(next->entries_.end(), it, entries_.end());
  return next;
}

size_t RelationSnapshot::ChunkAt(uint64_t position) const {
  return static_cast<size_t>(
      std::upper_bound(chunk_first.begin(), chunk_first.end(), position) -
      chunk_first.begin() - 1);
}

std::pair<size_t, size_t> RelationSnapshot::Locate(uint64_t row_id) const {
  // Row ids ascend in storage order across the whole relation.
  auto chunk = std::partition_point(
      chunks.begin(), chunks.end(),
      [row_id](const auto& c) { return c->row_ids.back() < row_id; });
  if (chunk == chunks.end()) return {chunks.size(), 0};
  const std::vector<uint64_t>& ids = (*chunk)->row_ids;
  const auto first = std::lower_bound(ids.begin(), ids.end(), row_id);
  return {static_cast<size_t>(chunk - chunks.begin()),
          static_cast<size_t>(first - ids.begin())};
}

uint64_t RelationSnapshot::PositionOf(uint64_t row_id) const {
  const auto [c, d] = Locate(row_id);
  if (c == chunks.size() || chunks[c]->row_ids[d] != row_id) return kNotFound;
  return chunk_first[c] + d;
}

uint64_t RelationSnapshot::Watermark() const {
  return chunks.empty() ? 0 : chunks.back()->row_ids.back() + 1;
}

uint64_t RelationSnapshot::LiveRows(const TrapdoorIndex::Entry& entry) const {
  uint64_t live = 0;
  for (uint64_t row : entry.row_ids) live += PositionOf(row) != kNotFound;
  return live;
}

uint64_t RelationSnapshot::WordSlotsFrom(uint64_t row_id) const {
  auto [c, d] = Locate(row_id);
  if (c == chunks.size()) return 0;
  uint64_t slots = chunks[c]->word_refs.size() - chunks[c]->word_first[d];
  while (++c < chunks.size()) slots += chunks[c]->word_refs.size();
  return slots;
}

std::span<const uint8_t> RelationSnapshot::doc(uint64_t position) const {
  const size_t c = ChunkAt(position);
  return chunks[c]->doc(position - chunk_first[c]);
}

uint64_t RelationSnapshot::row_id(uint64_t position) const {
  const size_t c = ChunkAt(position);
  return chunks[c]->row_ids[position - chunk_first[c]];
}

Result<swp::EncryptedDocument> RelationSnapshot::ParseDoc(
    uint64_t position) const {
  return ParseSpan(doc(position));
}

size_t RelationSnapshot::ScanShardCount(size_t num_shards) const {
  return std::min(std::max<size_t>(num_shards, 1),
                  std::max<size_t>(num_docs, 1));
}

Status RelationSnapshot::Scan(const swp::Trapdoor& trapdoor, uint64_t first,
                              size_t num_shards, runtime::ThreadPool* pool,
                              std::vector<SnapshotMatch>* out,
                              uint64_t* match_evals) const {
  // Balanced contiguous split: the first (n % num_shards) shards get one
  // extra document, and shard order is storage order.
  const size_t n = num_docs - first;
  num_shards = std::min(ScanShardCount(num_shards), std::max<size_t>(n, 1));
  const size_t base = n / num_shards;
  const size_t extra = n % num_shards;
  std::vector<std::pair<size_t, size_t>> ranges;
  ranges.reserve(num_shards);
  size_t begin = first;
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

  // One MatchContext per shard (precomputed HMAC schedule + scratch):
  // PRF evaluations batch through the multi-way compression kernel over
  // each chunk's word refs, and only matching documents are parsed.
  const auto scan_shard = [&](size_t shard) -> Status {
    auto [pos, end] = ranges[shard];
    if (pos >= end) return Status::OK();
    swp::MatchContext context(params, trapdoor);
    std::vector<uint8_t> match_bits;
    for (size_t c = ChunkAt(pos); pos < end; ++c) {
      const SealedChunk& chunk = *chunks[c];
      const size_t cbegin = chunk_first[c];
      const size_t a = pos - cbegin;
      const size_t b = std::min(end - cbegin, chunk.size());
      const uint32_t rbegin = chunk.word_first[a];
      const uint32_t rend = chunk.word_first[b];
      match_bits.resize(rend - rbegin);
      if (rend > rbegin) {
        context.MatchMany(
            chunk.bytes,
            std::span<const swp::WordRef>(chunk.word_refs.data() + rbegin,
                                          rend - rbegin),
            match_bits.data());
      }
      for (size_t d = a; d < b; ++d) {
        const auto first = match_bits.begin() + (chunk.word_first[d] - rbegin);
        const auto last =
            match_bits.begin() + (chunk.word_first[d + 1] - rbegin);
        if (std::find(first, last, uint8_t{1}) == last) continue;
        DBPH_ASSIGN_OR_RETURN(swp::EncryptedDocument parsed,
                              ParseSpan(chunk.doc(d)));
        shard_matches[shard].push_back(
            {cbegin + d, chunk.row_ids[d], std::move(parsed)});
      }
      pos = cbegin + b;
    }
    shard_evals[shard] = context.match_evals();
    return Status::OK();
  };
  const auto scan_range = [&](size_t shard) {
    shard_status[shard] = scan_shard(shard);
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

Status RelationSnapshot::ScanFromMemo(const TrapdoorIndex::Entry& entry,
                                      const swp::Trapdoor& trapdoor,
                                      size_t num_shards,
                                      runtime::ThreadPool* pool,
                                      std::vector<SnapshotMatch>* out,
                                      uint64_t* match_evals,
                                      bool* refresh) const {
  out->reserve(out->size() + entry.row_ids.size());
  bool dropped = false;
  for (uint64_t row : entry.row_ids) {
    const uint64_t position = PositionOf(row);
    if (position == kNotFound) {  // deleted since the entry was memoized
      dropped = true;
      continue;
    }
    DBPH_ASSIGN_OR_RETURN(swp::EncryptedDocument parsed, ParseDoc(position));
    out->push_back({position, row, std::move(parsed)});
  }
  const auto [c, d] = Locate(entry.watermark);
  const uint64_t first = c == chunks.size() ? num_docs : chunk_first[c] + d;
  *refresh = dropped || first < num_docs;
  if (first == num_docs) return Status::OK();
  return Scan(trapdoor, first, num_shards, pool, out, match_evals);
}

std::shared_ptr<RelationSnapshot> RelationSnapshot::WithMemo(
    const RelationSnapshot& scanned, const Bytes& trapdoor_bytes,
    const std::vector<SnapshotMatch>& matches) const {
  if (index == nullptr) return nullptr;
  auto entry = std::make_shared<TrapdoorIndex::Entry>();
  entry->trapdoor_bytes = trapdoor_bytes;
  entry->row_ids.reserve(matches.size());
  for (const SnapshotMatch& match : matches) {
    entry->row_ids.push_back(match.row_id);
  }
  // A hit's answer also covers what the entry it came from covered.
  entry->watermark = scanned.Watermark();
  const TrapdoorIndex::Entry* prior =
      scanned.index != nullptr ? scanned.index->Find(trapdoor_bytes) : nullptr;
  if (prior != nullptr) {
    entry->watermark = std::max(entry->watermark, prior->watermark);
  }
  std::shared_ptr<const TrapdoorIndex> next_index =
      index->With(std::move(entry));
  if (next_index == nullptr) return nullptr;
  auto next = std::make_shared<RelationSnapshot>(*this);
  next->index = std::move(next_index);
  return next;
}

Status RelationSnapshot::ScanReference(const swp::Trapdoor& trapdoor,
                                       std::vector<SnapshotMatch>* out) const {
  swp::SwpParams params;
  params.word_length = trapdoor.target.size();
  params.check_length = check_length;
  for (uint64_t pos = 0; pos < num_docs; ++pos) {
    DBPH_ASSIGN_OR_RETURN(swp::EncryptedDocument parsed, ParseDoc(pos));
    if (!swp::SearchDocument(params, trapdoor, parsed).empty()) {
      out->push_back({pos, row_id(pos), std::move(parsed)});
    }
  }
  return Status::OK();
}

Status RelationSnapshot::AppendDocuments(
    const std::vector<swp::EncryptedDocument>& docs, uint64_t* next_row_id) {
  std::vector<uint64_t> sizes;
  sizes.reserve(docs.size());
  for (const swp::EncryptedDocument& doc : docs) {
    sizes.push_back(doc.SerializedSize());
    if (sizes.back() > 0xffffffffull) {
      return Status::DataLoss("document too large for a sealed chunk");
    }
  }
  // The tail chunk takes documents while they fit under the cap; then
  // each new chunk takes at least one, and more while they fit.
  const SealedChunk* tail = chunks.empty() ? nullptr : chunks.back().get();
  size_t i = 0;
  while (i < docs.size()) {
    uint64_t bytes = tail != nullptr ? tail->bytes.size() : 0;
    size_t words = tail != nullptr ? tail->word_refs.size() : 0;
    size_t end = i;
    while (end < docs.size() &&
           ((tail == nullptr && end == i) ||
            bytes + sizes[end] <= kChunkBytes)) {
      bytes += sizes[end];
      words += docs[end].words.size();
      ++end;
    }
    if (end == i) {  // the tail is full
      tail = nullptr;
      continue;
    }
    const size_t kept = tail != nullptr ? tail->size() : 0;
    std::shared_ptr<SealedChunk> chunk = NewChunk(kept + end - i, bytes, words);
    if (tail != nullptr) {
      // The tail's rows keep their offsets; assign stays in the exact
      // capacity NewChunk reserved.
      chunk->bytes = tail->bytes;
      chunk->doc_begin = tail->doc_begin;
      chunk->row_ids = tail->row_ids;
      chunk->word_refs = tail->word_refs;
      chunk->word_first = tail->word_first;
    }
    for (; i < end; ++i) {
      DBPH_RETURN_IF_ERROR(AppendRow(docs[i], (*next_row_id)++, chunk.get()));
      word_slots += docs[i].words.size();
    }
    if (tail != nullptr) {
      chunks.back() = std::move(chunk);
    } else {
      chunk_first.push_back(num_docs);
      chunks.push_back(std::move(chunk));
    }
    num_docs = chunk_first.back() + chunks.back()->size();
    tail = nullptr;
  }
  return Status::OK();
}

void RelationSnapshot::RemovePositions(const std::vector<uint64_t>& positions) {
  if (positions.empty()) return;
  std::vector<std::shared_ptr<const SealedChunk>> kept_chunks;
  std::vector<uint64_t> kept_first;
  kept_chunks.reserve(chunks.size());
  kept_first.reserve(chunks.size());
  uint64_t kept_docs = 0;
  size_t next = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    const SealedChunk& chunk = *chunks[c];
    const uint64_t first = chunk_first[c];
    size_t stop = next;
    while (stop < positions.size() && positions[stop] < first + chunk.size()) {
      ++stop;
    }
    if (stop == next) {  // untouched: shared as is
      kept_chunks.push_back(chunks[c]);
      kept_first.push_back(kept_docs);
      kept_docs += chunk.size();
      continue;
    }
    // Size the survivors exactly, then copy them into a fresh chunk.
    std::vector<uint8_t> removed(chunk.size(), 0);
    for (size_t r = next; r < stop; ++r) removed[positions[r] - first] = 1;
    next = stop;
    size_t docs = 0, words = 0;
    uint64_t bytes = 0;
    for (size_t d = 0; d < chunk.size(); ++d) {
      const size_t slots = chunk.word_first[d + 1] - chunk.word_first[d];
      if (removed[d]) {
        word_slots -= slots;
        continue;
      }
      ++docs;
      words += slots;
      bytes += chunk.doc_begin[d + 1] - chunk.doc_begin[d];
    }
    if (docs == 0) continue;  // emptied: dropped
    std::shared_ptr<SealedChunk> rebuilt = NewChunk(docs, bytes, words);
    for (size_t d = 0; d < chunk.size(); ++d) {
      if (!removed[d]) CopyRow(chunk, d, rebuilt.get());
    }
    kept_chunks.push_back(std::move(rebuilt));
    kept_first.push_back(kept_docs);
    kept_docs += docs;
  }
  chunks = std::move(kept_chunks);
  chunk_first = std::move(kept_first);
  num_docs = kept_docs;
}

}  // namespace server
}  // namespace dbph
