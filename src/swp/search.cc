#include "swp/search.h"

#include <algorithm>

#include "common/macros.h"
#include "crypto/sha256.h"

namespace dbph {
namespace swp {

Bytes EncryptedDocument::MacInput() const {
  Bytes input;
  AppendLengthPrefixed(&input, nonce);
  AppendUint32(&input, static_cast<uint32_t>(words.size()));
  for (const Bytes& w : words) AppendLengthPrefixed(&input, w);
  return input;
}

Bytes EncryptedDocument::MacTag(
    const crypto::HmacSha256Precomputed& mac_schedule) const {
  crypto::HmacSha256Stream stream(&mac_schedule);
  stream.UpdateUint32(static_cast<uint32_t>(nonce.size()));
  stream.Update(nonce);
  stream.UpdateUint32(static_cast<uint32_t>(words.size()));
  for (const Bytes& w : words) {
    stream.UpdateUint32(static_cast<uint32_t>(w.size()));
    stream.Update(w);
  }
  return stream.Finish();
}

crypto::MerkleTree::Hash EncryptedDocument::LeafHash() const {
  crypto::Sha256 sha = crypto::MerkleTree::LeafHasher();
  const auto update_u32 = [&sha](size_t v) {
    const uint32_t n = static_cast<uint32_t>(v);
    const uint8_t be[4] = {
        static_cast<uint8_t>(n >> 24), static_cast<uint8_t>(n >> 16),
        static_cast<uint8_t>(n >> 8), static_cast<uint8_t>(n)};
    sha.Update(be, 4);
  };
  update_u32(nonce.size());
  sha.Update(nonce);
  update_u32(words.size());
  for (const Bytes& w : words) {
    update_u32(w.size());
    sha.Update(w);
  }
  update_u32(tag.size());
  sha.Update(tag);
  crypto::MerkleTree::Hash hash;
  sha.FinishInto(hash.data());
  return hash;
}

void EncryptedDocument::AppendTo(Bytes* out) const {
  AppendLengthPrefixed(out, nonce);
  AppendUint32(out, static_cast<uint32_t>(words.size()));
  for (const Bytes& w : words) AppendLengthPrefixed(out, w);
  AppendLengthPrefixed(out, tag);
}

size_t EncryptedDocument::SerializedSize() const {
  size_t size = kDocumentFramingBytes + nonce.size() + tag.size();
  for (const Bytes& w : words) size += 4 + w.size();
  return size;
}

Result<EncryptedDocument> EncryptedDocument::ReadFrom(ByteReader* reader) {
  EncryptedDocument doc;
  DBPH_ASSIGN_OR_RETURN(doc.nonce, reader->ReadLengthPrefixed());
  DBPH_ASSIGN_OR_RETURN(uint32_t count, reader->ReadUint32());
  // Every word costs at least a 4-byte length prefix, so a count the
  // remaining buffer cannot hold is corrupt; never reserve for it.
  doc.words.reserve(std::min<size_t>(count, reader->remaining() / 4));
  for (uint32_t i = 0; i < count; ++i) {
    DBPH_ASSIGN_OR_RETURN(Bytes w, reader->ReadLengthPrefixed());
    doc.words.push_back(std::move(w));
  }
  DBPH_ASSIGN_OR_RETURN(doc.tag, reader->ReadLengthPrefixed());
  return doc;
}

Result<std::vector<EncryptedDocument>> ReadDocumentList(ByteReader* reader) {
  DBPH_ASSIGN_OR_RETURN(uint32_t count, reader->ReadUint32());
  std::vector<EncryptedDocument> docs;
  docs.reserve(
      std::min<size_t>(count, reader->remaining() / kDocumentFramingBytes));
  for (uint32_t i = 0; i < count; ++i) {
    DBPH_ASSIGN_OR_RETURN(EncryptedDocument doc,
                          EncryptedDocument::ReadFrom(reader));
    docs.push_back(std::move(doc));
  }
  return docs;
}

bool MatchCipherWord(const SwpParams& params, const Trapdoor& trapdoor,
                     const Bytes& cipher) {
  // Thin wrapper over the scan kernel: one-shot contexts still beat the
  // old path (two compressions instead of four, no subvector copies),
  // and every caller shares one match implementation. Scans that check
  // many words against one trapdoor build a MatchContext once instead.
  MatchContext context(params, trapdoor);
  return context.Matches(cipher);
}

std::vector<size_t> SearchDocument(const SwpParams& params,
                                   const Trapdoor& trapdoor,
                                   const EncryptedDocument& doc) {
  MatchContext context(params, trapdoor);
  std::vector<size_t> matches;
  for (size_t i = 0; i < doc.words.size(); ++i) {
    if (context.Matches(doc.words[i])) matches.push_back(i);
  }
  return matches;
}

bool DocumentMatches(MatchContext* context, const EncryptedDocument& doc) {
  for (const Bytes& w : doc.words) {
    if (context->Matches(w)) return true;
  }
  return false;
}

std::vector<size_t> SearchDocument(const SearchableScheme& scheme,
                                   const Trapdoor& trapdoor,
                                   const EncryptedDocument& doc) {
  std::vector<size_t> matches;
  for (size_t i = 0; i < doc.words.size(); ++i) {
    if (scheme.Matches(trapdoor, doc.words[i])) matches.push_back(i);
  }
  return matches;
}

bool DocumentContains(const SearchableScheme& scheme,
                      const Trapdoor& trapdoor,
                      const EncryptedDocument& doc) {
  for (const Bytes& w : doc.words) {
    if (scheme.Matches(trapdoor, w)) return true;
  }
  return false;
}

}  // namespace swp
}  // namespace dbph
