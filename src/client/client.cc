#include "client/client.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "protocol/completeness_proof.h"
#include "protocol/messages.h"
#include "swp/search.h"

namespace dbph {
namespace client {

using crypto::MerkleTree;
using protocol::Envelope;
using protocol::MessageType;

Client::Client(Bytes master_key, Transport transport, crypto::Rng* rng,
               core::DbphOptions options)
    : master_key_(std::move(master_key)),
      transport_(std::move(transport)),
      rng_(rng),
      options_(options) {}

namespace {

/// Round-trips an envelope over the transport and rejects error replies.
Result<Envelope> Call(const Transport& transport, const Envelope& request,
                      MessageType expected) {
  auto response = Envelope::Parse(transport(request.Serialize()));
  DBPH_RETURN_IF_ERROR(response.status());
  if (response->type == MessageType::kError) {
    return protocol::ParseErrorEnvelope(*response);
  }
  if (response->type != expected) {
    return Status::DataLoss("unexpected response type from server");
  }
  return response;
}

}  // namespace

// -------------------- result integrity --------------------

const crypto::HmacSha256Precomputed& Client::IntegrityKey(
    const std::string& relation) {
  auto it = integrity_keys_.find(relation);
  if (it == integrity_keys_.end()) {
    it = integrity_keys_
             .emplace(relation, crypto::HmacSha256Precomputed(
                                    crypto::DeriveSubkey(
                                        master_key_, "integrity/" + relation)))
             .first;
  }
  return it->second;
}

Bytes Client::SignRoot(const std::string& relation, uint64_t epoch,
                       const MerkleTree::Hash& root) {
  // Domain-separated HMAC under a per-relation subkey of the master:
  // only a master-key holder can bless a root, and a signature for one
  // relation (or epoch) can never vouch for another.
  Bytes message = ToBytes("dbph-merkle-root-v1");
  AppendLengthPrefixed(&message, ToBytes(relation));
  AppendUint64(&message, epoch);
  message.insert(message.end(), root.begin(), root.end());
  return IntegrityKey(relation).Eval(message);
}

Bytes Client::SignSearchRoot(const std::string& relation, uint64_t epoch,
                             const MerkleTree::Hash& root) {
  Bytes message = ToBytes("dbph-search-root-v1");
  AppendLengthPrefixed(&message, ToBytes(relation));
  AppendUint64(&message, epoch);
  message.insert(message.end(), root.begin(), root.end());
  return IntegrityKey(relation).Eval(message);
}

Result<std::vector<crypto::SearchTree::Entry>> Client::BuildSearchEntries(
    const core::DatabasePh& ph, const std::string& relation,
    const std::vector<rel::Tuple>& tuples, uint64_t begin_position) const {
  // Trapdoors are deterministic per (relation, attribute, value), so the
  // digest computed here from plaintext equals the digest the server
  // computes from a query's wire bytes — that equality is the entire
  // bridge between "what was uploaded" and "what a select should hit".
  // Determinism also means a repeated value needs its trapdoor only once:
  // tags are memoized by word (the word encodes attribute and value, and
  // the trapdoor is a function of the word alone). The memo lives in its
  // own pass and is gone before any posting list is allocated, so its
  // many small nodes never sit between long-lived ones and pin heap
  // pages.
  const rel::Schema& schema = ph.schema();
  const size_t arity = schema.num_attributes();
  std::vector<crypto::SearchTree::Hash> tags;  // tags[i * arity + a]
  tags.reserve(tuples.size() * arity);
  {
    std::map<Bytes, crypto::SearchTree::Hash> tag_of_word;
    for (const rel::Tuple& tuple : tuples) {
      for (size_t a = 0; a < arity; ++a) {
        DBPH_ASSIGN_OR_RETURN(Bytes word, ph.mapper().MakeWord(a, tuple.at(a)));
        auto tag = tag_of_word.find(word);
        if (tag == tag_of_word.end()) {
          DBPH_ASSIGN_OR_RETURN(
              core::EncryptedQuery query,
              ph.EncryptQuery(relation, schema.attribute(a).name, tuple.at(a)));
          Bytes trapdoor_bytes;
          query.trapdoor.AppendTo(&trapdoor_bytes);
          tag = tag_of_word
                    .emplace(std::move(word),
                             crypto::SearchTree::TagDigest(trapdoor_bytes))
                    .first;
        }
        tags.push_back(tag->second);
      }
    }
  }
  std::map<crypto::SearchTree::Hash, std::vector<uint64_t>> postings;
  for (size_t i = 0; i < tuples.size(); ++i) {
    const uint64_t position = begin_position + i;
    for (size_t a = 0; a < arity; ++a) {
      auto& list = postings[tags[i * arity + a]];
      if (list.empty() || list.back() != position) list.push_back(position);
    }
  }
  std::vector<crypto::SearchTree::Entry> entries;
  entries.reserve(postings.size());
  for (auto& [tag, positions] : postings) {
    entries.push_back({tag, std::move(positions)});
  }
  return entries;
}

Status Client::AttestCurrentRoot(const std::string& relation) {
  auto it = integrity_.find(relation);
  if (it == integrity_.end()) return Status::OK();
  Envelope request;
  request.type = MessageType::kAttestRoot;
  AppendLengthPrefixed(&request.payload, ToBytes(relation));
  AppendUint64(&request.payload, it->second.epoch);
  MerkleTree::Hash root = it->second.tree.Root();
  request.payload.insert(request.payload.end(), root.begin(), root.end());
  Bytes signature = SignRoot(relation, it->second.epoch, root);
  request.payload.insert(request.payload.end(), signature.begin(),
                         signature.end());
  // Same deposit, second commitment: the search root rides along so the
  // server can hand signed completeness evidence to adopted sessions.
  MerkleTree::Hash search_root = it->second.search.Root();
  request.payload.insert(request.payload.end(), search_root.begin(),
                         search_root.end());
  Bytes search_signature =
      SignSearchRoot(relation, it->second.epoch, search_root);
  request.payload.insert(request.payload.end(), search_signature.begin(),
                         search_signature.end());
  auto response = Call(transport_, request, MessageType::kAttestOk);
  if (!response.ok()) {
    if (verify_mode_ == VerifyMode::kWarn) {
      DBPH_LOG(Warning) << "integrity: attesting root for '" << relation
                        << "' failed: " << response.status().ToString();
      return Status::OK();
    }
    return Status::DataLoss("integrity: root attestation failed: " +
                            response.status().message());
  }
  return Status::OK();
}

Status Client::VerifyResultTrailer(
    const std::string& relation, const swp::Trapdoor* trapdoor,
    const std::vector<swp::EncryptedDocument>& docs, ByteReader* reader,
    bool require_complete) {
  if (verify_mode_ == VerifyMode::kOff) return Status::OK();
  Stopwatch verify_watch;
  Status verdict = [&]() -> Status {
    if (reader->AtEnd()) {
      return Status::DataLoss(
          "server attached no proof (is it running --integrity=off?)");
    }
    DBPH_ASSIGN_OR_RETURN(
        protocol::ResultProof proof,
        protocol::ResultProof::ReadFrom(reader, docs.size()));
    // What follows the row proof depends on the path. A select carries a
    // CompletenessProof (what this query SHOULD have returned); its
    // absence is treated as tampering — stripping it must not downgrade
    // a verified select to a returns-only one. A whole-relation fetch
    // instead carries the search-structure dump (tags + posting lists)
    // plus its owner signature, for bootstrap and cross-checking.
    protocol::CompletenessProof completeness;
    bool has_completeness = false;
    std::vector<crypto::SearchTree::Entry> search_dump;
    Bytes search_dump_signature;
    bool has_search_dump = false;
    if (trapdoor != nullptr) {
      if (reader->AtEnd()) {
        return Status::DataLoss(
            "server attached no completeness proof to the select");
      }
      DBPH_ASSIGN_OR_RETURN(completeness,
                            protocol::CompletenessProof::ReadFrom(
                                reader, docs.size(), proof.leaf_count));
      has_completeness = true;
    } else if (require_complete && !reader->AtEnd()) {
      DBPH_ASSIGN_OR_RETURN(search_dump, protocol::ReadSearchEntries(
                                             reader, proof.leaf_count));
      DBPH_ASSIGN_OR_RETURN(search_dump_signature,
                            reader->ReadLengthPrefixed());
      has_search_dump = true;
    }
    if (!reader->AtEnd()) {
      return Status::DataLoss("trailing bytes after result proof");
    }
    crypto::SearchTree::Hash query_tag{};
    if (trapdoor != nullptr) {
      Bytes trapdoor_bytes;
      trapdoor->AppendTo(&trapdoor_bytes);
      query_tag = crypto::SearchTree::TagDigest(trapdoor_bytes);
    }
    if (proof.positions.size() != docs.size()) {
      return Status::DataLoss("proof does not cover every returned row");
    }
    std::vector<MerkleTree::Hash> leaves;
    leaves.reserve(docs.size());
    for (const auto& doc : docs) leaves.push_back(doc.LeafHash());

    auto it = integrity_.find(relation);
    if (it != integrity_.end()) {
      // Anchored: this session mirrored (or synced) every mutation, so
      // the proof must describe exactly our tree — a replayed response
      // from an older state fails here on epoch/root alone.
      if (proof.epoch != it->second.epoch) {
        return Status::DataLoss("epoch mismatch (stale or replayed result)");
      }
      if (proof.leaf_count != it->second.tree.size() ||
          proof.root != it->second.tree.Root()) {
        return Status::DataLoss("root mismatch (server state diverged)");
      }
      for (size_t i = 0; i < docs.size(); ++i) {
        if (leaves[i] != it->second.tree.leaf(proof.positions[i])) {
          return Status::DataLoss(
              "returned row is not the leaf it claims to be");
        }
      }
      // The leaf-identity checks against our exact tree already bind
      // the result set; re-folding the proof would only re-derive a
      // root we hold. The siblings still must not be corrupt (tampering
      // evidence), but against a local tree that is a pure lookup
      // comparison — zero hashing on the hot verified-select path.
      if (proof.siblings != it->second.tree.SubsetProof(proof.positions)) {
        return Status::DataLoss(
            "sibling hashes do not match the committed tree");
      }
      // Likewise the signature: not needed when anchored, but a
      // present-and-invalid one is tampering evidence all the same.
      if (!proof.root_signature.empty() &&
          !ConstantTimeEqual(proof.root_signature,
                             SignRoot(relation, proof.epoch, proof.root))) {
        return Status::DataLoss("root signature does not verify");
      }
      if (has_completeness) {
        // Anchored completeness: the proof must describe exactly our
        // search mirror — committed entry, index, path and all. A lying
        // server has no degree of freedom left.
        const crypto::SearchTree& search = it->second.search;
        if (completeness.epoch != it->second.epoch) {
          return Status::DataLoss(
              "completeness epoch mismatch (stale search state)");
        }
        if (completeness.tree_size != search.size() ||
            completeness.search_root != search.Root()) {
          return Status::DataLoss(
              "search root mismatch (server search state diverged)");
        }
        const crypto::SearchTree::Entry* committed = search.Find(query_tag);
        if (committed != nullptr) {
          if (completeness.kind != protocol::kCompletenessMember) {
            return Status::DataLoss("server denied a committed match set");
          }
          if (completeness.index != search.LowerBound(query_tag) ||
              completeness.positions != committed->positions ||
              completeness.path != search.MembershipPath(completeness.index)) {
            return Status::DataLoss(
                "completeness proof does not match the committed entry");
          }
        } else if (completeness.kind != protocol::kCompletenessAbsent ||
                   completeness.neighbors !=
                       search.NonMembershipProof(query_tag)) {
          return Status::DataLoss(
              "non-membership proof does not match the committed tree");
        }
        if (!completeness.root_signature.empty() &&
            !ConstantTimeEqual(completeness.root_signature,
                               SignSearchRoot(relation, completeness.epoch,
                                              completeness.search_root))) {
          return Status::DataLoss("search root signature does not verify");
        }
      }
      if (has_search_dump) {
        // Fetch path, anchored: the served dump must rebuild into the
        // exact committed search tree (Assign re-validates sortedness
        // and position bounds on the way).
        crypto::SearchTree fetched;
        DBPH_RETURN_IF_ERROR(
            fetched.Assign(std::move(search_dump), proof.leaf_count));
        if (fetched.Root() != it->second.search.Root()) {
          return Status::DataLoss(
              "search dump does not match the committed search tree");
        }
        if (!search_dump_signature.empty() &&
            !ConstantTimeEqual(
                search_dump_signature,
                SignSearchRoot(relation, proof.epoch, fetched.Root()))) {
          return Status::DataLoss("search root signature does not verify");
        }
      }
    } else {
      // Unanchored (adopted session): fall back to the owner-signed
      // root. Freshness is not checkable here — see SyncIntegrity.
      if (proof.root_signature.empty()) {
        return Status::DataLoss(
            "no local integrity state and no signed root; run "
            "SyncIntegrity() after Adopt()");
      }
      if (!ConstantTimeEqual(proof.root_signature,
                             SignRoot(relation, proof.epoch, proof.root))) {
        return Status::DataLoss("root signature does not verify");
      }
      // Structural check: the claimed rows at the claimed positions,
      // plus the sibling hashes, must fold back into the signed root —
      // binding the result set collectively (drop / substitute /
      // reorder all change the fold). Without a local tree this is the
      // only binding available.
      DBPH_ASSIGN_OR_RETURN(
          MerkleTree::Hash computed,
          MerkleTree::RootFromSubset(proof.leaf_count, proof.positions,
                                     leaves, proof.siblings));
      if (computed != proof.root) {
        return Status::DataLoss("subset proof does not fold to the root");
      }
      if (has_completeness) {
        // Unanchored completeness: no mirror to compare against, so the
        // owner-signed search root is mandatory and the proof must
        // cryptographically verify against it. Same-epoch binding ties
        // the search evidence to the row state it claims to describe.
        if (completeness.root_signature.empty()) {
          return Status::DataLoss(
              "no local integrity state and no signed search root; run "
              "SyncIntegrity() after Adopt()");
        }
        if (!ConstantTimeEqual(completeness.root_signature,
                               SignSearchRoot(relation, completeness.epoch,
                                              completeness.search_root))) {
          return Status::DataLoss("search root signature does not verify");
        }
        if (completeness.epoch != proof.epoch) {
          return Status::DataLoss(
              "completeness epoch differs from the result proof epoch");
        }
        if (completeness.kind == protocol::kCompletenessMember) {
          DBPH_RETURN_IF_ERROR(crypto::SearchTree::VerifyMember(
              completeness.search_root, completeness.tree_size,
              completeness.index, query_tag,
              crypto::SearchTree::PostingDigest(completeness.positions),
              completeness.path));
        } else {
          // A committed tag can never satisfy this: adjacency plus
          // strict ordering leaves no gap for it to hide in.
          DBPH_RETURN_IF_ERROR(crypto::SearchTree::VerifyNonMember(
              completeness.search_root, completeness.tree_size, query_tag,
              completeness.neighbors));
        }
      }
      if (has_search_dump && !search_dump_signature.empty()) {
        // Fetch path, unanchored: all we can check is that the dump is
        // internally valid and owner-signed at this epoch.
        crypto::SearchTree fetched;
        DBPH_RETURN_IF_ERROR(
            fetched.Assign(std::move(search_dump), proof.leaf_count));
        if (!ConstantTimeEqual(
                search_dump_signature,
                SignSearchRoot(relation, proof.epoch, fetched.Root()))) {
          return Status::DataLoss("search root signature does not verify");
        }
      }
    }

    if (has_completeness &&
        completeness.kind == protocol::kCompletenessMember) {
      // The completeness rule itself: every position the owner committed
      // for this tag must be among the returned rows. Supersets are fine
      // (SWP false positives also match); omissions are the lie this
      // whole structure exists to catch.
      for (uint64_t position : completeness.positions) {
        if (!std::binary_search(proof.positions.begin(),
                                proof.positions.end(), position)) {
          return Status::DataLoss(
              "returned rows do not cover the committed match set");
        }
      }
    }

    if (require_complete && proof.leaf_count != docs.size()) {
      // positions are strictly increasing and < leaf_count, so size
      // equality forces positions == [0, n): nothing was withheld.
      return Status::DataLoss("fetch did not return the whole relation");
    }

    if (trapdoor != nullptr) {
      // Every returned row must actually match the query — the match
      // predicate is key-free, so the verifier can re-run it. Catches a
      // server splicing in genuine-but-irrelevant rows (which would
      // pass the tree checks: they ARE leaves). One match context
      // (trapdoor key schedule and scratch) serves the whole result.
      swp::SwpParams params;
      params.word_length = trapdoor->target.size();
      params.check_length = options_.check_length;
      swp::MatchContext matcher(params, *trapdoor);
      for (const auto& doc : docs) {
        if (!swp::DocumentMatches(&matcher, doc)) {
          return Status::DataLoss(
              "returned row does not match the query trapdoor");
        }
      }
    }
    return Status::OK();
  }();
  verify_latency_.Record(static_cast<uint64_t>(verify_watch.ElapsedMicros()));
  if (!verdict.ok()) {
    if (verify_mode_ == VerifyMode::kWarn) {
      DBPH_LOG(Warning) << "integrity: '" << relation
                        << "' verification failed: " << verdict.ToString();
      return Status::OK();
    }
    return Status::DataLoss("integrity: " + verdict.message());
  }
  return Status::OK();
}

Status Client::ApplyDeleteManifest(const std::string& relation,
                                   const swp::Trapdoor& trapdoor,
                                   size_t removed, ByteReader* reader) {
  auto it = integrity_.find(relation);
  if (it == integrity_.end()) {
    // Nothing to mirror; Enforce demands an anchor before mutating.
    if (verify_mode_ == VerifyMode::kEnforce) {
      return Status::DataLoss(
          "integrity: deleting without local state; run SyncIntegrity() "
          "after Adopt()");
    }
    return Status::OK();
  }
  // A mirror exists: it must follow the server through this delete even
  // with verification Off, or a later switch back to Warn/Enforce would
  // raise false tamper alarms against an honest server.
  Status verdict = [&]() -> Status {
    if (reader->AtEnd()) return Status::DataLoss("no delete manifest");
    DBPH_ASSIGN_OR_RETURN(uint32_t count, reader->ReadUint32());
    if (count != removed) {
      return Status::DataLoss("manifest does not cover every deleted row");
    }
    // position (8) + length prefix (4) is the smallest possible entry —
    // bound the reserve by what the payload physically holds.
    if (count > reader->remaining() / 12) {
      return Status::DataLoss("manifest count exceeds payload");
    }
    swp::SwpParams params;
    params.word_length = trapdoor.target.size();
    params.check_length = options_.check_length;
    swp::MatchContext matcher(params, trapdoor);
    std::vector<uint64_t> positions;
    positions.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      DBPH_ASSIGN_OR_RETURN(uint64_t position, reader->ReadUint64());
      DBPH_ASSIGN_OR_RETURN(Bytes doc_bytes, reader->ReadLengthPrefixed());
      if (position >= it->second.tree.size() ||
          (!positions.empty() && position <= positions.back())) {
        return Status::DataLoss("manifest positions not increasing");
      }
      if (MerkleTree::LeafHash(doc_bytes) != it->second.tree.leaf(position)) {
        return Status::DataLoss("deleted row is not the leaf it claims");
      }
      ByteReader doc_reader(doc_bytes);
      DBPH_ASSIGN_OR_RETURN(swp::EncryptedDocument doc,
                            swp::EncryptedDocument::ReadFrom(&doc_reader));
      if (!swp::DocumentMatches(&matcher, doc)) {
        return Status::DataLoss(
            "server deleted a row that does not match the trapdoor");
      }
      positions.push_back(position);
    }
    if (!reader->AtEnd()) {
      return Status::DataLoss("trailing bytes after delete manifest");
    }
    // Under-deletion check: the manifest must cover EVERY position the
    // committed posting list names for this trapdoor — a server that
    // quietly spares a row would otherwise shrink the commitment and
    // hide the survivor from future selects. (Covering MORE is fine:
    // SWP false positives legitimately match and get deleted.)
    Bytes trapdoor_bytes;
    trapdoor.AppendTo(&trapdoor_bytes);
    if (const crypto::SearchTree::Entry* committed = it->second.search.Find(
            crypto::SearchTree::TagDigest(trapdoor_bytes))) {
      for (uint64_t position : committed->positions) {
        if (!std::binary_search(positions.begin(), positions.end(),
                                position)) {
          return Status::DataLoss(
              "delete manifest omits a committed match");
        }
      }
    }
    // Mirror the verified removal; every delete is an epoch, matched
    // rows or not — the same rule the server applies. The search mirror
    // follows through the same deterministic transform the server runs.
    it->second.tree.RemoveSorted(positions);
    it->second.search.ApplyDelete(positions);
    ++it->second.epoch;
    return Status::OK();
  }();
  if (!verdict.ok()) {
    if (verify_mode_ == VerifyMode::kEnforce) {
      return Status::DataLoss("integrity: " + verdict.message());
    }
    // Off/Warn: the server deleted regardless; our mirror can no longer
    // be trusted to match. Drop it so later checks fall back to the
    // signed root instead of failing spuriously.
    if (verify_mode_ == VerifyMode::kWarn) {
      DBPH_LOG(Warning) << "integrity: delete manifest for '" << relation
                        << "' failed (" << verdict.ToString()
                        << "); local state dropped — SyncIntegrity() to "
                           "re-anchor";
    }
    integrity_.erase(it);
    return Status::OK();
  }
  if (verify_mode_ != VerifyMode::kOff) return AttestCurrentRoot(relation);
  return Status::OK();
}

Status Client::SyncIntegrity(const std::string& relation,
                             bool require_signature) {
  Envelope request;
  request.type = MessageType::kFetchRelation;
  request.payload = ToBytes(relation);
  DBPH_ASSIGN_OR_RETURN(
      Envelope response,
      Call(transport_, request, MessageType::kFetchResult));
  ByteReader reader(response.payload);
  DBPH_ASSIGN_OR_RETURN(uint32_t count, reader.ReadUint32());
  std::vector<MerkleTree::Hash> leaves;
  std::vector<uint64_t> positions;
  leaves.reserve(count);
  positions.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DBPH_ASSIGN_OR_RETURN(swp::EncryptedDocument doc,
                          swp::EncryptedDocument::ReadFrom(&reader));
    leaves.push_back(doc.LeafHash());
    positions.push_back(i);
  }
  if (reader.AtEnd()) {
    return Status::FailedPrecondition(
        "integrity: server attached no proof (running --integrity=off?)");
  }
  DBPH_ASSIGN_OR_RETURN(protocol::ResultProof proof,
                        protocol::ResultProof::ReadFrom(&reader, count));
  // After the row proof the fetch carries the search-structure dump
  // (the committed tags with their full posting lists) plus its owner
  // signature — the bootstrap source for the completeness mirror.
  std::vector<crypto::SearchTree::Entry> search_entries;
  Bytes search_signature;
  bool has_search = false;
  if (!reader.AtEnd()) {
    DBPH_ASSIGN_OR_RETURN(search_entries,
                          protocol::ReadSearchEntries(&reader, count));
    DBPH_ASSIGN_OR_RETURN(search_signature, reader.ReadLengthPrefixed());
    has_search = true;
  } else if (require_signature) {
    // An integrity-enabled server always appends the search dump after
    // the row proof, so its absence is a stripping downgrade: adopting
    // an empty mirror here would make every later select verify
    // completeness against tree_size=0 and accept zero-result lies.
    return Status::DataLoss(
        "integrity: fetch carries a row proof but no search section — "
        "completeness downgrade");
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("integrity: trailing bytes after proof");
  }
  if (proof.leaf_count != count || proof.positions.size() != count) {
    return Status::DataLoss("integrity: fetch proof is not complete");
  }
  DBPH_ASSIGN_OR_RETURN(MerkleTree::Hash computed,
                        MerkleTree::RootFromSubset(proof.leaf_count, positions,
                                                   leaves, proof.siblings));
  if (computed != proof.root) {
    return Status::DataLoss("integrity: fetched rows do not fold to root");
  }
  if (proof.root_signature.empty()) {
    if (require_signature) {
      return Status::DataLoss(
          "integrity: current server state carries no owner signature");
    }
  } else if (!ConstantTimeEqual(
                 proof.root_signature,
                 SignRoot(relation, proof.epoch, proof.root))) {
    return Status::DataLoss("integrity: root signature does not verify");
  }
  // The search dump gets the same treatment: rebuild (Assign re-checks
  // sortedness and position bounds against a hostile source) and demand
  // the owner's signature over its root under the search domain.
  crypto::SearchTree search;
  DBPH_RETURN_IF_ERROR(search.Assign(std::move(search_entries), count));
  if (has_search) {
    if (search_signature.empty()) {
      if (require_signature) {
        return Status::DataLoss(
            "integrity: current search state carries no owner signature");
      }
    } else if (!ConstantTimeEqual(
                   search_signature,
                   SignSearchRoot(relation, proof.epoch, search.Root()))) {
      return Status::DataLoss(
          "integrity: search root signature does not verify");
    }
  }
  // Never trade a fresher witnessed anchor for an older (even signed)
  // state: that would convert a detectable rollback into an accepted
  // one. Re-syncing may only move the anchor forward.
  auto existing = integrity_.find(relation);
  if (existing != integrity_.end()) {
    if (proof.epoch < existing->second.epoch) {
      return Status::DataLoss(
          "integrity: server state (epoch " + std::to_string(proof.epoch) +
          ") is older than the witnessed anchor (epoch " +
          std::to_string(existing->second.epoch) + ") — rollback?");
    }
    if (proof.epoch == existing->second.epoch &&
        proof.root != existing->second.tree.Root()) {
      return Status::DataLoss(
          "integrity: server state diverged from the witnessed anchor at "
          "the same epoch");
    }
    if (has_search && proof.epoch == existing->second.epoch &&
        search.Root() != existing->second.search.Root()) {
      return Status::DataLoss(
          "integrity: server search state diverged from the witnessed "
          "anchor at the same epoch");
    }
  }
  IntegrityState state;
  state.tree.Assign(std::move(leaves));
  state.search = std::move(search);
  state.epoch = proof.epoch;
  integrity_[relation] = std::move(state);
  return Status::OK();
}

Result<std::pair<uint64_t, MerkleTree::Hash>> Client::IntegrityAnchor(
    const std::string& relation) const {
  auto it = integrity_.find(relation);
  if (it == integrity_.end()) {
    return Status::NotFound("no integrity state for '" + relation + "'");
  }
  return std::make_pair(it->second.epoch, it->second.tree.Root());
}

Status Client::Adopt(const std::string& relation, const rel::Schema& schema) {
  if (schemes_.count(relation) > 0) return Status::OK();
  // Per-table keys branch off the master key.
  Bytes table_key = crypto::DeriveSubkey(master_key_, "table/" + relation);
  DBPH_ASSIGN_OR_RETURN(core::DatabasePh ph,
                        core::DatabasePh::Create(schema, table_key, options_));
  schemes_.emplace(relation, std::make_unique<core::DatabasePh>(std::move(ph)));
  return Status::OK();
}

Status Client::Outsource(const rel::Relation& relation) {
  DBPH_RETURN_IF_ERROR(Adopt(relation.name(), relation.schema()));
  const core::DatabasePh& ph = *schemes_.at(relation.name());
  DBPH_ASSIGN_OR_RETURN(core::EncryptedRelation enc,
                        ph.EncryptRelation(relation, rng_));

  Envelope request;
  request.type = MessageType::kStoreRelation;
  enc.AppendTo(&request.payload);
  std::vector<crypto::SearchTree::Entry> search_entries;
  if (verify_mode_ != VerifyMode::kOff) {
    // Only the owner can enumerate which trapdoors the plaintext
    // contains — compute the (tag -> positions) map here and ship it
    // with the upload so the server can serve completeness proofs.
    DBPH_ASSIGN_OR_RETURN(
        search_entries,
        BuildSearchEntries(ph, relation.name(), relation.tuples(), 0));
    protocol::AppendSearchEntries(search_entries, &request.payload);
  }
  DBPH_ASSIGN_OR_RETURN(Envelope response,
                        Call(transport_, request, MessageType::kStoreOk));
  (void)response;
  if (verify_mode_ != VerifyMode::kOff) {
    // We uploaded these exact ciphertexts, so we know the server's tree
    // without asking: build the mirror and bless its root.
    IntegrityState state;
    std::vector<MerkleTree::Hash> leaves;
    leaves.reserve(enc.documents.size());
    for (const auto& doc : enc.documents) leaves.push_back(doc.LeafHash());
    state.tree.Assign(std::move(leaves));
    DBPH_RETURN_IF_ERROR(
        state.search.Assign(std::move(search_entries), enc.documents.size()));
    state.epoch = 1;
    integrity_[relation.name()] = std::move(state);
    DBPH_RETURN_IF_ERROR(AttestCurrentRoot(relation.name()));
  } else {
    // A fresh upload obsoletes any mirror kept from an earlier life of
    // this relation name.
    integrity_.erase(relation.name());
  }
  return Status::OK();
}

Result<const core::DatabasePh*> Client::SchemeFor(
    const std::string& relation) const {
  auto it = schemes_.find(relation);
  if (it == schemes_.end()) {
    return Status::NotFound("relation '" + relation + "' not outsourced");
  }
  return it->second.get();
}

Result<std::vector<swp::EncryptedDocument>> Client::RemoteSelect(
    const core::EncryptedQuery& query) {
  Envelope request;
  request.type = MessageType::kSelect;
  query.AppendTo(&request.payload);
  DBPH_ASSIGN_OR_RETURN(
      Envelope response,
      Call(transport_, request, MessageType::kSelectResult));

  ByteReader reader(response.payload);
  DBPH_ASSIGN_OR_RETURN(std::vector<swp::EncryptedDocument> docs,
                        swp::ReadDocumentList(&reader));
  DBPH_RETURN_IF_ERROR(VerifyResultTrailer(query.relation, &query.trapdoor,
                                           docs, &reader,
                                           /*require_complete=*/false));
  return docs;
}

Result<std::vector<std::vector<swp::EncryptedDocument>>>
Client::RemoteSelectBatch(const std::vector<core::EncryptedQuery>& queries) {
  std::vector<std::vector<swp::EncryptedDocument>> results;
  results.reserve(queries.size());
  // The wire protocol bounds a batch at kMaxBatchParts sub-envelopes;
  // larger query lists transparently become multiple round trips.
  for (size_t begin = 0; begin < queries.size();
       begin += protocol::kMaxBatchParts) {
    size_t end =
        std::min<size_t>(queries.size(), begin + protocol::kMaxBatchParts);
    std::vector<Envelope> parts;
    parts.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      Envelope part;
      part.type = MessageType::kSelect;
      queries[i].AppendTo(&part.payload);
      parts.push_back(std::move(part));
    }
    Envelope request;
    request.type = MessageType::kBatchRequest;
    request.payload = protocol::SerializeBatchPayload(parts);
    DBPH_ASSIGN_OR_RETURN(
        Envelope response,
        Call(transport_, request, MessageType::kBatchResponse));

    DBPH_ASSIGN_OR_RETURN(std::vector<Envelope> replies,
                          protocol::ParseBatchPayload(response.payload));
    if (replies.size() != end - begin) {
      return Status::DataLoss("batch response count mismatch");
    }
    for (size_t k = 0; k < replies.size(); ++k) {
      const Envelope& reply = replies[k];
      if (reply.type == MessageType::kError) {
        return protocol::ParseErrorEnvelope(reply);
      }
      if (reply.type != MessageType::kSelectResult) {
        return Status::DataLoss("unexpected sub-response type in batch");
      }
      ByteReader reader(reply.payload);
      DBPH_ASSIGN_OR_RETURN(std::vector<swp::EncryptedDocument> docs,
                            swp::ReadDocumentList(&reader));
      const core::EncryptedQuery& query = queries[begin + k];
      DBPH_RETURN_IF_ERROR(VerifyResultTrailer(query.relation,
                                               &query.trapdoor, docs, &reader,
                                               /*require_complete=*/false));
      results.push_back(std::move(docs));
    }
  }
  return results;
}

Result<std::vector<rel::Relation>> Client::SelectBatch(
    const std::string& relation,
    const std::vector<std::pair<std::string, rel::Value>>& queries) {
  if (queries.empty()) return std::vector<rel::Relation>{};
  DBPH_ASSIGN_OR_RETURN(const core::DatabasePh* ph, SchemeFor(relation));
  std::vector<core::EncryptedQuery> encrypted;
  encrypted.reserve(queries.size());
  for (const auto& [attribute, value] : queries) {
    DBPH_ASSIGN_OR_RETURN(core::EncryptedQuery query,
                          ph->EncryptQuery(relation, attribute, value));
    encrypted.push_back(std::move(query));
  }
  DBPH_ASSIGN_OR_RETURN(auto batches, RemoteSelectBatch(encrypted));

  std::vector<rel::Relation> results;
  results.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    DBPH_ASSIGN_OR_RETURN(
        rel::Relation filtered,
        ph->DecryptAndFilter(batches[i], queries[i].first, queries[i].second));
    results.push_back(std::move(filtered));
  }
  return results;
}

Result<rel::Relation> Client::Select(const std::string& relation,
                                     const std::string& attribute,
                                     const rel::Value& value) {
  DBPH_ASSIGN_OR_RETURN(const core::DatabasePh* ph, SchemeFor(relation));
  DBPH_ASSIGN_OR_RETURN(core::EncryptedQuery query,
                        ph->EncryptQuery(relation, attribute, value));
  DBPH_ASSIGN_OR_RETURN(auto docs, RemoteSelect(query));
  return ph->DecryptAndFilter(docs, attribute, value);
}

Result<rel::Relation> Client::SelectConjunction(
    const std::string& relation,
    const std::vector<std::pair<std::string, rel::Value>>& terms) {
  if (terms.empty()) {
    return Status::InvalidArgument("conjunction needs at least one term");
  }
  DBPH_ASSIGN_OR_RETURN(const core::DatabasePh* ph, SchemeFor(relation));

  // Fetch per-term results, intersect by decrypted tuple identity, and
  // filter exactly.
  rel::Relation result("result", ph->schema());
  rel::Conjunction conjunction;
  for (const auto& [attribute, value] : terms) {
    DBPH_ASSIGN_OR_RETURN(
        rel::ExactMatch match,
        rel::MakeExactMatch(ph->schema(), attribute, value));
    conjunction.Add(std::move(match));
  }

  // All per-term trapdoors go out in one batch round trip; the server
  // evaluates them in parallel. Intersect the match sets by ciphertext
  // identity (the server returns stored documents verbatim, so equal
  // bytes = same record), then decrypt only the survivors of the
  // smallest set and filter exactly — SWP false positives drop here.
  std::vector<core::EncryptedQuery> queries;
  queries.reserve(terms.size());
  for (const auto& [attribute, value] : terms) {
    DBPH_ASSIGN_OR_RETURN(core::EncryptedQuery query,
                          ph->EncryptQuery(relation, attribute, value));
    queries.push_back(std::move(query));
  }
  DBPH_ASSIGN_OR_RETURN(auto batches, RemoteSelectBatch(queries));

  size_t smallest = 0;
  for (size_t i = 1; i < batches.size(); ++i) {
    if (batches[i].size() < batches[smallest].size()) smallest = i;
  }
  std::vector<std::set<Bytes>> other_sets;
  for (size_t i = 0; i < batches.size(); ++i) {
    if (i == smallest) continue;
    std::set<Bytes> identities;
    for (const auto& doc : batches[i]) {
      Bytes serialized;
      doc.AppendTo(&serialized);
      identities.insert(std::move(serialized));
    }
    other_sets.push_back(std::move(identities));
  }
  for (const auto& doc : batches[smallest]) {
    Bytes serialized;
    doc.AppendTo(&serialized);
    bool in_all = true;
    for (const auto& identities : other_sets) {
      if (identities.count(serialized) == 0) {
        in_all = false;
        break;
      }
    }
    if (!in_all) continue;
    DBPH_ASSIGN_OR_RETURN(rel::Tuple tuple, ph->DecryptTuple(doc));
    if (conjunction.Evaluate(tuple)) {
      DBPH_RETURN_IF_ERROR(result.Insert(std::move(tuple)));
    }
  }
  return result;
}

Result<protocol::PlanReport> Client::Explain(const std::string& relation,
                                             const std::string& attribute,
                                             const rel::Value& value) {
  DBPH_ASSIGN_OR_RETURN(const core::DatabasePh* ph, SchemeFor(relation));
  DBPH_ASSIGN_OR_RETURN(core::EncryptedQuery query,
                        ph->EncryptQuery(relation, attribute, value));
  Envelope request;
  request.type = MessageType::kExplain;
  query.AppendTo(&request.payload);
  DBPH_ASSIGN_OR_RETURN(
      Envelope response,
      Call(transport_, request, MessageType::kExplainResult));
  ByteReader reader(response.payload);
  DBPH_ASSIGN_OR_RETURN(protocol::PlanReport report,
                        protocol::PlanReport::ReadFrom(&reader));
  if (!reader.AtEnd()) return Status::DataLoss("trailing bytes after plan");
  return report;
}

Status Client::Insert(const std::string& relation,
                      const std::vector<rel::Tuple>& tuples) {
  DBPH_ASSIGN_OR_RETURN(const core::DatabasePh* ph, SchemeFor(relation));
  Envelope request;
  request.type = MessageType::kAppendTuples;
  AppendLengthPrefixed(&request.payload, ToBytes(relation));
  AppendUint32(&request.payload, static_cast<uint32_t>(tuples.size()));
  // The mirror tracks the server whenever it exists, whatever the
  // verify mode — a mutation issued while verification is Off must not
  // desync state that a later switch back to Warn/Enforce relies on.
  std::vector<MerkleTree::Hash> new_leaves;
  const bool track = integrity_.count(relation) > 0;
  if (verify_mode_ == VerifyMode::kEnforce && !track) {
    return Status::DataLoss(
        "integrity: inserting without local state; run SyncIntegrity() "
        "after Adopt()");
  }
  if (track) new_leaves.reserve(tuples.size());
  for (const rel::Tuple& tuple : tuples) {
    DBPH_ASSIGN_OR_RETURN(swp::EncryptedDocument doc,
                          ph->EncryptTuple(tuple, rng_));
    // Hash the exact bytes just appended to the request — the same
    // bytes the server will store and leaf-hash — with no second
    // serialization.
    size_t doc_begin = request.payload.size();
    doc.AppendTo(&request.payload);
    if (track) {
      new_leaves.push_back(
          MerkleTree::LeafHash(request.payload.data() + doc_begin,
                               request.payload.size() - doc_begin));
    }
  }
  // The search delta rides in the same request: the (tag -> positions)
  // pairs these tuples contribute at the leaf positions they land on.
  std::vector<crypto::SearchTree::Entry> search_delta;
  uint64_t append_begin = 0;
  if (track) {
    append_begin = integrity_.at(relation).tree.size();
    DBPH_ASSIGN_OR_RETURN(
        search_delta, BuildSearchEntries(*ph, relation, tuples, append_begin));
    protocol::AppendSearchEntries(search_delta, &request.payload);
  }
  DBPH_ASSIGN_OR_RETURN(Envelope response,
                        Call(transport_, request, MessageType::kAppendOk));
  (void)response;
  if (track) {
    // Mirror the append (the server stores exactly these bytes, in this
    // order). Every append is an epoch, even an empty one — the server
    // applies the same rule. The root is re-blessed only with
    // verification on: Off promises the PR-4 wire behavior (no extra
    // round trips), and the next attested mutation re-signs anyway.
    IntegrityState& state = integrity_.at(relation);
    for (const auto& leaf : new_leaves) state.tree.AppendLeaf(leaf);
    DBPH_RETURN_IF_ERROR(state.search.ApplyAppendDelta(
        search_delta, append_begin, append_begin + tuples.size()));
    ++state.epoch;
    if (verify_mode_ != VerifyMode::kOff) {
      DBPH_RETURN_IF_ERROR(AttestCurrentRoot(relation));
    }
  }
  return Status::OK();
}

Result<size_t> Client::DeleteWhere(const std::string& relation,
                                   const std::string& attribute,
                                   const rel::Value& value) {
  DBPH_ASSIGN_OR_RETURN(const core::DatabasePh* ph, SchemeFor(relation));
  // Refuse before anything reaches the wire: once the server deletes,
  // an unanchored session could neither verify the manifest nor keep
  // the attested root current.
  if (verify_mode_ == VerifyMode::kEnforce &&
      integrity_.count(relation) == 0) {
    return Status::DataLoss(
        "integrity: deleting without local state; run SyncIntegrity() "
        "after Adopt()");
  }
  DBPH_ASSIGN_OR_RETURN(core::EncryptedQuery query,
                        ph->EncryptQuery(relation, attribute, value));
  Envelope request;
  request.type = MessageType::kDeleteWhere;
  query.AppendTo(&request.payload);
  DBPH_ASSIGN_OR_RETURN(
      Envelope response,
      Call(transport_, request, MessageType::kDeleteResult));
  ByteReader reader(response.payload);
  DBPH_ASSIGN_OR_RETURN(uint32_t removed, reader.ReadUint32());
  DBPH_RETURN_IF_ERROR(ApplyDeleteManifest(relation, query.trapdoor,
                                           static_cast<size_t>(removed),
                                           &reader));
  return static_cast<size_t>(removed);
}

Result<rel::Relation> Client::Recall(const std::string& relation) {
  DBPH_ASSIGN_OR_RETURN(const core::DatabasePh* ph, SchemeFor(relation));
  Envelope request;
  request.type = MessageType::kFetchRelation;
  request.payload = ToBytes(relation);
  DBPH_ASSIGN_OR_RETURN(
      Envelope response,
      Call(transport_, request, MessageType::kFetchResult));

  ByteReader reader(response.payload);
  DBPH_ASSIGN_OR_RETURN(uint32_t count, reader.ReadUint32());
  std::vector<swp::EncryptedDocument> docs;
  docs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DBPH_ASSIGN_OR_RETURN(swp::EncryptedDocument doc,
                          swp::EncryptedDocument::ReadFrom(&reader));
    docs.push_back(std::move(doc));
  }
  // Recall is the completeness case: the proof must cover positions
  // [0, n) — the server cannot withhold a single row undetected.
  DBPH_RETURN_IF_ERROR(VerifyResultTrailer(relation, /*trapdoor=*/nullptr,
                                           docs, &reader,
                                           /*require_complete=*/true));
  rel::Relation out(relation, ph->schema());
  for (const auto& doc : docs) {
    DBPH_ASSIGN_OR_RETURN(rel::Tuple tuple, ph->DecryptTuple(doc));
    DBPH_RETURN_IF_ERROR(out.Insert(std::move(tuple)));
  }
  return out;
}

Status Client::Flush() {
  Envelope request;
  request.type = MessageType::kFlush;
  DBPH_ASSIGN_OR_RETURN(Envelope response,
                        Call(transport_, request, MessageType::kFlushOk));
  (void)response;
  return Status::OK();
}

Result<obs::RegistrySnapshot> Client::Stats() {
  Envelope request;
  request.type = MessageType::kStats;
  DBPH_ASSIGN_OR_RETURN(Envelope response,
                        Call(transport_, request, MessageType::kStatsResult));
  ByteReader reader(response.payload);
  DBPH_ASSIGN_OR_RETURN(obs::RegistrySnapshot snapshot,
                        obs::RegistrySnapshot::ReadFrom(&reader));
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes after stats snapshot");
  }
  return snapshot;
}

Result<obs::leakage::LeakageReport> Client::LeakageReport() {
  Envelope request;
  request.type = MessageType::kLeakageReport;
  DBPH_ASSIGN_OR_RETURN(
      Envelope response,
      Call(transport_, request, MessageType::kLeakageReportResult));
  ByteReader reader(response.payload);
  DBPH_ASSIGN_OR_RETURN(obs::leakage::LeakageReport report,
                        obs::leakage::LeakageReport::ReadFrom(&reader));
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes after leakage report");
  }
  return report;
}

Status Client::Drop(const std::string& relation) {
  Envelope request;
  request.type = MessageType::kDropRelation;
  request.payload = ToBytes(relation);
  DBPH_ASSIGN_OR_RETURN(Envelope response,
                        Call(transport_, request, MessageType::kDropOk));
  (void)response;
  integrity_.erase(relation);
  return Status::OK();
}

}  // namespace client
}  // namespace dbph
