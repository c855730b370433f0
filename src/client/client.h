#ifndef DBPH_CLIENT_CLIENT_H_
#define DBPH_CLIENT_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/random.h"
#include "crypto/search_tree.h"
#include "dbph/scheme.h"
#include "obs/leakage/report.h"
#include "obs/metrics.h"
#include "protocol/plan_report.h"
#include "protocol/result_proof.h"
#include "relation/relation.h"

namespace dbph {
namespace client {

/// How strictly the client checks the server's Merkle result proofs.
///
///  - kOff:     proofs are ignored (and no local tree is kept) — the
///              PR-4 behavior, byte-for-byte.
///  - kWarn:    every response is verified; a failure logs a warning and
///              the data is returned anyway (migration / observability).
///  - kEnforce: a failed or missing proof fails the operation — the
///              malicious-server deployment mode.
///
/// Verification compares the proof against the client's own Merkle tree
/// (mirrored through every mutation this client issued) and, for an
/// adopted session without history, against the owner-signed root — see
/// Client::SyncIntegrity and docs/SECURITY.md.
enum class VerifyMode { kOff, kWarn, kEnforce };

/// Sends a serialized request to the server, returns its serialized
/// response. In-process deployments bind this to
/// UntrustedServer::HandleRequest; network deployments bind it to
/// net::TcpTransport::AsTransport(), which carries the same bytes in
/// length-prefixed frames to a NetServer/dbph_serverd.
using Transport = std::function<Bytes(const Bytes&)>;

/// \brief Alex: the data owner.
///
/// Owns the master key and a DatabasePh per outsourced relation (each
/// derived from the master via HKDF, so one secret covers the whole
/// catalog). All traffic to Eve goes through the byte-level wire protocol
/// so the adversary's transcript is realistic.
class Client {
 public:
  /// `rng` must outlive the client. Pass crypto::DefaultRng() in
  /// production; seeded HmacDrbg in experiments.
  Client(Bytes master_key, Transport transport, crypto::Rng* rng,
         core::DbphOptions options = {});

  /// Encrypts `relation` tuple-by-tuple and stores it with the server.
  Status Outsource(const rel::Relation& relation);

  /// Registers the PH scheme for a relation that is *already* stored with
  /// the server (e.g. a second session reattaching over the network with
  /// the same master key) without uploading anything: all keys derive
  /// from the master, so any holder of it can address the ciphertext.
  Status Adopt(const std::string& relation, const rel::Schema& schema);

  /// sigma_{attribute = value}: encrypt the query, execute remotely,
  /// decrypt the returned documents and drop SWP false positives.
  Result<rel::Relation> Select(const std::string& relation,
                               const std::string& attribute,
                               const rel::Value& value);

  /// Batched select: encrypts every sigma_{attribute = value} query and
  /// ships them in a kBatchRequest — normally one round trip (lists
  /// longer than protocol::kMaxBatchParts are transparently split into
  /// one round trip per chunk) — and the server evaluates the trapdoors
  /// in parallel across shards and queries. results[i] corresponds to
  /// queries[i] and equals what Select(queries[i]) would have returned;
  /// the server's observation log likewise gains one entry per query,
  /// exactly as if the selects had been sent one by one. Chunks are not
  /// atomic with respect to interleaved writers, and log entries from
  /// completed chunks persist even if a later chunk fails.
  Result<std::vector<rel::Relation>> SelectBatch(
      const std::string& relation,
      const std::vector<std::pair<std::string, rel::Value>>& queries);

  /// Conjunctive select: all per-term trapdoors travel in one batch
  /// request (a single round trip), the per-term match sets are
  /// intersected client-side by ciphertext identity, and the survivors
  /// are decrypted and filtered exactly.
  ///
  /// Leakage note: Eve sees one query observation per term (each term
  /// counts toward q in the paper's accounting), including every
  /// term's match set — strictly more than the previous strategy of
  /// executing only the first term remotely and filtering the rest
  /// client-side. The trade: the server can evaluate all terms in one
  /// parallel wave and the client decrypts only the intersection
  /// instead of the whole first-term candidate set.
  Result<rel::Relation> SelectConjunction(
      const std::string& relation,
      const std::vector<std::pair<std::string, rel::Value>>& terms);

  /// EXPLAIN for sigma_{attribute = value}: asks the server how it
  /// would execute this exact select right now — trapdoor-index lookup
  /// or sharded full scan — without executing it. Trapdoors are
  /// deterministic, so the report describes precisely the plan the same
  /// Select call would take next. Leakage: Eve receives the trapdoor
  /// bytes (as she would for the select itself) but computes no matches;
  /// an EXPLAIN therefore reveals no more than the select it describes.
  Result<protocol::PlanReport> Explain(const std::string& relation,
                                       const std::string& attribute,
                                       const rel::Value& value);

  /// Appends tuples to an already-outsourced relation. Each tuple is
  /// encrypted under the relation's key with a fresh nonce — appends are
  /// indistinguishable from the original upload.
  Status Insert(const std::string& relation,
                const std::vector<rel::Tuple>& tuples);

  /// Deletes every tuple matching sigma_{attribute = value} on the
  /// server; returns how many documents were removed. NOTE: like selects,
  /// deletions reveal the matched identities to Eve — this is a q > 0
  /// operation in the paper's accounting.
  Result<size_t> DeleteWhere(const std::string& relation,
                             const std::string& attribute,
                             const rel::Value& value);

  /// The "contract cancelled" path: fetches every stored document,
  /// decrypts locally, and returns the plaintext relation. SWP false
  /// positives cannot occur (no trapdoors involved).
  Result<rel::Relation> Recall(const std::string& relation);

  /// Asks the server to forget a relation (local keys are kept, so a
  /// re-Outsource re-encrypts under fresh nonces).
  Status Drop(const std::string& relation);

  /// Demands a durability point: when this returns OK, every mutation
  /// the server acknowledged to this client is on stable storage (a
  /// durable deployment fsyncs its write-ahead log; a memory-only server
  /// answers trivially). Keys-free, leaks only timing.
  Status Flush();

  /// Fetches the server's live metrics snapshot (kStats): per-op
  /// counters, stage latency histograms, net/WAL/index gauges. Keys-free
  /// and read-only; the STATS REPL command and operator tooling render
  /// the result with RenderText()/RenderPrometheus().
  Result<obs::RegistrySnapshot> Stats();

  /// Fetches the server's live leakage self-audit (kLeakageReport):
  /// per-relation tag-frequency spectra over salted digests, empirical
  /// entropy, result-size distributions per access path, and the
  /// frequency-attack advantage Eve currently enjoys. Keys-free and
  /// read-only; fails with kFailedPrecondition when the server runs
  /// --leakage=off. The LEAKAGE REPL command renders the result with
  /// RenderText().
  Result<obs::leakage::LeakageReport> LeakageReport();

  /// Client-side proof verification latency (microseconds per verified
  /// response) — the client's own cost of the integrity layer. Records
  /// only while verify_mode is Warn/Enforce.
  const obs::Histogram& verify_latency() const { return verify_latency_; }

  // -------- result integrity (Merkle-authenticated responses) --------

  /// Selects how strictly responses are verified. Switching modes mid-
  /// session is allowed; state tracked while verification was on is
  /// kept. With verification on, every mutation this client issues also
  /// deposits a signed root with the server (kAttestRoot).
  void set_verify_mode(VerifyMode mode) { verify_mode_ = mode; }
  VerifyMode verify_mode() const { return verify_mode_; }

  /// Bootstraps integrity state for a relation this session did not
  /// upload (an Adopt-ed reattach): fetches every stored document with
  /// the whole-relation completeness proof, rebuilds the Merkle tree
  /// locally, and anchors (root, epoch). With `require_signature` the
  /// server's proof must carry a valid owner HMAC over that root —
  /// rejecting a server that fabricated state from scratch; without it
  /// the current state is trusted on first use (the REPL's VERIFY
  /// toggle), after which any divergence is detected.
  ///
  /// Freshness caveat: a fresh session has no way to tell the latest
  /// signed root from an older one (a rolled-back-but-signed state
  /// verifies). Sessions that witnessed the mutations detect rollback by
  /// epoch; out-of-band epoch pinning closes the gap for reattaches.
  Status SyncIntegrity(const std::string& relation,
                       bool require_signature = true);

  /// The tracked (epoch, root) for a relation, if any — exposed for
  /// tests and for operators pinning epochs out of band.
  Result<std::pair<uint64_t, crypto::MerkleTree::Hash>> IntegrityAnchor(
      const std::string& relation) const;

  /// The PH instance bound to an outsourced relation (exposed for the
  /// security games, which need Eq directly).
  Result<const core::DatabasePh*> SchemeFor(
      const std::string& relation) const;

 private:
  /// Per-relation mirror of the server's Merkle state, maintained by the
  /// mutations this client issues (it is the writer, so it can predict
  /// every root) or bootstrapped by SyncIntegrity. The full leaf-hash
  /// vector is kept — 32 bytes per stored document — which lets
  /// verification compare returned rows directly against the exact leaf
  /// they claim to be.
  struct IntegrityState {
    crypto::MerkleTree tree;
    uint64_t epoch = 0;
    /// Mirror of the authenticated search structure: the sorted
    /// (trapdoor tag -> posting list) commitment this client uploaded
    /// (Outsource/Insert compute it from plaintext) or adopted from a
    /// signed dump (SyncIntegrity). Select-path CompletenessProofs are
    /// checked against this mirror's root and committed posting lists.
    crypto::SearchTree search;
  };

  Result<std::vector<swp::EncryptedDocument>> RemoteSelect(
      const core::EncryptedQuery& query);

  /// One kBatchRequest round trip; results align with `queries`. Fails
  /// as a whole if any sub-select failed.
  Result<std::vector<std::vector<swp::EncryptedDocument>>> RemoteSelectBatch(
      const std::vector<core::EncryptedQuery>& queries);

  /// HMAC over (relation, epoch, root) under the relation's derived
  /// integrity key — what kAttestRoot deposits and proofs echo.
  Bytes SignRoot(const std::string& relation, uint64_t epoch,
                 const crypto::MerkleTree::Hash& root);

  /// Same key, separate domain: the owner's blessing of the SEARCH root
  /// (the sorted trapdoor-tag tree). Distinct domains keep a row-root
  /// signature from ever vouching for a search root or vice versa.
  Bytes SignSearchRoot(const std::string& relation, uint64_t epoch,
                       const crypto::MerkleTree::Hash& root);

  /// The relation's integrity key (HKDF of the master) as an HMAC
  /// schedule, derived on first use and kept: signing and checking a
  /// root then costs no HKDF and no key-schedule rebuild.
  const crypto::HmacSha256Precomputed& IntegrityKey(
      const std::string& relation);

  /// Enumerates the (trapdoor tag -> leaf positions) entries the given
  /// tuples contribute when stored at positions [begin_position,
  /// begin_position + tuples.size()): one deterministic trapdoor per
  /// (attribute, value) of every tuple, digested and grouped. Only the
  /// data owner can compute this — the server sees ciphertext.
  Result<std::vector<crypto::SearchTree::Entry>> BuildSearchEntries(
      const core::DatabasePh& ph, const std::string& relation,
      const std::vector<rel::Tuple>& tuples, uint64_t begin_position) const;

  /// Deposits the signed current local root with the server. Respects
  /// the verify mode: Enforce propagates failures, Warn logs them.
  Status AttestCurrentRoot(const std::string& relation);

  /// Verifies the proof trailing a select/fetch response against the
  /// local tree (or, unanchored, the signed root). `trapdoor` non-null
  /// adds the match re-check per returned document; `require_complete`
  /// demands positions == [0, n) (Recall). Honors verify_mode_: returns
  /// OK in kOff without reading, logs-and-passes in kWarn.
  Status VerifyResultTrailer(const std::string& relation,
                             const swp::Trapdoor* trapdoor,
                             const std::vector<swp::EncryptedDocument>& docs,
                             ByteReader* reader, bool require_complete);

  /// The delete manifest: checks every removed (position, document)
  /// against the local tree and the trapdoor, then mirrors the removal
  /// and bumps the epoch. Honors verify_mode_.
  Status ApplyDeleteManifest(const std::string& relation,
                             const swp::Trapdoor& trapdoor, size_t removed,
                             ByteReader* reader);

  Bytes master_key_;
  Transport transport_;
  crypto::Rng* rng_;
  core::DbphOptions options_;
  std::map<std::string, std::unique_ptr<core::DatabasePh>> schemes_;
  VerifyMode verify_mode_ = VerifyMode::kOff;
  std::map<std::string, IntegrityState> integrity_;
  /// Per-relation integrity key schedules. They depend only on the
  /// master key and the relation name, so they outlive any mirror.
  std::map<std::string, crypto::HmacSha256Precomputed> integrity_keys_;
  obs::Histogram verify_latency_{obs::Unit::kMicros};
};

}  // namespace client
}  // namespace dbph

#endif  // DBPH_CLIENT_CLIENT_H_
