#ifndef DBPH_PROTOCOL_PLAN_REPORT_H_
#define DBPH_PROTOCOL_PLAN_REPORT_H_

#include <string>

#include "common/bytes.h"
#include "common/result.h"

namespace dbph {
namespace protocol {

/// Which access path a select takes on the server: a full trapdoor scan,
/// or the answer the trapdoor memo kept from an earlier select.
enum class PlanAccessPath : uint8_t {
  kFullScan = 0,      ///< sharded trapdoor scan over every stored document
  kIndexLookup = 1,   ///< memo hit: fetch the memoized rows still stored,
                      ///< scan only the rows stored since
};

/// \brief The payload of a kExplainResult envelope: how the server would
/// execute a select right now, without executing it.
///
/// Everything in here is derived from data Eve already holds (her
/// ciphertext, the answers she memoized, her shard configuration), so
/// reporting it to the client reveals nothing the client's own query
/// history did not already determine.
struct PlanReport {
  std::string relation;
  PlanAccessPath access_path = PlanAccessPath::kFullScan;
  /// Documents a full scan of this relation touches.
  uint32_t num_records = 0;
  /// Memoized rows the index path fetches (the entry's rows still
  /// stored); only meaningful when access_path == kIndexLookup.
  uint32_t posting_size = 0;
  /// Shards a full scan splits into.
  uint32_t num_shards = 0;
  /// True when executing this plan would memoize its answer: a scan of
  /// a trapdoor the memo has room for, or a hit whose entry is stale (it
  /// scans rows stored since, or lists rows deleted since).
  bool will_memoize = false;
  /// False when the server runs with the trapdoor index disabled.
  bool index_enabled = false;
  /// Trapdoors currently memoized for this relation.
  uint32_t indexed_trapdoors = 0;
  /// PRF evaluations executing this plan performs: the relation's total
  /// stored word slots on the scan path (every slot matched once); on the
  /// index path the word slots of the rows stored since the entry was
  /// memoized (0 when it is fresh).
  uint64_t match_evals = 0;

  void AppendTo(Bytes* out) const;
  static Result<PlanReport> ReadFrom(ByteReader* reader);

  /// Human-readable EXPLAIN output for the REPL and examples.
  std::string ToString() const;
};

}  // namespace protocol
}  // namespace dbph

#endif  // DBPH_PROTOCOL_PLAN_REPORT_H_
