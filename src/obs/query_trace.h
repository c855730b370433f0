#ifndef DBPH_OBS_QUERY_TRACE_H_
#define DBPH_OBS_QUERY_TRACE_H_

#include <cstdint>
#include <sstream>
#include <string>

#include "common/stopwatch.h"

namespace dbph {
namespace obs {

/// \brief Per-request span breakdown: where one request's wall time went,
/// stage by stage. Every request fills a stack-local trace of its own —
/// any number of reads run concurrently, and the read legs of a locked
/// batch add to their batch's trace. The trace folds into the registry
/// histograms when the request completes; the slow-query log renders it
/// when the total crosses --slow-query-ms.
///
/// Redaction contract: a rendered trace carries the operation, relation
/// name, stage timings, and result size — all metadata Eve observes
/// anyway. It must NEVER carry trapdoor or ciphertext bytes; the
/// slow-query log is expected to end up in log aggregators with weaker
/// access control than the store itself (see docs/OPERATIONS.md).
struct QueryTrace {
  const char* op = "";       ///< wire op name ("select", "batch", ...)
  std::string relation;      ///< relation name ("" when not applicable)
  uint64_t parse_micros = 0;       ///< envelope + payload parse
  uint64_t lock_wait_micros = 0;   ///< dispatch-lock wait (mutations) or
                                   ///< observation-log-mutex wait (reads)
  uint64_t plan_micros = 0;        ///< access-path decisions (selects)
  uint64_t execute_micros = 0;     ///< scan/index execution (selects)
  uint64_t execute_scan_micros = 0;   ///< execute share spent full-scanning
  uint64_t execute_index_micros = 0;  ///< execute share spent in index lookups
  uint64_t proof_micros = 0;       ///< Merkle proof build (integrity on)
  uint64_t serialize_micros = 0;   ///< response envelope serialization
  uint64_t total_micros = 0;       ///< parse through serialize, inclusive
  bool used_index = false;         ///< any select leg took the index path
  uint64_t result_size = 0;        ///< documents returned (selects)
  uint64_t match_evals = 0;        ///< PRF evaluations the scan kernel ran

  void Reset() { *this = QueryTrace{}; }

  /// One-line rendering for the slow-query log (redaction contract
  /// above applies: metadata and timings only).
  std::string Describe() const {
    std::ostringstream out;
    out << "op=" << op;
    if (!relation.empty()) out << " relation=" << relation;
    out << " total_us=" << total_micros << " parse_us=" << parse_micros
        << " lock_wait_us=" << lock_wait_micros << " plan_us=" << plan_micros
        << " execute_us=" << execute_micros;
    // The per-path split only exists for planned selects; keep the line
    // short for every other op.
    if (execute_scan_micros != 0 || execute_index_micros != 0) {
      out << " execute_scan_us=" << execute_scan_micros
          << " execute_index_us=" << execute_index_micros;
    }
    out << " proof_us=" << proof_micros
        << " serialize_us=" << serialize_micros
        << " path=" << (used_index ? "index" : "scan")
        << " results=" << result_size;
    // Only kernel scans count evaluations; omit the field elsewhere so
    // index-path and mutation lines stay short.
    if (match_evals != 0) out << " match_evals=" << match_evals;
    return out.str();
  }
};

/// RAII stage timer: adds the elapsed microseconds to `*slot` when it
/// goes out of scope (or at Stop). Construct with a null slot to make it
/// a no-op — the disabled-metrics path costs one branch, no clock reads.
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(uint64_t* slot) : slot_(slot) {
    if (slot_ != nullptr) watch_.Reset();
  }
  ~ScopedStageTimer() { Stop(); }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

  void Stop() {
    if (slot_ != nullptr) {
      *slot_ += static_cast<uint64_t>(watch_.ElapsedMicros());
      slot_ = nullptr;
    }
  }

 private:
  uint64_t* slot_;
  Stopwatch watch_;
};

}  // namespace obs
}  // namespace dbph

#endif  // DBPH_OBS_QUERY_TRACE_H_
