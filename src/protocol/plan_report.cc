#include "protocol/plan_report.h"

#include <sstream>

#include "common/macros.h"

namespace dbph {
namespace protocol {

void PlanReport::AppendTo(Bytes* out) const {
  AppendLengthPrefixed(out, ToBytes(relation));
  out->push_back(static_cast<uint8_t>(access_path));
  AppendUint32(out, num_records);
  AppendUint32(out, posting_size);
  AppendUint32(out, num_shards);
  out->push_back(will_memoize ? 1 : 0);
  out->push_back(index_enabled ? 1 : 0);
  AppendUint32(out, indexed_trapdoors);
  AppendUint64(out, match_evals);
}

Result<PlanReport> PlanReport::ReadFrom(ByteReader* reader) {
  PlanReport report;
  DBPH_ASSIGN_OR_RETURN(Bytes name, reader->ReadLengthPrefixed());
  report.relation = ::dbph::ToString(name);  // member ToString shadows it
  DBPH_ASSIGN_OR_RETURN(Bytes path, reader->ReadRaw(1));
  if (path[0] > static_cast<uint8_t>(PlanAccessPath::kIndexLookup)) {
    return Status::DataLoss("unknown access path in plan report");
  }
  report.access_path = static_cast<PlanAccessPath>(path[0]);
  DBPH_ASSIGN_OR_RETURN(report.num_records, reader->ReadUint32());
  DBPH_ASSIGN_OR_RETURN(report.posting_size, reader->ReadUint32());
  DBPH_ASSIGN_OR_RETURN(report.num_shards, reader->ReadUint32());
  DBPH_ASSIGN_OR_RETURN(Bytes memoize, reader->ReadRaw(1));
  if (memoize[0] > 1) return Status::DataLoss("malformed plan report");
  report.will_memoize = memoize[0] == 1;
  DBPH_ASSIGN_OR_RETURN(Bytes enabled, reader->ReadRaw(1));
  if (enabled[0] > 1) return Status::DataLoss("malformed plan report");
  report.index_enabled = enabled[0] == 1;
  DBPH_ASSIGN_OR_RETURN(report.indexed_trapdoors, reader->ReadUint32());
  DBPH_ASSIGN_OR_RETURN(report.match_evals, reader->ReadUint64());
  return report;
}

std::string PlanReport::ToString() const {
  std::ostringstream out;
  if (access_path == PlanAccessPath::kIndexLookup) {
    out << "IndexLookup on " << relation << "  (trapdoor posting list: "
        << posting_size << " of " << num_records << " documents fetched";
    if (match_evals > 0) {
      out << ", " << match_evals
          << " PRF evaluation(s) on the rows stored since";
    }
    out << (will_memoize ? ", result will be memoized" : "") << ")";
  } else {
    out << "FullScan on " << relation << "  (" << num_records
        << " documents across " << num_shards << " shard(s), " << match_evals
        << " PRF evaluation(s)"
        << (will_memoize ? ", result will be memoized" : "") << ")";
  }
  out << "\n  trapdoor index: "
      << (index_enabled ? "enabled" : "disabled") << ", "
      << indexed_trapdoors << " trapdoor(s) memoized for this relation";
  return out.str();
}

}  // namespace protocol
}  // namespace dbph
