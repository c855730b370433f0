#ifndef DBPH_STORAGE_HEAPFILE_H_
#define DBPH_STORAGE_HEAPFILE_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace dbph {
namespace storage {

/// \brief Identifies a record inside a HeapFile: page number + slot.
struct RecordId {
  uint32_t page = 0;
  uint16_t slot = 0;

  bool operator==(const RecordId& other) const = default;
  bool operator<(const RecordId& other) const {
    return page != other.page ? page < other.page : slot < other.slot;
  }

  /// Packs into a 64-bit value for use in indexes.
  uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static RecordId Unpack(uint64_t packed) {
    RecordId rid;
    rid.page = static_cast<uint32_t>(packed >> 16);
    rid.slot = static_cast<uint16_t>(packed & 0xffff);
    return rid;
  }
};

/// \brief Slotted-page record store: the plaintext baseline
/// (baseline::PlainEngine) keeps its rows here.
///
/// Pages are fixed-size in-memory buffers with a classic slot directory:
/// record data grows from the front, the slot array addresses it, deleted
/// slots become tombstones and their space is reclaimed by page-local
/// compaction. Records larger than a page get a dedicated oversized page.
class HeapFile {
 public:
  static constexpr size_t kDefaultPageSize = 4096;

  explicit HeapFile(size_t page_size = kDefaultPageSize);

  /// Stores a record, returns its id.
  RecordId Insert(const Bytes& record);

  /// Fetches a record. kNotFound after deletion or for a bogus id.
  Result<Bytes> Get(RecordId rid) const;

  /// Tombstones a record. kNotFound when absent.
  Status Delete(RecordId rid);

  /// Overwrites in place when the new payload fits the old slot's space;
  /// otherwise deletes + reinserts and returns the (possibly new) id.
  Result<RecordId> Update(RecordId rid, const Bytes& record);

  /// Live record ids in storage order.
  std::vector<RecordId> AllRecords() const;

  size_t num_records() const { return num_records_; }
  size_t num_pages() const { return pages_.size(); }
  /// Total payload bytes currently live.
  size_t live_bytes() const { return live_bytes_; }

 private:
  struct Slot {
    uint32_t offset = 0;
    uint32_t length = 0;
    bool live = false;
  };
  struct Page {
    Bytes data;
    std::vector<Slot> slots;
    size_t free_start = 0;  // next write offset into data
    size_t live_bytes = 0;
    bool oversized = false;
  };

  /// Reclaims tombstoned space in `page` by sliding live records left.
  void Compact(Page* page);
  bool FitsInPage(const Page& page, size_t len) const;

  size_t page_size_;
  std::vector<Page> pages_;
  size_t num_records_ = 0;
  size_t live_bytes_ = 0;
};

}  // namespace storage
}  // namespace dbph

#endif  // DBPH_STORAGE_HEAPFILE_H_
