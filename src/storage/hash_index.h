#ifndef DBPH_STORAGE_HASH_INDEX_H_
#define DBPH_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"

namespace dbph {
namespace storage {

/// \brief Unordered index from byte-string keys to record-id posting lists.
///
/// The bucketization and Damiani servers index ciphertext tuples by their
/// deterministic attribute labels; equality probes dominate, so a hash
/// index is the natural structure (the B+tree remains available when order
/// matters).
class HashIndex {
 public:
  void Insert(const Bytes& key, uint64_t value);

  /// All values for key (empty when absent).
  const std::vector<uint64_t>& Lookup(const Bytes& key) const;

  bool Contains(const Bytes& key) const;

  /// Removes one (key, value) pair; false when absent.
  bool Delete(const Bytes& key, uint64_t value);

  size_t num_keys() const { return map_.size(); }
  size_t size() const { return size_; }

  /// Distinct keys (unspecified order) — used by attack code that counts
  /// label multiplicities.
  std::vector<Bytes> Keys() const;

 private:
  struct BytesHash {
    size_t operator()(const Bytes& b) const {
      // FNV-1a
      uint64_t h = 1469598103934665603ULL;
      for (uint8_t byte : b) {
        h ^= byte;
        h *= 1099511628211ULL;
      }
      return static_cast<size_t>(h);
    }
  };

  std::unordered_map<Bytes, std::vector<uint64_t>, BytesHash> map_;
  size_t size_ = 0;
  static const std::vector<uint64_t> kEmpty;
};

}  // namespace storage
}  // namespace dbph

#endif  // DBPH_STORAGE_HASH_INDEX_H_
