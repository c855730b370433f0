#include "storage/hash_index.h"

#include <algorithm>

namespace dbph {
namespace storage {

const std::vector<uint64_t> HashIndex::kEmpty;

void HashIndex::Insert(const Bytes& key, uint64_t value) {
  map_[key].push_back(value);
  ++size_;
}

const std::vector<uint64_t>& HashIndex::Lookup(const Bytes& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? kEmpty : it->second;
}

bool HashIndex::Contains(const Bytes& key) const {
  return map_.count(key) > 0;
}

bool HashIndex::Delete(const Bytes& key, uint64_t value) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  auto pos = std::find(it->second.begin(), it->second.end(), value);
  if (pos == it->second.end()) return false;
  it->second.erase(pos);
  --size_;
  if (it->second.empty()) map_.erase(it);
  return true;
}

std::vector<Bytes> HashIndex::Keys() const {
  std::vector<Bytes> keys;
  keys.reserve(map_.size());
  for (const auto& [k, _] : map_) keys.push_back(k);
  return keys;
}

}  // namespace storage
}  // namespace dbph
