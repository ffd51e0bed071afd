#include "src/kvstore/snapshot.h"

#include <cassert>
#include <cstring>

#include "src/common/digest.h"

namespace icg {
namespace {

// Segment layout (little-endian, fixed width):
//   [u64 through_lsn][u64 entries]
//   entries x [i64 timestamp][u32 writer][u32 key_len][u32 value_len][key][value]
//   [u64 fnv1a(everything before)]

void PutU32(std::string& out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void PutU64(std::string& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

uint32_t GetU32(const std::string& in, size_t at) {
  uint32_t v;
  std::memcpy(&v, in.data() + at, 4);
  return v;
}

uint64_t GetU64(const std::string& in, size_t at) {
  uint64_t v;
  std::memcpy(&v, in.data() + at, 8);
  return v;
}

void PutEntry(std::string& out, const std::string& key, const VersionedValue& vv) {
  PutU64(out, static_cast<uint64_t>(vv.version.timestamp));
  PutU32(out, static_cast<uint32_t>(vv.version.writer));
  PutU32(out, static_cast<uint32_t>(key.size()));
  PutU32(out, static_cast<uint32_t>(vv.value.size()));
  out.append(key);
  out.append(vv.value);
}

void Seal(std::string& image) {
  const Digest checksum = Fnv1a(image);
  PutU64(image, checksum);
}

// Validates one segment and applies its entries over `out`. Returns false on any
// checksum or framing violation (`out` may then hold a partial segment).
bool ApplySegment(const std::string& image, SnapshotManager::Store* out,
                  uint64_t* through_lsn) {
  if (image.size() < 24) {
    return false;
  }
  const size_t body = image.size() - 8;
  if (GetU64(image, body) != Fnv1a(std::string_view(image.data(), body))) {
    return false;
  }
  const uint64_t entries = GetU64(image, 8);
  size_t at = 16;
  for (uint64_t i = 0; i < entries; ++i) {
    if (body - at < 20) {
      return false;
    }
    VersionedValue vv;
    vv.version.timestamp = static_cast<SimTime>(GetU64(image, at));
    vv.version.writer = static_cast<NodeId>(GetU32(image, at + 8));
    const size_t key_len = GetU32(image, at + 12);
    const size_t value_len = GetU32(image, at + 16);
    at += 20;
    if (body - at < key_len + value_len) {
      return false;
    }
    std::string key = image.substr(at, key_len);
    vv.value = image.substr(at + key_len, value_len);
    at += key_len + value_len;
    // Segments are in key order, so for the base this hint is exact.
    out->insert_or_assign(out->end(), std::move(key), std::move(vv));
  }
  *through_lsn = GetU64(image, 0);
  return true;
}

}  // namespace

void SnapshotManager::Take(const Store& storage, uint64_t through_lsn) {
  std::string image;
  PutU64(image, through_lsn);
  PutU64(image, storage.size());
  for (const auto& [key, vv] : storage) {
    PutEntry(image, key, vv);
  }
  Seal(image);
  base_ = std::move(image);  // atomic replace: temp-write + rename in a real system
  base_entries_ = storage.size();
  deltas_.clear();
  delta_entries_ = 0;
  covered_lsn_ = through_lsn;
  snapshots_taken_ += 1;
}

void SnapshotManager::TakeDelta(std::span<const Store::const_iterator> entries,
                                uint64_t through_lsn) {
  assert(HasSnapshot());
  std::string image;
  PutU64(image, through_lsn);
  PutU64(image, entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    assert(i == 0 || entries[i - 1]->first < entries[i]->first);
    PutEntry(image, entries[i]->first, entries[i]->second);
  }
  Seal(image);
  deltas_.push_back(std::move(image));
  delta_entries_ += entries.size();
  covered_lsn_ = through_lsn;
  snapshots_taken_ += 1;
}

bool SnapshotManager::Load(Store* out, uint64_t* through_lsn) const {
  out->clear();
  *through_lsn = 0;
  uint64_t covered = 0;
  bool ok = ApplySegment(base_, out, &covered);
  for (size_t i = 0; ok && i < deltas_.size(); ++i) {
    ok = ApplySegment(deltas_[i], out, &covered);
  }
  if (!ok) {
    out->clear();
    return false;
  }
  *through_lsn = covered;
  return true;
}

int64_t SnapshotManager::image_bytes() const {
  size_t bytes = base_.size();
  for (const std::string& delta : deltas_) {
    bytes += delta.size();
  }
  return static_cast<int64_t>(bytes);
}

}  // namespace icg
