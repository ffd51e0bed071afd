#include "src/bindings/cache_refresh.h"

namespace icg {

RefreshHook CacheReadRefresh(ClientCache* cache) {
  return [cache](const Operation& op, const OpResult& result, ConsistencyLevel level) {
    if (level == ConsistencyLevel::kCache) {
      return;
    }
    if (op.type != OpType::kMultiGet) {
      if (result.found) {
        cache->Refresh(op.key, result);
      }
      return;
    }
    // A batched read refreshes every key it found under that key's own version:
    // installing the batch-wide max would wedge the version-guarded cache against later
    // legitimate refreshes of slower keys.
    const SmallVec<OpResult, 1> entries =
        UnpackRead(WireShape::kBatch, op.keys.size(), result);
    for (size_t i = 0; i < op.keys.size(); ++i) {
      if (entries[i].found) {
        cache->Refresh(op.keys[i], entries[i]);
      }
    }
  };
}

RefreshHook CacheWriteRefresh(ClientCache* cache) {
  return [cache](const Operation& op, const OpResult& ack, ConsistencyLevel) {
    OpResult cached;
    cached.found = true;
    if (op.type != OpType::kMultiPut) {
      cached.value = op.value;
      cached.version = ack.version;
      cache->Refresh(op.key, cached);
      return;
    }
    // Entries applied in order: refresh in the same order, each under its own
    // acknowledged version, so a later write to the same key within the batch wins in
    // the cache exactly as it did in the store.
    const SmallVec<OpResult, 1> acks = UnpackWriteAck(WireShape::kBatch, op.keys.size(), ack);
    for (size_t i = 0; i < op.keys.size() && i < op.values.size(); ++i) {
      cached.value = op.values[i];
      cached.version = acks[i].version;
      cache->Refresh(op.keys[i], cached);
    }
  };
}

OpResult CacheLookup(ClientCache* cache, const Operation& get) {
  if (get.type != OpType::kMultiGet) {
    return cache->Get(get.key).value_or(OpResult{});
  }
  return PackRead(WireShape::kBatch, get.keys.size(),
                  [cache, &get](size_t i) { return cache->Get(get.keys[i]); });
}

}  // namespace icg
