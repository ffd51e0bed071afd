#include "src/bindings/cache_refresh.h"

namespace icg {

RefreshHook CacheReadRefresh(ClientCache* cache) {
  return [cache](const Operation& op, const OpResult& result, ConsistencyLevel level) {
    if (level == ConsistencyLevel::kCache) {
      return;
    }
    if (op.type == OpType::kMultiGet) {
      // A batched read refreshes every key it covered, from its slice of the payload.
      // Per-key versions matter here: installing the batch-wide max would wedge the
      // version-guarded cache against later legitimate refreshes of slower keys.
      const std::vector<std::string> parts = SplitMultiValue(result.value, op.keys.size());
      const bool per_key_found = result.key_found.size() == op.keys.size();
      const bool per_key_versions = result.key_versions.size() == op.keys.size();
      for (size_t i = 0; i < op.keys.size(); ++i) {
        const bool found = per_key_found ? static_cast<bool>(result.key_found[i])
                                         : (result.found || !parts[i].empty());
        if (!found) {
          continue;  // this key missed; nothing to install
        }
        OpResult per_key;
        per_key.found = true;
        per_key.value = parts[i];
        per_key.version = per_key_versions ? result.key_versions[i] : result.version;
        cache->Refresh(op.keys[i], per_key);
      }
      return;
    }
    if (!result.found) {
      return;
    }
    cache->Refresh(op.key, result);
  };
}

RefreshHook CacheWriteRefresh(ClientCache* cache) {
  return [cache](const Operation& op, const OpResult& ack, ConsistencyLevel) {
    if (op.type == OpType::kMultiPut) {
      // Entries applied in order: refresh in the same order so a later write to the same
      // key within the batch wins in the cache exactly as it did in the store — under
      // each entry's own acknowledged version where the store reported them.
      const bool per_key_versions = ack.key_versions.size() == op.keys.size();
      for (size_t i = 0; i < op.keys.size() && i < op.values.size(); ++i) {
        OpResult cached;
        cached.found = true;
        cached.value = op.values[i];
        cached.version = per_key_versions ? ack.key_versions[i] : ack.version;
        cache->Refresh(op.keys[i], cached);
      }
      return;
    }
    OpResult cached;
    cached.found = true;
    cached.value = op.value;
    cached.version = ack.version;
    cache->Refresh(op.key, cached);
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
