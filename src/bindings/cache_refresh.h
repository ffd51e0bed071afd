// Write-through RefreshHook factories shared by the cache-backed bindings: keep a
// ClientCache coherent with every view the store surfaces (reads) or every acknowledged
// write. The invocation pipeline calls the hook once per successful full-value response;
// cache-level views are skipped (the cache does not need to learn its own answers).
//
// Lives in the bindings layer: it adapts the store-side ClientCache to the
// pipeline-side RefreshHook contract, and the stores must not depend upward on it.
#ifndef ICG_BINDINGS_CACHE_REFRESH_H_
#define ICG_BINDINGS_CACHE_REFRESH_H_

#include "src/correctables/binding.h"
#include "src/stores/causal_store.h"  // ClientCache

namespace icg {

// Both hooks understand the batched shapes too: a kMultiGet view (or kMultiPut ack) is
// split back into per-key entries (UnpackRead / UnpackWriteAck) before refreshing, so
// one batched round-trip leaves the cache exactly as coherent as the per-key requests it
// replaced.
RefreshHook CacheReadRefresh(ClientCache* cache);
RefreshHook CacheWriteRefresh(ClientCache* cache);

// The cache-level view of a kGet or kMultiGet, packed like the store's answer: the cached
// entry (a miss is found=false), or the per-key lookups joined in request order
// (missing keys contribute empty parts; `found` only if every key hit, `seqno` = hits).
OpResult CacheLookup(ClientCache* cache, const Operation& get);

}  // namespace icg

#endif  // ICG_BINDINGS_CACHE_REFRESH_H_
