// Shared (cross-statement) result cache for immutable UDFs.
//
// The per-statement cache in ExecContext dies with its statement, so every
// prepared-statement re-execution re-evaluates the same dictionary lookups
// (toUniversal/fromUniversal bodies joining Tenant x CurrencyTransform,
// paper section 4). This cache survives statements: it is owned by the
// Database, shared by every session of the middleware in front of it, and
// keyed by (epoch, function, argument values). The epoch folds together
// everything a cached result can depend on — the engine compilation version
// (DDL, planner options), the data versions of the tables UDF bodies read,
// as pinned by the statement that computed the result, and an external epoch
// the MT middleware bumps on conversion-pair (re-)registration — so a moved
// epoch logically evicts everything at once.
//
// Keys are exact (EncodeUdfCallKey): the function's identity, then per
// argument a type tag and its raw representation. Two calls share a key only
// if they pass the same function bit-identical arguments of the same types,
// so DECIMAL 1.50, DECIMAL 1.5 and INT 2 never collide and each call returns
// exactly what its own body would.
//
// Thread safety: the cache is split into lock-striped shards, picked by key
// hash. Each shard has its own mutex, index, LRU list and epoch (a shard
// that sees a newer epoch clears itself). Morsel workers only reach it on a
// per-worker-cache miss (once per distinct key per worker and statement);
// the hot path — repeated calls with the same arguments — stays in the
// worker's own unsynchronized cache.
#ifndef MTBASE_ENGINE_UDF_CACHE_H_
#define MTBASE_ENGINE_UDF_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/value.h"

namespace mtbase {
namespace engine {

/// Everything a shared-cached UDF result depends on. Compared field-wise;
/// any component moving invalidates the whole cache. Planner options are
/// deliberately not a component: they change plans, not immutable results.
struct UdfCacheEpoch {
  uint64_t compilation = 0;  // catalog + UDF registry DDL versions
  uint64_t data = 0;         // FoldData over the UDF body tables' versions
  uint64_t external = 0;     // middleware conversion (re-)registrations

  /// Adds one table's data version to a data component. Order-dependent (a
  /// polynomial step, not a sum), so two statements that pinned different
  /// version mixes of two dictionaries do not meet at the same value.
  static uint64_t FoldData(uint64_t acc, uint64_t version) {
    return acc * 0x9E3779B97F4A7C15ull + version + 1;
  }

  bool operator==(const UdfCacheEpoch& o) const {
    return compilation == o.compilation && data == o.data &&
           external == o.external;
  }
  bool operator!=(const UdfCacheEpoch& o) const { return !(*this == o); }
};

/// Writes into `out` (replacing its contents, reusing its capacity) the exact
/// binary key of calling `fn` with `args[0..n)`: the identity bytes, then per
/// argument its TypeId and raw payload — the value for INT, DATE and BOOL,
/// units and scale for DECIMAL, the bit pattern for DOUBLE, length and bytes
/// for VARCHAR, nothing for NULL. Every field is fixed-width or
/// length-prefixed, so the encoding is injective.
void EncodeUdfCallKey(const void* fn, const Value* args, size_t n,
                      std::string* out);

class SharedUdfCache {
 public:
  /// Holds the measured working set with headroom: one warm round of the 22
  /// MT-H queries at canonical, o3 and o4, sf 0.01 and T = 10, makes ~120k
  /// distinct conversion calls. A cyclic scan over more keys than an LRU holds never
  /// hits, so a cache below the working set thrashes.
  static constexpr size_t kDefaultCapacity = 1 << 18;

  explicit SharedUdfCache(size_t capacity = kDefaultCapacity);

  /// Look `key` up under `epoch`. A shard whose entries carry another epoch
  /// clears itself first (the underlying dictionaries changed), so a hit is
  /// never stale.
  bool Lookup(const UdfCacheEpoch& epoch, std::string_view key, Value* out);

  /// Insert (no-op if the key is already present); evicts the shard's least
  /// recently used entry beyond its share of the capacity.
  void Insert(const UdfCacheEpoch& epoch, std::string_view key,
              const Value& v);

  void Clear();

  /// Entries held (at most capacity()). A shard not touched since the epoch
  /// moved still counts its stale entries until its next access.
  size_t size() const;
  size_t capacity() const;
  /// Re-bounds the cache. The shard count follows the capacity (one shard
  /// per kMinShardCapacity entries, a power of two, at most kMaxShards); a
  /// change of shard count drops every entry, otherwise each shard evicts
  /// down to its new share.
  void set_capacity(size_t capacity);

 private:
  static constexpr size_t kMaxShards = 16;
  static constexpr size_t kMinShardCapacity = 16;

  struct Entry {
    std::string key;
    Value value;
  };
  /// One stripe: its own lock, LRU list (front = most recently used) and an
  /// index whose keys view the list entries' own strings, so each key is
  /// stored once.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    UdfCacheEpoch epoch;
    size_t capacity = 0;
    std::list<Entry> lru;
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;

    /// Drop everything if `e` differs from the entries' epoch. Caller holds
    /// mu.
    void Validate(const UdfCacheEpoch& e);
    void EvictTo(size_t n);
    void Clear() {
      index.clear();
      lru.clear();
    }
  };

  Shard& ShardFor(std::string_view key);

  std::array<Shard, kMaxShards> shards_;
  std::atomic<size_t> shard_count_{1};
  std::atomic<size_t> capacity_{0};
};

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_UDF_CACHE_H_
