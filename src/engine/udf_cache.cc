#include "engine/udf_cache.h"

#include <cstring>
#include <functional>
#include <vector>

namespace mtbase {
namespace engine {

namespace {

template <typename T>
void AppendRaw(std::string* out, const T& v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out->append(bytes, sizeof(T));
}

}  // namespace

void EncodeUdfCallKey(const void* fn, const Value* args, size_t n,
                      std::string* out) {
  out->clear();
  AppendRaw(out, fn);
  for (size_t i = 0; i < n; ++i) {
    const Value& v = args[i];
    out->push_back(static_cast<char>(v.type()));
    switch (v.type()) {
      case TypeId::kNull:
        break;
      case TypeId::kBool:
        out->push_back(v.bool_value() ? 1 : 0);
        break;
      case TypeId::kInt:
        AppendRaw(out, v.int_value());
        break;
      case TypeId::kDouble:
        // The bit pattern: the key must separate values any rendering would
        // round together.
        AppendRaw(out, v.double_value());
        break;
      case TypeId::kDecimal:
        // Units and scale, not the numeric value: 1.50 and 1.5 are equal
        // numbers but render differently, so they must not share a result.
        AppendRaw(out, v.decimal_value().units());
        AppendRaw(out, v.decimal_value().scale());
        break;
      case TypeId::kString:
        AppendRaw(out, v.string_value().size());
        out->append(v.string_value());
        break;
      case TypeId::kDate:
        AppendRaw(out, v.date_value().days());
        break;
    }
  }
}

void SharedUdfCache::Shard::Validate(const UdfCacheEpoch& e) {
  if (e != epoch) {
    Clear();
    epoch = e;
  }
}

void SharedUdfCache::Shard::EvictTo(size_t n) {
  while (lru.size() > n) {
    index.erase(lru.back().key);
    lru.pop_back();
  }
}

SharedUdfCache::SharedUdfCache(size_t capacity) { set_capacity(capacity); }

SharedUdfCache::Shard& SharedUdfCache::ShardFor(std::string_view key) {
  const size_t n = shard_count_.load(std::memory_order_acquire);
  if (n == 1) return shards_[0];
  // The top bits pick the shard. The shard's index buckets by the hash
  // modulo a prime, which fixing the top bits does not skew.
  const uint64_t h = std::hash<std::string_view>()(key);
  return shards_[(h >> 56) & (n - 1)];
}

bool SharedUdfCache::Lookup(const UdfCacheEpoch& epoch, std::string_view key,
                            Value* out) {
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  s.Validate(epoch);
  auto it = s.index.find(key);
  if (it == s.index.end()) return false;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // move to front
  *out = it->second->value;
  return true;
}

void SharedUdfCache::Insert(const UdfCacheEpoch& epoch, std::string_view key,
                            const Value& v) {
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  s.Validate(epoch);
  if (s.capacity == 0) return;
  auto it = s.index.find(key);
  if (it != s.index.end()) {
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;  // immutable: an existing entry already holds this value
  }
  s.lru.push_front(Entry{std::string(key), v});
  s.index.emplace(s.lru.front().key, s.lru.begin());
  s.EvictTo(s.capacity);
}

void SharedUdfCache::Clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.Clear();
  }
}

size_t SharedUdfCache::size() const {
  size_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.lru.size();
  }
  return total;
}

size_t SharedUdfCache::capacity() const {
  return capacity_.load(std::memory_order_acquire);
}

void SharedUdfCache::set_capacity(size_t capacity) {
  // Every shard, always in index order: concurrent resizes serialize on the
  // first.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(kMaxShards);
  for (Shard& s : shards_) locks.emplace_back(s.mu);
  // One shard per kMinShardCapacity entries, a power of two: a tiny cache
  // stays one exact LRU.
  size_t n = 1;
  while (n * 2 <= kMaxShards && n * 2 * kMinShardCapacity <= capacity) n *= 2;
  if (n != shard_count_.load(std::memory_order_relaxed)) {
    // Keys would route to other shards now: start empty.
    for (Shard& s : shards_) s.Clear();
  }
  for (size_t i = 0; i < kMaxShards; ++i) {
    Shard& s = shards_[i];
    // The first capacity % n shards take one entry more: the shares sum to
    // exactly `capacity`.
    s.capacity = i < n ? capacity / n + (i < capacity % n ? 1 : 0) : 0;
    s.EvictTo(s.capacity);
  }
  shard_count_.store(n, std::memory_order_release);
  capacity_.store(capacity, std::memory_order_release);
}

}  // namespace engine
}  // namespace mtbase
