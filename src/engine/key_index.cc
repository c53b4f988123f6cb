#include "engine/key_index.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace mtbase {
namespace engine {

namespace {

constexpr uint32_t kFree = UINT32_MAX;
constexpr size_t kMinSlots = 16;

/// StructuralEquals, with same-type INT, DATE, equal-scale DECIMAL and
/// STRING components compared directly.
bool ComponentEquals(const Value& a, const Value& b) {
  int c = 0;
  if (a.CompareSameType(b, &c)) return c == 0;
  return a.StructuralEquals(b);
}

}  // namespace

KeyIndex::KeyIndex(size_t width, size_t expected) : width_(width) {
  if (expected == 0) return;
  keys_.reserve(expected * width);
  hashes_.reserve(expected);
  size_t slots = kMinSlots;
  while (slots < 2 * expected) slots *= 2;
  Rehash(slots);
}

template <typename KeyAt>
size_t KeyIndex::Probe(KeyAt key_at, size_t hash) const {
  // Fibonacci hashing: the home slot is the top bits of a multiplicative
  // mix, so hashes that differ only in their high bits still spread.
  size_t s = static_cast<size_t>(
      (static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ull) >> shift_);
  for (;; s = (s + 1) & (slots_.size() - 1)) {
    const uint32_t id = slots_[s];
    if (id == kFree) return s;
    if (hashes_[id] != hash) continue;
    const Value* stored = this->key(id);
    size_t k = 0;
    while (k < width_ && ComponentEquals(stored[k], key_at(k))) ++k;
    if (k == width_) return s;
  }
}

void KeyIndex::Grow() {
  if (2 * (size() + 1) > slots_.size()) {
    Rehash(std::max(kMinSlots, 2 * slots_.size()));
  }
}

void KeyIndex::Rehash(size_t slots) {
  slots_.assign(slots, kFree);
  shift_ = 64;
  for (size_t s = slots; s > 1; s >>= 1) --shift_;
  // The stored keys are distinct, so each probe ends at a free slot.
  for (size_t id = 0; id < size(); ++id) {
    const Value* stored = key(id);
    slots_[Probe([stored](size_t k) -> const Value& { return stored[k]; },
                 hashes_[id])] = static_cast<uint32_t>(id);
  }
}

size_t KeyIndex::Find(const Value* key, size_t hash) const {
  if (slots_.empty()) return kNone;
  const uint32_t id =
      slots_[Probe([key](size_t k) -> const Value& { return key[k]; }, hash)];
  return id == kFree ? kNone : id;
}

KeyIndex::Lookup KeyIndex::FindOrInsert(Value* key, size_t hash) {
  Grow();
  const size_t s =
      Probe([key](size_t k) -> const Value& { return key[k]; }, hash);
  if (slots_[s] != kFree) return {slots_[s], false};
  const size_t id = size();
  assert(id < kFree);
  slots_[s] = static_cast<uint32_t>(id);
  hashes_.push_back(hash);
  keys_.insert(keys_.end(), std::make_move_iterator(key),
               std::make_move_iterator(key + width_));
  return {id, true};
}

KeyIndex::Lookup KeyIndex::FindOrCopy(const Value* const* key,
                                      size_t hash) {
  Grow();
  const size_t s =
      Probe([key](size_t k) -> const Value& { return *key[k]; }, hash);
  if (slots_[s] != kFree) return {slots_[s], false};
  const size_t id = size();
  assert(id < kFree);
  slots_[s] = static_cast<uint32_t>(id);
  hashes_.push_back(hash);
  for (size_t k = 0; k < width_; ++k) keys_.push_back(*key[k]);
  return {id, true};
}

}  // namespace engine
}  // namespace mtbase
