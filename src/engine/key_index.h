// KeyIndex: the one hash index behind every hashed operator and the key
// checks; which keys are equal, and where they hash, is decided here and
// nowhere else (docs/ARCHITECTURE.md, "One key index").
#ifndef MTBASE_ENGINE_KEY_INDEX_H_
#define MTBASE_ENGINE_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/value.h"

namespace mtbase {
namespace engine {

/// The distinct key tuples of one width, numbered densely 0, 1, 2, ... in
/// first-insertion order. Keys sit back to back in one array, each next to
/// its HashRow hash; a power-of-two directory of ids (linear probing, at
/// most half full) finds them. The directory is sized up front when the
/// caller knows how many keys may arrive, and doubles otherwise.
///
/// Keys are equal when their hashes are and every component is
/// StructuralEquals: INT 5 equals DECIMAL 5.00, and NULL equals NULL, so
/// callers for which NULL matches nothing (joins, IN, foreign keys) leave
/// keys with a NULL component out. A width-0 key is one entry. Holds at most
/// 2^32 - 2 keys.
class KeyIndex {
 public:
  static constexpr size_t kNone = SIZE_MAX;
  struct Lookup {
    size_t id;
    bool inserted;
  };

  /// `expected` (optional) sizes the directory and the key arrays so that
  /// inserting that many keys never regrows them.
  explicit KeyIndex(size_t width = 0, size_t expected = 0);

  size_t width() const { return width_; }
  /// The number of keys; ids run [0, size()).
  size_t size() const { return hashes_.size(); }

  /// The id of the width() values at `key`, whose HashRow is `hash`, or
  /// kNone.
  size_t Find(const Value* key, size_t hash) const;
  /// The id of `key`. An absent key becomes the next id, its values moved
  /// in; a present one is left untouched.
  Lookup FindOrInsert(Value* key, size_t hash);
  /// FindOrInsert of the key whose width() values `key` points to, read
  /// where they lie: an absent key's values are copied in.
  Lookup FindOrCopy(const Value* const* key, size_t hash);

  /// The width() values of key `id`; they may be moved out once the index
  /// is no longer probed.
  const Value* key(size_t id) const { return keys_.data() + id * width_; }
  Value* key(size_t id) { return keys_.data() + id * width_; }
  size_t hash(size_t id) const { return hashes_[id]; }

 private:
  /// The slot holding the key whose component k is key_at(k), else the
  /// free slot that ends its probe path.
  template <typename KeyAt>
  size_t Probe(KeyAt key_at, size_t hash) const;
  /// Make room for one more key: doubles the directory past half full.
  void Grow();
  void Rehash(size_t slots);

  size_t width_;
  std::vector<Value> keys_;      // size() * width_, in id order
  std::vector<size_t> hashes_;   // in id order
  std::vector<uint32_t> slots_;  // the directory: ids, or free
  int shift_ = 64;               // 64 - log2(slots_.size())
};

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_KEY_INDEX_H_
