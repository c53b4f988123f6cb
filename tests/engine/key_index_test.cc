// KeyIndex against a reference: a linear scan that numbers keys by first
// appearance and decides equality with StructuralEquals alone.
#include "engine/key_index.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

/// One random key component from a domain of `span` values per kind: NULL,
/// INT k, DECIMAL k.00 (equal to INT k) and the string "sk". DOUBLE stays
/// out: its hash differs from the equal INT's, so the index keeps INT 5 and
/// DOUBLE 5.0 apart where a plain StructuralEquals scan would not.
Value RandomComponent(Rng* rng, int64_t span) {
  const int64_t k = rng->Uniform(0, span - 1);
  switch (rng->Uniform(0, 3)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(k);
    case 2:
      return Value::Dec(Decimal(k * 100, 2));
    default:
      return Value::Str("s" + std::to_string(k));
  }
}

/// The first-appearance id of `key` among `seen`, else seen.size().
size_t LinearFind(const std::vector<Row>& seen, const Row& key) {
  for (size_t id = 0; id < seen.size(); ++id) {
    bool equal = true;
    for (size_t k = 0; k < key.size() && equal; ++k) {
      equal = seen[id][k].StructuralEquals(key[k]);
    }
    if (equal) return id;
  }
  return seen.size();
}

TEST(KeyIndexTest, MatchesLinearScanReference) {
  // Per width, a domain small enough for many duplicates and large enough
  // for well over a thousand distinct keys: the directory starts at 16
  // slots, so those force many doublings.
  const int64_t spans[] = {1, 1500, 40, 12};
  for (size_t width = 0; width <= 3; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    Rng rng(0xC0FFEEu + width);
    KeyIndex index(width);
    std::vector<Row> seen;  // reference: distinct keys in first appearance
    for (int i = 0; i < 5000; ++i) {
      Row key;
      for (size_t k = 0; k < width; ++k) {
        key.push_back(RandomComponent(&rng, spans[width]));
      }
      const size_t expect = LinearFind(seen, key);
      Row moved = key;
      const KeyIndex::Lookup got =
          index.FindOrInsert(moved.data(), HashRow(key));
      ASSERT_EQ(got.id, expect);
      ASSERT_EQ(got.inserted, expect == seen.size());
      if (got.inserted) seen.push_back(key);
    }
    ASSERT_EQ(index.size(), seen.size());
    if (width == 0) {
      EXPECT_EQ(index.size(), 1u);
    } else if (width == 1) {
      EXPECT_GT(index.size(), 1000u);
    }
    for (size_t id = 0; id < seen.size(); ++id) {
      // The stored key is the first appearance, type tags included.
      EXPECT_EQ(CanonRows({Row(index.key(id), index.key(id) + width)}),
                CanonRows({seen[id]}));
      EXPECT_EQ(index.hash(id), HashRow(seen[id]));
      EXPECT_EQ(index.Find(seen[id].data(), HashRow(seen[id])), id);
    }
    if (width == 0) continue;
    // Keys outside the domain miss.
    for (int64_t k = 0; k < 200; ++k) {
      Row absent(width, Value::Int(spans[width] + k));
      absent[0] = Value::Str("absent" + std::to_string(k));
      EXPECT_EQ(index.Find(absent.data(), HashRow(absent)), KeyIndex::kNone);
    }
  }
}

TEST(KeyIndexTest, RowsEqualOnlyWhenEveryComponentDoes) {
  Row a{Value::Int(1), Value::Str("x")};
  Row b{Value::Int(1), Value::Str("y")};
  Row c{Value::Dec(Decimal(100, 2)), Value::Str("x")};
  KeyIndex index(2);
  Row key = a;
  EXPECT_EQ(index.FindOrInsert(key.data(), HashRow(a)).id, 0u);
  key = b;
  EXPECT_EQ(index.FindOrInsert(key.data(), HashRow(b)).id, 1u);
  key = c;
  const KeyIndex::Lookup again = index.FindOrInsert(key.data(), HashRow(c));
  EXPECT_EQ(again.id, 0u);  // INT 1 equals DECIMAL 1.00
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(key[0].type(), TypeId::kDecimal);  // a hit leaves the key as is
}

TEST(KeyIndexTest, EmptyIndexFindsNothing) {
  const KeyIndex sized(1, 100);
  const KeyIndex unsized(1);
  Row key{Value::Int(7)};
  EXPECT_EQ(sized.Find(key.data(), HashRow(key)), KeyIndex::kNone);
  EXPECT_EQ(unsized.Find(key.data(), HashRow(key)), KeyIndex::kNone);
  const KeyIndex no_columns(0);
  EXPECT_EQ(no_columns.Find(nullptr, HashRow(nullptr, 0)), KeyIndex::kNone);
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
