// RowFilter: a scan filter or Filter predicate run as its AND-conjuncts, the
// common forms as direct compares (docs/ARCHITECTURE.md, "Folding and
// RowFilter").
#ifndef MTBASE_ENGINE_FILTER_H_
#define MTBASE_ENGINE_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "engine/bound.h"
#include "engine/exec.h"

namespace mtbase {
namespace engine {

/// The AND-conjuncts of one predicate, in evaluation order, each classified
/// once. Built for one operator execution from the plan's own `scan_filter`
/// or `predicate`, which it points into (so it never drifts from the
/// expression the plan verifier proved), and read-only afterwards, so morsel
/// workers share it.
///
/// Covered conjuncts run as direct compares over the row: slot op literal
/// (either order), slot op slot, slot [NOT] IN (literals), slot [NOT]
/// BETWEEN literal AND literal, slot [NOT] LIKE 'literal', slot IS [NOT]
/// NULL, and a literal. Same-type INT, DATE, equal-scale DECIMAL and STRING
/// operands compare inline, other pairs through Value::Compare. Any other
/// conjunct, and a covered one whose operands the direct path does not
/// handle, is evaluated by EvalExpr.
///
/// The outcome is exactly IsTrue(EvalExpr(predicate)): an AND tree
/// evaluates its conjuncts left to right and stops at the first FALSE, so a
/// row stops at its first FALSE conjunct, a NULL conjunct lets the later ones
/// run (their errors still surface), and the first error in row order is
/// the status returned.
class RowFilter {
 public:
  explicit RowFilter(const BoundExpr& predicate);

  /// Append to `*kept` the id of every row the predicate holds TRUE for:
  /// rows[ids[i]] for i in [begin, end) when `ids` is given, else rows[i].
  /// The id appended is the table row's (ids[i], or i).
  Status Select(const VersionRows& rows,
                const std::vector<uint32_t>* ids, size_t begin, size_t end,
                ExecContext* ctx, std::vector<uint32_t>* kept) const;
  /// Append to `*kept` the index of every row of rows[begin, end) the
  /// predicate holds TRUE for.
  Status Select(const RowBatch& rows, size_t begin, size_t end,
                ExecContext* ctx, std::vector<uint32_t>* kept) const;

  /// Whether the first conjunct of `predicate` is a literal FALSE, where
  /// the AND stops for every row: it keeps no row and needs to read none.
  static bool KeepsNothing(const BoundExpr& predicate);

  /// The number of conjuncts, and how many of them run as direct compares.
  size_t size() const { return conjuncts_.size(); }
  size_t covered() const;

 private:
  /// A compare operand: a row slot, or a literal of the predicate.
  struct Operand {
    const Value* literal = nullptr;  // null: the row's slot
    size_t slot = 0;
    const Value& Read(RowView row) const {
      return literal != nullptr ? *literal : row[slot];
    }
  };
  enum class Form : uint8_t {
    kGeneric,  // EvalExpr
    kConst,    // a literal
    kCompare,  // a op b
    kInList,   // a [NOT] IN (items)
    kBetween,  // a [NOT] BETWEEN b AND c
    kLike,     // a [NOT] LIKE b
    kIsNull,   // a IS [NOT] NULL
  };
  struct Conjunct {
    const BoundExpr* expr = nullptr;
    Form form = Form::kGeneric;
    BinOp op = BinOp::kEq;
    bool negated = false;
    Operand a, b, c;
    /// kInList: the non-NULL items, and whether a NULL item was listed.
    std::vector<const Value*> items;
    bool null_item = false;
  };
  /// A truth value, or kError with the status set aside.
  enum class Truth : uint8_t { kFalse, kTrue, kNull, kError };

  static Conjunct Classify(const BoundExpr& e);
  static Truth Eval(const Conjunct& c, RowView row, ExecContext* ctx,
                    Status* error);
  /// The predicate over `row`: kTrue only when every conjunct is TRUE.
  Truth Match(RowView row, ExecContext* ctx, Status* error) const;

  std::vector<Conjunct> conjuncts_;
};

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_FILTER_H_
