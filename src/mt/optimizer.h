// MT-specific optimization passes applied to rewritten (plain SQL) queries.
//
// Paper section 4 / Table 6:
//   o1        trivial optimizations           (rewriter flags, see rewriter.h)
//   o2        client presentation push-up + conversion push-up
//   o3        o2 + conversion function distribution
//   o4        o3 + conversion function inlining
//   inl-only  o1 + conversion function inlining
#ifndef MTBASE_MT_OPTIMIZER_H_
#define MTBASE_MT_OPTIMIZER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "mt/conversion.h"
#include "sql/ast.h"

namespace mtbase {
namespace mt {

enum class OptLevel {
  kCanonical,
  kO1,
  kO2,
  kO3,
  kO4,
  kInlineOnly,
};

const char* OptLevelName(OptLevel level);
Result<OptLevel> ParseOptLevel(const std::string& name);

class Optimizer {
 public:
  Optimizer(const ConversionRegistry* conversions, int64_t client)
      : conversions_(conversions), client_(client) {}

  /// Apply the passes implied by `level` to a rewritten query, in place.
  Status Optimize(sql::SelectStmt* sel, OptLevel level);

  /// o2: in comparison predicates, compare in universal format where the
  /// conversion pair allows it, and convert constants instead of attributes
  /// (paper Listings 14/15).
  Status PushUpConversions(sql::SelectStmt* sel);

  /// o3: split aggregations over converted attributes into per-tenant partial
  /// aggregation on raw tenant values (the `__part` sub-query, grouped by and
  /// exposing the owner ttid as `__t`) and a final aggregation that converts
  /// each partial, fromU(SUM(toU(__a0, __t)), C) — (2N) conversions become
  /// (T+1) (paper section 4.2.2, Listing 16; Appendix B construction for
  /// linear pairs).
  Status DistributeAggregations(sql::SelectStmt* sel);

  /// o4: replace conversion UDF calls by their algebraic form, joining the
  /// conversion meta tables (paper Listing 17): one tenant row per owner
  /// expression, shared by every conversion family over it, plus one meta
  /// row per family. Calls whose tenant argument is the client constant
  /// become uncorrelated scalar sub-queries (InitPlan, evaluated once). An
  /// EXISTS sub-query whose select list nothing reads (no aggregate, GROUP
  /// BY, HAVING, DISTINCT or ORDER BY) first gets the list `1`, so its
  /// conversions join nothing.
  Status InlineConversions(sql::SelectStmt* sel);

 private:
  const ConversionRegistry* conversions_;
  int64_t client_;
  int inline_counter_ = 0;
};

}  // namespace mt
}  // namespace mtbase

#endif  // MTBASE_MT_OPTIMIZER_H_
