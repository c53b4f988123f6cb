// Canonicalizing AST normalizer (tentpole part 3 of the static rewrite
// audit, audit.h).
//
// Cross-level equivalence evidence works by normalization: the canonical
// (pre-optimizer) form and the o2-optimized form of a statement both map to
// the same text under NormalizeSelectText, because every conversion push-up
// shape (optimizer.cc, paper Listings 14/15) has a unique universal-format
// normal form:
//
//   fromU(toU(a,t1),C) op fromU(toU(b,t2),C)   |  t1 = t2:  a op b
//                                              |  else:     toU(a,t1) op toU(b,t2)
//   fromU(toU(a,t),C)  op const                |  toU(a,t) op toU(const,C)
//   a                  op fromU(toU(const,C),t)|  toU(a,t) op toU(const,C)
//   ... and the IN-list / BETWEEN analogues.
//
// On top of the conversion elision the normalizer flattens AND/OR chains,
// orders commutative operands deterministically, writes the select list of
// an EXISTS sub-query as `1` when no aggregate, GROUP BY, HAVING, DISTINCT or
// ORDER BY reads it (o4 drops such lists before inlining), and (under
// caller-proven o1 legality) elides conversion wrappers, D-filters and ttid
// join predicates — so an o1 rewrite normalizes to the same text as the
// canonical rewrite of the same query. The restructuring passes (o3
// aggregation distribution, o4 inlining) have no normal form by design;
// ClassifyDivergence recognizes their artifacts and names the divergence.
#ifndef MTBASE_MT_AUDIT_NORMALIZER_H_
#define MTBASE_MT_AUDIT_NORMALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mt/audit/audit.h"
#include "mt/conversion.h"
#include "sql/ast.h"

namespace mtbase {
namespace mt {
namespace audit {

/// o1 elisions the caller has proven legal for the statement being
/// normalized (audit.h documents the legality conditions). All off by
/// default: plain normalization, as used to compare a statement against its
/// own optimized form.
struct NormalizeOptions {
  /// Elide every matched fromU(toU(x, t), C) wrapper down to x. Legal only
  /// when D' = {C} (the rewrite's drop_conversions condition).
  bool elide_wrappers = false;
  /// Remove added `a.ttid = b.ttid` join predicates and the ttid pairing of
  /// membership tests. Legal only when |D'| = 1.
  bool strip_ttid_joins = false;
  /// Remove D-filter conjuncts `x.ttid IN (...)` whose literal set equals
  /// exactly this set. Empty = off. Legal only when D' covers all tenants.
  std::vector<int64_t> strip_dfilter_literals;
};

/// Render the query in canonical normalized text. The input is not modified.
std::string NormalizeSelectText(const sql::SelectStmt& sel,
                                const ConversionRegistry* conversions,
                                const NormalizeOptions& options = {});

/// Name the optimizer pass whose artifacts explain why an optimized query
/// does not normalize to its canonical form: __it/__im meta joins and
/// meta-lookup sub-queries (o4), the __part partial-aggregation sub-query
/// (o3), residual conversion calls (o2 push-up), else kUnknown.
EquivalenceCode ClassifyDivergence(const sql::SelectStmt& optimized,
                                   const ConversionRegistry* conversions);

}  // namespace audit
}  // namespace mt
}  // namespace mtbase

#endif  // MTBASE_MT_AUDIT_NORMALIZER_H_
