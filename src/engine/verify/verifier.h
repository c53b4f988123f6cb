// Static plan verification: invariant proofs over bound physical plans.
//
// The MTSQL-to-SQL rewriter's whole correctness story rests on the tenant
// predicates and conversion calls it injects (paper section 3.1) — but until
// this subsystem, nothing *checked* that the planner and executor preserved
// those guarantees. PlanVerifier walks every bound physical plan post-
// planning, pre-execution and proves three invariant families without
// executing anything:
//
//   1. Tenant isolation — every base-table access to a tenant-specific table
//      must be dominated by a ttid-restricting predicate whose tenant set is
//      a subset of the expected dataset D' (or an equi-join on ttid against
//      an already-restricted column). The check is semantic slot-dominance
//      analysis over the bound tree, not string matching: the MT layer
//      passes the expected tenant set down via VerifyContext.
//   2. Parallel-safety consistency — a node marked Plan::parallel_safe must
//      transitively contain no volatile/stable UDF calls, outer references,
//      sub-plans or serial-only operator shapes. The rule is restated here
//      independently of parallel::MarkParallelSafe on purpose: two
//      implementations of the same spec catch drift between the planner's
//      marking logic and what the parallel operators actually tolerate.
//   3. Structural soundness — slot references in range, emitted-slot lists
//      (Plan::emit) ascending inside the node's natural row, operator output
//      arity agreement, join key pairing, sort/top-N key slots in range,
//      non-negative LIMIT/OFFSET.
//
// Violations carry a machine-readable code plus the offending subtree
// rendered through the EXPLAIN grammar. Enforcement (execution refusing
// violating plans) is always on in debug builds and opt-in via
// MTBASE_VERIFY_PLANS=1 elsewhere; see docs/ARCHITECTURE.md "Plan verifier".
#ifndef MTBASE_ENGINE_VERIFY_VERIFIER_H_
#define MTBASE_ENGINE_VERIFY_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/bound.h"

namespace mtbase {
namespace engine {
namespace verify {

enum class ViolationCode : uint8_t {
  /// A tenant-specific base table is scanned with no dominating
  /// ttid-restricting predicate on its access path.
  kTenantPredicateMissing,
  /// A ttid predicate exists but admits tenants outside the expected set D'.
  kTenantSetMismatch,
  /// A subplan marked parallel_safe contains serial-only state (volatile or
  /// stable UDF calls, outer references, sub-plans, serial operator shapes).
  kParallelUnsafeSubplan,
  /// An expression references a slot outside its input layout, or a node's
  /// emitted-slot list (Plan::emit) leaves its natural row or fails to
  /// ascend.
  kSlotOutOfRange,
  /// Operator output arity disagrees with its inputs (or a child is missing).
  kArityMismatch,
  /// Join key lists are unpaired (left/right counts differ, or the
  /// null-aware key prefix exceeds the key count).
  kJoinKeyMismatch,
  /// A sort/top-N key slot lies outside the child layout.
  kSortKeyOutOfRange,
  /// A LIMIT/OFFSET operator carries a negative bound.
  kNegativeLimit,
  /// A pruned scan of a ttid-partitioned tenant table selects partitions
  /// outside the image of the expected tenant set D' under the table's
  /// routing function (or an out-of-range partition id).
  kPartitionSetMismatch,
};

/// The stable machine-readable name, e.g. "TENANT_PREDICATE_MISSING".
const char* ViolationCodeName(ViolationCode code);

struct Violation {
  ViolationCode code = ViolationCode::kTenantPredicateMissing;
  std::string detail;   // one human-readable sentence
  std::string subtree;  // offending plan subtree, EXPLAIN-rendered
};

/// What the verifier is allowed to assume about the plan's provenance. A
/// default-constructed context runs the engine-level checks only (structure,
/// parallel safety); the MT layer fills in the tenant fields per compiled
/// statement so the isolation check is semantic, not syntactic.
struct VerifyContext {
  /// Run the tenant-isolation analysis. Off for plain-SQL embedders whose
  /// plans carry no multi-tenant contract.
  bool check_tenant = false;
  /// Name of the physical tenant meta column (mt::kTtidColumn).
  std::string ttid_column = "ttid";
  /// Engine-level names of tenant-specific tables (case-insensitive match).
  std::vector<std::string> tenant_tables;
  /// The expected dataset D': every ttid predicate must restrict to a subset.
  std::vector<int64_t> expected_tenants;
  /// D' covers all registered tenants and the rewriter elided the D-filters
  /// (o1, paper section 4.1) — unrestricted access is then, trivially,
  /// isolation-preserving.
  bool allow_unfiltered = false;
};

struct VerifyResult {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  /// "ok" or "FAILED CODE1, CODE2" (codes deduplicated, first-seen order) —
  /// the EXPLAIN (VERIFY) annotation body.
  std::string Summary() const;
  /// Multi-line rendering of every violation (code, detail, subtree) for
  /// error statuses and test failure output.
  std::string Message() const;
};

class PlanVerifier {
 public:
  /// `ctx` may be null (engine-level checks only) and is not owned; it must
  /// outlive the verifier.
  explicit PlanVerifier(const VerifyContext* ctx = nullptr) : ctx_(ctx) {}

  /// Prove the invariants over `plan`, including sub-plans reachable from
  /// its expressions and the body plans of UDFs it calls.
  VerifyResult Verify(const Plan& plan) const;

 private:
  const VerifyContext* ctx_;
};

/// Whether compile-time enforcement is on: plans failing verification refuse
/// to execute. Always on in debug builds (!NDEBUG); MTBASE_VERIFY_PLANS=1
/// turns it on in release builds and MTBASE_VERIFY_PLANS=0 forces it off.
/// Read per call so tests can toggle the environment in-process.
bool VerificationEnabled();

}  // namespace verify
}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_VERIFY_VERIFIER_H_
