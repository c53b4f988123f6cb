// Shared gtest helpers.
#ifndef MTBASE_TESTS_TEST_UTIL_H_
#define MTBASE_TESTS_TEST_UTIL_H_

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/result.h"
#include "common/value.h"

namespace mtbase {

/// Set MTBASE_VERIFY_PLANS (plan-verification enforcement) for a scope —
/// "1" forces it on in the default NDEBUG build, where it is opt-in — and
/// restore the previous value after.
class ScopedVerifyEnv {
 public:
  explicit ScopedVerifyEnv(const char* value) {
    const char* old = std::getenv("MTBASE_VERIFY_PLANS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    setenv("MTBASE_VERIFY_PLANS", value, 1);
  }
  ~ScopedVerifyEnv() {
    if (had_) {
      setenv("MTBASE_VERIFY_PLANS", saved_.c_str(), 1);
    } else {
      unsetenv("MTBASE_VERIFY_PLANS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

/// Byte-exact canonical form of a row set (type tag + rendered value per
/// cell, row order preserved): the encoding every serial-vs-parallel and
/// cached-vs-fresh byte-parity assertion compares. No numeric tolerance by
/// design — "byte-identical" is the guarantee under test.
inline std::string CanonRows(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& v : row) {
      out += static_cast<char>('0' + static_cast<int>(v.type()));
      out += v.ToString();
      out += '\x1f';
    }
    out += '\n';
  }
  return out;
}

/// Match one EXPLAIN line against a pattern. `*` matches any run of
/// characters (including none); everything else is literal. Anchored at both
/// ends, so patterns usually start or end with `*` to ignore indentation and
/// trailing annotations.
inline bool PlanLineMatches(const std::string& pattern,
                            const std::string& line) {
  // Classic iterative glob: on mismatch, back up to the last `*` and let it
  // swallow one more character.
  size_t p = 0, l = 0, star = std::string::npos, star_l = 0;
  while (l < line.size()) {
    if (p < pattern.size() &&
        (pattern[p] == line[l])) {
      ++p;
      ++l;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_l = l;
    } else if (star != std::string::npos) {
      p = star + 1;
      l = ++star_l;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

/// Assert an EXPLAIN rendering's operator shape: every pattern line must
/// match some plan line, in order (non-matching plan lines in between are
/// skipped — the patterns pin the operators you care about, not the whole
/// rendering). `*` in a pattern line is a wildcard. Returns AssertionSuccess
/// /Failure so it composes with EXPECT_TRUE/ASSERT_TRUE and prints the plan
/// and the first unmatched pattern on failure.
inline ::testing::AssertionResult PlanShapeMatches(
    const std::string& explain_text,
    const std::vector<std::string>& pattern_lines) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= explain_text.size()) {
    size_t nl = explain_text.find('\n', start);
    if (nl == std::string::npos) {
      if (start < explain_text.size()) {
        lines.push_back(explain_text.substr(start));
      }
      break;
    }
    lines.push_back(explain_text.substr(start, nl - start));
    start = nl + 1;
  }
  size_t li = 0;
  for (const std::string& pat : pattern_lines) {
    bool found = false;
    while (li < lines.size()) {
      if (PlanLineMatches(pat, lines[li++])) {
        found = true;
        break;
      }
    }
    if (!found) {
      return ::testing::AssertionFailure()
             << "pattern line \"" << pat
             << "\" matched no remaining plan line.\nPlan:\n"
             << explain_text;
    }
  }
  return ::testing::AssertionSuccess();
}

#define EXPECT_PLAN_SHAPE(explain_text, ...) \
  EXPECT_TRUE(::mtbase::PlanShapeMatches((explain_text), __VA_ARGS__))
#define ASSERT_PLAN_SHAPE(explain_text, ...) \
  ASSERT_TRUE(::mtbase::PlanShapeMatches((explain_text), __VA_ARGS__))

inline const Status& ToStatus(const Status& s) { return s; }
template <typename T>
const Status& ToStatus(const Result<T>& r) {
  return r.status();
}

#define ASSERT_OK(expr)                                              \
  do {                                                               \
    const auto& _r = (expr);                                         \
    ASSERT_TRUE(_r.ok()) << ::mtbase::ToStatus(_r).ToString();       \
  } while (0)

#define EXPECT_OK(expr)                                              \
  do {                                                               \
    const auto& _r = (expr);                                         \
    EXPECT_TRUE(_r.ok()) << ::mtbase::ToStatus(_r).ToString();       \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                      \
  auto MTB_CONCAT(_res_, __LINE__) = (expr);                 \
  ASSERT_TRUE(MTB_CONCAT(_res_, __LINE__).ok())              \
      << MTB_CONCAT(_res_, __LINE__).status().ToString();    \
  lhs = std::move(MTB_CONCAT(_res_, __LINE__)).value()

}  // namespace mtbase

#endif  // MTBASE_TESTS_TEST_UTIL_H_
