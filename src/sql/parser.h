// Recursive-descent parser for the SQL/MTSQL dialect.
#ifndef MTBASE_SQL_PARSER_H_
#define MTBASE_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"

namespace mtbase {
namespace sql {

/// The deepest tree the parser builds. Each parenthesis, argument list,
/// CASE, sub-query and unary operator nests one level; each link of a
/// left-deep chain (a + b + c, a AND b, t1 JOIN t2) adds one to the height
/// of everything before it. Deeper input is a SyntaxError ("expression
/// nested too deeply"), which bounds the recursion of every later pass.
constexpr int kMaxNestingDepth = 256;

/// Parse a single statement (trailing ';' optional).
Result<Stmt> ParseStatement(const std::string& text);

/// Parse a ';'-separated script.
Result<std::vector<Stmt>> ParseScript(const std::string& text);

/// Parse a single SELECT query.
Result<std::unique_ptr<SelectStmt>> ParseSelect(const std::string& text);

/// Parse a scalar expression (used for UDF bodies and tests).
Result<ExprPtr> ParseExpression(const std::string& text);

}  // namespace sql
}  // namespace mtbase

#endif  // MTBASE_SQL_PARSER_H_
