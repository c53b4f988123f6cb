#include "sql/parser.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>

#include "common/str_util.h"
#include "sql/lexer.h"

namespace mtbase {
namespace sql {

namespace {

/// std::stoll without the exception: integer tokens are digit-only (the
/// lexer guarantees it), so the only failure mode is overflow past int64_t
/// — which must surface as a syntax error, not std::terminate.
bool ParseInt64(const std::string& text, int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Stmt> ParseStmt();
  Result<std::vector<Stmt>> ParseAll();
  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt();
  Result<ExprPtr> ParseExpr();

  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  bool MatchSym(const std::string& s);

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool IsKw(const std::string& kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kIdentifier && EqualsIgnoreCase(t.text, kw);
  }
  bool MatchKw(const std::string& kw) {
    if (IsKw(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKw(const std::string& kw) {
    if (MatchKw(kw)) return Status::OK();
    return Err("expected keyword " + kw);
  }
  bool IsSym(const std::string& s, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kSymbol && t.text == s;
  }
  Status ExpectSym(const std::string& s) {
    if (MatchSym(s)) return Status::OK();
    return Err("expected '" + s + "'");
  }
  Status Err(const std::string& msg) const {
    return Status::SyntaxError(msg + " near '" + Peek().text + "' (offset " +
                               std::to_string(Peek().pos) + ")");
  }
  Result<std::string> ExpectIdentifier(const std::string& what);

  // Nesting bound (kMaxNestingDepth). depth_ is the level the parser has
  // recursed to. reach_ is the depth of the deepest node built so far below
  // the innermost open operator chain: each link wraps everything before it
  // in one more node, so a link adds one to it.
  Status CheckDepth() const {
    if (reach_ > kMaxNestingDepth) return Err("expression nested too deeply");
    return Status::OK();
  }
  /// One level of recursion: a parenthesis, an argument list, CASE, a
  /// sub-query or a unary operator. Call CheckDepth() right after.
  class Nest {
   public:
    explicit Nest(Parser* p) : p_(p) {
      ++p_->depth_;
      p_->reach_ = std::max(p_->reach_, p_->depth_);
    }
    ~Nest() { --p_->depth_; }

   private:
    Parser* p_;
  };
  /// One left-deep chain; Link() once per node wrapped around the result so
  /// far, after that node's other operands are parsed.
  class Chain {
   public:
    explicit Chain(Parser* p) : p_(p), outer_reach_(p->reach_) {
      p_->reach_ = p_->depth_;
    }
    ~Chain() { p_->reach_ = std::max(outer_reach_, p_->reach_); }
    Status Link() {
      ++p_->reach_;
      return p_->CheckDepth();
    }

   private:
    Parser* p_;
    int outer_reach_;
  };

  // Expression precedence chain.
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();
  Result<std::vector<ExprPtr>> ParseExprList();

  Result<std::unique_ptr<TableRef>> ParseTableRef();
  Result<std::unique_ptr<TableRef>> ParseTablePrimary();
  Result<TypeDecl> ParseType();
  Result<Stmt> ParseCreate();
  Result<Stmt> ParseInsert();
  Result<Stmt> ParseUpdate();
  Result<Stmt> ParseDelete();
  Result<Stmt> ParseGrantOrRevoke(bool revoke);
  Result<Stmt> ParseSetScope();
  Result<Stmt> ParseDrop();

  bool IsReserved(const std::string& word) const;

  std::vector<Token> tokens_;
  int max_param_ = 0;  // highest parameter index seen in this statement
  bool saw_question_param_ = false;
  bool saw_dollar_param_ = false;
  size_t pos_ = 0;
  int depth_ = 0;
  int reach_ = 0;
};

bool Parser::MatchSym(const std::string& s) {
  if (IsSym(s)) {
    ++pos_;
    return true;
  }
  return false;
}

Result<std::string> Parser::ExpectIdentifier(const std::string& what) {
  if (Peek().kind != TokenKind::kIdentifier) {
    return Err("expected " + what);
  }
  return Advance().text;
}

bool Parser::IsReserved(const std::string& word) const {
  static const char* kReserved[] = {
      "SELECT", "FROM",  "WHERE",  "GROUP",  "HAVING", "ORDER",  "LIMIT",
      "AND",    "OR",    "NOT",    "AS",     "ON",     "JOIN",   "LEFT",
      "INNER",  "OUTER", "UNION",  "WHEN",   "THEN",   "ELSE",   "END",
      "IN",     "IS",    "LIKE",   "BETWEEN", "EXISTS", "DISTINCT", "BY",
      "ASC",    "DESC",  "VALUES", "SET",    "INTO",   "CASE",   "TO",
      "OFFSET",
  };
  for (const char* r : kReserved) {
    if (EqualsIgnoreCase(word, r)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Result<ExprPtr> Parser::ParseExpr() { return ParseOr(); }

Result<ExprPtr> Parser::ParseOr() {
  Chain chain(this);
  MTB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (MatchKw("OR")) {
    MTB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    MTB_RETURN_IF_ERROR(chain.Link());
    lhs = Binary("OR", std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAnd() {
  Chain chain(this);
  MTB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
  while (MatchKw("AND")) {
    MTB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
    MTB_RETURN_IF_ERROR(chain.Link());
    lhs = Binary("AND", std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseNot() {
  if (MatchKw("NOT")) {
    Nest nest(this);
    MTB_RETURN_IF_ERROR(CheckDepth());
    MTB_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
    return Unary("NOT", std::move(inner));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  Chain chain(this);
  MTB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
  for (;;) {
    bool negated = false;
    if (IsKw("NOT") && (IsKw("IN", 1) || IsKw("LIKE", 1) || IsKw("BETWEEN", 1))) {
      Advance();
      negated = true;
    }
    if (MatchKw("IN")) {
      MTB_RETURN_IF_ERROR(ExpectSym("("));
      Nest nest(this);
      MTB_RETURN_IF_ERROR(CheckDepth());
      auto e = std::make_unique<Expr>();
      e->negated = negated;
      if (IsKw("SELECT")) {
        e->kind = ExprKind::kInSubquery;
        MTB_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
        // Tuple IN: lhs may be a row expression.
        if (lhs->kind == ExprKind::kFunction && lhs->fname == "__row") {
          e->args = std::move(lhs->args);
        } else {
          e->args.push_back(std::move(lhs));
        }
      } else {
        e->kind = ExprKind::kInList;
        e->args.push_back(std::move(lhs));
        MTB_ASSIGN_OR_RETURN(auto list, ParseExprList());
        for (auto& item : list) e->args.push_back(std::move(item));
      }
      MTB_RETURN_IF_ERROR(ExpectSym(")"));
      MTB_RETURN_IF_ERROR(chain.Link());
      lhs = std::move(e);
      continue;
    }
    if (MatchKw("LIKE")) {
      MTB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      MTB_RETURN_IF_ERROR(chain.Link());
      lhs = Binary(negated ? "NOT LIKE" : "LIKE", std::move(lhs), std::move(rhs));
      continue;
    }
    if (MatchKw("BETWEEN")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBetween;
      e->negated = negated;
      e->args.push_back(std::move(lhs));
      MTB_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      MTB_RETURN_IF_ERROR(ExpectKw("AND"));
      MTB_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      MTB_RETURN_IF_ERROR(chain.Link());
      e->args.push_back(std::move(lo));
      e->args.push_back(std::move(hi));
      lhs = std::move(e);
      continue;
    }
    if (MatchKw("IS")) {
      bool isn = MatchKw("NOT");
      MTB_RETURN_IF_ERROR(ExpectKw("NULL"));
      MTB_RETURN_IF_ERROR(chain.Link());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      e->negated = isn;
      e->args.push_back(std::move(lhs));
      lhs = std::move(e);
      continue;
    }
    if (Peek().kind == TokenKind::kSymbol) {
      const std::string& s = Peek().text;
      if (s == "=" || s == "<>" || s == "<" || s == "<=" || s == ">" ||
          s == ">=") {
        std::string op = Advance().text;
        MTB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        MTB_RETURN_IF_ERROR(chain.Link());
        lhs = Binary(op, std::move(lhs), std::move(rhs));
        continue;
      }
    }
    break;
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAdditive() {
  Chain chain(this);
  MTB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
  for (;;) {
    if (IsSym("+") || IsSym("-") || IsSym("||")) {
      std::string op = Advance().text;
      MTB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      MTB_RETURN_IF_ERROR(chain.Link());
      lhs = Binary(op, std::move(lhs), std::move(rhs));
    } else {
      break;
    }
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  Chain chain(this);
  MTB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  for (;;) {
    if (IsSym("*") || IsSym("/")) {
      std::string op = Advance().text;
      MTB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      MTB_RETURN_IF_ERROR(chain.Link());
      lhs = Binary(op, std::move(lhs), std::move(rhs));
    } else {
      break;
    }
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseUnary() {
  // Unary plus is a no-op: skip it without recursing.
  while (MatchSym("+")) {
  }
  if (MatchSym("-")) {
    Nest nest(this);
    MTB_RETURN_IF_ERROR(CheckDepth());
    MTB_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
    return Unary("-", std::move(inner));
  }
  return ParsePrimary();
}

Result<std::vector<ExprPtr>> Parser::ParseExprList() {
  std::vector<ExprPtr> out;
  MTB_ASSIGN_OR_RETURN(ExprPtr first, ParseExpr());
  out.push_back(std::move(first));
  while (MatchSym(",")) {
    MTB_ASSIGN_OR_RETURN(ExprPtr next, ParseExpr());
    out.push_back(std::move(next));
  }
  return out;
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  // Literals.
  if (t.kind == TokenKind::kInteger) {
    int64_t v = 0;
    if (!ParseInt64(t.text, &v)) return Err("integer literal out of range");
    Advance();
    return Lit(Value::Int(v));
  }
  if (t.kind == TokenKind::kDecimal) {
    Advance();
    MTB_ASSIGN_OR_RETURN(Decimal d, Decimal::Parse(t.text));
    return Lit(Value::Dec(d));
  }
  if (t.kind == TokenKind::kString) {
    Advance();
    return StrLit(t.text);
  }
  if (t.kind == TokenKind::kParam) {
    if (saw_question_param_) {
      return Err("cannot mix '?' and '$n' parameter placeholders");
    }
    // The lexer guarantees digits only; bound the width before stoi so an
    // absurd index cannot throw, and reject $0 (parameters are 1-based).
    if (t.text.size() > 4 || std::stoi(t.text) < 1) {
      return Err("parameter index must be between $1 and $9999");
    }
    Advance();
    saw_dollar_param_ = true;
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kParam;
    e->param_index = std::stoi(t.text);
    if (e->param_index > max_param_) max_param_ = e->param_index;
    return ExprPtr(std::move(e));
  }
  // '?' placeholders are numbered left to right within one statement.
  // Mixing them with explicit $n is rejected (the two numbering schemes
  // would silently alias slots otherwise).
  if (IsSym("?")) {
    if (saw_dollar_param_) {
      return Err("cannot mix '?' and '$n' parameter placeholders");
    }
    Advance();
    saw_question_param_ = true;
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kParam;
    e->param_index = ++max_param_;
    return ExprPtr(std::move(e));
  }
  // Parenthesized expression, row expression, or scalar subquery.
  if (MatchSym("(")) {
    Nest nest(this);
    MTB_RETURN_IF_ERROR(CheckDepth());
    if (IsKw("SELECT")) {
      MTB_ASSIGN_OR_RETURN(auto sub, ParseSelectStmt());
      MTB_RETURN_IF_ERROR(ExpectSym(")"));
      return ScalarSubquery(std::move(sub));
    }
    MTB_ASSIGN_OR_RETURN(auto list, ParseExprList());
    MTB_RETURN_IF_ERROR(ExpectSym(")"));
    if (list.size() == 1) return std::move(list[0]);
    // Row expression, only valid before IN.
    return Func("__row", std::move(list));
  }
  if (t.kind != TokenKind::kIdentifier) {
    return Err("expected expression");
  }
  // Keyword-introduced expression forms.
  if (IsKw("CASE")) {
    Advance();
    Nest nest(this);
    MTB_RETURN_IF_ERROR(CheckDepth());
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCase;
    if (!IsKw("WHEN")) {
      MTB_ASSIGN_OR_RETURN(e->case_operand, ParseExpr());
    }
    while (MatchKw("WHEN")) {
      MTB_ASSIGN_OR_RETURN(ExprPtr w, ParseExpr());
      MTB_RETURN_IF_ERROR(ExpectKw("THEN"));
      MTB_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
      e->args.push_back(std::move(w));
      e->args.push_back(std::move(v));
    }
    if (e->args.empty()) return Err("CASE without WHEN");
    if (MatchKw("ELSE")) {
      MTB_ASSIGN_OR_RETURN(e->else_expr, ParseExpr());
    }
    MTB_RETURN_IF_ERROR(ExpectKw("END"));
    return ExprPtr(std::move(e));
  }
  if (IsKw("EXISTS")) {
    Advance();
    MTB_RETURN_IF_ERROR(ExpectSym("("));
    Nest nest(this);
    MTB_RETURN_IF_ERROR(CheckDepth());
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kExists;
    MTB_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
    MTB_RETURN_IF_ERROR(ExpectSym(")"));
    return ExprPtr(std::move(e));
  }
  if (IsKw("DATE") && Peek(1).kind == TokenKind::kString) {
    Advance();
    MTB_ASSIGN_OR_RETURN(Date d, Date::Parse(Advance().text));
    return Lit(Value::Dat(d));
  }
  if (IsKw("INTERVAL")) {
    Advance();
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kInterval;
    int64_t count = 0;
    if ((Peek().kind == TokenKind::kString ||
         Peek().kind == TokenKind::kInteger) &&
        ParseInt64(Peek().text, &count)) {
      Advance();
      e->args.push_back(Lit(Value::Int(count)));
    } else {
      return Err("expected interval count");
    }
    MTB_ASSIGN_OR_RETURN(std::string unit, ExpectIdentifier("interval unit"));
    e->interval_unit = ToUpperCopy(unit);
    if (e->interval_unit != "DAY" && e->interval_unit != "MONTH" &&
        e->interval_unit != "YEAR") {
      return Err("unsupported interval unit " + unit);
    }
    return ExprPtr(std::move(e));
  }
  if (IsKw("EXTRACT")) {
    Advance();
    MTB_RETURN_IF_ERROR(ExpectSym("("));
    Nest nest(this);
    MTB_RETURN_IF_ERROR(CheckDepth());
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kExtract;
    MTB_ASSIGN_OR_RETURN(std::string field, ExpectIdentifier("extract field"));
    e->extract_field = ToUpperCopy(field);
    MTB_RETURN_IF_ERROR(ExpectKw("FROM"));
    MTB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
    e->args.push_back(std::move(arg));
    MTB_RETURN_IF_ERROR(ExpectSym(")"));
    return ExprPtr(std::move(e));
  }
  if (IsKw("SUBSTRING") && IsSym("(", 1)) {
    Advance();
    Advance();
    Nest nest(this);
    MTB_RETURN_IF_ERROR(CheckDepth());
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kFunction;
    e->fname = "SUBSTRING";
    MTB_ASSIGN_OR_RETURN(ExprPtr str, ParseExpr());
    e->args.push_back(std::move(str));
    if (MatchKw("FROM")) {
      MTB_ASSIGN_OR_RETURN(ExprPtr from, ParseExpr());
      e->args.push_back(std::move(from));
      if (MatchKw("FOR")) {
        MTB_ASSIGN_OR_RETURN(ExprPtr len, ParseExpr());
        e->args.push_back(std::move(len));
      }
    } else {
      while (MatchSym(",")) {
        MTB_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
        e->args.push_back(std::move(a));
      }
    }
    MTB_RETURN_IF_ERROR(ExpectSym(")"));
    return ExprPtr(std::move(e));
  }
  if (IsKw("NULL")) {
    Advance();
    return Lit(Value::Null());
  }
  if (IsKw("TRUE")) {
    Advance();
    return Lit(Value::Bool(true));
  }
  if (IsKw("FALSE")) {
    Advance();
    return Lit(Value::Bool(false));
  }
  // Function call or column reference.
  std::string name = Advance().text;
  if (MatchSym("(")) {
    Nest nest(this);
    MTB_RETURN_IF_ERROR(CheckDepth());
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kFunction;
    e->fname = name;
    if (MatchSym("*")) {
      auto star = std::make_unique<Expr>();
      star->kind = ExprKind::kStar;
      e->args.push_back(std::move(star));
    } else if (!IsSym(")")) {
      if (MatchKw("DISTINCT")) e->distinct = true;
      MTB_ASSIGN_OR_RETURN(auto args, ParseExprList());
      e->args = std::move(args);
    }
    MTB_RETURN_IF_ERROR(ExpectSym(")"));
    return ExprPtr(std::move(e));
  }
  // Qualified name: t.col or t.*
  if (MatchSym(".")) {
    if (MatchSym("*")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kStar;
      e->qualifier = name;
      return ExprPtr(std::move(e));
    }
    MTB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
    return Col(name, col);
  }
  return Col(name);
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelectStmt() {
  MTB_RETURN_IF_ERROR(ExpectKw("SELECT"));
  auto s = std::make_unique<SelectStmt>();
  s->distinct = MatchKw("DISTINCT");
  // Select list.
  for (;;) {
    SelectItem item;
    if (MatchSym("*")) {
      auto star = std::make_unique<Expr>();
      star->kind = ExprKind::kStar;
      item.expr = std::move(star);
    } else {
      MTB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKw("AS")) {
        MTB_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
      } else if (Peek().kind == TokenKind::kIdentifier &&
                 !IsReserved(Peek().text)) {
        item.alias = Advance().text;
      }
    }
    s->items.push_back(std::move(item));
    if (!MatchSym(",")) break;
  }
  if (MatchKw("FROM")) {
    for (;;) {
      MTB_ASSIGN_OR_RETURN(auto tref, ParseTableRef());
      s->from.push_back(std::move(tref));
      if (!MatchSym(",")) break;
    }
  }
  if (MatchKw("WHERE")) {
    MTB_ASSIGN_OR_RETURN(s->where, ParseExpr());
  }
  if (MatchKw("GROUP")) {
    MTB_RETURN_IF_ERROR(ExpectKw("BY"));
    MTB_ASSIGN_OR_RETURN(s->group_by, ParseExprList());
  }
  if (MatchKw("HAVING")) {
    MTB_ASSIGN_OR_RETURN(s->having, ParseExpr());
  }
  if (MatchKw("ORDER")) {
    MTB_RETURN_IF_ERROR(ExpectKw("BY"));
    for (;;) {
      OrderItem oi;
      MTB_ASSIGN_OR_RETURN(oi.expr, ParseExpr());
      if (MatchKw("DESC")) {
        oi.desc = true;
      } else {
        MatchKw("ASC");
      }
      s->order_by.push_back(std::move(oi));
      if (!MatchSym(",")) break;
    }
  }
  if (MatchKw("LIMIT")) {
    if (Peek().kind != TokenKind::kInteger ||
        !ParseInt64(Peek().text, &s->limit)) {
      return Err("expected LIMIT count");
    }
    Advance();
    if (MatchKw("OFFSET")) {
      if (Peek().kind != TokenKind::kInteger ||
          !ParseInt64(Peek().text, &s->offset)) {
        return Err("expected OFFSET count");
      }
      Advance();
    }
  }
  return s;
}

Result<std::unique_ptr<TableRef>> Parser::ParseTablePrimary() {
  auto t = std::make_unique<TableRef>();
  if (MatchSym("(")) {
    Nest nest(this);
    MTB_RETURN_IF_ERROR(CheckDepth());
    t->kind = TableRef::Kind::kSubquery;
    MTB_ASSIGN_OR_RETURN(t->subquery, ParseSelectStmt());
    MTB_RETURN_IF_ERROR(ExpectSym(")"));
    MatchKw("AS");
    MTB_ASSIGN_OR_RETURN(t->alias, ExpectIdentifier("subquery alias"));
    return t;
  }
  t->kind = TableRef::Kind::kBase;
  MTB_ASSIGN_OR_RETURN(t->name, ExpectIdentifier("table name"));
  if (MatchKw("AS")) {
    MTB_ASSIGN_OR_RETURN(t->alias, ExpectIdentifier("table alias"));
  } else if (Peek().kind == TokenKind::kIdentifier && !IsReserved(Peek().text) &&
             !IsKw("JOIN") && !IsKw("LEFT") && !IsKw("INNER")) {
    t->alias = Advance().text;
  }
  return t;
}

Result<std::unique_ptr<TableRef>> Parser::ParseTableRef() {
  Chain chain(this);
  MTB_ASSIGN_OR_RETURN(auto left, ParseTablePrimary());
  for (;;) {
    JoinType jt = JoinType::kInner;
    if (IsKw("LEFT")) {
      Advance();
      MatchKw("OUTER");
      MTB_RETURN_IF_ERROR(ExpectKw("JOIN"));
      jt = JoinType::kLeft;
    } else if (IsKw("INNER") && IsKw("JOIN", 1)) {
      Advance();
      Advance();
    } else if (IsKw("JOIN")) {
      Advance();
    } else {
      break;
    }
    MTB_ASSIGN_OR_RETURN(auto right, ParseTablePrimary());
    auto join = std::make_unique<TableRef>();
    join->kind = TableRef::Kind::kJoin;
    join->join_type = jt;
    join->left = std::move(left);
    join->right = std::move(right);
    MTB_RETURN_IF_ERROR(ExpectKw("ON"));
    MTB_ASSIGN_OR_RETURN(join->join_cond, ParseExpr());
    MTB_RETURN_IF_ERROR(chain.Link());
    left = std::move(join);
  }
  return left;
}

// ---------------------------------------------------------------------------
// DDL / DML / DCL
// ---------------------------------------------------------------------------

Result<TypeDecl> Parser::ParseType() {
  MTB_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("type name"));
  TypeDecl t;
  std::string u = ToUpperCopy(name);
  if (u == "INTEGER" || u == "INT" || u == "BIGINT") {
    t.id = TypeId::kInt;
  } else if (u == "DOUBLE" || u == "FLOAT" || u == "REAL") {
    t.id = TypeId::kDouble;
  } else if (u == "DECIMAL" || u == "NUMERIC") {
    t.id = TypeId::kDecimal;
    if (MatchSym("(")) {
      if (Peek().kind != TokenKind::kInteger) return Err("expected precision");
      t.precision = std::stoi(Advance().text);
      if (MatchSym(",")) {
        if (Peek().kind != TokenKind::kInteger) return Err("expected scale");
        t.scale = std::stoi(Advance().text);
      }
      MTB_RETURN_IF_ERROR(ExpectSym(")"));
    } else {
      t.precision = 15;
      t.scale = 2;
    }
  } else if (u == "VARCHAR" || u == "CHAR" || u == "TEXT") {
    t.id = TypeId::kString;
    if (MatchSym("(")) {
      if (Peek().kind != TokenKind::kInteger) return Err("expected length");
      t.length = std::stoi(Advance().text);
      MTB_RETURN_IF_ERROR(ExpectSym(")"));
    }
  } else if (u == "DATE") {
    t.id = TypeId::kDate;
  } else if (u == "BOOLEAN" || u == "BOOL") {
    t.id = TypeId::kBool;
  } else {
    return Err("unknown type " + name);
  }
  return t;
}

Result<Stmt> Parser::ParseCreate() {
  MTB_RETURN_IF_ERROR(ExpectKw("CREATE"));
  if (MatchKw("TABLE")) {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kCreateTable;
    stmt.create_table = std::make_unique<CreateTableStmt>();
    auto& ct = *stmt.create_table;
    MTB_ASSIGN_OR_RETURN(ct.name, ExpectIdentifier("table name"));
    if (MatchKw("SPECIFIC")) {
      ct.mt_specific = true;
    } else {
      MatchKw("GLOBAL");
    }
    MTB_RETURN_IF_ERROR(ExpectSym("("));
    for (;;) {
      if (MatchKw("CONSTRAINT")) {
        TableConstraint c;
        MTB_ASSIGN_OR_RETURN(c.name, ExpectIdentifier("constraint name"));
        if (MatchKw("PRIMARY")) {
          MTB_RETURN_IF_ERROR(ExpectKw("KEY"));
          c.kind = TableConstraint::Kind::kPrimaryKey;
          MTB_RETURN_IF_ERROR(ExpectSym("("));
          for (;;) {
            MTB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column"));
            c.columns.push_back(col);
            if (!MatchSym(",")) break;
          }
          MTB_RETURN_IF_ERROR(ExpectSym(")"));
        } else if (MatchKw("FOREIGN")) {
          MTB_RETURN_IF_ERROR(ExpectKw("KEY"));
          c.kind = TableConstraint::Kind::kForeignKey;
          MTB_RETURN_IF_ERROR(ExpectSym("("));
          for (;;) {
            MTB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column"));
            c.columns.push_back(col);
            if (!MatchSym(",")) break;
          }
          MTB_RETURN_IF_ERROR(ExpectSym(")"));
          MTB_RETURN_IF_ERROR(ExpectKw("REFERENCES"));
          MTB_ASSIGN_OR_RETURN(c.ref_table, ExpectIdentifier("ref table"));
          MTB_RETURN_IF_ERROR(ExpectSym("("));
          for (;;) {
            MTB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column"));
            c.ref_columns.push_back(col);
            if (!MatchSym(",")) break;
          }
          MTB_RETURN_IF_ERROR(ExpectSym(")"));
        } else if (MatchKw("CHECK")) {
          c.kind = TableConstraint::Kind::kCheck;
          MTB_RETURN_IF_ERROR(ExpectSym("("));
          MTB_ASSIGN_OR_RETURN(c.check, ParseExpr());
          MTB_RETURN_IF_ERROR(ExpectSym(")"));
        } else {
          return Err("expected PRIMARY KEY, FOREIGN KEY or CHECK");
        }
        ct.constraints.push_back(std::move(c));
      } else {
        ColumnDef col;
        MTB_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
        MTB_ASSIGN_OR_RETURN(col.type, ParseType());
        for (;;) {
          if (MatchKw("NOT")) {
            MTB_RETURN_IF_ERROR(ExpectKw("NULL"));
            col.not_null = true;
          } else if (MatchKw("SPECIFIC")) {
            col.comparability = Comparability::kTenantSpecific;
          } else if (MatchKw("COMPARABLE")) {
            col.comparability = Comparability::kComparable;
          } else if (MatchKw("CONVERTIBLE")) {
            col.comparability = Comparability::kConvertible;
            MTB_RETURN_IF_ERROR(ExpectSym("@"));
            MTB_ASSIGN_OR_RETURN(col.to_universal_fn,
                                 ExpectIdentifier("toUniversal function"));
            MTB_RETURN_IF_ERROR(ExpectSym("@"));
            MTB_ASSIGN_OR_RETURN(col.from_universal_fn,
                                 ExpectIdentifier("fromUniversal function"));
          } else {
            break;
          }
        }
        ct.columns.push_back(std::move(col));
      }
      if (!MatchSym(",")) break;
    }
    MTB_RETURN_IF_ERROR(ExpectSym(")"));
    if (MatchKw("PARTITION")) {
      MTB_RETURN_IF_ERROR(ExpectKw("BY"));
      auto& ps = ct.partition;
      if (MatchKw("HASH")) {
        ps.method = PartitionSpec::Method::kHash;
        MTB_RETURN_IF_ERROR(ExpectSym("("));
        MTB_ASSIGN_OR_RETURN(ps.column, ExpectIdentifier("partition column"));
        MTB_RETURN_IF_ERROR(ExpectSym(")"));
        MTB_RETURN_IF_ERROR(ExpectKw("PARTITIONS"));
        if (Peek().kind != TokenKind::kInteger ||
            !ParseInt64(Peek().text, &ps.count)) {
          return Err("expected partition count");
        }
        Advance();
        if (ps.count < 1) return Err("partition count must be positive");
      } else if (MatchKw("LIST")) {
        ps.method = PartitionSpec::Method::kList;
        MTB_RETURN_IF_ERROR(ExpectSym("("));
        MTB_ASSIGN_OR_RETURN(ps.column, ExpectIdentifier("partition column"));
        MTB_RETURN_IF_ERROR(ExpectSym(")"));
        MTB_RETURN_IF_ERROR(ExpectSym("("));
        for (;;) {
          MTB_RETURN_IF_ERROR(ExpectKw("VALUES"));
          MTB_RETURN_IF_ERROR(ExpectSym("("));
          std::vector<int64_t> group;
          for (;;) {
            bool neg = MatchSym("-");
            int64_t v = 0;
            if (Peek().kind != TokenKind::kInteger ||
                !ParseInt64(Peek().text, &v)) {
              return Err("expected integer partition list value");
            }
            Advance();
            group.push_back(neg ? -v : v);
            if (!MatchSym(",")) break;
          }
          MTB_RETURN_IF_ERROR(ExpectSym(")"));
          ps.lists.push_back(std::move(group));
          if (!MatchSym(",")) break;
        }
        MTB_RETURN_IF_ERROR(ExpectSym(")"));
      } else {
        return Err("expected HASH or LIST after PARTITION BY");
      }
    }
    return stmt;
  }
  if (MatchKw("INDEX")) {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kCreateIndex;
    stmt.create_index = std::make_unique<CreateIndexStmt>();
    auto& ci = *stmt.create_index;
    MTB_ASSIGN_OR_RETURN(ci.name, ExpectIdentifier("index name"));
    MTB_RETURN_IF_ERROR(ExpectKw("ON"));
    MTB_ASSIGN_OR_RETURN(ci.table, ExpectIdentifier("table name"));
    MTB_RETURN_IF_ERROR(ExpectSym("("));
    for (;;) {
      MTB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column"));
      ci.columns.push_back(col);
      if (!MatchSym(",")) break;
    }
    MTB_RETURN_IF_ERROR(ExpectSym(")"));
    return stmt;
  }
  if (MatchKw("VIEW")) {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kCreateView;
    stmt.create_view = std::make_unique<CreateViewStmt>();
    MTB_ASSIGN_OR_RETURN(stmt.create_view->name,
                         ExpectIdentifier("view name"));
    MTB_RETURN_IF_ERROR(ExpectKw("AS"));
    MTB_ASSIGN_OR_RETURN(stmt.create_view->select, ParseSelectStmt());
    return stmt;
  }
  if (MatchKw("FUNCTION")) {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kCreateFunction;
    stmt.create_function = std::make_unique<CreateFunctionStmt>();
    auto& cf = *stmt.create_function;
    MTB_ASSIGN_OR_RETURN(cf.name, ExpectIdentifier("function name"));
    MTB_RETURN_IF_ERROR(ExpectSym("("));
    if (!IsSym(")")) {
      for (;;) {
        MTB_ASSIGN_OR_RETURN(TypeDecl t, ParseType());
        cf.arg_types.push_back(t);
        if (!MatchSym(",")) break;
      }
    }
    MTB_RETURN_IF_ERROR(ExpectSym(")"));
    MTB_RETURN_IF_ERROR(ExpectKw("RETURNS"));
    MTB_ASSIGN_OR_RETURN(cf.return_type, ParseType());
    MTB_RETURN_IF_ERROR(ExpectKw("AS"));
    if (Peek().kind != TokenKind::kString) return Err("expected function body");
    cf.body_sql = Advance().text;
    MTB_RETURN_IF_ERROR(ExpectKw("LANGUAGE"));
    MTB_RETURN_IF_ERROR(ExpectKw("SQL"));
    if (MatchKw("IMMUTABLE")) {
      cf.volatility = Volatility::kImmutable;
    } else if (MatchKw("STABLE")) {
      cf.volatility = Volatility::kStable;
    } else if (MatchKw("VOLATILE")) {
      cf.volatility = Volatility::kVolatile;
    }
    return stmt;
  }
  return Err("expected TABLE, VIEW, INDEX or FUNCTION after CREATE");
}

Result<Stmt> Parser::ParseInsert() {
  MTB_RETURN_IF_ERROR(ExpectKw("INSERT"));
  MTB_RETURN_IF_ERROR(ExpectKw("INTO"));
  Stmt stmt;
  stmt.kind = Stmt::Kind::kInsert;
  stmt.insert = std::make_unique<InsertStmt>();
  auto& ins = *stmt.insert;
  MTB_ASSIGN_OR_RETURN(ins.table, ExpectIdentifier("table name"));
  if (MatchSym("(")) {
    for (;;) {
      MTB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column"));
      ins.columns.push_back(col);
      if (!MatchSym(",")) break;
    }
    MTB_RETURN_IF_ERROR(ExpectSym(")"));
  }
  if (MatchKw("VALUES")) {
    for (;;) {
      MTB_RETURN_IF_ERROR(ExpectSym("("));
      MTB_ASSIGN_OR_RETURN(auto row, ParseExprList());
      MTB_RETURN_IF_ERROR(ExpectSym(")"));
      ins.rows.push_back(std::move(row));
      if (!MatchSym(",")) break;
    }
  } else if (IsKw("SELECT") || IsSym("(")) {
    bool paren = MatchSym("(");
    MTB_ASSIGN_OR_RETURN(ins.select, ParseSelectStmt());
    if (paren) MTB_RETURN_IF_ERROR(ExpectSym(")"));
  } else {
    return Err("expected VALUES or SELECT");
  }
  return stmt;
}

Result<Stmt> Parser::ParseUpdate() {
  MTB_RETURN_IF_ERROR(ExpectKw("UPDATE"));
  Stmt stmt;
  stmt.kind = Stmt::Kind::kUpdate;
  stmt.update = std::make_unique<UpdateStmt>();
  auto& up = *stmt.update;
  MTB_ASSIGN_OR_RETURN(up.table, ExpectIdentifier("table name"));
  MTB_RETURN_IF_ERROR(ExpectKw("SET"));
  for (;;) {
    MTB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column"));
    MTB_RETURN_IF_ERROR(ExpectSym("="));
    MTB_ASSIGN_OR_RETURN(ExprPtr val, ParseExpr());
    up.assignments.emplace_back(col, std::move(val));
    if (!MatchSym(",")) break;
  }
  if (MatchKw("WHERE")) {
    MTB_ASSIGN_OR_RETURN(up.where, ParseExpr());
  }
  return stmt;
}

Result<Stmt> Parser::ParseDelete() {
  MTB_RETURN_IF_ERROR(ExpectKw("DELETE"));
  MTB_RETURN_IF_ERROR(ExpectKw("FROM"));
  Stmt stmt;
  stmt.kind = Stmt::Kind::kDelete;
  stmt.del = std::make_unique<DeleteStmt>();
  MTB_ASSIGN_OR_RETURN(stmt.del->table, ExpectIdentifier("table name"));
  if (MatchKw("WHERE")) {
    MTB_ASSIGN_OR_RETURN(stmt.del->where, ParseExpr());
  }
  return stmt;
}

Result<Stmt> Parser::ParseGrantOrRevoke(bool revoke) {
  Advance();  // GRANT / REVOKE
  Stmt stmt;
  stmt.kind = Stmt::Kind::kGrant;
  stmt.grant = std::make_unique<GrantStmt>();
  auto& g = *stmt.grant;
  g.revoke = revoke;
  for (;;) {
    MTB_ASSIGN_OR_RETURN(std::string priv, ExpectIdentifier("privilege"));
    g.privileges.push_back(ToUpperCopy(priv));
    if (!MatchSym(",")) break;
  }
  MTB_RETURN_IF_ERROR(ExpectKw("ON"));
  if (MatchKw("DATABASE")) {
    g.on_database = true;
  } else {
    MTB_ASSIGN_OR_RETURN(g.table, ExpectIdentifier("table name"));
  }
  if (!MatchKw("TO")) {
    MTB_RETURN_IF_ERROR(ExpectKw("FROM"));  // REVOKE ... FROM
  }
  if (MatchKw("ALL")) {
    g.to_all = true;
  } else if (Peek().kind == TokenKind::kInteger &&
             ParseInt64(Peek().text, &g.grantee)) {
    Advance();
  } else {
    return Err("expected tenant id or ALL");
  }
  return stmt;
}

Result<Stmt> Parser::ParseSetScope() {
  MTB_RETURN_IF_ERROR(ExpectKw("SET"));
  MTB_RETURN_IF_ERROR(ExpectKw("SCOPE"));
  MTB_RETURN_IF_ERROR(ExpectSym("="));
  if (Peek().kind != TokenKind::kString) return Err("expected scope string");
  Stmt stmt;
  stmt.kind = Stmt::Kind::kSetScope;
  stmt.set_scope = std::make_unique<SetScopeStmt>();
  stmt.set_scope->scope_text = Advance().text;
  return stmt;
}

Result<Stmt> Parser::ParseDrop() {
  MTB_RETURN_IF_ERROR(ExpectKw("DROP"));
  Stmt stmt;
  stmt.kind = Stmt::Kind::kDrop;
  stmt.drop = std::make_unique<DropStmt>();
  if (MatchKw("TABLE")) {
    stmt.drop->what = DropStmt::What::kTable;
  } else if (MatchKw("VIEW")) {
    stmt.drop->what = DropStmt::What::kView;
  } else if (MatchKw("INDEX")) {
    stmt.drop->what = DropStmt::What::kIndex;
  } else {
    return Err("expected TABLE, VIEW or INDEX after DROP");
  }
  MTB_ASSIGN_OR_RETURN(stmt.drop->name, ExpectIdentifier("name"));
  return stmt;
}

Result<Stmt> Parser::ParseStmt() {
  // '?' numbering and the placeholder-style check restart per statement.
  max_param_ = 0;
  saw_question_param_ = false;
  saw_dollar_param_ = false;
  if (IsKw("SELECT")) {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kSelect;
    MTB_ASSIGN_OR_RETURN(stmt.select, ParseSelectStmt());
    return stmt;
  }
  if (IsKw("CREATE")) return ParseCreate();
  if (IsKw("INSERT")) return ParseInsert();
  if (IsKw("UPDATE")) return ParseUpdate();
  if (IsKw("DELETE")) return ParseDelete();
  if (IsKw("GRANT")) return ParseGrantOrRevoke(false);
  if (IsKw("REVOKE")) return ParseGrantOrRevoke(true);
  if (IsKw("SET")) return ParseSetScope();
  if (IsKw("DROP")) return ParseDrop();
  return Err("unrecognized statement");
}

Result<std::vector<Stmt>> Parser::ParseAll() {
  std::vector<Stmt> out;
  while (!AtEnd()) {
    if (MatchSym(";")) continue;
    MTB_ASSIGN_OR_RETURN(Stmt s, ParseStmt());
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

Result<Stmt> ParseStatement(const std::string& text) {
  MTB_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  Parser p(std::move(tokens));
  MTB_ASSIGN_OR_RETURN(Stmt stmt, p.ParseStmt());
  p.MatchSym(";");
  if (!p.AtEnd()) {
    return Status::SyntaxError("trailing input after statement");
  }
  return stmt;
}

Result<std::vector<Stmt>> ParseScript(const std::string& text) {
  MTB_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  Parser p(std::move(tokens));
  return p.ParseAll();
}

Result<std::unique_ptr<SelectStmt>> ParseSelect(const std::string& text) {
  MTB_ASSIGN_OR_RETURN(Stmt stmt, ParseStatement(text));
  if (stmt.kind != Stmt::Kind::kSelect) {
    return Status::SyntaxError("expected a SELECT statement");
  }
  return std::move(stmt.select);
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  MTB_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  Parser p(std::move(tokens));
  MTB_ASSIGN_OR_RETURN(ExprPtr e, p.ParseExpr());
  if (!p.AtEnd()) {
    return Status::SyntaxError("trailing input after expression");
  }
  return e;
}

}  // namespace sql
}  // namespace mtbase
