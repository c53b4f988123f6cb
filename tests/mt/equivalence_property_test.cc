// Property test: for randomly generated MTSQL queries over the Figure-2
// schema, every optimization level must return exactly the canonical
// rewrite's result (the optimizations are semantic no-ops — paper section 4).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mt/mtbase.h"
#include "mth/runner.h"
#include "tests/test_util.h"

namespace mtbase {
namespace mt {
namespace {

class EquivalenceFixture {
 public:
  static EquivalenceFixture& Get() {
    static EquivalenceFixture f;
    return f;
  }

  Middleware* mw() { return mw_.get(); }

 private:
  EquivalenceFixture() {
    db_ = std::make_unique<engine::Database>();
    mw_ = std::make_unique<Middleware>(db_.get());
    for (int64_t t = 0; t < 4; ++t) mw_->RegisterTenant(t);
    Status st = db_->ExecuteScript(R"(
      CREATE TABLE Tenant (T_tenant_key INTEGER NOT NULL, T_currency_key INTEGER NOT NULL,
        T_phone_prefix_key INTEGER NOT NULL);
      CREATE TABLE CurrencyTransform (CT_currency_key INTEGER NOT NULL,
        CT_to_universal DECIMAL(15,6) NOT NULL, CT_from_universal DECIMAL(15,6) NOT NULL);
      CREATE TABLE PhoneTransform (PT_phone_prefix_key INTEGER NOT NULL,
        PT_prefix VARCHAR(8) NOT NULL);
      INSERT INTO Tenant VALUES (0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 1, 0);
      INSERT INTO CurrencyTransform VALUES (0, 1, 1), (1, 0.5, 2), (2, 0.125, 8);
      INSERT INTO PhoneTransform VALUES (0, '+41'), (1, '+1'), (2, '0049');
      CREATE FUNCTION currencyToUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
        AS 'SELECT CT_to_universal*$1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key' LANGUAGE SQL IMMUTABLE;
      CREATE FUNCTION currencyFromUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
        AS 'SELECT CT_from_universal*$1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key' LANGUAGE SQL IMMUTABLE;
      CREATE FUNCTION phoneToUniversal (VARCHAR(17), INTEGER) RETURNS VARCHAR(17)
        AS 'SELECT SUBSTRING($1, CHAR_LENGTH(PT_prefix)+1) FROM Tenant, PhoneTransform WHERE T_tenant_key = $2 AND T_phone_prefix_key = PT_phone_prefix_key' LANGUAGE SQL IMMUTABLE;
      CREATE FUNCTION phoneFromUniversal (VARCHAR(17), INTEGER) RETURNS VARCHAR(17)
        AS 'SELECT CONCAT(PT_prefix, $1) FROM Tenant, PhoneTransform WHERE T_tenant_key = $2 AND T_phone_prefix_key = PT_phone_prefix_key' LANGUAGE SQL IMMUTABLE;
    )").status();
    if (!st.ok()) {
      ADD_FAILURE() << st.ToString();
      return;
    }
    ConversionPair currency;
    currency.name = "currency";
    currency.to_universal = "currencyToUniversal";
    currency.from_universal = "currencyFromUniversal";
    currency.cls = ConversionClass::kMultiplicative;
    currency.inline_spec.kind = InlineSpec::Kind::kMultiplicative;
    currency.inline_spec.tenant_fk = "T_currency_key";
    currency.inline_spec.meta_table = "CurrencyTransform";
    currency.inline_spec.meta_key = "CT_currency_key";
    currency.inline_spec.to_col = "CT_to_universal";
    currency.inline_spec.from_col = "CT_from_universal";
    st = mw_->conversions()->Register(currency);
    if (!st.ok()) ADD_FAILURE() << st.ToString();
    // A second family over the same owner: o4 joins one Tenant row for both.
    ConversionPair phone;
    phone.name = "phone";
    phone.to_universal = "phoneToUniversal";
    phone.from_universal = "phoneFromUniversal";
    phone.cls = ConversionClass::kEqualityOnly;
    phone.inline_spec.kind = InlineSpec::Kind::kPrefix;
    phone.inline_spec.tenant_fk = "T_phone_prefix_key";
    phone.inline_spec.meta_table = "PhoneTransform";
    phone.inline_spec.meta_key = "PT_phone_prefix_key";
    phone.inline_spec.to_col = "PT_prefix";
    phone.inline_spec.from_col = "PT_prefix";
    st = mw_->conversions()->Register(phone);
    if (!st.ok()) ADD_FAILURE() << st.ToString();

    Session modeller(mw_.get(), 0);
    st = modeller
             .ExecuteScript(R"(
      CREATE TABLE Employees SPECIFIC (
        E_emp_id INTEGER NOT NULL SPECIFIC,
        E_name VARCHAR(25) NOT NULL COMPARABLE,
        E_role_id INTEGER NOT NULL SPECIFIC,
        E_reg_id INTEGER NOT NULL COMPARABLE,
        E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
        E_age INTEGER NOT NULL COMPARABLE,
        E_phone VARCHAR(17) NOT NULL CONVERTIBLE @phoneToUniversal @phoneFromUniversal);
      CREATE TABLE Roles SPECIFIC (
        R_role_id INTEGER NOT NULL SPECIFIC,
        R_name VARCHAR(25) NOT NULL COMPARABLE))")
             .status();
    if (!st.ok()) {
      ADD_FAILURE() << st.ToString();
      return;
    }
    // Random data for 4 tenants, each with 5 roles and 40 employees whose
    // phone numbers carry the tenant's prefix; every tenant grants public
    // read.
    Rng rng(2026);
    const char* names[] = {"ann", "bob", "cat", "dan", "eve", "fox",
                           "gus", "hal", "ivy", "joe"};
    const char* prefixes[] = {"+41", "+1", "0049", "+41"};
    for (int64_t t = 0; t < 4; ++t) {
      Session owner(mw_.get(), t);
      for (int r = 0; r < 5; ++r) {
        std::string sql = "INSERT INTO Roles VALUES (" + std::to_string(r) +
                          ", 'role" + std::to_string(rng.Uniform(0, 9)) + "')";
        st = owner.Execute(sql).status();
        if (!st.ok()) ADD_FAILURE() << st.ToString();
      }
      for (int e = 0; e < 40; ++e) {
        std::string sql =
            "INSERT INTO Employees VALUES (" + std::to_string(e) + ", '" +
            names[rng.Uniform(0, 9)] + "', " + std::to_string(rng.Uniform(0, 4)) +
            ", " + std::to_string(rng.Uniform(0, 5)) + ", " +
            std::to_string(rng.Uniform(100, 99999)) + ", " +
            std::to_string(rng.Uniform(18, 70)) + ", '" + prefixes[t] +
            std::to_string(rng.Uniform(5550000, 5550099)) + "')";
        st = owner.Execute(sql).status();
        if (!st.ok()) ADD_FAILURE() << st.ToString();
      }
      mw_->privileges()->Grant(t, "", Privilege::kRead, kPublicGrantee);
    }
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<Middleware> mw_;
};

/// Random query generator over the Employees/Roles schema. Each query is a
/// SELECT with random aggregates or projections (two conversion families,
/// currency and phone, over one owner), random predicates on
/// comparable/convertible attributes (tenant-specific ones only against
/// tenant-specific or constants), correlated EXISTS / NOT EXISTS sub-queries
/// written as `SELECT *`, an aggregate-only EXISTS, and random group, HAVING
/// and order clauses.
std::string RandomQuery(Rng* rng) {
  bool join = rng->Chance(0.4);
  bool aggregate = rng->Chance(0.6);
  std::string sql = "SELECT ";
  if (aggregate) {
    switch (rng->Uniform(0, 5)) {
      case 0: sql += "COUNT(*) AS c"; break;
      case 1: sql += "SUM(E_salary) AS s"; break;
      case 2: sql += "AVG(E_salary) AS a, COUNT(*) AS c"; break;
      case 3: sql += "MIN(E_salary) AS lo, MAX(E_age) AS hi"; break;
      case 4: sql += "MAX(E_phone) AS p, SUM(E_salary) AS s"; break;
      default: sql += "SUM(E_salary * (1 + E_age)) AS weighted"; break;
    }
  } else {
    sql += "E_name, E_salary, E_phone, E_age";
    if (join) sql += ", R_name";
  }
  sql += " FROM Employees";
  std::vector<std::string> preds;
  if (join) {
    sql += ", Roles";
    preds.push_back("E_role_id = R_role_id");
  }
  if (rng->Chance(0.7)) {
    switch (rng->Uniform(0, 6)) {
      case 0:
        preds.push_back("E_salary > " + std::to_string(rng->Uniform(0, 80000)));
        break;
      case 1:
        preds.push_back("E_age BETWEEN " + std::to_string(rng->Uniform(18, 40)) +
                        " AND " + std::to_string(rng->Uniform(41, 70)));
        break;
      case 2:
        preds.push_back("E_salary < (SELECT AVG(E2.E_salary) FROM Employees E2)");
        break;
      case 3:
        preds.push_back(
            "EXISTS (SELECT * FROM Employees E2 WHERE E2.E_role_id = "
            "Employees.E_role_id AND E2.E_age > Employees.E_age + " +
            std::to_string(rng->Uniform(0, 20)) + ")");
        break;
      case 4:
        preds.push_back(
            "NOT EXISTS (SELECT * FROM Employees E2 WHERE E2.E_reg_id = "
            "Employees.E_reg_id AND E2.E_salary > Employees.E_salary)");
        break;
      case 5:
        // One row over no input: TRUE at every level.
        preds.push_back(
            "EXISTS (SELECT MAX(E_salary) FROM Employees WHERE 1 = 0)");
        break;
      default:
        preds.push_back("E_reg_id IN (0, 2, 4)");
        break;
    }
  }
  for (size_t i = 0; i < preds.size(); ++i) {
    sql += (i == 0 ? " WHERE " : " AND ") + preds[i];
  }
  if (aggregate && rng->Chance(0.5)) {
    sql += " GROUP BY E_reg_id";
    // Keep output deterministic for comparison.
    sql = sql.substr(0, 7) + "E_reg_id, " + sql.substr(7);
    if (rng->Chance(0.5)) {
      // Filter and order the groups on a converted aggregate.
      const char* aggs[] = {"SUM", "AVG", "MIN", "MAX"};
      std::string agg =
          std::string(aggs[rng->Uniform(0, 3)]) + "(E_salary)";
      sql += " HAVING " + agg + " > " + std::to_string(rng->Uniform(0, 40000)) +
             " ORDER BY " + agg + " DESC, E_reg_id";
    } else {
      sql += " ORDER BY E_reg_id";
    }
  } else if (!aggregate) {
    sql += " ORDER BY E_name, E_salary, E_age";
  }
  return sql;
}

/// Run `query` at canonical and at every optimized level; each must return
/// canonical's rows.
void ExpectAllLevelsMatchCanonical(Session* session, const std::string& query,
                                   const std::string& context) {
  session->set_optimization_level(OptLevel::kCanonical);
  auto gold = session->Execute(query);
  ASSERT_OK(gold);
  for (OptLevel level : {OptLevel::kO1, OptLevel::kO2, OptLevel::kO3,
                         OptLevel::kO4, OptLevel::kInlineOnly}) {
    session->set_optimization_level(level);
    auto got = session->Execute(query);
    ASSERT_OK(got);
    std::string why;
    EXPECT_TRUE(mth::ResultsEqual(gold.value(), got.value(), &why))
        << "query: " << query << "\n" << context << "\nlevel "
        << OptLevelName(level) << ": " << why;
  }
}

class RandomEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEquivalenceTest, AllLevelsMatchCanonical) {
  auto& f = EquivalenceFixture::Get();
  ASSERT_NE(f.mw(), nullptr);
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  // Random client and scope per seed.
  int64_t client = rng.Uniform(0, 3);
  Session session(f.mw(), client);
  std::string scope = rng.Chance(0.3) ? "IN ()" : "IN (0, 2, 3)";
  ASSERT_OK(session.Execute("SET SCOPE = \"" + scope + "\"").status());
  for (int i = 0; i < 5; ++i) {
    ExpectAllLevelsMatchCanonical(
        &session, RandomQuery(&rng),
        "client " + std::to_string(client) + " scope " + scope);
  }
}

// Each shape o4 treats specially, once per client: EXISTS lists nobody
// reads, an aggregate-only EXISTS list, converted aggregates under HAVING
// and ORDER BY, two conversion families over one owner, and a conversion a
// statement applies to an aggregate itself (its meta column joins GROUP BY).
TEST(EquivalenceShapesTest, O4ShapesMatchCanonical) {
  auto& f = EquivalenceFixture::Get();
  ASSERT_NE(f.mw(), nullptr);
  const char* queries[] = {
      "SELECT E_name, E_age FROM Employees WHERE EXISTS (SELECT * FROM "
      "Employees E2 WHERE E2.E_role_id = Employees.E_role_id AND E2.E_age > "
      "Employees.E_age + 5) ORDER BY E_name, E_age",
      "SELECT E_name, E_salary FROM Employees WHERE NOT EXISTS (SELECT * FROM "
      "Employees E2 WHERE E2.E_reg_id = Employees.E_reg_id AND E2.E_salary > "
      "Employees.E_salary)",
      "SELECT E_reg_id, AVG(E_salary) AS a FROM Employees GROUP BY E_reg_id "
      "HAVING AVG(E_salary) > 10000 ORDER BY AVG(E_salary) DESC, E_reg_id",
      "SELECT E_reg_id, MIN(E_salary) AS lo, MAX(E_salary) AS hi FROM "
      "Employees GROUP BY E_reg_id HAVING MAX(E_salary) > 20000 ORDER BY "
      "MIN(E_salary), E_reg_id",
      "SELECT E_name, E_salary, E_phone FROM Employees WHERE E_age < 40",
      "SELECT MAX(E_phone) AS p, SUM(E_salary) AS s FROM Employees",
      "SELECT E_reg_id, currencyToUniversal(SUM(E_salary), E_reg_id) AS u "
      "FROM Employees WHERE E_reg_id < 4 GROUP BY E_reg_id ORDER BY E_reg_id",
  };
  {
    // The shapes are reached: o4 writes the EXISTS list as a constant and
    // joins one Tenant row for both families.
    Session session(f.mw(), 0);
    ASSERT_OK(session.Execute("SET SCOPE = \"IN ()\"").status());
    session.set_optimization_level(OptLevel::kO4);
    ASSERT_OK_AND_ASSIGN(std::string exists, session.Rewrite(queries[0]));
    EXPECT_NE(exists.find("EXISTS (SELECT 1 FROM"), std::string::npos)
        << exists;
    ASSERT_OK_AND_ASSIGN(std::string families, session.Rewrite(queries[4]));
    size_t tenant = families.find("Tenant __it");
    ASSERT_NE(tenant, std::string::npos) << families;
    EXPECT_EQ(families.find("Tenant __it", tenant + 1), std::string::npos)
        << families;
    EXPECT_NE(families.find("PhoneTransform __im"), std::string::npos)
        << families;
  }
  for (int64_t client : {0, 2}) {
    Session session(f.mw(), client);
    ASSERT_OK(session.Execute("SET SCOPE = \"IN ()\"").status());
    for (const char* q : queries) {
      ExpectAllLevelsMatchCanonical(&session, q,
                                    "client " + std::to_string(client));
    }
  }
}

TEST(EquivalenceShapesTest, AggregateOnlyExistsIsTrueAtEveryLevel) {
  auto& f = EquivalenceFixture::Get();
  ASSERT_NE(f.mw(), nullptr);
  Session session(f.mw(), 1);
  ASSERT_OK(session.Execute("SET SCOPE = \"IN ()\"").status());
  auto all = session.Execute("SELECT COUNT(*) FROM Employees");
  ASSERT_OK(all);
  ASSERT_GT(all.value().rows[0][0].int_value(), 0);
  for (OptLevel level : {OptLevel::kCanonical, OptLevel::kO1, OptLevel::kO2,
                         OptLevel::kO3, OptLevel::kO4,
                         OptLevel::kInlineOnly}) {
    session.set_optimization_level(level);
    auto got = session.Execute(
        "SELECT COUNT(*) FROM Employees WHERE EXISTS (SELECT MAX(E_salary) "
        "FROM Employees WHERE 1 = 0)");
    ASSERT_OK(got);
    EXPECT_EQ(got.value().rows[0][0].int_value(),
              all.value().rows[0][0].int_value())
        << OptLevelName(level);
    // Correlated, the aggregate still makes one row for every outer row:
    // EXISTS keeps them all and NOT EXISTS none.
    auto correlated = session.Execute(
        "SELECT COUNT(*) FROM Employees WHERE EXISTS (SELECT MAX(E2.E_salary) "
        "FROM Employees E2 WHERE E2.E_age = Employees.E_age + 1000)");
    ASSERT_OK(correlated);
    EXPECT_EQ(correlated.value().rows[0][0].int_value(),
              all.value().rows[0][0].int_value())
        << OptLevelName(level);
    auto negated = session.Execute(
        "SELECT COUNT(*) FROM Employees WHERE NOT EXISTS (SELECT COUNT(*) "
        "FROM Employees E2 WHERE E2.E_age = Employees.E_age)");
    ASSERT_OK(negated);
    EXPECT_EQ(negated.value().rows[0][0].int_value(), 0)
        << OptLevelName(level);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalenceTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace mt
}  // namespace mtbase
