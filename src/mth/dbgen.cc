#include "mth/dbgen.h"

#include <algorithm>
#include <array>
#include <memory>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "common/str_util.h"
#include "mth/schema.h"
#include "sql/parser.h"

namespace mtbase {
namespace mth {

namespace {

struct NationDef {
  const char* name;
  int region;
};

// TPC-H's 25 nations with their region assignment.
const NationDef kNations[] = {
    {"ALGERIA", 0},   {"ARGENTINA", 1}, {"BRAZIL", 1},    {"CANADA", 1},
    {"EGYPT", 4},     {"ETHIOPIA", 0},  {"FRANCE", 3},    {"GERMANY", 3},
    {"INDIA", 2},     {"INDONESIA", 2}, {"IRAN", 4},      {"IRAQ", 4},
    {"JAPAN", 2},     {"JORDAN", 4},    {"KENYA", 0},     {"MOROCCO", 0},
    {"MOZAMBIQUE", 0},{"PERU", 1},      {"CHINA", 2},     {"ROMANIA", 3},
    {"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},   {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}};

const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};

// Colors for p_name (the spec uses 92; a subset keeps LIKE selectivities in
// a similar ballpark). "green" (Q9) and "forest" (Q20) are included.
const char* kColors[] = {
    "almond",  "antique", "aquamarine", "azure",   "beige",   "bisque",
    "black",   "blanched","blue",       "blush",   "brown",   "burlywood",
    "burnished","chartreuse","chiffon", "chocolate","coral",  "cornflower",
    "cream",   "cyan",    "dark",       "deep",    "dim",     "dodger",
    "drab",    "firebrick","floral",    "forest",  "frosted", "gainsboro",
    "ghost",   "goldenrod","green",     "grey",    "honeydew","hot",
    "indian",  "ivory",   "khaki",      "lace"};

const char* kTypes1[] = {"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY",
                         "PROMO"};
const char* kTypes2[] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                         "BRUSHED"};
const char* kTypes3[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kContainers1[] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContainers2[] = {"CASE", "BOX", "BAG", "JAR", "PKG", "PACK",
                              "CAN", "DRUM"};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kInstructions[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                               "TAKE BACK RETURN"};
const char* kModes[] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL",
                        "FOB"};
const char* kWords[] = {
    "carefully", "quickly",  "furiously", "slyly",    "blithely", "ideas",
    "packages",  "deposits", "accounts",  "requests", "instructions",
    "theodolites","pinto",   "beans",     "foxes",    "dependencies",
    "platelets", "asymptotes","courts",   "dolphins", "multipliers",
    "sauternes", "warhorses","frets",     "dinos",    "attainments",
    "excuses",   "realms",   "sentiments","waters"};

std::string Words(Rng* rng, int count) {
  std::string out;
  for (int i = 0; i < count; ++i) {
    if (i) out += ' ';
    out += kWords[rng->Uniform(0, std::size(kWords) - 1)];
  }
  return out;
}

Decimal Dec2(int64_t cents) { return Decimal(cents, 2); }

Date EpochDate(int y, int m, int d) { return Date::FromYmd(y, m, d); }

}  // namespace

int64_t MthConfig::SupplierCount() const {
  return std::max<int64_t>(10, std::llround(10000 * scale_factor));
}
int64_t MthConfig::PartCount() const {
  return std::max<int64_t>(40, std::llround(200000 * scale_factor));
}
int64_t MthConfig::CustomerCount() const {
  return std::max<int64_t>(std::max<int64_t>(30, 2 * num_tenants),
                           std::llround(150000 * scale_factor));
}
int64_t MthConfig::OrderCount() const { return 10 * CustomerCount(); }

const std::vector<CurrencyInfo>& Currencies() {
  // fromUniversal rates are integers and toUniversal rates their exact
  // reciprocals, so stored values keep scale 2 and all conversion round
  // trips are exact (see DESIGN.md).
  static const std::vector<CurrencyInfo> kCurrencies = {
      {"USD", "1", "1"},        {"EUR2", "0.5", "2"},  {"CRN4", "0.25", "4"},
      {"PES5", "0.2", "5"},     {"YEN8", "0.125", "8"}, {"RUP10", "0.1", "10"},
      {"DIN25", "0.04", "25"},  {"LIR50", "0.02", "50"}};
  return kCurrencies;
}

const std::vector<const char*>& PhonePrefixes() {
  static const std::vector<const char*> kPrefixes = {"",   "+",   "00",
                                                     "011", "0011", "810"};
  return kPrefixes;
}

Result<MthData> GenerateData(const MthConfig& config) {
  MthData data;
  Rng rng(config.seed);
  const int64_t S = config.SupplierCount();
  const int64_t P = config.PartCount();
  const int64_t C = config.CustomerCount();
  const int64_t O = config.OrderCount();
  const int64_t T = config.num_tenants;

  // region / nation.
  for (int i = 0; i < 5; ++i) {
    data.region.push_back({Value::Int(i), Value::Str(kRegions[i]),
                           Value::Str(Words(&rng, 4))});
  }
  for (int i = 0; i < 25; ++i) {
    data.nation.push_back({Value::Int(i), Value::Str(kNations[i].name),
                           Value::Int(kNations[i].region),
                           Value::Str(Words(&rng, 4))});
  }

  // supplier.
  for (int64_t s = 1; s <= S; ++s) {
    int nation = static_cast<int>(rng.Uniform(0, 24));
    std::string comment = Words(&rng, 6);
    if (rng.Chance(0.05)) {
      comment += " Customer extra Complaints";  // Q16 exclusion pattern
    }
    char phone[32];
    std::snprintf(phone, sizeof(phone), "%d-%03d-%03d-%04d", 10 + nation,
                  static_cast<int>(rng.Uniform(100, 999)),
                  static_cast<int>(rng.Uniform(100, 999)),
                  static_cast<int>(rng.Uniform(1000, 9999)));
    data.supplier.push_back(
        {Value::Int(s), Value::Str("Supplier#" + std::to_string(s)),
         Value::Str(Words(&rng, 2)), Value::Int(nation), Value::Str(phone),
         Value::Dec(Dec2(rng.Uniform(-99999, 999999))),
         Value::Str(comment)});
  }

  // part + partsupp; remember each part's suppliers and retail price for
  // lineitem generation.
  std::vector<std::array<int64_t, 4>> part_suppliers(
      static_cast<size_t>(P + 1));
  std::vector<Decimal> part_price(static_cast<size_t>(P + 1));
  for (int64_t p = 1; p <= P; ++p) {
    std::string name;
    for (int w = 0; w < 5; ++w) {
      if (w) name += ' ';
      name += kColors[rng.Uniform(0, std::size(kColors) - 1)];
    }
    int m = static_cast<int>(rng.Uniform(1, 5));
    std::string brand = "Brand#" + std::to_string(m) +
                        std::to_string(rng.Uniform(1, 5));
    std::string type = std::string(kTypes1[rng.Uniform(0, 5)]) + " " +
                       kTypes2[rng.Uniform(0, 4)] + " " +
                       kTypes3[rng.Uniform(0, 4)];
    std::string container = std::string(kContainers1[rng.Uniform(0, 4)]) +
                            " " + kContainers2[rng.Uniform(0, 7)];
    Decimal price = Dec2(90000 + (p % 20001) + 100 * (p % 1000));
    part_price[static_cast<size_t>(p)] = price;
    data.part.push_back(
        {Value::Int(p), Value::Str(name),
         Value::Str("Manufacturer#" + std::to_string(m)), Value::Str(brand),
         Value::Str(type), Value::Int(rng.Uniform(1, 50)),
         Value::Str(container), Value::Dec(price), Value::Str(Words(&rng, 3))});
    // Four distinct suppliers per part (spec formula).
    std::unordered_set<int64_t> seen;
    for (int i = 0; i < 4; ++i) {
      int64_t s = 1 + (p + i * (S / 4 + 1)) % S;
      while (seen.count(s)) s = 1 + s % S;
      seen.insert(s);
      part_suppliers[static_cast<size_t>(p)][static_cast<size_t>(i)] = s;
      data.partsupp.push_back({Value::Int(p), Value::Int(s),
                               Value::Int(rng.Uniform(1, 9999)),
                               Value::Dec(Dec2(rng.Uniform(100, 100000))),
                               Value::Str(Words(&rng, 8))});
    }
  }

  // customer, with tenant assignment.
  std::unique_ptr<ZipfGenerator> zipf;
  if (config.distribution == MthConfig::Distribution::kZipf) {
    zipf = std::make_unique<ZipfGenerator>(T, 1.0, config.seed ^ 0x5A5Aull);
  }
  for (int64_t c = 1; c <= C; ++c) {
    int64_t tenant = config.distribution == MthConfig::Distribution::kUniform
                         ? 1 + (c - 1) % T
                         : zipf->Next();
    data.customer_tenant.push_back(tenant);
    int nation = static_cast<int>(rng.Uniform(0, 24));
    char phone[32];
    std::snprintf(phone, sizeof(phone), "%d-%03d-%03d-%04d", 10 + nation,
                  static_cast<int>(rng.Uniform(100, 999)),
                  static_cast<int>(rng.Uniform(100, 999)),
                  static_cast<int>(rng.Uniform(1000, 9999)));
    data.customer.push_back(
        {Value::Int(c), Value::Str("Customer#" + std::to_string(c)),
         Value::Str(Words(&rng, 2)), Value::Int(nation), Value::Str(phone),
         Value::Dec(Dec2(rng.Uniform(-99999, 999999))),
         Value::Str(kSegments[rng.Uniform(0, 4)]),
         Value::Str(Words(&rng, 6))});
  }

  // orders + lineitem. Orders inherit their customer's tenant, so foreign
  // keys stay tenant-local (paper section 5); keys remain globally unique so
  // the merged database equals the TPC-H baseline.
  const Date kStart = EpochDate(1992, 1, 1);
  const Date kCurrent = EpochDate(1995, 6, 17);
  const int kOrderSpan = EpochDate(1998, 8, 2).days() - kStart.days() - 151;
  for (int64_t o = 1; o <= O; ++o) {
    // Two thirds of customers place orders (spec: custkey % 3 != 0).
    int64_t cust = rng.Uniform(1, C);
    if (C >= 3 && cust % 3 == 0) cust = cust == C ? 1 : cust + 1;
    int64_t tenant = data.customer_tenant[static_cast<size_t>(cust - 1)];
    data.orders_tenant.push_back(tenant);
    Date orderdate = Date(kStart.days() +
                          static_cast<int32_t>(rng.Uniform(0, kOrderSpan)));
    int nlines = static_cast<int>(rng.Uniform(1, 7));
    Decimal total = Dec2(0);
    int o_count = 0, f_count = 0;
    for (int ln = 1; ln <= nlines; ++ln) {
      int64_t p = rng.Uniform(1, P);
      int64_t s = part_suppliers[static_cast<size_t>(p)]
                                [static_cast<size_t>(rng.Uniform(0, 3))];
      int64_t qty = rng.Uniform(1, 50);
      // Generated prices, quantities and rates are far inside DECIMAL's
      // range, so this arithmetic cannot fail.
      Decimal ext =
          *part_price[static_cast<size_t>(p)].Mul(Decimal::FromInt(qty));
      Decimal discount = Dec2(rng.Uniform(0, 10));  // 0.00 .. 0.10
      Decimal tax = Dec2(rng.Uniform(0, 8));        // 0.00 .. 0.08
      Date shipdate = orderdate.AddDays(static_cast<int>(rng.Uniform(1, 121)));
      Date commitdate =
          orderdate.AddDays(static_cast<int>(rng.Uniform(30, 90)));
      Date receiptdate = shipdate.AddDays(static_cast<int>(rng.Uniform(1, 30)));
      bool shipped = !(kCurrent < shipdate);
      const char* linestatus = shipped ? "F" : "O";
      const char* returnflag =
          (receiptdate < kCurrent || receiptdate == kCurrent)
              ? (rng.Chance(0.5) ? "R" : "A")
              : "N";
      if (shipped) {
        ++f_count;
      } else {
        ++o_count;
      }
      Decimal one = Decimal::FromInt(1);
      total = *total.Add(*ext.Mul(*one.Sub(discount))->Mul(*one.Add(tax)));
      data.lineitem_tenant.push_back(tenant);
      data.lineitem.push_back(
          {Value::Int(o), Value::Int(p), Value::Int(s), Value::Int(ln),
           Value::Dec(Decimal::FromInt(qty).Rescale(2)), Value::Dec(ext),
           Value::Dec(discount), Value::Dec(tax), Value::Str(returnflag),
           Value::Str(linestatus), Value::Dat(shipdate), Value::Dat(commitdate),
           Value::Dat(receiptdate),
           Value::Str(kInstructions[rng.Uniform(0, 3)]),
           Value::Str(kModes[rng.Uniform(0, 6)]), Value::Str(Words(&rng, 4))});
    }
    const char* status = f_count == 0 ? "O" : (o_count == 0 ? "F" : "P");
    std::string comment = Words(&rng, 5);
    if (rng.Chance(0.02)) {
      comment += " special packages requests";  // Q13 exclusion pattern
    }
    data.orders.push_back(
        {Value::Int(o), Value::Int(cust), Value::Str(status),
         Value::Dec(total.Rescale(2)), Value::Dat(orderdate),
         Value::Str(kPriorities[rng.Uniform(0, 4)]),
         Value::Str("Clerk#" + std::to_string(rng.Uniform(1, 1000))),
         Value::Int(0), Value::Str(comment)});
  }
  return data;
}

namespace {

Status BulkInsert(engine::Database* db, const std::string& table,
                  const std::vector<Row>& rows) {
  engine::Table* t = db->catalog()->FindTable(table);
  if (t == nullptr) return Status::NotFound("table " + table + " missing");
  t->Reserve(rows.size());
  for (const Row& r : rows) {
    MTB_RETURN_IF_ERROR(t->Insert(r));
  }
  return Status::OK();
}

Status BulkInsertTenant(engine::Database* db, const std::string& table,
                        const std::vector<Row>& rows,
                        const std::vector<int64_t>& tenants,
                        const std::vector<int>& convert_currency,
                        int convert_phone,
                        const std::vector<Decimal>& from_rates,
                        const std::vector<std::string>& prefixes,
                        const std::vector<int>& tenant_currency,
                        const std::vector<int>& tenant_phone) {
  engine::Table* t = db->catalog()->FindTable(table);
  if (t == nullptr) return Status::NotFound("table " + table + " missing");
  t->Reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    int64_t tenant = tenants[i];
    Row r;
    r.reserve(rows[i].size() + 1);
    r.push_back(Value::Int(tenant));
    for (const Value& v : rows[i]) r.push_back(v);
    int cur = tenant_currency[static_cast<size_t>(tenant)];
    for (int col : convert_currency) {
      Value& v = r[static_cast<size_t>(col + 1)];
      MTB_ASSIGN_OR_RETURN(
          Decimal converted,
          v.decimal_value().Mul(from_rates[static_cast<size_t>(cur)]));
      v = Value::Dec(converted);
    }
    if (convert_phone >= 0) {
      int pf = tenant_phone[static_cast<size_t>(tenant)];
      const Value& v = r[static_cast<size_t>(convert_phone + 1)];
      r[static_cast<size_t>(convert_phone + 1)] =
          Value::Str(prefixes[static_cast<size_t>(pf)] + v.string_value());
    }
    MTB_RETURN_IF_ERROR(t->Insert(std::move(r)));
  }
  return Status::OK();
}

}  // namespace

Status LoadTpch(engine::Database* db, const MthData& data) {
  MTB_RETURN_IF_ERROR(db->ExecuteScript(TpchDdl()).status());
  MTB_RETURN_IF_ERROR(BulkInsert(db, "region", data.region));
  MTB_RETURN_IF_ERROR(BulkInsert(db, "nation", data.nation));
  MTB_RETURN_IF_ERROR(BulkInsert(db, "supplier", data.supplier));
  MTB_RETURN_IF_ERROR(BulkInsert(db, "part", data.part));
  MTB_RETURN_IF_ERROR(BulkInsert(db, "partsupp", data.partsupp));
  MTB_RETURN_IF_ERROR(BulkInsert(db, "customer", data.customer));
  MTB_RETURN_IF_ERROR(BulkInsert(db, "orders", data.orders));
  MTB_RETURN_IF_ERROR(BulkInsert(db, "lineitem", data.lineitem));
  return Status::OK();
}

Status LoadMth(engine::Database* db, mt::Middleware* mw, const MthData& data,
               const MthConfig& config) {
  const int64_t T = config.num_tenants;
  // Conversion machinery straight at the DBMS.
  MTB_RETURN_IF_ERROR(db->ExecuteScript(ConversionDdl()).status());
  MTB_RETURN_IF_ERROR(RegisterConversionPairs(mw));

  // MTSQL schema via a data-modeller session so the middleware learns the
  // comparability metadata.
  mt::Session modeller(mw, 1);
  MTB_RETURN_IF_ERROR(modeller.ExecuteScript(MthDdl(config.partitions)).status());

  // Tenants, their formats and public read grants. Tenant 1 gets the
  // universal formats (paper section 5).
  Rng rng(config.seed ^ 0x7EA7);
  const auto& currencies = Currencies();
  const auto& prefixes = PhonePrefixes();
  std::vector<Decimal> from_rates;
  engine::Table* ct = db->catalog()->FindTable("CurrencyTransform");
  for (size_t i = 0; i < currencies.size(); ++i) {
    MTB_ASSIGN_OR_RETURN(Decimal to, Decimal::Parse(currencies[i].to_universal));
    MTB_ASSIGN_OR_RETURN(Decimal from,
                         Decimal::Parse(currencies[i].from_universal));
    from_rates.push_back(from);
    MTB_RETURN_IF_ERROR(
        ct->Insert({Value::Int(static_cast<int64_t>(i)),
                    Value::Str(currencies[i].name), Value::Dec(to),
                    Value::Dec(from)}));
  }
  engine::Table* pt = db->catalog()->FindTable("PhoneTransform");
  std::vector<std::string> prefix_strings;
  for (size_t i = 0; i < prefixes.size(); ++i) {
    prefix_strings.push_back(prefixes[i]);
    MTB_RETURN_IF_ERROR(pt->Insert(
        {Value::Int(static_cast<int64_t>(i)), Value::Str(prefixes[i])}));
  }
  engine::Table* tenant_table = db->catalog()->FindTable("Tenant");
  std::vector<int> tenant_currency(static_cast<size_t>(T + 1), 0);
  std::vector<int> tenant_phone(static_cast<size_t>(T + 1), 0);
  for (int64_t t = 1; t <= T; ++t) {
    int cur = t == 1 ? 0
                     : static_cast<int>(rng.Uniform(
                           0, static_cast<int64_t>(currencies.size()) - 1));
    int ph = t == 1 ? 0
                    : static_cast<int>(rng.Uniform(
                          0, static_cast<int64_t>(prefixes.size()) - 1));
    tenant_currency[static_cast<size_t>(t)] = cur;
    tenant_phone[static_cast<size_t>(t)] = ph;
    MTB_RETURN_IF_ERROR(tenant_table->Insert(
        {Value::Int(t), Value::Int(cur), Value::Int(ph)}));
    mw->RegisterTenant(t);
    mw->privileges()->Grant(t, "", mt::Privilege::kRead, mt::kPublicGrantee);
  }

  // Global tables: universal rows as-is.
  MTB_RETURN_IF_ERROR(BulkInsert(db, "region", data.region));
  MTB_RETURN_IF_ERROR(BulkInsert(db, "nation", data.nation));
  MTB_RETURN_IF_ERROR(BulkInsert(db, "supplier", data.supplier));
  MTB_RETURN_IF_ERROR(BulkInsert(db, "part", data.part));
  MTB_RETURN_IF_ERROR(BulkInsert(db, "partsupp", data.partsupp));

  // Tenant-specific tables: ttid column + values in tenant formats.
  // customer: c_phone col 4, c_acctbal col 5.
  MTB_RETURN_IF_ERROR(BulkInsertTenant(db, "customer", data.customer,
                                       data.customer_tenant, {5}, 4,
                                       from_rates, prefix_strings,
                                       tenant_currency, tenant_phone));
  // orders: o_totalprice col 3.
  MTB_RETURN_IF_ERROR(BulkInsertTenant(db, "orders", data.orders,
                                       data.orders_tenant, {3}, -1, from_rates,
                                       prefix_strings, tenant_currency,
                                       tenant_phone));
  // lineitem: l_extendedprice col 5.
  MTB_RETURN_IF_ERROR(BulkInsertTenant(db, "lineitem", data.lineitem,
                                       data.lineitem_tenant, {5}, -1,
                                       from_rates, prefix_strings,
                                       tenant_currency, tenant_phone));
  return Status::OK();
}

}  // namespace mth
}  // namespace mtbase
