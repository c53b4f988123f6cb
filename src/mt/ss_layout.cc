#include "mt/ss_layout.h"

#include "common/str_util.h"

namespace mtbase {
namespace mt {

std::string PrivateTableName(const std::string& table, int64_t ttid) {
  return table + "_" + std::to_string(ttid);
}

namespace {

Result<const engine::Table*> FindTableOrError(engine::Database* db,
                                              const std::string& name) {
  const engine::Table* t = db->catalog()->FindTable(name);
  if (t == nullptr) return Status::NotFound("table " + name + " does not exist");
  return t;
}

}  // namespace

Status SplitToPrivateTables(engine::Database* source, engine::Database* target,
                            const MTTableInfo& info,
                            const std::vector<int64_t>& tenants) {
  MTB_ASSIGN_OR_RETURN(const engine::Table* st, FindTableOrError(source, info.name));
  const engine::TableSchema& schema = st->schema();
  int ttid_col = schema.FindColumn(kTtidColumn);
  if (ttid_col < 0) {
    return Status::InvalidArgument(info.name +
                                   " is not a basic-layout table (no ttid)");
  }
  // Create one private table per tenant with the visible columns.
  for (int64_t t : tenants) {
    engine::TableSchema priv;
    priv.name = PrivateTableName(info.name, t);
    for (size_t i = 0; i < schema.columns.size(); ++i) {
      if (static_cast<int>(i) == ttid_col) continue;
      priv.columns.push_back(schema.columns[i]);
    }
    MTB_RETURN_IF_ERROR(target->catalog()->CreateTable(std::move(priv)));
  }
  const auto snap = st->Snapshot();
  for (size_t r = 0; r < snap->rows().size(); ++r) {
    const engine::RowView row = snap->rows()[r];
    int64_t owner = row[static_cast<size_t>(ttid_col)].int_value();
    engine::Table* priv =
        target->catalog()->FindTable(PrivateTableName(info.name, owner));
    if (priv == nullptr) continue;  // tenant outside the split set
    Row visible;
    visible.reserve(row.size() - 1);
    for (size_t i = 0; i < row.size(); ++i) {
      if (static_cast<int>(i) == ttid_col) continue;
      visible.push_back(row[i]);
    }
    MTB_RETURN_IF_ERROR(priv->Insert(std::move(visible)));
  }
  return Status::OK();
}

Status MergeFromPrivateTables(engine::Database* source,
                              engine::Database* target,
                              const MTTableInfo& info, const std::string& into,
                              const std::vector<int64_t>& tenants) {
  engine::Table* st = target->catalog()->FindTable(into);
  if (st == nullptr) {
    return Status::NotFound("target table " + into + " does not exist");
  }
  int ttid_col = st->schema().FindColumn(kTtidColumn);
  if (ttid_col != 0) {
    return Status::InvalidArgument(
        into + " must carry the ttid meta column first (basic layout)");
  }
  for (int64_t t : tenants) {
    MTB_ASSIGN_OR_RETURN(
        const engine::Table* priv,
        FindTableOrError(source, PrivateTableName(info.name, t)));
    const auto snap = priv->Snapshot();
    for (size_t r = 0; r < snap->rows().size(); ++r) {
      const engine::RowView row = snap->rows()[r];
      Row full;
      full.reserve(row.size() + 1);
      full.push_back(Value::Int(t));
      for (const Value& v : row) full.push_back(v);
      MTB_RETURN_IF_ERROR(st->Insert(std::move(full)));
    }
  }
  return Status::OK();
}

Result<engine::ResultSet> RunPerTenantUnion(
    engine::Database* ss_db, const MTTableInfo& info,
    const std::string& select_suffix, const std::vector<int64_t>& dataset) {
  engine::ResultSet out;
  for (int64_t t : dataset) {
    std::string sql = "SELECT * FROM " + PrivateTableName(info.name, t) + " " +
                      select_suffix;
    MTB_ASSIGN_OR_RETURN(engine::ResultSet rs, ss_db->Execute(sql));
    if (out.column_names.empty()) out.column_names = rs.column_names;
    for (Row& r : rs.rows) out.rows.push_back(std::move(r));
  }
  return out;
}

}  // namespace mt
}  // namespace mtbase
