#include "engine/catalog.h"

#include <algorithm>
#include <iterator>

#include "common/str_util.h"

namespace mtbase {
namespace engine {

int TableSchema::FindColumn(const std::string& col) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i].name, col)) return static_cast<int>(i);
  }
  return -1;
}

Status Table::CheckRow(const Row& row) const {
  if (row.size() != schema_.columns.size()) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   schema_.name);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (schema_.columns[i].not_null && row[i].is_null()) {
      return Status::ConstraintViolation("NULL in NOT NULL column " +
                                         schema_.columns[i].name);
    }
  }
  return Status::OK();
}

Status Table::Insert(Row row) {
  std::vector<Row> staged;
  staged.push_back(std::move(row));
  return AppendRows(std::move(staged));
}

std::shared_ptr<const TableVersion> Table::Snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (version_ == nullptr) {
    version_ = std::make_shared<const TableVersion>(
        rows_, data_version_.load(std::memory_order_relaxed),
        &schema_.partition);
  }
  pins_->fetch_add(1, std::memory_order_relaxed);
  // The snapshot aliases the current version and keeps it alive via the
  // captured shared_ptr; its deleter releases the pin with release ordering
  // so a writer's acquire load of pins_ orders this reader's scans first.
  return std::shared_ptr<const TableVersion>(
      version_.get(),
      [keep = version_, pins = pins_](const TableVersion*) {
        pins->fetch_sub(1, std::memory_order_release);
      });
}

size_t Table::row_count() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return rows_->size();
}

void Table::Reserve(size_t n) {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (pins_->load(std::memory_order_acquire) == 0) rows_->reserve(n);
}

Status Table::AppendRows(std::vector<Row> staged) {
  for (const Row& row : staged) MTB_RETURN_IF_ERROR(CheckRow(row));
  std::lock_guard<std::mutex> write(write_mu_);
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (pins_->load(std::memory_order_acquire) > 0) {
    // A reader holds (or recently held and may still be draining) a pinned
    // snapshot: copy-on-write so every pinned view stays immutable. With no
    // pins (the common bulk-load case) append in place — no reader can
    // acquire a new pin while we hold snap_mu_, and the acquire load orders
    // every departed reader's scans before this append.
    rows_ = std::make_shared<std::vector<Row>>(*rows_);
  }
  rows_->reserve(rows_->size() + staged.size());
  for (Row& row : staged) rows_->push_back(std::move(row));
  data_version_.fetch_add(staged.size(), std::memory_order_acq_rel);
  version_.reset();
  return Status::OK();
}

void Table::ReplaceRows(std::vector<Row> next) {
  std::lock_guard<std::mutex> lock(snap_mu_);
  rows_ = std::make_shared<std::vector<Row>>(std::move(next));
  data_version_.fetch_add(1, std::memory_order_acq_rel);
  version_.reset();
}

std::unique_lock<std::mutex> Table::LockForWrite() const {
  return std::unique_lock<std::mutex>(write_mu_);
}

int IndexKeyCompare(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    return (a.is_null() ? 0 : 1) - (b.is_null() ? 0 : 1);
  }
  auto c = a.Compare(b);
  if (c.ok()) return c.value();
  return static_cast<int>(a.type()) - static_cast<int>(b.type());
}

const std::vector<std::vector<uint32_t>>& TableVersion::PartitionRows()
    const {
  std::call_once(partitions_once_, [this] {
    const PartitionScheme& ps = *partition_;
    partition_rows_.resize(static_cast<size_t>(ps.Count()));
    for (size_t i = 0; i < rows_->size(); ++i) {
      int p = ps.RouteValue((*rows_)[i][static_cast<size_t>(ps.column)]);
      partition_rows_[static_cast<size_t>(p)].push_back(
          static_cast<uint32_t>(i));
    }
  });
  return partition_rows_;
}

const std::vector<uint32_t>& TableVersion::IndexOrder(
    const TableIndex& index) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto [it, inserted] = index_orders_.try_emplace(index.slots);
  std::vector<uint32_t>& order = it->second;
  if (inserted) {
    const std::vector<Row>& rows = *rows_;
    order.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      for (int slot : index.slots) {
        int c = IndexKeyCompare(rows[a][static_cast<size_t>(slot)],
                                rows[b][static_cast<size_t>(slot)]);
        if (c != 0) return c < 0;
      }
      return false;  // stable: insertion order breaks ties
    });
  }
  return order;
}

const TableIndex* Table::FindIndex(const std::string& name) const {
  for (const auto& ix : indexes_) {
    if (EqualsIgnoreCase(ix.name, name)) return &ix;
  }
  return nullptr;
}

const TableIndex* Table::FindIndexLeadingOn(int slot) const {
  for (const auto& ix : indexes_) {
    if (!ix.slots.empty() && ix.slots[0] == slot) return &ix;
  }
  return nullptr;
}

Status Table::AddIndex(TableIndex index) {
  if (FindIndex(index.name) != nullptr) {
    return Status::AlreadyExists("index " + index.name + " already exists");
  }
  indexes_.push_back(std::move(index));
  std::lock_guard<std::mutex> lock(snap_mu_);
  version_.reset();
  return Status::OK();
}

bool Table::RemoveIndex(const std::string& name) {
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if (EqualsIgnoreCase(it->name, name)) {
      indexes_.erase(it);
      std::lock_guard<std::mutex> lock(snap_mu_);
      version_.reset();
      return true;
    }
  }
  return false;
}

Status Catalog::CreateTable(TableSchema schema) {
  std::string key = ToLowerCopy(schema.name);
  if (tables_.count(key) || views_.count(key)) {
    return Status::AlreadyExists("relation " + schema.name + " already exists");
  }
  tables_[key] = std::make_unique<Table>(std::move(schema));
  ++version_;
  return Status::OK();
}

Status Catalog::CreateView(std::string name,
                           std::unique_ptr<sql::SelectStmt> select) {
  std::string key = ToLowerCopy(name);
  if (tables_.count(key) || views_.count(key)) {
    return Status::AlreadyExists("relation " + name + " already exists");
  }
  views_[key] = ViewDef{std::move(name), std::move(select)};
  ++version_;
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  std::string key = ToLowerCopy(name);
  if (!tables_.erase(key)) {
    return Status::NotFound("table " + name + " does not exist");
  }
  for (auto it = index_to_table_.begin(); it != index_to_table_.end();) {
    it = it->second == key ? index_to_table_.erase(it) : std::next(it);
  }
  ++version_;
  return Status::OK();
}

Status Catalog::CreateIndex(const std::string& name, const std::string& table,
                            const std::vector<std::string>& columns) {
  std::string key = ToLowerCopy(name);
  if (index_to_table_.count(key)) {
    return Status::AlreadyExists("index " + name + " already exists");
  }
  Table* t = FindTable(table);
  if (t == nullptr) {
    return Status::NotFound("table " + table + " does not exist");
  }
  if (columns.empty()) {
    return Status::InvalidArgument("index " + name + " needs key columns");
  }
  TableIndex ix;
  ix.name = name;
  ix.columns = columns;
  for (const auto& c : columns) {
    int slot = t->schema().FindColumn(c);
    if (slot < 0) {
      return Status::NotFound("column " + c + " does not exist in " + table);
    }
    ix.slots.push_back(slot);
  }
  MTB_RETURN_IF_ERROR(t->AddIndex(std::move(ix)));
  index_to_table_[key] = ToLowerCopy(table);
  ++version_;
  return Status::OK();
}

Status Catalog::DropIndex(const std::string& name) {
  std::string key = ToLowerCopy(name);
  auto it = index_to_table_.find(key);
  if (it == index_to_table_.end()) {
    return Status::NotFound("index " + name + " does not exist");
  }
  auto table_it = tables_.find(it->second);
  if (table_it != tables_.end()) table_it->second->RemoveIndex(name);
  index_to_table_.erase(it);
  ++version_;
  return Status::OK();
}

Status Catalog::DropView(const std::string& name) {
  if (!views_.erase(ToLowerCopy(name))) {
    return Status::NotFound("view " + name + " does not exist");
  }
  ++version_;
  return Status::OK();
}

Table* Catalog::FindTable(const std::string& name) const {
  auto it = tables_.find(ToLowerCopy(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const ViewDef* Catalog::FindView(const std::string& name) const {
  auto it = views_.find(ToLowerCopy(name));
  return it == views_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->schema().name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace engine
}  // namespace mtbase
