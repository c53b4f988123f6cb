#include "engine/catalog.h"

#include <algorithm>
#include <cassert>
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
  return AppendRows(std::move(staged)).status();
}

void RowChunk::Append(Row row) {
  rows_.push_back(std::move(row));
  built_.store(false, std::memory_order_relaxed);
  parts_ = Partitions();
}

const RowChunk::Partitions& RowChunk::PartitionOffsets(
    const PartitionScheme& scheme) const {
  if (built_.load(std::memory_order_acquire)) return parts_;
  std::lock_guard<std::mutex> lock(build_mu_);
  if (built_.load(std::memory_order_relaxed)) return parts_;
  const size_t count = static_cast<size_t>(scheme.Count());
  std::vector<uint32_t> of(rows_.size());
  parts_.begin.assign(count + 1, 0);
  for (size_t i = 0; i < rows_.size(); ++i) {
    of[i] = static_cast<uint32_t>(
        scheme.RouteValue(rows_[i][static_cast<size_t>(scheme.column)]));
    ++parts_.begin[of[i] + 1u];
  }
  for (size_t p = 0; p < count; ++p) parts_.begin[p + 1] += parts_.begin[p];
  parts_.offsets.resize(rows_.size());
  std::vector<uint8_t> next(parts_.begin.begin(), parts_.begin.end() - 1);
  for (size_t i = 0; i < rows_.size(); ++i) {
    parts_.offsets[next[of[i]]++] = static_cast<uint8_t>(i);
  }
  built_.store(true, std::memory_order_release);
  return parts_;
}

TableVersion::TableVersion(Chunks chunks, size_t width, uint64_t data_version,
                           const PartitionScheme* partition)
    : chunks_(std::move(chunks)),
      data_version_(data_version),
      partition_(partition) {
  size_t n = 0;
  chunk_begin_.reserve(chunks_.size());
  for (const auto& chunk : chunks_) {
    chunk_begin_.push_back(static_cast<uint32_t>(n));
    n += chunk->size();
  }
  rows_.width_ = width;
  rows_.rows_.reserve(n);
  for (const auto& chunk : chunks_) {
    for (const Row& row : chunk->rows()) rows_.rows_.push_back(row.data());
  }
}

std::shared_ptr<const TableVersion> Table::Snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (version_ == nullptr) {
    version_ = std::make_shared<const TableVersion>(
        TableVersion::Chunks(chunks_.begin(), chunks_.end()),
        schema_.columns.size(), data_version_.load(std::memory_order_relaxed),
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
  return row_count_;
}

void Table::Reserve(size_t n) {
  std::lock_guard<std::mutex> lock(snap_mu_);
  chunks_.reserve(chunks_.size() + n / kChunkRows + 1);
}

void Table::PublishLocked(std::vector<std::shared_ptr<RowChunk>> next,
                          size_t row_count) {
  chunks_ = std::move(next);
  row_count_ = row_count;
  data_version_.fetch_add(1, std::memory_order_acq_rel);
  version_.reset();
}

Result<size_t> Table::AppendRows(std::vector<Row> staged) {
  for (const Row& row : staged) MTB_RETURN_IF_ERROR(CheckRow(row));
  std::lock_guard<std::mutex> write(write_mu_);
  std::lock_guard<std::mutex> lock(snap_mu_);
  size_t copied = 0;
  auto it = staged.begin();
  if (!chunks_.empty() && chunks_.back()->size() < kChunkRows &&
      it != staged.end()) {
    if (pins_->load(std::memory_order_acquire) > 0) {
      // A reader holds (or recently held and may still be draining) a pinned
      // snapshot: copy-on-write of the last chunk so every pinned view stays
      // immutable. With no pins (the common bulk-load case) extend it in
      // place — no reader can acquire a new pin while we hold snap_mu_, and
      // the acquire load orders every departed reader's scans first.
      std::vector<Row> rows = chunks_.back()->rows();
      copied = rows.size();
      rows.reserve(kChunkRows);
      chunks_.back() = std::make_shared<RowChunk>(std::move(rows));
    }
    for (; it != staged.end() && chunks_.back()->size() < kChunkRows; ++it) {
      chunks_.back()->Append(std::move(*it));
    }
  }
  while (it != staged.end()) {
    std::vector<Row> rows;
    rows.reserve(kChunkRows);
    for (; it != staged.end() && rows.size() < kChunkRows; ++it) {
      rows.push_back(std::move(*it));
    }
    chunks_.push_back(std::make_shared<RowChunk>(std::move(rows)));
  }
  row_count_ += staged.size();
  // A batch moves the version counter by its row count (one per row, as the
  // publishes it replaces did).
  data_version_.fetch_add(staged.size(), std::memory_order_acq_rel);
  version_.reset();
  return copied;
}

size_t Table::UpdateRows(const TableVersion& base,
                         std::vector<std::pair<uint32_t, Row>> updates) {
  std::vector<std::shared_ptr<RowChunk>> next;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    next = chunks_;
  }
  assert(next.size() == base.chunks().size());
  size_t copied = 0;
  size_t c = 0;
  for (size_t u = 0; u < updates.size();) {
    while (c + 1 < next.size() && base.chunk_begin(c + 1) <= updates[u].first) {
      ++c;
    }
    const uint32_t begin = base.chunk_begin(c);
    const std::vector<Row>& old = next[c]->rows();
    std::vector<Row> rows;
    rows.reserve(old.size());
    for (size_t i = 0; i < old.size(); ++i) {
      if (u < updates.size() && updates[u].first == begin + i) {
        rows.push_back(std::move(updates[u++].second));
      } else {
        rows.push_back(old[i]);
      }
    }
    copied += rows.size();
    next[c] = std::make_shared<RowChunk>(std::move(rows));
  }
  std::lock_guard<std::mutex> lock(snap_mu_);
  PublishLocked(std::move(next), row_count_);
  return copied;
}

size_t Table::DeleteRows(const TableVersion& base,
                         const std::vector<uint32_t>& ids) {
  std::vector<std::shared_ptr<RowChunk>> chunks;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    chunks = chunks_;
  }
  assert(chunks.size() == base.chunks().size());
  std::vector<std::shared_ptr<RowChunk>> next;
  next.reserve(chunks.size());
  size_t copied = 0;
  bool back_fresh = false;  // next.back() was made here: no version holds it
  // Appends `chunk` to `next`, merging the two when they fit in one chunk
  // and either is under half full. Every neighbouring pair of a published
  // list therefore holds at least kChunkRows rows (appends fill chunks), so
  // only the neighbours of a chunk this delete rewrote or dropped merge.
  auto push = [&](std::shared_ptr<RowChunk> chunk, bool fresh) {
    const size_t a = next.empty() ? kChunkRows : next.back()->size();
    const size_t b = chunk->size();
    if (a + b > kChunkRows || std::min(a, b) >= kChunkRows / 2) {
      next.push_back(std::move(chunk));
      back_fresh = fresh;
      return;
    }
    if (!back_fresh) {
      next.back() = std::make_shared<RowChunk>(next.back()->rows());
      copied += a;
      back_fresh = true;
    }
    std::vector<Row>& merged = next.back()->rows_;
    if (fresh) {
      merged.insert(merged.end(), std::make_move_iterator(chunk->rows_.begin()),
                    std::make_move_iterator(chunk->rows_.end()));
    } else {
      merged.insert(merged.end(), chunk->rows_.begin(), chunk->rows_.end());
      copied += b;
    }
  };
  size_t k = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    const uint32_t begin = base.chunk_begin(c);
    const std::vector<Row>& rows = chunks[c]->rows();
    if (k == ids.size() || ids[k] - begin >= rows.size()) {
      push(std::move(chunks[c]), /*fresh=*/false);  // loses no row: shared
      continue;
    }
    std::vector<Row> kept;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (k < ids.size() && ids[k] == begin + i) {
        ++k;
      } else {
        kept.push_back(rows[i]);
      }
    }
    copied += kept.size();
    if (!kept.empty()) {
      push(std::make_shared<RowChunk>(std::move(kept)), /*fresh=*/true);
    }
  }
  std::lock_guard<std::mutex> lock(snap_mu_);
  PublishLocked(std::move(next), row_count_ - ids.size());
  return copied;
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

void TableVersion::AppendPartitionRows(const std::vector<uint32_t>& parts,
                                       std::vector<uint32_t>* ids) const {
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const RowChunk::Partitions& cp = chunks_[c]->PartitionOffsets(*partition_);
    const size_t first = ids->size();
    for (uint32_t p : parts) {
      if (p + 1 >= cp.begin.size()) continue;
      for (size_t k = cp.begin[p]; k < cp.begin[p + 1]; ++k) {
        ids->push_back(chunk_begin_[c] + cp.offsets[k]);
      }
    }
    // Several partitions interleave within a chunk; chunks do not.
    if (parts.size() > 1) std::sort(ids->begin() + first, ids->end());
  }
}

const std::vector<uint32_t>& TableVersion::IndexOrder(
    const TableIndex& index) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto [it, inserted] = index_orders_.try_emplace(index.slots);
  std::vector<uint32_t>& order = it->second;
  if (inserted) {
    order.resize(rows_.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      for (int slot : index.slots) {
        int c = IndexKeyCompare(rows_[a][static_cast<size_t>(slot)],
                                rows_[b][static_cast<size_t>(slot)]);
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
