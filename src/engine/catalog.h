// Catalog: tables, views and row storage.
#ifndef MTBASE_ENGINE_CATALOG_H_
#define MTBASE_ENGINE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "engine/schema.h"
#include "sql/ast.h"

namespace mtbase {
namespace engine {

/// Total order over index key values: NULLs first, then SQL comparison;
/// values whose kinds cannot compare (only possible in ill-typed rows) fall
/// back to the type-id order so the sort stays strict-weak. Shared between
/// the index build (TableVersion::IndexOrder) and the executor's binary
/// searches, which must agree exactly.
int IndexKeyCompare(const Value& a, const Value& b);

/// Ordered secondary index over a table (CREATE INDEX). Its physical order
/// is a row-id permutation sorted by the key columns ascending (NULLs first,
/// ties broken by row id, i.e. insertion order), kept per table version
/// (TableVersion::IndexOrder) — so an aborted DML statement, which publishes
/// no version, trivially leaves every index consistent.
struct TableIndex {
  std::string name;
  std::vector<std::string> columns;
  std::vector<int> slots;  // schema slots of the key columns
};

/// Non-owning view of one row: size() contiguous values. Converts implicitly
/// from a table Row. A view into a RowBatch is valid only until that batch is
/// next modified (an append may reallocate its storage).
class RowView {
 public:
  RowView(const Value* values, size_t width) : values_(values), width_(width) {}
  RowView(const Row& row) : values_(row.data()), width_(row.size()) {}

  const Value& operator[](size_t i) const { return values_[i]; }
  size_t size() const { return width_; }
  const Value* begin() const { return values_; }
  const Value* end() const { return values_ + width_; }

 private:
  const Value* values_ = nullptr;
  size_t width_ = 0;
};

/// The most rows one storage chunk holds. A write copies the chunks that
/// hold the rows it changes, so this bounds what a one-row write copies.
inline constexpr size_t kChunkRows = 64;

/// At most kChunkRows consecutive rows of a table, in insertion order, with
/// the per-partition row offsets derived from exactly those rows. Table
/// versions share a chunk until a write replaces it. Once published, a
/// chunk changes in place only through Table::AppendRows while no snapshot
/// is pinned, which drops its derived offsets.
class RowChunk {
 public:
  /// Offsets of the chunk's rows grouped by partition: partition p's rows,
  /// ascending, are at offsets[begin[p] .. begin[p + 1]).
  struct Partitions {
    std::vector<uint8_t> begin;
    std::vector<uint8_t> offsets;
  };
  static_assert(kChunkRows <= 255, "chunk offsets are bytes");

  explicit RowChunk(std::vector<Row> rows) : rows_(std::move(rows)) {}
  RowChunk(const RowChunk&) = delete;
  RowChunk& operator=(const RowChunk&) = delete;

  const std::vector<Row>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }

  /// Built on the first request, at most once while the chunk is published.
  const Partitions& PartitionOffsets(const PartitionScheme& scheme) const;

 private:
  friend class Table;
  /// In-place append (no snapshot pinned): drops the derived offsets.
  void Append(Row row);

  std::vector<Row> rows_;
  mutable std::atomic<bool> built_{false};
  mutable std::mutex build_mu_;  // guards the first build of parts_
  mutable Partitions parts_;
};

/// The rows of one table version by id (insertion order). Row i's values
/// are one load away, as they are in a vector of rows: the version fills
/// one pointer per row when it is made.
class VersionRows {
 public:
  size_t size() const { return rows_.size(); }
  RowView operator[](size_t i) const { return RowView(rows_[i], width_); }

 private:
  friend class TableVersion;
  std::vector<const Value*> rows_;
  size_t width_ = 0;
};

/// One published version of a table's rows: a sequence of shared, immutable
/// chunks (see RowChunk) together with the physical state derived from
/// exactly those rows: each chunk's partition offsets and each index's
/// row-id order. Immutable: each derived structure is built on its first
/// request, at most once, under its own flag or lock, so every reader that
/// pinned the version finds offsets and orders that describe its rows.
class TableVersion {
 public:
  using Chunks = std::vector<std::shared_ptr<const RowChunk>>;

  /// `partition` is the owning table's scheme, which outlives every use: a
  /// table is dropped only under the exclusive statement lock, while no
  /// statement reads its versions.
  TableVersion(Chunks chunks, size_t width, uint64_t data_version,
               const PartitionScheme* partition);

  const VersionRows& rows() const { return rows_; }
  const Chunks& chunks() const { return chunks_; }
  /// The id of chunk i's first row.
  uint32_t chunk_begin(size_t i) const { return chunk_begin_[i]; }
  /// The Table::data_version() these rows were published at.
  uint64_t data_version() const { return data_version_; }

  /// Append to `*ids`, ascending, the ids of the rows of partitions `parts`
  /// (the table is partitioned; ids in `parts` ascend).
  void AppendPartitionRows(const std::vector<uint32_t>& parts,
                           std::vector<uint32_t>* ids) const;
  /// The row ids sorted by `index`'s key columns (see TableIndex). Orders are
  /// keyed by the key slots, which are all an order depends on.
  const std::vector<uint32_t>& IndexOrder(const TableIndex& index) const;

 private:
  const Chunks chunks_;
  std::vector<uint32_t> chunk_begin_;
  VersionRows rows_;
  const uint64_t data_version_;
  const PartitionScheme* const partition_;
  mutable std::mutex index_mu_;  // guards index_orders_
  mutable std::map<std::vector<int>, std::vector<uint32_t>> index_orders_;
};

/// Row-oriented in-memory table.
///
/// Rows live in chunks of at most kChunkRows rows, in insertion order, which
/// stays the order of results; partitions and indexes are derived
/// structures over row ids, held by the chunks and the TableVersion that
/// pin those rows.
///
/// Row storage is copy-on-write for the serving layer: the current chunk
/// list is published under snap_mu_. Readers pin a Snapshot() and scan it
/// without further locking; UPDATE and DELETE publish a new list in which
/// only the chunks they change are new (UpdateRows, DeleteRows), so a
/// pinned snapshot never mutates underneath a running SELECT and a write
/// copies no more than the chunks it touches. Snapshot() wraps the current
/// chunks in a TableVersion on its first call after a publish, and every
/// later pin of the same rows shares that version and its derived state;
/// each publish (and index DDL) retires it. Appends go through AppendRows,
/// which extends the last chunk in place only while no snapshot is pinned,
/// keeping bulk loads O(n) — a load pins nothing, so it creates no version.
/// Pinning is tracked by an explicit counter (incremented under snap_mu_,
/// decremented with release ordering when the snapshot dies) rather than
/// shared_ptr::use_count(): use_count() is a relaxed load, so it cannot order
/// a departed reader's scans before the writer's in-place append. Writers are
/// serialized per table through LockForWrite for the span of one DML
/// statement (single-table DML, so ordering cannot deadlock).
class Table {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {}

  const TableSchema& schema() const { return schema_; }

  /// Pins the current version: its rows and derived state stay immutable
  /// and alive while the returned pointer does.
  std::shared_ptr<const TableVersion> Snapshot() const;
  size_t row_count() const;

  /// Append a row; checks arity and NOT NULL constraints.
  Status Insert(Row row);
  /// Insert's validation half without the append: lets multi-row DML check
  /// every row before mutating anything (evaluate-all-before-mutating).
  Status CheckRow(const Row& row) const;
  /// Capacity hint for bulk loads.
  void Reserve(size_t n);

  /// Validates every row, then appends the batch atomically (all rows or
  /// none become visible; a published snapshot never shows a partial batch).
  /// Returns the rows deep-copied: a pinned snapshot's last chunk, when the
  /// batch extends it.
  Result<size_t> AppendRows(std::vector<Row> staged);
  /// Publish `base` — the current version, pinned under LockForWrite — with
  /// row updates[i].first replaced by updates[i].second (ids ascending).
  /// Only the chunks holding those rows are copied. Returns the rows
  /// deep-copied.
  size_t UpdateRows(const TableVersion& base,
                    std::vector<std::pair<uint32_t, Row>> updates);
  /// Publish `base` (as for UpdateRows) without rows `ids` (ascending). Only
  /// the chunks losing rows are rewritten; a rewritten chunk left under half
  /// full merges with a neighbour (see DeleteRows in catalog.cc). Returns
  /// the rows deep-copied.
  size_t DeleteRows(const TableVersion& base,
                    const std::vector<uint32_t>& ids);
  /// Serializes writers on this table: DML executors hold this from before
  /// evaluating against the current snapshot until the new version is
  /// published, so concurrent writers cannot lose updates.
  std::unique_lock<std::mutex> LockForWrite() const;

  /// Monotonic row-mutation counter: every publish advances it. Part of the
  /// shared-UDF-cache epoch: cached dictionary lookups must not survive a
  /// change to the rows their body reads.
  uint64_t data_version() const {
    return data_version_.load(std::memory_order_acquire);
  }

  // -- physical design ------------------------------------------------------

  const PartitionScheme& partition() const { return schema_.partition; }

  const std::vector<TableIndex>& indexes() const { return indexes_; }
  const TableIndex* FindIndex(const std::string& name) const;
  /// First index whose leading key column is `slot` (ttid-leading lookup).
  const TableIndex* FindIndexLeadingOn(int slot) const;
  /// Index DDL (under the exclusive statement lock) retires the cached
  /// version, releasing the orders it built for indexes since dropped.
  Status AddIndex(TableIndex index);
  bool RemoveIndex(const std::string& name);

 private:
  /// Publish `next` as the current chunks (snap_mu_ held).
  void PublishLocked(std::vector<std::shared_ptr<RowChunk>> next,
                     size_t row_count);

  TableSchema schema_;
  // Current rows; published under snap_mu_.
  std::vector<std::shared_ptr<RowChunk>> chunks_;
  size_t row_count_ = 0;
  // The version Snapshot() hands out for chunks_: made by the first
  // Snapshot() after a publish, reset (retired) by every publish and by
  // index DDL. Guarded by snap_mu_.
  mutable std::shared_ptr<const TableVersion> version_;
  // Live Snapshot() pins. Heap-shared so a snapshot's unpin stays valid even
  // if the table is dropped while the snapshot is still scanning. Acquire
  // loads (under snap_mu_) pair with the deleter's release decrement, giving
  // writers a happens-before edge over every departed reader's scans.
  std::shared_ptr<std::atomic<int64_t>> pins_{
      std::make_shared<std::atomic<int64_t>>(0)};
  std::atomic<uint64_t> data_version_{0};
  // Guards chunks_/version_/data_version_ publication and snapshot pinning.
  mutable std::mutex snap_mu_;
  // Serializes DML statements on this table (held across evaluate+publish).
  mutable std::mutex write_mu_;

  std::vector<TableIndex> indexes_;
};

struct ViewDef {
  std::string name;
  std::unique_ptr<sql::SelectStmt> select;
};

class Catalog {
 public:
  Status CreateTable(TableSchema schema);
  Status CreateView(std::string name, std::unique_ptr<sql::SelectStmt> select);
  Status DropTable(const std::string& name);
  Status DropView(const std::string& name);

  /// CREATE INDEX name ON table (columns). Index names are catalog-global so
  /// DROP INDEX needs no table qualifier. Bumps version(): prepared plans and
  /// MT session fingerprints recompile, so a new index is picked up (and a
  /// dropped one abandoned) before the next execution.
  Status CreateIndex(const std::string& name, const std::string& table,
                     const std::vector<std::string>& columns);
  Status DropIndex(const std::string& name);

  Table* FindTable(const std::string& name) const;
  const ViewDef* FindView(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Monotonic DDL counter: bumped by every CreateTable/CreateView/Drop*.
  /// Prepared plans snapshot it and recompile when it moved (plans hold raw
  /// Table pointers, so any catalog mutation invalidates them). Atomic so
  /// concurrent statements can fingerprint-check without the DDL lock.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, ViewDef> views_;
  std::unordered_map<std::string, std::string> index_to_table_;  // lower names
  std::atomic<uint64_t> version_{0};
};

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_CATALOG_H_
