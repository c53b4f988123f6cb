// Catalog: tables, views and row storage.
#ifndef MTBASE_ENGINE_CATALOG_H_
#define MTBASE_ENGINE_CATALOG_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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

/// One published version of a table's rows, together with the physical state
/// derived from exactly those rows: the per-partition row-id lists and each
/// index's row-id order. Immutable: each derived structure is built on its
/// first request, at most once per version, under this version's own
/// once-flag or lock, so every reader that pinned the version finds lists and
/// orders that describe its rows.
class TableVersion {
 public:
  /// `partition` is the owning table's scheme, which outlives every use: a
  /// table is dropped only under the exclusive statement lock, while no
  /// statement reads its versions.
  TableVersion(std::shared_ptr<const std::vector<Row>> rows,
               uint64_t data_version, const PartitionScheme* partition)
      : rows_(std::move(rows)),
        data_version_(data_version),
        partition_(partition) {}

  const std::vector<Row>& rows() const { return *rows_; }
  /// The Table::data_version() these rows were published at.
  uint64_t data_version() const { return data_version_; }

  /// Per-partition ascending row-id lists (the table is partitioned).
  const std::vector<std::vector<uint32_t>>& PartitionRows() const;
  /// The row ids sorted by `index`'s key columns (see TableIndex). Orders are
  /// keyed by the key slots, which are all an order depends on.
  const std::vector<uint32_t>& IndexOrder(const TableIndex& index) const;

 private:
  const std::shared_ptr<const std::vector<Row>> rows_;
  const uint64_t data_version_;
  const PartitionScheme* const partition_;
  mutable std::once_flag partitions_once_;
  mutable std::vector<std::vector<uint32_t>> partition_rows_;
  mutable std::mutex index_mu_;  // guards index_orders_
  mutable std::map<std::vector<int>, std::vector<uint32_t>> index_orders_;
};

/// Row-oriented in-memory table.
///
/// The insertion-ordered row vector stays the single source of truth for row
/// data and result ordering; partitions and indexes are derived structures
/// over row ids, held by the TableVersion that pins those rows.
///
/// Row storage is copy-on-write for the serving layer: the current rows live
/// in a `shared_ptr<vector<Row>>` published under snap_mu_. Readers pin a
/// Snapshot() and scan it without further locking; UPDATE/DELETE build a
/// replacement vector and publish it with ReplaceRows, so a pinned snapshot
/// never mutates underneath a running SELECT. Snapshot() wraps the current
/// rows in a TableVersion on its first call after a publish, and every
/// later pin of the same rows shares that version and its derived state;
/// each publish (and index DDL) retires it. Appends go through AppendRows,
/// which extends the vector in place only while no snapshot is pinned,
/// keeping bulk loads O(n) — a load pins nothing, so it creates no version.
/// Pinning is tracked by an explicit counter (incremented under snap_mu_,
/// decremented with release ordering when the snapshot dies) rather than
/// shared_ptr::use_count(): use_count() is a relaxed load, so it cannot order
/// a departed reader's scans before the writer's in-place append. Writers are
/// serialized per table through LockForWrite for the span of one DML
/// statement (single-table DML, so ordering cannot deadlock).
class Table {
 public:
  explicit Table(TableSchema schema)
      : schema_(std::move(schema)),
        rows_(std::make_shared<std::vector<Row>>()) {}

  const TableSchema& schema() const { return schema_; }

  /// Unsynchronized view of the current rows, for single-threaded callers
  /// (loaders, tests, validation). Concurrent statements pin Snapshot()
  /// instead; holding this reference across a concurrent writer is a bug.
  const std::vector<Row>& rows() const { return *rows_; }

  /// Pins the current version: its rows and derived state stay immutable
  /// and alive while the returned pointer does.
  std::shared_ptr<const TableVersion> Snapshot() const;
  size_t row_count() const;

  /// Append a row; checks arity and NOT NULL constraints.
  Status Insert(Row row);
  /// Insert's validation half without the append: lets multi-row DML check
  /// every row before mutating anything (evaluate-all-before-mutating).
  Status CheckRow(const Row& row) const;
  /// Capacity hint for bulk loads (no-op while a snapshot is pinned).
  void Reserve(size_t n);

  /// Validates every row, then appends the batch atomically (all rows or
  /// none become visible; a published snapshot never shows a partial batch).
  Status AppendRows(std::vector<Row> staged);
  /// Publish a replacement row vector (UPDATE/DELETE build-and-swap).
  void ReplaceRows(std::vector<Row> next);
  /// Serializes writers on this table: DML executors hold this from before
  /// evaluating against the current snapshot until the new version is
  /// published, so concurrent writers cannot lose updates.
  std::unique_lock<std::mutex> LockForWrite() const;

  /// Monotonic row-mutation counter: every AppendRows/ReplaceRows publish
  /// advances it. Part of the shared-UDF-cache epoch: cached dictionary
  /// lookups must not survive a change to the rows their body reads.
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
  TableSchema schema_;
  // Current rows; published under snap_mu_. Never null.
  std::shared_ptr<std::vector<Row>> rows_;
  // The version Snapshot() hands out for rows_: made by the first Snapshot()
  // after a publish, reset (retired) by every publish and by index DDL.
  // Guarded by snap_mu_.
  mutable std::shared_ptr<const TableVersion> version_;
  // Live Snapshot() pins. Heap-shared so a snapshot's unpin stays valid even
  // if the table is dropped while the snapshot is still scanning. Acquire
  // loads (under snap_mu_) pair with the deleter's release decrement, giving
  // writers a happens-before edge over every departed reader's scans.
  std::shared_ptr<std::atomic<int64_t>> pins_{
      std::make_shared<std::atomic<int64_t>>(0)};
  std::atomic<uint64_t> data_version_{0};
  // Guards rows_/version_/data_version_ publication and snapshot pinning.
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
