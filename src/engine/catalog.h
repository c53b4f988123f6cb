// Catalog: tables, views and row storage.
#ifndef MTBASE_ENGINE_CATALOG_H_
#define MTBASE_ENGINE_CATALOG_H_

#include <atomic>
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
/// the index build (Table::IndexOrder) and the executor's binary searches,
/// which must agree exactly.
int IndexKeyCompare(const Value& a, const Value& b);

/// Ordered secondary index over a table (CREATE INDEX). The physical order
/// is a row-id permutation sorted by the key columns ascending (NULLs first,
/// ties broken by row id, i.e. insertion order), rebuilt lazily whenever the
/// table's data version moved — so an aborted DML statement, which leaves
/// rows() untouched, trivially leaves every index consistent.
struct TableIndex {
  std::string name;
  std::vector<std::string> columns;
  std::vector<int> slots;  // schema slots of the key columns

  // Lazily maintained by Table::IndexOrderAt (guarded by the table's
  // physical-state mutex; mutable so const scans can refresh it). Held as a
  // shared snapshot so a concurrent rebuild replaces the pointer without
  // invalidating the permutation a running statement already pinned.
  mutable std::shared_ptr<const std::vector<uint32_t>> order;
  mutable uint64_t built_version = 0;
  mutable bool built = false;
};

/// Row-oriented in-memory table.
///
/// The insertion-ordered row vector stays the single source of truth for row
/// data and result ordering; partitions and indexes are derived structures
/// over row ids, rebuilt lazily when data_version() has moved.
///
/// Row storage is copy-on-write for the serving layer: the current rows live
/// in a `shared_ptr<vector<Row>>` published under snap_mu_. Readers pin a
/// Snapshot() and scan it without further locking; UPDATE/DELETE build a
/// replacement vector and publish it with ReplaceRows, so a pinned snapshot
/// never mutates underneath a running SELECT. Appends go through AppendRows,
/// which extends the vector in place only while no snapshot is pinned,
/// keeping bulk loads O(n). Pinning is tracked by an explicit counter
/// (incremented under snap_mu_, decremented with release ordering when the
/// snapshot dies) rather than shared_ptr::use_count(): use_count() is a
/// relaxed load, so it cannot order a departed reader's scans before the
/// writer's in-place append. Writers are
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

  /// A pinned, immutable view of the rows plus the data version they
  /// correspond to. Derived structures (partitions, index orders) report the
  /// version they were built at, so a statement can detect a mismatch against
  /// its pinned rows and fall back to scanning the snapshot directly.
  struct RowsSnapshot {
    std::shared_ptr<const std::vector<Row>> rows;
    uint64_t version = 0;
  };
  RowsSnapshot Snapshot() const;
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

  /// Per-partition ascending row-id lists, rebuilt if stale; `built_version`
  /// receives the data version the lists were built at. Thread-safe: returns
  /// a shared snapshot, so a concurrent rebuild cannot invalidate it.
  std::shared_ptr<const std::vector<std::vector<uint32_t>>> PartitionRowsAt(
      uint64_t* built_version = nullptr) const;

  const std::vector<TableIndex>& indexes() const { return indexes_; }
  const TableIndex* FindIndex(const std::string& name) const;
  /// First index whose leading key column is `slot` (ttid-leading lookup).
  const TableIndex* FindIndexLeadingOn(int slot) const;
  Status AddIndex(TableIndex index);
  bool RemoveIndex(const std::string& name);

  /// The index's sorted row-id permutation, rebuilt if stale; `built_version`
  /// receives the data version it was built at. Thread-safe (shared snapshot,
  /// like PartitionRowsAt).
  std::shared_ptr<const std::vector<uint32_t>> IndexOrderAt(
      const TableIndex& index, uint64_t* built_version = nullptr) const;

 private:
  TableSchema schema_;
  // Current rows; published under snap_mu_. Never null.
  std::shared_ptr<std::vector<Row>> rows_;
  // Live Snapshot() pins. Heap-shared so a snapshot's unpin stays valid even
  // if the table is dropped while the snapshot is still scanning. Acquire
  // loads (under snap_mu_) pair with the deleter's release decrement, giving
  // writers a happens-before edge over every departed reader's scans.
  std::shared_ptr<std::atomic<int64_t>> pins_{
      std::make_shared<std::atomic<int64_t>>(0)};
  std::atomic<uint64_t> data_version_{0};
  // Guards rows_/data_version_ publication and snapshot pinning.
  mutable std::mutex snap_mu_;
  // Serializes DML statements on this table (held across evaluate+publish).
  mutable std::mutex write_mu_;

  std::vector<TableIndex> indexes_;
  // Lazily derived physical state (guarded by phys_mu_).
  mutable std::mutex phys_mu_;
  mutable std::shared_ptr<const std::vector<std::vector<uint32_t>>>
      partition_rows_;
  mutable uint64_t partitions_built_version_ = 0;
  mutable bool partitions_built_ = false;
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
