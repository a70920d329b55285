// Copyright (c) 2026 The db2graph-repro Authors.
//
// Column-oriented in-memory store with hash indexes. Each table holds one
// typed vector per column (int64/double/string/bool) plus a validity
// bitmap; rows exist only as slot numbers. Slots are stable across deletes
// (a free list recycles them), so index postings stay valid across the
// columnar layout exactly as they did for the row store.

#ifndef DB2GRAPH_SQL_TABLE_H_
#define DB2GRAPH_SQL_TABLE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "sql/schema.h"

namespace db2graph::metrics {
class Gauge;
}  // namespace db2graph::metrics

namespace db2graph::sql {

/// Stable row identifier within a table (slot number).
using RowId = uint64_t;

/// Encoded width of one value in a compact page layout (disk accounting
/// and ordered-index key-width bookkeeping).
size_t EncodedValueBytes(const Value& v);

/// One column of a table: a typed vector indexed by slot number plus a
/// validity bitmap (bit set = non-NULL). Only the vector matching the
/// declared type is populated — Table::Insert coerces or rejects values,
/// so a column never holds mixed types. Dead slots read as NULL.
class Column {
 public:
  explicit Column(ColumnType type) : type_(type) {}

  ColumnType type() const { return type_; }
  ValueType value_type() const { return ColumnValueType(type_); }
  size_t size() const { return size_; }

  /// Grows to `n` slots, new slots NULL. Never shrinks.
  void EnsureSize(size_t n);

  bool IsNull(RowId rid) const {
    return ((valid_[rid >> 6] >> (rid & 63)) & 1) == 0;
  }

  /// Stores a value into a slot. `v` must be NULL or match value_type()
  /// (the table layer enforces coercion before it gets here).
  void Set(RowId rid, const Value& v);
  void SetMove(RowId rid, Value&& v);
  /// Clears a slot back to NULL, releasing string storage.
  void SetNull(RowId rid);

  /// Materializes one cell as a Value.
  Value Get(RowId rid) const;

  // Raw typed access for the vectorized kernels. Only the array matching
  // value_type() is meaningful; validity() has one bit per slot.
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const uint8_t* bools() const { return bools_.data(); }
  const std::string* strings() const { return strings_.data(); }
  const uint64_t* validity() const { return valid_.data(); }

  /// Approximate heap footprint of this column's vectors.
  size_t ApproxBytes() const;

 private:
  void SetValid(RowId rid, bool valid) {
    uint64_t mask = uint64_t{1} << (rid & 63);
    if (valid) {
      valid_[rid >> 6] |= mask;
    } else {
      valid_[rid >> 6] &= ~mask;
    }
  }

  ColumnType type_;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<std::string> strings_;
  std::vector<uint64_t> valid_;  // validity bitmap, 64 slots per word
};

/// A hash index over one or more columns of a table. Each distinct key
/// owns one posting list of row ids in insertion order, so a lookup is one
/// hash probe plus a contiguous copy, and a key costs one hash node however
/// many rows share it.
class Index {
 public:
  Index(std::string name, std::vector<size_t> column_indexes, bool unique)
      : name_(std::move(name)),
        column_indexes_(std::move(column_indexes)),
        unique_(unique) {}

  const std::string& name() const { return name_; }
  const std::vector<size_t>& column_indexes() const {
    return column_indexes_;
  }
  bool unique() const { return unique_; }

  /// Extracts this index's key from a full row.
  Row KeyFor(const Row& row) const {
    Row key;
    key.reserve(column_indexes_.size());
    for (size_t c : column_indexes_) key.push_back(row[c]);
    return key;
  }

  /// Appends `rid` to the posting list of `key`.
  void Insert(Row key, RowId rid);
  /// Removes `rid` from the posting list of `key`, keeping the order of
  /// the others; the key disappears with its last posting.
  void Erase(const Row& key, RowId rid);

  /// Appends all row ids whose key equals `key`, in insertion order.
  void Lookup(const Row& key, std::vector<RowId>* out) const;

  bool Contains(const Row& key) const { return map_.count(key) > 0; }

  /// Number of (key, row id) postings.
  size_t entry_count() const { return entry_count_; }

  /// Approximate memory footprint, for storage accounting.
  size_t ApproxBytes() const;

 private:
  std::string name_;
  std::vector<size_t> column_indexes_;
  bool unique_;
  std::unordered_map<Row, std::vector<RowId>, RowHash> map_;
  size_t entry_count_ = 0;
};

/// A single-column ordered (B-tree-style) index supporting range scans.
class OrderedIndex {
 public:
  OrderedIndex(std::string name, size_t column_index)
      : name_(std::move(name)), column_index_(column_index) {}

  const std::string& name() const { return name_; }
  size_t column_index() const { return column_index_; }

  void Insert(const Value& key, RowId rid) {
    key_bytes_ += EncodedValueBytes(key);
    map_.emplace(key, rid);
  }
  void Erase(const Value& key, RowId rid);

  /// Row ids with key in [lo, hi] (either bound optional; exclusive when
  /// the corresponding flag is set). NULL keys never match.
  void RangeLookup(const Value* lo, bool lo_exclusive, const Value* hi,
                   bool hi_exclusive, std::vector<RowId>* out) const;

  size_t entry_count() const { return map_.size(); }

  /// Sum of encoded key widths over all entries (maintained on
  /// Insert/Erase rather than estimated).
  size_t key_bytes() const { return key_bytes_; }

  /// Approximate memory footprint: per-node red-black overhead (three
  /// pointers + color word) and the payload pair, plus the actual key
  /// widths accumulated above.
  size_t ApproxBytes() const {
    return 64 +
           map_.size() * (4 * sizeof(void*) + sizeof(std::pair<Value, RowId>)) +
           key_bytes_;
  }

 private:
  std::string name_;
  size_t column_index_;
  size_t key_bytes_ = 0;
  std::multimap<Value, RowId> map_;
};

/// A base table: schema + typed column vectors + its indexes.
class Table {
 public:
  explicit Table(TableSchema schema);

  const TableSchema& schema() const { return schema_; }

  /// Number of live rows.
  size_t row_count() const { return live_count_; }

  /// Upper bound of slot numbers; iterate [0, slot_count()) and check
  /// IsLive().
  size_t slot_count() const { return slot_count_; }
  bool IsLive(RowId rid) const { return rid < live_.size() && live_[rid]; }

  /// Materializes one row from the column vectors. Returns by value —
  /// there is no contiguous row in storage to reference.
  Row GetRow(RowId rid) const;
  /// Appends the row's values to `out` (join/row-adapter hot path: avoids
  /// an intermediate Row).
  void AppendRow(RowId rid, Row* out) const;
  /// Materializes into a caller-owned scratch row, reusing its capacity.
  void MaterializeRow(RowId rid, Row* out) const;
  /// One cell, materialized.
  Value ValueAt(RowId rid, size_t column) const {
    return columns_[column].Get(rid);
  }
  /// Typed column access for the vectorized kernels.
  const Column& column(size_t index) const { return columns_[index]; }
  size_t column_count() const { return columns_.size(); }

  /// Per-column statistics maintained incrementally by the write path.
  /// min/max are NULL when the column has no non-NULL live values. The
  /// counts are always exact; min/max and ndv may require a lazy rescan
  /// after a delete/update invalidated them (handled inside the accessor,
  /// which is safe to call from concurrent readers).
  struct ColumnStats {
    uint64_t row_count = 0;   // live rows
    uint64_t null_count = 0;  // NULL cells among live rows
    uint64_t ndv = 0;         // approximate distinct non-NULL values (KMV)
    Value min;
    Value max;
  };
  ColumnStats GetColumnStats(size_t column) const;
  /// Publishes the gauges the write path keeps exact, for every column, to
  /// the global MetricsRegistry as "sql.colstats.<table>.<column>.{rows,
  /// nulls}". Called after every DML statement, so it never triggers the
  /// lazy min/max/NDV rescan: that cost stays with the stats readers
  /// (GetColumnStats: the optimizer's snapshot and sysmon.column_stats).
  /// The gauges are resolved on the first call and cached.
  void PublishColumnStats();

  /// Monotonic counter bumped on every statistics-affecting write
  /// (insert/delete/update/undo). Database::stats_epoch() sums these so
  /// the optimizer can detect stats drift without comparing snapshots.
  uint64_t stats_version() const {
    return stats_version_.load(std::memory_order_relaxed);
  }

  /// Appends a row (recycling a free slot when available). The row must
  /// already match the schema arity. NOT NULL, column types (int/double
  /// coercion) and unique indexes are enforced before any mutation; index
  /// maintenance included.
  Result<RowId> Insert(Row row);

  /// Deletes a live row; returns the removed image for undo logs.
  Result<Row> Delete(RowId rid);

  /// Replaces a live row in place; returns the before image. Checks the
  /// new image exactly as Insert does, except that a unique key the row
  /// already holds does not collide with itself.
  Result<Row> Update(RowId rid, Row new_row);

  /// Re-inserts a row into a specific slot (transaction undo of Delete).
  void RestoreSlot(RowId rid, Row row);
  /// Removes a row from a specific slot (transaction undo of Insert).
  void EraseSlot(RowId rid);

  /// Creates a hash index. Populates it from existing rows.
  Status CreateIndex(const std::string& name,
                     const std::vector<std::string>& columns, bool unique);

  /// Creates a single-column ordered index (range scans).
  Status CreateOrderedIndex(const std::string& name,
                            const std::string& column);

  bool HasIndexNamed(const std::string& name) const;

  /// Finds an index whose columns are exactly `column_indexes` (order
  /// insensitive); nullptr when none.
  const Index* FindIndexOn(const std::vector<size_t>& column_indexes) const;

  /// Ordered index on exactly `column_index`; nullptr when none.
  const OrderedIndex* FindOrderedIndexOn(size_t column_index) const;

  const std::vector<std::unique_ptr<Index>>& indexes() const {
    return indexes_;
  }

  /// Approximate in-memory footprint in bytes (column vectors + indexes).
  size_t ApproxBytes() const;

  /// Approximate size of a compact on-disk page layout (per-column value
  /// runs + packed null bitmaps + index entries). Drives the paper's
  /// Table 3 "Disk Usage" comparison against the graph stores' formats.
  size_t ApproxDiskBytes() const;

 private:
  // Incremental statistics bookkeeping, one per column. The NDV sketch is
  // a k-minimum-values summary over 64-bit value hashes: insert-only (an
  // insert adds its hash; a delete flips ndv_stale and the next stats read
  // rebuilds from the live rows, mirroring the minmax_stale protocol).
  struct StatsState {
    uint64_t null_count = 0;
    Value min;
    Value max;
    bool minmax_stale = false;
    std::vector<uint64_t> kmv;  // sorted k smallest distinct hashes
    bool kmv_saturated = false;  // true once a hash was dropped from kmv
    bool ndv_stale = false;
  };

  /// Arity, NOT NULL and type checks; coerces numerics in place.
  Status ConformRow(Row* row) const;
  /// ConstraintViolation when `row` would duplicate a unique-index key.
  /// `replaced` is the image an update overwrites (its keys are free).
  Status CheckUnique(const Row& row, const Row* replaced) const;
  void IndexInsert(const Row& row, RowId rid);
  void IndexErase(const Row& row, RowId rid);
  void StatsOnInsert(const Row& row);
  void StatsOnErase(const Row& row);
  static void SketchAdd(StatsState* state, const Value& v);
  void EnsureSlots(size_t n);
  void StoreRow(RowId rid, Row&& row);
  void ClearSlot(RowId rid);

  TableSchema schema_;
  std::vector<Column> columns_;
  std::vector<bool> live_;
  std::vector<RowId> free_slots_;
  size_t live_count_ = 0;
  size_t slot_count_ = 0;
  mutable std::vector<StatsState> stats_;
  /// Serializes the lazy stats rebuild inside GetColumnStats: concurrent
  /// readers (both holding the database read lock) may otherwise race on
  /// the mutable StatsState. Writers are already exclusive via the
  /// database lock, so they skip this mutex.
  mutable std::mutex stats_mutex_;
  std::atomic<uint64_t> stats_version_{0};
  /// PublishColumnStats targets: rows then nulls gauge, per column.
  std::vector<metrics::Gauge*> colstats_gauges_;
  std::vector<std::unique_ptr<Index>> indexes_;
  std::vector<std::unique_ptr<OrderedIndex>> ordered_indexes_;
};

/// Approximate in-memory size of one row's payload.
size_t ApproxRowBytes(const Row& row);

/// One equality/IN probe term extracted from a statement's conjuncts, in
/// conjunct order: `column = <outer value>` has value_count 1, a
/// `column IN (...)` lists its arity.
struct ProbeCandidate {
  size_t column_index = 0;
  size_t value_count = 1;
};

/// The index the executor will probe for a set of candidates (and which
/// candidates feed it, as positions into the input vector, in index column
/// order). Preference order: a multi-column hash index exactly covered by
/// the single-value equality terms, else the first candidate in conjunct
/// order backed by a single-column index. Shared between the join-stage
/// planner in the executor and the graph layer's multi-hop optimizer, so
/// a collapse decision made at compile time predicts the runtime access
/// path exactly.
struct ProbeChoice {
  const Index* index = nullptr;
  std::vector<size_t> term_indexes;
};
ProbeChoice ChooseProbeIndex(const Table& table,
                             const std::vector<ProbeCandidate>& candidates);

}  // namespace db2graph::sql

#endif  // DB2GRAPH_SQL_TABLE_H_
