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
#include <string_view>
#include <utility>
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
/// owns one posting list of row ids in insertion order.
///
/// Layout: an open-addressing (linear probing) table of 24-byte slots.
/// Each slot holds a 64-bit key word and an (offset, length, capacity)
/// run into one contiguous RowId arena, i.e. the postings are CSR. A run
/// of capacity 1 keeps its row id in the slot itself. For a single BIGINT
/// column the key word is the value; NULL keys of such an index share one
/// out-of-table run. Any other key (multi-column, string, double, bool)
/// is stored as a 64-bit hash of its canonical encoding, and the encoding
/// itself sits in a key arena that every probe compares against.
///
/// A one-row insert appends into its run in place; a full run moves to
/// the arena's end at double capacity (or grows in place when it already
/// ends the arena). An erase shifts the rest of its run down, so postings
/// stay in insertion order. Both arenas compact once their dead space
/// exceeds their live contents. A batch that is large next to the table
/// (InsertRows, Build) takes one counting pass: every touched run is sized
/// once, then filled in row order. Find and Contains never mutate, so
/// readers holding the database's shared lock may probe concurrently.
class Index {
 public:
  /// `column_types` are the declared types of the key columns; an index
  /// over exactly one kInt column stores its keys as plain int64 words.
  /// Without types every key takes the hashed path.
  Index(std::string name, std::vector<size_t> column_indexes, bool unique,
        const std::vector<ColumnType>& column_types = {});

  const std::string& name() const { return name_; }
  const std::vector<size_t>& column_indexes() const {
    return column_indexes_;
  }
  bool unique() const { return unique_; }

  // --- Key-based access: `key` holds one value per index column. Keys
  // match under Value equality (1.0 finds 1; NULL finds NULL).

  /// Appends `rid` to the posting list of `key`.
  void Insert(const Row& key, RowId rid);
  /// Removes `rid` from the posting list of `key`, keeping the order of
  /// the others; the key disappears with its last posting.
  void Erase(const Row& key, RowId rid);
  /// The posting run of the key `key[0..n)`, in insertion order, read in
  /// place: empty when the key is absent, and its size is the number of
  /// rows holding the key. Valid until the next write to the index.
  struct Run {
    const RowId* data = nullptr;
    size_t size = 0;
  };
  Run Find(const Value* key, size_t n) const;
  bool Contains(const Row& key) const;

  // --- Row-based maintenance: each row is a full table row, and the key
  // is read from this index's columns of it.

  /// Appends rids[i] under the key of rows[i], for i in order. Equivalent
  /// to n one-row inserts; large batches are built in one counting pass.
  void InsertRows(const Row* rows, const RowId* rids, size_t n);
  void EraseRow(const Row& row, RowId rid);
  bool ContainsKeyOf(const Row& row) const;
  /// True when some row's key is already indexed or repeats the key of an
  /// earlier row in `rows` (the unique check of a batch insert).
  bool AnyKeyTaken(const Row* rows, size_t n) const;
  /// Adds the postings of `rids` (ascending), reading their keys from the
  /// table's columns: CREATE INDEX over existing rows.
  void Build(const std::vector<Column>& columns,
             const std::vector<RowId>& rids);

  /// Number of (key, row id) postings.
  size_t entry_count() const { return entry_count_; }
  /// Number of distinct keys.
  size_t key_count() const {
    return used_slots_ + (null_run_.cap != 0 ? 1 : 0);
  }

  /// Memory footprint of the slot table and both arenas.
  size_t ApproxBytes() const;

 private:
  friend struct IndexTestPeer;

  // One posting run. cap == 0 marks an empty slot; cap == 1 keeps the
  // single row id in `off` instead of the arena.
  struct Slot {
    uint64_t key = 0;
    uint64_t off = 0;
    uint32_t len = 0;
    uint32_t cap = 0;
  };
  class Probe;  // a key being looked up (table row or key row)

  size_t Home(uint64_t word) const;
  /// Slot holding `probe`'s key, or nullptr.
  const Slot* FindSlot(const Probe& probe) const;
  Slot* FindSlot(const Probe& probe) {
    return const_cast<Slot*>(std::as_const(*this).FindSlot(probe));
  }
  /// Slot for `probe`'s key, created with an empty inline run if absent.
  Slot* FindOrAddSlot(const Probe& probe);
  void Grow();
  /// Backward-shift deletion of the slot at `pos` (linear probing).
  void RemoveSlot(size_t pos);
  void Append(Slot* slot, RowId rid);
  /// Moves a run to the arena's end with room for `cap` postings.
  void Relocate(Slot* slot, uint32_t cap);
  void EraseFrom(Slot* slot, RowId rid);
  void MaybeCompact();
  const RowId* RunData(const Slot& slot) const {
    return slot.cap == 1 ? &slot.off : arena_.data() + slot.off;
  }
  template <typename KeyAt>
  void AppendAll(size_t n, const KeyAt& key_at, const RowId* rids);

  std::string name_;
  std::vector<size_t> column_indexes_;
  bool unique_;
  bool int_keys_ = false;
  std::vector<Slot> slots_;  // power-of-two size, at most 7/8 used
  size_t used_slots_ = 0;
  int shift_ = 64;           // 64 - log2(slots_.size())
  Slot null_run_;            // NULL keys of an int-key index
  std::vector<RowId> arena_;
  size_t arena_dead_ = 0;    // arena words no run owns
  // Hashed keys only: slot i's encoded key starts at key_at_[i] in keys_.
  std::vector<uint64_t> key_at_;
  std::string keys_;
  size_t keys_dead_ = 0;
  size_t entry_count_ = 0;
  // Replaces the hash of encoded keys (tests force collisions with it).
  uint64_t (*hash_override_)(std::string_view) = nullptr;
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
  /// Appends the row's values to `out` (row-adapter hot path: avoids an
  /// intermediate Row).
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

  /// Appends a row (recycling a free slot when available): the one-row
  /// case of InsertBatch. Arity, NOT NULL, column types (int/double
  /// coercion) and unique indexes are enforced before any mutation; index
  /// maintenance included.
  Result<RowId> Insert(Row row);

  /// Appends rows as a loop of Insert would: same checks, same slots (free
  /// slots first), same statistics and one stats_version bump per row.
  /// All rows are checked before any mutation, unique keys also against
  /// each other, so a failing batch changes nothing. A large batch extends
  /// each hash index in one counting pass. Returns the slots in row order.
  Result<std::vector<RowId>> InsertBatch(std::vector<Row> rows);

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
  /// ConstraintViolation when an update to `row` would duplicate a
  /// unique-index key. `replaced` is the image it overwrites (its keys
  /// are free).
  Status CheckUnique(const Row& row, const Row& replaced) const;
  Status DuplicateKey(const Index& index) const;
  void IndexInsert(const Row* rows, const RowId* rids, size_t n);
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
