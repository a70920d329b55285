#include "sql/table.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/strings.h"

namespace db2graph::sql {

// ---------------------------------------------------------------------
// Column
// ---------------------------------------------------------------------

void Column::EnsureSize(size_t n) {
  if (n <= size_) return;
  switch (type_) {
    case ColumnType::kBool:
      bools_.resize(n, 0);
      break;
    case ColumnType::kInt:
      ints_.resize(n, 0);
      break;
    case ColumnType::kDouble:
      doubles_.resize(n, 0.0);
      break;
    case ColumnType::kString:
      strings_.resize(n);
      break;
  }
  valid_.resize((n + 63) / 64, 0);
  size_ = n;
}

void Column::Set(RowId rid, const Value& v) {
  if (v.is_null()) {
    SetNull(rid);
    return;
  }
  switch (type_) {
    case ColumnType::kBool:
      bools_[rid] = v.as_bool() ? 1 : 0;
      break;
    case ColumnType::kInt:
      ints_[rid] = v.as_int();
      break;
    case ColumnType::kDouble:
      doubles_[rid] = v.as_double();
      break;
    case ColumnType::kString:
      strings_[rid] = v.as_string();
      break;
  }
  SetValid(rid, true);
}

void Column::SetMove(RowId rid, Value&& v) {
  if (type_ == ColumnType::kString && v.is_string()) {
    strings_[rid] = std::move(const_cast<std::string&>(v.as_string()));
    SetValid(rid, true);
    return;
  }
  Set(rid, v);
}

void Column::SetNull(RowId rid) {
  if (type_ == ColumnType::kString && !strings_[rid].empty()) {
    std::string().swap(strings_[rid]);  // release heap storage
  }
  SetValid(rid, false);
}

Value Column::Get(RowId rid) const {
  if (IsNull(rid)) return Value::Null();
  switch (type_) {
    case ColumnType::kBool:
      return Value(bools_[rid] != 0);
    case ColumnType::kInt:
      return Value(ints_[rid]);
    case ColumnType::kDouble:
      return Value(doubles_[rid]);
    case ColumnType::kString:
      return Value(strings_[rid]);
  }
  return Value::Null();
}

size_t Column::ApproxBytes() const {
  size_t bytes = valid_.capacity() * sizeof(uint64_t);
  bytes += bools_.capacity() * sizeof(uint8_t);
  bytes += ints_.capacity() * sizeof(int64_t);
  bytes += doubles_.capacity() * sizeof(double);
  bytes += strings_.capacity() * sizeof(std::string);
  for (const std::string& s : strings_) bytes += s.capacity();
  return bytes;
}

// ---------------------------------------------------------------------
// Indexes
// ---------------------------------------------------------------------

void Index::Insert(Row key, RowId rid) {
  map_.try_emplace(std::move(key)).first->second.push_back(rid);
  ++entry_count_;
}

void Index::Erase(const Row& key, RowId rid) {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  std::vector<RowId>& postings = it->second;
  auto pos = std::find(postings.begin(), postings.end(), rid);
  if (pos == postings.end()) return;
  postings.erase(pos);
  --entry_count_;
  if (postings.empty()) map_.erase(it);
}

void Index::Lookup(const Row& key, std::vector<RowId>* out) const {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  out->insert(out->end(), it->second.begin(), it->second.end());
}

size_t Index::ApproxBytes() const {
  size_t bytes = 64 + map_.bucket_count() * sizeof(void*);
  for (const auto& [key, postings] : map_) {
    // Hash node (next pointer, cached hash, key, posting vector header)
    // plus the key's values and the posting array.
    bytes += 2 * sizeof(void*) + ApproxRowBytes(key) +
             sizeof(std::vector<RowId>) + postings.capacity() * sizeof(RowId);
  }
  return bytes;
}

size_t EncodedValueBytes(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 8;
    case ValueType::kString:
      return v.as_string().size() + 2;
  }
  return 8;
}

void OrderedIndex::Erase(const Value& key, RowId rid) {
  auto [begin, end] = map_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == rid) {
      key_bytes_ -= EncodedValueBytes(it->first);
      map_.erase(it);
      return;
    }
  }
}

void OrderedIndex::RangeLookup(const Value* lo, bool lo_exclusive,
                               const Value* hi, bool hi_exclusive,
                               std::vector<RowId>* out) const {
  auto begin = lo == nullptr
                   ? map_.begin()
                   : (lo_exclusive ? map_.upper_bound(*lo)
                                   : map_.lower_bound(*lo));
  auto end = hi == nullptr
                 ? map_.end()
                 : (hi_exclusive ? map_.lower_bound(*hi)
                                 : map_.upper_bound(*hi));
  for (auto it = begin; it != end; ++it) {
    if (it->first.is_null()) continue;
    out->push_back(it->second);
  }
}

size_t ApproxRowBytes(const Row& row) {
  size_t bytes = sizeof(Row) + row.capacity() * sizeof(Value);
  for (const Value& v : row) {
    if (v.is_string()) bytes += v.as_string().capacity();
  }
  return bytes;
}

// ---------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.columns.size());
  for (const ColumnDef& c : schema_.columns) columns_.emplace_back(c.type);
  stats_.resize(schema_.columns.size());
}

Row Table::GetRow(RowId rid) const {
  Row row;
  AppendRow(rid, &row);
  return row;
}

void Table::AppendRow(RowId rid, Row* out) const {
  out->reserve(out->size() + columns_.size());
  for (const Column& col : columns_) out->push_back(col.Get(rid));
}

void Table::MaterializeRow(RowId rid, Row* out) const {
  out->clear();
  AppendRow(rid, out);
}

namespace {

// Size of the k-minimum-values NDV sketch. 256 hashes keep the estimate
// within ~6% (1/sqrt(k)) at a few KiB per column.
constexpr size_t kKmvSize = 256;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashValue64(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return SplitMix64(v.as_bool() ? 1 : 2);
    case ValueType::kInt:
      return SplitMix64(static_cast<uint64_t>(v.as_int()));
    case ValueType::kDouble: {
      double d = v.as_double();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return SplitMix64(bits);
    }
    case ValueType::kString: {
      uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
      for (unsigned char c : v.as_string()) {
        h = (h ^ c) * 0x100000001b3ULL;
      }
      return SplitMix64(h);
    }
  }
  return 0;
}

// Estimates the distinct count from a KMV sketch: exact while the sketch
// never overflowed, (k-1)/kth_smallest_fraction once it did.
uint64_t EstimateNdv(const std::vector<uint64_t>& kmv, bool saturated) {
  if (kmv.empty()) return 0;
  if (!saturated) return kmv.size();
  double kth = static_cast<double>(kmv.back());
  if (kth <= 0.0) return kmv.size();
  double est = (static_cast<double>(kmv.size()) - 1.0) *
               (18446744073709551616.0 /* 2^64 */ / kth);
  return est < 1.0 ? 1 : static_cast<uint64_t>(est);
}

}  // namespace

void Table::SketchAdd(StatsState* state, const Value& v) {
  uint64_t h = HashValue64(v);
  std::vector<uint64_t>& kmv = state->kmv;
  auto it = std::lower_bound(kmv.begin(), kmv.end(), h);
  if (it != kmv.end() && *it == h) return;  // already present
  if (kmv.size() < kKmvSize) {
    kmv.insert(it, h);
    return;
  }
  if (h < kmv.back()) {
    kmv.insert(it, h);
    kmv.pop_back();
  }
  state->kmv_saturated = true;
}

Table::ColumnStats Table::GetColumnStats(size_t column) const {
  std::lock_guard<std::mutex> guard(stats_mutex_);
  StatsState& state = stats_[column];
  if (state.minmax_stale) {
    state.min = Value::Null();
    state.max = Value::Null();
    const Column& col = columns_[column];
    for (RowId rid = 0; rid < slot_count_; ++rid) {
      if (!live_[rid] || col.IsNull(rid)) continue;
      Value v = col.Get(rid);
      if (state.min.is_null() || v < state.min) state.min = v;
      if (state.max.is_null() || v > state.max) state.max = std::move(v);
    }
    state.minmax_stale = false;
  }
  if (state.ndv_stale) {
    state.kmv.clear();
    state.kmv_saturated = false;
    const Column& col = columns_[column];
    for (RowId rid = 0; rid < slot_count_; ++rid) {
      if (!live_[rid] || col.IsNull(rid)) continue;
      SketchAdd(&state, col.Get(rid));
    }
    state.ndv_stale = false;
  }
  ColumnStats out;
  out.row_count = live_count_;
  out.null_count = state.null_count;
  out.ndv = EstimateNdv(state.kmv, state.kmv_saturated);
  out.min = state.min;
  out.max = state.max;
  return out;
}

void Table::PublishColumnStats() {
  if (colstats_gauges_.empty()) {
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
    for (const ColumnDef& column : schema_.columns) {
      const std::string prefix =
          "sql.colstats." + schema_.name + "." + column.name;
      colstats_gauges_.push_back(registry.GetGauge(prefix + ".rows"));
      colstats_gauges_.push_back(registry.GetGauge(prefix + ".nulls"));
    }
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    colstats_gauges_[2 * c]->Set(static_cast<int64_t>(live_count_));
    colstats_gauges_[2 * c + 1]->Set(
        static_cast<int64_t>(stats_[c].null_count));
  }
}

void Table::EnsureSlots(size_t n) {
  if (n <= slot_count_) return;
  for (Column& col : columns_) col.EnsureSize(n);
  live_.resize(n, false);
  slot_count_ = n;
}

void Table::StoreRow(RowId rid, Row&& row) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].SetMove(rid, std::move(row[c]));
  }
}

void Table::ClearSlot(RowId rid) {
  for (Column& col : columns_) col.SetNull(rid);
}

void Table::StatsOnInsert(const Row& row) {
  stats_version_.fetch_add(1, std::memory_order_relaxed);
  for (size_t c = 0; c < row.size(); ++c) {
    StatsState& state = stats_[c];
    if (row[c].is_null()) {
      ++state.null_count;
      continue;
    }
    if (!state.ndv_stale) SketchAdd(&state, row[c]);
    if (state.minmax_stale) continue;  // will be rescanned anyway
    if (state.min.is_null() || row[c] < state.min) state.min = row[c];
    if (state.max.is_null() || row[c] > state.max) state.max = row[c];
  }
}

void Table::StatsOnErase(const Row& row) {
  stats_version_.fetch_add(1, std::memory_order_relaxed);
  for (size_t c = 0; c < row.size(); ++c) {
    StatsState& state = stats_[c];
    if (row[c].is_null()) {
      --state.null_count;
      continue;
    }
    // Removing a value may drop a distinct count or tighten min/max;
    // recompute both lazily at the next stats read.
    state.ndv_stale = true;
    if (!state.minmax_stale &&
        (row[c] == state.min || row[c] == state.max)) {
      state.minmax_stale = true;
    }
  }
}

Status Table::ConformRow(Row* row) const {
  if (row->size() != schema_.columns.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row->size()) +
        " does not match table " + schema_.name + " arity " +
        std::to_string(schema_.columns.size()));
  }
  for (size_t i = 0; i < row->size(); ++i) {
    Value& v = (*row)[i];
    if (v.is_null()) {
      if (schema_.columns[i].not_null) {
        return Status::ConstraintViolation("column " + schema_.columns[i].name +
                                           " of " + schema_.name +
                                           " is NOT NULL");
      }
      continue;
    }
    // Coerce int literals into double columns; reject other mismatches.
    ValueType want = ColumnValueType(schema_.columns[i].type);
    if (v.type() != want) {
      if (want == ValueType::kDouble && v.is_int()) {
        v = Value(static_cast<double>(v.as_int()));
      } else if (want == ValueType::kInt && v.is_double() &&
                 v.as_double() ==
                     static_cast<double>(static_cast<int64_t>(v.as_double()))) {
        v = Value(static_cast<int64_t>(v.as_double()));
      } else {
        return Status::InvalidArgument(
            "type mismatch for column " + schema_.columns[i].name + " of " +
            schema_.name + ": expected " +
            ColumnTypeName(schema_.columns[i].type) + ", got " +
            ValueTypeName(v.type()));
      }
    }
  }
  return Status::OK();
}

Status Table::CheckUnique(const Row& row, const Row* replaced) const {
  for (const auto& index : indexes_) {
    if (!index->unique()) continue;
    Row key = index->KeyFor(row);
    // A row keeping its own key does not collide with its own posting.
    if (replaced != nullptr && key == index->KeyFor(*replaced)) continue;
    if (index->Contains(key)) {
      return Status::ConstraintViolation("duplicate key for unique index " +
                                         index->name() + " on " +
                                         schema_.name);
    }
  }
  return Status::OK();
}

Result<RowId> Table::Insert(Row row) {
  DB2G_RETURN_NOT_OK(ConformRow(&row));
  DB2G_RETURN_NOT_OK(CheckUnique(row, nullptr));
  RowId rid;
  if (!free_slots_.empty()) {
    rid = free_slots_.back();
    free_slots_.pop_back();
  } else {
    rid = slot_count_;
    EnsureSlots(slot_count_ + 1);
  }
  live_[rid] = true;
  ++live_count_;
  IndexInsert(row, rid);
  StatsOnInsert(row);
  StoreRow(rid, std::move(row));
  return rid;
}

Result<Row> Table::Delete(RowId rid) {
  if (!IsLive(rid)) {
    return Status::NotFound("row " + std::to_string(rid) + " of " +
                            schema_.name + " is not live");
  }
  Row image = GetRow(rid);
  IndexErase(image, rid);
  StatsOnErase(image);
  ClearSlot(rid);
  live_[rid] = false;
  free_slots_.push_back(rid);
  --live_count_;
  return image;
}

Result<Row> Table::Update(RowId rid, Row new_row) {
  if (!IsLive(rid)) {
    return Status::NotFound("row " + std::to_string(rid) + " of " +
                            schema_.name + " is not live");
  }
  DB2G_RETURN_NOT_OK(ConformRow(&new_row));
  Row before = GetRow(rid);
  DB2G_RETURN_NOT_OK(CheckUnique(new_row, &before));
  IndexErase(before, rid);
  StatsOnErase(before);
  IndexInsert(new_row, rid);
  StatsOnInsert(new_row);
  StoreRow(rid, std::move(new_row));
  return before;
}

void Table::RestoreSlot(RowId rid, Row row) {
  EnsureSlots(rid + 1);
  if (!live_[rid]) {
    live_[rid] = true;
    ++live_count_;
    free_slots_.erase(
        std::remove(free_slots_.begin(), free_slots_.end(), rid),
        free_slots_.end());
  }
  IndexInsert(row, rid);
  StatsOnInsert(row);
  StoreRow(rid, std::move(row));
}

void Table::EraseSlot(RowId rid) {
  if (!IsLive(rid)) return;
  Row image = GetRow(rid);
  IndexErase(image, rid);
  StatsOnErase(image);
  ClearSlot(rid);
  live_[rid] = false;
  free_slots_.push_back(rid);
  --live_count_;
}

Status Table::CreateIndex(const std::string& name,
                          const std::vector<std::string>& columns,
                          bool unique) {
  if (HasIndexNamed(name)) {
    return Status::AlreadyExists("index " + name + " already exists on " +
                                 schema_.name);
  }
  std::vector<size_t> column_indexes;
  for (const std::string& c : columns) {
    auto idx = schema_.ColumnIndex(c);
    if (!idx) {
      return Status::NotFound("no column " + c + " in table " + schema_.name);
    }
    column_indexes.push_back(*idx);
  }
  auto index = std::make_unique<Index>(name, column_indexes, unique);
  for (RowId rid = 0; rid < slot_count_; ++rid) {
    if (!live_[rid]) continue;
    Row key;
    key.reserve(column_indexes.size());
    for (size_t c : column_indexes) key.push_back(columns_[c].Get(rid));
    if (unique && index->Contains(key)) {
      return Status::ConstraintViolation(
          "cannot create unique index " + name + " on " + schema_.name +
          ": duplicate existing keys");
    }
    index->Insert(std::move(key), rid);
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

bool Table::HasIndexNamed(const std::string& name) const {
  for (const auto& index : indexes_) {
    if (EqualsIgnoreCase(index->name(), name)) return true;
  }
  for (const auto& index : ordered_indexes_) {
    if (EqualsIgnoreCase(index->name(), name)) return true;
  }
  return false;
}

const Index* Table::FindIndexOn(
    const std::vector<size_t>& column_indexes) const {
  std::vector<size_t> want = column_indexes;
  std::sort(want.begin(), want.end());
  for (const auto& index : indexes_) {
    std::vector<size_t> have = index->column_indexes();
    std::sort(have.begin(), have.end());
    if (have == want) return index.get();
  }
  return nullptr;
}

Status Table::CreateOrderedIndex(const std::string& name,
                                 const std::string& column) {
  if (HasIndexNamed(name)) {
    return Status::AlreadyExists("index " + name + " already exists on " +
                                 schema_.name);
  }
  auto idx = schema_.ColumnIndex(column);
  if (!idx) {
    return Status::NotFound("no column " + column + " in table " +
                            schema_.name);
  }
  auto index = std::make_unique<OrderedIndex>(name, *idx);
  for (RowId rid = 0; rid < slot_count_; ++rid) {
    if (!live_[rid]) continue;
    index->Insert(columns_[*idx].Get(rid), rid);
  }
  ordered_indexes_.push_back(std::move(index));
  return Status::OK();
}

const OrderedIndex* Table::FindOrderedIndexOn(size_t column_index) const {
  for (const auto& index : ordered_indexes_) {
    if (index->column_index() == column_index) return index.get();
  }
  return nullptr;
}

void Table::IndexInsert(const Row& row, RowId rid) {
  for (const auto& index : indexes_) index->Insert(index->KeyFor(row), rid);
  for (const auto& index : ordered_indexes_) {
    index->Insert(row[index->column_index()], rid);
  }
}

void Table::IndexErase(const Row& row, RowId rid) {
  for (const auto& index : indexes_) index->Erase(index->KeyFor(row), rid);
  for (const auto& index : ordered_indexes_) {
    index->Erase(row[index->column_index()], rid);
  }
}

size_t Table::ApproxBytes() const {
  size_t bytes = 128;
  for (const Column& col : columns_) bytes += col.ApproxBytes();
  bytes += live_.capacity() / 8;
  bytes += free_slots_.capacity() * sizeof(RowId);
  for (const auto& index : indexes_) bytes += index->ApproxBytes();
  for (const auto& index : ordered_indexes_) bytes += index->ApproxBytes();
  return bytes;
}

size_t Table::ApproxDiskBytes() const {
  size_t bytes = 256;  // catalog entry + page directory
  // Columnar pages: per column a packed null bitmap over the live rows
  // plus the encoded value run (NULL cells contribute only their bitmap
  // bit; fixed-width types their width; strings length + a 2-byte size).
  for (size_t c = 0; c < columns_.size(); ++c) {
    bytes += 16;                       // column header
    bytes += (live_count_ + 7) / 8;    // null bitmap
    const Column& col = columns_[c];
    switch (col.type()) {
      case ColumnType::kBool:
      case ColumnType::kInt:
      case ColumnType::kDouble: {
        size_t width = col.type() == ColumnType::kBool ? 1 : 8;
        size_t non_null = 0;
        for (RowId rid = 0; rid < slot_count_; ++rid) {
          if (live_[rid] && !col.IsNull(rid)) ++non_null;
        }
        bytes += non_null * width;
        break;
      }
      case ColumnType::kString:
        for (RowId rid = 0; rid < slot_count_; ++rid) {
          if (!live_[rid] || col.IsNull(rid)) continue;
          bytes += col.strings()[rid].size() + 2;
        }
        break;
    }
  }
  for (const auto& index : indexes_) {
    // One B-tree leaf entry per row: key widths + a row pointer.
    for (RowId rid = 0; rid < slot_count_; ++rid) {
      if (!live_[rid]) continue;
      bytes += 10;
      for (size_t c : index->column_indexes()) {
        bytes += EncodedValueBytes(columns_[c].Get(rid));
      }
    }
  }
  return bytes;
}

ProbeChoice ChooseProbeIndex(const Table& table,
                             const std::vector<ProbeCandidate>& candidates) {
  ProbeChoice choice;
  std::vector<size_t> eq_columns;
  for (const ProbeCandidate& cand : candidates) {
    if (cand.value_count == 1) eq_columns.push_back(cand.column_index);
  }
  if (!eq_columns.empty()) {
    choice.index = table.FindIndexOn(eq_columns);
    if (choice.index != nullptr) {
      for (size_t col : choice.index->column_indexes()) {
        for (size_t i = 0; i < candidates.size(); ++i) {
          if (candidates[i].value_count == 1 &&
              candidates[i].column_index == col) {
            choice.term_indexes.push_back(i);
            break;
          }
        }
      }
      return choice;
    }
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Index* single = table.FindIndexOn({candidates[i].column_index});
    if (single != nullptr) {
      choice.index = single;
      choice.term_indexes.push_back(i);
      return choice;
    }
  }
  return choice;
}

}  // namespace db2graph::sql
