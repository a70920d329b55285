#include "sql/table.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>

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

namespace {

constexpr uint64_t kFibonacci = 0x9e3779b97f4a7c15ULL;
constexpr int kMinSlotsLog2 = 3;
constexpr size_t kMinSlots = size_t{1} << kMinSlotsLog2;
// Dead arena space below this many words or bytes is never compacted.
constexpr size_t kCompactFloor = 64;
// Batches this small, or small next to the slot table (whose size the
// counting pass allocates), append row by row; others take the counting
// pass.
constexpr size_t kCountingBatchMin = 32;
constexpr size_t kCountingSlotsPerRow = 4;

// True when `d` equals some int64, which it stores in *out.
bool AsInt64(double d, int64_t* out) {
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    return false;
  }
  *out = static_cast<int64_t>(d);
  return static_cast<double>(*out) == d;
}

// Appends a value so that values equal under Value::Compare encode to equal
// bytes: an integral double in int64 range encodes as that int, and every
// part is tagged (strings length-prefixed) so multi-column keys never alias.
void EncodeKeyValue(const Value& v, std::string* out) {
  auto put_word = [out](char tag, uint64_t word) {
    out->push_back(tag);
    out->append(reinterpret_cast<const char*>(&word), sizeof(word));
  };
  switch (v.type()) {
    case ValueType::kNull:
      out->push_back('N');
      return;
    case ValueType::kBool:
      out->push_back(v.as_bool() ? 'T' : 'F');
      return;
    case ValueType::kInt:
      put_word('I', static_cast<uint64_t>(v.as_int()));
      return;
    case ValueType::kDouble: {
      double d = v.as_double();
      int64_t i;
      if (AsInt64(d, &i)) {
        put_word('I', static_cast<uint64_t>(i));
        return;
      }
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      put_word('D', bits);
      return;
    }
    case ValueType::kString: {
      const std::string& str = v.as_string();
      uint32_t len = static_cast<uint32_t>(str.size());
      out->push_back('S');
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      out->append(str);
      return;
    }
  }
}

// The key columns of one row: a key row (cols == nullptr) or a full table
// row read through the index's column list.
struct KeyView {
  const Value* values;
  const size_t* cols;
  size_t n;
  const Value& operator[](size_t i) const {
    return values[cols != nullptr ? cols[i] : i];
  }
};

}  // namespace

// A key resolved for probing: its key word, and for hashed keys the
// canonical encoding the stored copy must equal. Reset reuses the buffer.
class Index::Probe {
 public:
  enum class Kind { kWord, kNull, kNever };

  void Reset(const Index& index, const KeyView& key) {
    if (index.int_keys_) {
      const Value& v = key[0];
      int64_t i = 0;
      if (v.is_int() || (v.is_double() && AsInt64(v.as_double(), &i))) {
        kind = Kind::kWord;
        word = static_cast<uint64_t>(v.is_int() ? v.as_int() : i);
      } else {
        // No BIGINT equals a string, a bool or a fraction.
        kind = v.is_null() ? Kind::kNull : Kind::kNever;
      }
      return;
    }
    kind = Kind::kWord;
    bytes.clear();
    for (size_t i = 0; i < key.n; ++i) EncodeKeyValue(key[i], &bytes);
    word = index.hash_override_ != nullptr
               ? index.hash_override_(bytes)
               : std::hash<std::string_view>()(bytes);
  }

  Kind kind = Kind::kNever;
  uint64_t word = 0;
  std::string bytes;
};

Index::Index(std::string name, std::vector<size_t> column_indexes,
             bool unique, const std::vector<ColumnType>& column_types)
    : name_(std::move(name)),
      column_indexes_(std::move(column_indexes)),
      unique_(unique),
      int_keys_(column_types.size() == 1 &&
                column_types[0] == ColumnType::kInt),
      slots_(kMinSlots),
      shift_(64 - kMinSlotsLog2) {
  if (!int_keys_) key_at_.resize(kMinSlots);
}

size_t Index::Home(uint64_t word) const {
  return static_cast<size_t>((word * kFibonacci) >> shift_);
}

const Index::Slot* Index::FindSlot(const Probe& probe) const {
  if (probe.kind == Probe::Kind::kNever) return nullptr;
  if (probe.kind == Probe::Kind::kNull) {
    return null_run_.cap != 0 ? &null_run_ : nullptr;
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(probe.word);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.cap == 0) return nullptr;
    if (slot.key != probe.word) continue;
    if (int_keys_) return &slot;
    uint32_t len;
    std::memcpy(&len, keys_.data() + key_at_[i], sizeof(len));
    if (len == probe.bytes.size() &&
        std::memcmp(keys_.data() + key_at_[i] + sizeof(len),
                    probe.bytes.data(), len) == 0) {
      return &slot;
    }
  }
}

Index::Slot* Index::FindOrAddSlot(const Probe& probe) {
  assert(probe.kind != Probe::Kind::kNever && "key does not fit the index");
  if (probe.kind == Probe::Kind::kNull) {
    if (null_run_.cap == 0) null_run_.cap = 1;
    return &null_run_;
  }
  if (Slot* found = FindSlot(probe)) return found;
  if ((used_slots_ + 1) * 8 > slots_.size() * 7) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = Home(probe.word);
  while (slots_[i].cap != 0) i = (i + 1) & mask;
  slots_[i] = Slot{probe.word, 0, 0, 1};
  if (!int_keys_) {
    key_at_[i] = keys_.size();
    uint32_t len = static_cast<uint32_t>(probe.bytes.size());
    keys_.append(reinterpret_cast<const char*>(&len), sizeof(len));
    keys_.append(probe.bytes);
  }
  ++used_slots_;
  return &slots_[i];
}

void Index::Grow() {
  std::vector<Slot> old_slots = std::move(slots_);
  slots_.assign(old_slots.size() * 2, Slot{});
  std::vector<uint64_t> old_key_at = std::move(key_at_);
  if (!int_keys_) key_at_.assign(slots_.size(), 0);
  --shift_;
  const size_t mask = slots_.size() - 1;
  for (size_t j = 0; j < old_slots.size(); ++j) {
    if (old_slots[j].cap == 0) continue;
    size_t i = Home(old_slots[j].key);
    while (slots_[i].cap != 0) i = (i + 1) & mask;
    slots_[i] = old_slots[j];
    if (!int_keys_) key_at_[i] = old_key_at[j];
  }
}

void Index::RemoveSlot(size_t pos) {
  const size_t mask = slots_.size() - 1;
  size_t hole = pos;
  for (size_t j = (hole + 1) & mask; slots_[j].cap != 0; j = (j + 1) & mask) {
    // The entry at j may fill the hole unless its home lies cyclically in
    // (hole, j].
    size_t home = Home(slots_[j].key);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      if (!int_keys_) key_at_[hole] = key_at_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --used_slots_;
}

void Index::Relocate(Slot* slot, uint32_t cap) {
  if (slot->cap > 1 && slot->off + slot->cap == arena_.size()) {
    arena_.resize(slot->off + cap);  // the run ends the arena: grow in place
    slot->cap = cap;
    return;
  }
  const size_t off = arena_.size();
  arena_.resize(off + cap);
  const RowId* run = RunData(*slot);
  std::copy(run, run + slot->len, arena_.begin() + off);
  if (slot->cap > 1) arena_dead_ += slot->cap;
  slot->off = off;
  slot->cap = cap;
}

void Index::Append(Slot* slot, RowId rid) {
  if (slot->len == slot->cap) Relocate(slot, slot->cap * 2);
  if (slot->cap == 1) {
    slot->off = rid;
  } else {
    arena_[slot->off + slot->len] = rid;
  }
  ++slot->len;
  ++entry_count_;
}

void Index::EraseFrom(Slot* slot, RowId rid) {
  RowId* run = slot->cap == 1 ? &slot->off : arena_.data() + slot->off;
  RowId* end = run + slot->len;
  RowId* hit = std::find(run, end, rid);
  if (hit == end) return;
  std::copy(hit + 1, end, hit);
  --slot->len;
  --entry_count_;
  if (slot->len == 0) {
    if (slot->cap > 1) arena_dead_ += slot->cap;
    if (slot == &null_run_) {
      null_run_ = Slot{};
    } else {
      const size_t pos = static_cast<size_t>(slot - slots_.data());
      if (!int_keys_) {
        uint32_t len;
        std::memcpy(&len, keys_.data() + key_at_[pos], sizeof(len));
        keys_dead_ += sizeof(len) + len;
      }
      RemoveSlot(pos);
    }
  }
  MaybeCompact();
}

void Index::MaybeCompact() {
  if (arena_dead_ >= kCompactFloor && arena_dead_ * 2 > arena_.size()) {
    std::vector<RowId> arena;
    arena.reserve(arena_.size() - arena_dead_);
    auto repack = [&](Slot* slot) {
      if (slot->cap <= 1) return;
      if (slot->len == 1) {
        slot->off = arena_[slot->off];
        slot->cap = 1;
        return;
      }
      const RowId* run = arena_.data() + slot->off;
      slot->off = arena.size();
      slot->cap = slot->len;
      arena.insert(arena.end(), run, run + slot->len);
    };
    for (Slot& slot : slots_) repack(&slot);
    repack(&null_run_);
    arena_.swap(arena);
    arena_dead_ = 0;
  }
  if (keys_dead_ >= kCompactFloor && keys_dead_ * 2 > keys_.size()) {
    std::string keys;
    keys.reserve(keys_.size() - keys_dead_);
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].cap == 0) continue;
      uint32_t len;
      std::memcpy(&len, keys_.data() + key_at_[i], sizeof(len));
      size_t at = keys.size();
      keys.append(keys_, key_at_[i], sizeof(len) + len);
      key_at_[i] = at;
    }
    keys_.swap(keys);
    keys_dead_ = 0;
  }
}

template <typename KeyAt>
void Index::AppendAll(size_t n, const KeyAt& key_at, const RowId* rids) {
  Probe probe;
  if (n < kCountingBatchMin || n * kCountingSlotsPerRow < slots_.size()) {
    for (size_t i = 0; i < n; ++i) {
      probe.Reset(*this, key_at(i));
      Append(FindOrAddSlot(probe), rids[i]);
    }
    MaybeCompact();
    return;
  }
  // Pass 1: find or add every key's slot. Growing the table moves slots,
  // so rows before the last growth are located again once it is final.
  auto position = [this](const Slot* slot) {
    return slot == &null_run_ ? slots_.size()
                              : static_cast<size_t>(slot - slots_.data());
  };
  std::vector<uint32_t> where(n);
  size_t stale = 0;
  for (size_t i = 0; i < n; ++i) {
    probe.Reset(*this, key_at(i));
    size_t before = slots_.size();
    Slot* slot = FindOrAddSlot(probe);
    if (slots_.size() != before) stale = i;
    where[i] = static_cast<uint32_t>(position(slot));
  }
  for (size_t i = 0; i < stale; ++i) {
    probe.Reset(*this, key_at(i));
    where[i] = static_cast<uint32_t>(position(FindSlot(probe)));
  }
  // Pass 2: size every touched run once (position slots_.size() is the
  // NULL run), then fill the runs in row order.
  std::vector<uint32_t> adds(slots_.size() + 1, 0);
  for (uint32_t w : where) ++adds[w];
  auto slot_at = [this](size_t w) {
    return w == slots_.size() ? &null_run_ : &slots_[w];
  };
  size_t words = 0;
  for (size_t w = 0; w < adds.size(); ++w) {
    const Slot& slot = *slot_at(w);
    if (adds[w] != 0 && slot.len + adds[w] > slot.cap) {
      words += slot.len + adds[w];
    }
  }
  arena_.reserve(arena_.size() + words);
  for (size_t w = 0; w < adds.size(); ++w) {
    Slot* slot = slot_at(w);
    if (adds[w] != 0 && slot->len + adds[w] > slot->cap) {
      Relocate(slot, slot->len + adds[w]);
    }
  }
  for (size_t i = 0; i < n; ++i) Append(slot_at(where[i]), rids[i]);
  MaybeCompact();
}

void Index::Insert(const Row& key, RowId rid) {
  AppendAll(1, [&](size_t) { return KeyView{key.data(), nullptr, key.size()}; },
            &rid);
}

void Index::Erase(const Row& key, RowId rid) {
  Probe probe;
  probe.Reset(*this, KeyView{key.data(), nullptr, key.size()});
  if (Slot* slot = FindSlot(probe)) EraseFrom(slot, rid);
}

Index::Run Index::Find(const Value* key, size_t n) const {
  Probe probe;
  probe.Reset(*this, KeyView{key, nullptr, n});
  const Slot* slot = FindSlot(probe);
  if (slot == nullptr) return {};
  return {RunData(*slot), slot->len};
}

bool Index::Contains(const Row& key) const {
  Probe probe;
  probe.Reset(*this, KeyView{key.data(), nullptr, key.size()});
  return FindSlot(probe) != nullptr;
}

void Index::InsertRows(const Row* rows, const RowId* rids, size_t n) {
  const KeyView base{nullptr, column_indexes_.data(), column_indexes_.size()};
  AppendAll(
      n,
      [&](size_t i) {
        KeyView key = base;
        key.values = rows[i].data();
        return key;
      },
      rids);
}

void Index::EraseRow(const Row& row, RowId rid) {
  Probe probe;
  probe.Reset(*this, KeyView{row.data(), column_indexes_.data(),
                             column_indexes_.size()});
  if (Slot* slot = FindSlot(probe)) EraseFrom(slot, rid);
}

bool Index::ContainsKeyOf(const Row& row) const {
  Probe probe;
  probe.Reset(*this, KeyView{row.data(), column_indexes_.data(),
                             column_indexes_.size()});
  return FindSlot(probe) != nullptr;
}

bool Index::AnyKeyTaken(const Row* rows, size_t n) const {
  if (n == 1) return ContainsKeyOf(rows[0]);
  Index seen(name_, column_indexes_, unique_,
             int_keys_ ? std::vector<ColumnType>{ColumnType::kInt}
                       : std::vector<ColumnType>{});
  seen.hash_override_ = hash_override_;
  for (size_t i = 0; i < n; ++i) {
    if (ContainsKeyOf(rows[i]) || seen.ContainsKeyOf(rows[i])) return true;
    RowId ordinal = i;
    seen.InsertRows(&rows[i], &ordinal, 1);
  }
  return false;
}

void Index::Build(const std::vector<Column>& columns,
                  const std::vector<RowId>& rids) {
  Row key(column_indexes_.size());
  AppendAll(
      rids.size(),
      [&](size_t i) {
        for (size_t k = 0; k < column_indexes_.size(); ++k) {
          key[k] = columns[column_indexes_[k]].Get(rids[i]);
        }
        return KeyView{key.data(), nullptr, key.size()};
      },
      rids.data());
}

size_t Index::ApproxBytes() const {
  return sizeof(*this) + slots_.capacity() * sizeof(Slot) +
         arena_.capacity() * sizeof(RowId) +
         key_at_.capacity() * sizeof(uint64_t) + keys_.capacity();
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

Status Table::CheckUnique(const Row& row, const Row& replaced) const {
  for (const auto& index : indexes_) {
    if (!index->unique()) continue;
    // A row keeping its own key does not collide with its own posting.
    if (std::all_of(index->column_indexes().begin(),
                    index->column_indexes().end(),
                    [&](size_t c) { return row[c] == replaced[c]; })) {
      continue;
    }
    if (index->ContainsKeyOf(row)) return DuplicateKey(*index);
  }
  return Status::OK();
}

Status Table::DuplicateKey(const Index& index) const {
  return Status::ConstraintViolation("duplicate key for unique index " +
                                     index.name() + " on " + schema_.name);
}

Result<RowId> Table::Insert(Row row) {
  std::vector<Row> rows;
  rows.push_back(std::move(row));
  Result<std::vector<RowId>> rids = InsertBatch(std::move(rows));
  if (!rids.ok()) return rids.status();
  return rids->front();
}

Result<std::vector<RowId>> Table::InsertBatch(std::vector<Row> rows) {
  for (Row& row : rows) DB2G_RETURN_NOT_OK(ConformRow(&row));
  for (const auto& index : indexes_) {
    if (index->unique() && index->AnyKeyTaken(rows.data(), rows.size())) {
      return DuplicateKey(*index);
    }
  }
  // Slots exactly as a loop of Insert takes them: free slots from the back
  // of the free list, then fresh slots in order.
  std::vector<RowId> rids(rows.size());
  size_t fresh = 0;
  for (RowId& rid : rids) {
    if (!free_slots_.empty()) {
      rid = free_slots_.back();
      free_slots_.pop_back();
    } else {
      rid = slot_count_ + fresh++;
    }
  }
  EnsureSlots(slot_count_ + fresh);
  for (size_t i = 0; i < rows.size(); ++i) {
    live_[rids[i]] = true;
    StatsOnInsert(rows[i]);
  }
  live_count_ += rows.size();
  IndexInsert(rows.data(), rids.data(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    StoreRow(rids[i], std::move(rows[i]));
  }
  return rids;
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
  DB2G_RETURN_NOT_OK(CheckUnique(new_row, before));
  IndexErase(before, rid);
  StatsOnErase(before);
  IndexInsert(&new_row, &rid, 1);
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
  IndexInsert(&row, &rid, 1);
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
  std::vector<ColumnType> column_types;
  for (const std::string& c : columns) {
    auto idx = schema_.ColumnIndex(c);
    if (!idx) {
      return Status::NotFound("no column " + c + " in table " + schema_.name);
    }
    column_indexes.push_back(*idx);
    column_types.push_back(schema_.columns[*idx].type);
  }
  auto index = std::make_unique<Index>(name, column_indexes, unique,
                                       column_types);
  std::vector<RowId> rids;
  rids.reserve(live_count_);
  for (RowId rid = 0; rid < slot_count_; ++rid) {
    if (live_[rid]) rids.push_back(rid);
  }
  index->Build(columns_, rids);
  if (unique && index->key_count() != index->entry_count()) {
    return Status::ConstraintViolation("cannot create unique index " + name +
                                       " on " + schema_.name +
                                       ": duplicate existing keys");
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

void Table::IndexInsert(const Row* rows, const RowId* rids, size_t n) {
  for (const auto& index : indexes_) index->InsertRows(rows, rids, n);
  for (const auto& index : ordered_indexes_) {
    for (size_t i = 0; i < n; ++i) {
      index->Insert(rows[i][index->column_index()], rids[i]);
    }
  }
}

void Table::IndexErase(const Row& row, RowId rid) {
  for (const auto& index : indexes_) index->EraseRow(row, rid);
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
