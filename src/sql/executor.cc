#include "sql/executor.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/exec_config.h"
#include "common/fault_injection.h"
#include "common/query_log.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "common/workload_governor.h"
#include "sql/database.h"
#include "sql/expr.h"
#include "sql/table.h"

namespace db2graph::sql {

namespace {

// ---------------------------------------------------------------------
// Predicate decomposition helpers
// ---------------------------------------------------------------------

// Splits a boolean expression into its top-level AND conjuncts.
void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary && expr->op == "AND") {
    SplitConjuncts(expr->children[0].get(), out);
    SplitConjuncts(expr->children[1].get(), out);
    return;
  }
  out->push_back(expr);
}

// True when every column reference in `expr` resolves in `scope`.
bool BindsIn(const Expr& expr, const Scope& scope) {
  if (expr.kind == ExprKind::kColumnRef) {
    return scope.Resolve(expr.table_alias, expr.column).ok();
  }
  if (expr.kind == ExprKind::kStar) return false;
  for (const auto& child : expr.children) {
    if (!BindsIn(*child, scope)) return false;
  }
  return true;
}

// Marks in `read` the flat offsets a bound expression reads.
void MarkBoundReads(const Expr& expr, std::vector<bool>* read) {
  if (expr.kind == ExprKind::kColumnRef && expr.bound_index >= 0) {
    (*read)[static_cast<size_t>(expr.bound_index)] = true;
  }
  for (const auto& child : expr.children) MarkBoundReads(*child, read);
}

// Reads one row of a table in place: a flat offset is a column index.
class TableRowReader final : public ColumnReader {
 public:
  explicit TableRowReader(const Table& table) : table_(table) {}
  void Bind(RowId rid) { rid_ = rid; }
  Value Read(size_t offset) const override {
    return table_.ValueAt(rid_, offset);
  }

 private:
  const Table& table_;
  RowId rid_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------
// Index probe planning (SELECT join stages and UPDATE/DELETE targeting)
// ---------------------------------------------------------------------

IndexProbe PlanIndexProbe(const Table& table, const std::string& alias,
                          const std::vector<const Expr*>& conjuncts,
                          const Scope& outer) {
  const TableSchema& schema = table.schema();
  // A column reference that resolves into this relation, not an outer one.
  auto is_inner_col = [&](const Expr* e) {
    return e->kind == ExprKind::kColumnRef &&
           (e->table_alias.empty() ||
            EqualsIgnoreCase(e->table_alias, alias)) &&
           schema.HasColumn(e->column) && !BindsIn(*e, outer);
  };
  std::vector<ProbeTerm> candidates;
  for (const Expr* conjunct : conjuncts) {
    const Expr* column_side = nullptr;
    std::vector<const Expr*> values;
    if (conjunct->kind == ExprKind::kBinary && conjunct->op == "=") {
      const Expr* lhs = conjunct->children[0].get();
      const Expr* rhs = conjunct->children[1].get();
      if (is_inner_col(lhs) && BindsIn(*rhs, outer)) {
        column_side = lhs;
        values.push_back(rhs);
      } else if (is_inner_col(rhs) && BindsIn(*lhs, outer)) {
        column_side = rhs;
        values.push_back(lhs);
      }
    } else if (conjunct->kind == ExprKind::kIn && !conjunct->negated) {
      const Expr* lhs = conjunct->children[0].get();
      bool all_outer = is_inner_col(lhs);
      for (size_t i = 1; all_outer && i < conjunct->children.size(); ++i) {
        all_outer = BindsIn(*conjunct->children[i], outer);
      }
      if (all_outer) {
        column_side = lhs;
        for (size_t i = 1; i < conjunct->children.size(); ++i) {
          values.push_back(conjunct->children[i].get());
        }
      }
    }
    if (column_side != nullptr) {
      candidates.push_back(
          {*schema.ColumnIndex(column_side->column), std::move(values),
           conjunct});
    }
  }
  // Index preference (multi-column exact cover, then first single-column
  // candidate) lives in ChooseProbeIndex, shared with the graph layer's
  // multi-hop collapse legality check.
  std::vector<ProbeCandidate> shapes;
  shapes.reserve(candidates.size());
  for (const ProbeTerm& term : candidates) {
    shapes.push_back({term.column_index, term.values.size()});
  }
  ProbeChoice choice = ChooseProbeIndex(table, shapes);
  IndexProbe probe;
  probe.index = choice.index;
  for (size_t i : choice.term_indexes) {
    probe.terms.push_back(std::move(candidates[i]));
  }
  return probe;
}

size_t ProbeKeys(const IndexProbe& probe, const ColumnReader& outer,
                 const std::vector<Value>* params, std::vector<Value>* keys) {
  keys->clear();
  // ChooseProbeIndex covers a multi-column index with single-value terms
  // only: a probe is one key of one value per term, or one IN term.
  if (probe.terms.size() > 1 || probe.terms[0].values.size() == 1) {
    for (const ProbeTerm& term : probe.terms) {
      keys->push_back(EvalExpr(*term.values[0], outer, params));
      if (keys->back().is_null()) {
        keys->clear();
        break;
      }
    }
    return 1;
  }
  for (const Expr* value : probe.terms[0].values) {
    keys->push_back(EvalExpr(*value, outer, params));
  }
  std::sort(keys->begin(), keys->end());
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
  const size_t distinct = keys->size();
  if (!keys->empty() && keys->front().is_null()) {
    keys->erase(keys->begin());  // NULL sorts first
  }
  return distinct;
}

std::vector<RowId> FindTargetRows(const Table& table, const std::string& alias,
                                  const Expr* where,
                                  const std::vector<Value>* params,
                                  ExecInfo* exec) {
  std::vector<RowId> targets;
  TableRowReader row(table);
  auto consider = [&](RowId rid) {
    exec->rows_scanned += 1;
    if (where != nullptr) {
      row.Bind(rid);
      Value v = EvalExpr(*where, row, params);
      if (v.is_null() || !v.Truthy()) return;
    }
    targets.push_back(rid);
  };
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(where, &conjuncts);
  IndexProbe probe = PlanIndexProbe(table, alias, conjuncts, Scope());
  if (probe.index == nullptr) {
    exec->full_scans += 1;
    for (RowId rid = 0; rid < table.slot_count(); ++rid) {
      if (table.IsLive(rid)) consider(rid);
    }
    return targets;
  }
  // The probe values bind in the empty scope: they read no column.
  std::vector<Value> keys;
  exec->index_probes += ProbeKeys(probe, row, params, &keys);
  const size_t width = probe.terms.size();
  std::vector<RowId> candidates;
  for (size_t k = 0; k < keys.size(); k += width) {
    Index::Run run = probe.index->Find(keys.data() + k, width);
    candidates.insert(candidates.end(), run.data, run.data + run.size);
  }
  // Distinct keys of one index never share a row, so sorting alone puts
  // the candidates in the slot order a scan would visit them.
  std::sort(candidates.begin(), candidates.end());
  for (RowId rid : candidates) consider(rid);
  return targets;
}

// ---------------------------------------------------------------------
// Aggregation machinery
// ---------------------------------------------------------------------

namespace {

struct AggSpec {
  const Expr* node;   // the aggregate kFuncCall node
  std::string op;     // upper-cased
  const Expr* arg;    // nullptr for COUNT(*)
};

void CollectAggregates(const Expr* expr, std::vector<AggSpec>* out) {
  if (expr->kind == ExprKind::kFuncCall && IsAggregateName(expr->op)) {
    AggSpec spec;
    spec.node = expr;
    spec.op = ToUpper(expr->op);
    spec.arg = expr->children.empty() ||
                       expr->children[0]->kind == ExprKind::kStar
                   ? nullptr
                   : expr->children[0].get();
    out->push_back(spec);
    return;  // no nested aggregates
  }
  for (const auto& child : expr->children) {
    CollectAggregates(child.get(), out);
  }
}

struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Value min;
  Value max;

  void Accumulate(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.is_numeric()) {
      sum += v.NumericValue();
      if (v.is_int()) {
        isum += v.as_int();
      } else {
        sum_is_int = false;
      }
    } else {
      sum_is_int = false;
    }
    if (min.is_null() || v < min) min = v;
    if (max.is_null() || v > max) max = v;
  }

  Value Finish(const std::string& op) const {
    if (op == "COUNT") return Value(count);
    if (count == 0) return Value::Null();
    if (op == "SUM") return sum_is_int ? Value(isum) : Value(sum);
    if (op == "AVG") return Value(sum / static_cast<double>(count));
    if (op == "MIN") return min;
    if (op == "MAX") return max;
    return Value::Null();
  }

  // Folds in a partial state produced by a parallel morsel worker.
  // COUNT/MIN/MAX and integer sums are exact under any merge order;
  // double sums reassociate, so the barrier merges partials in morsel
  // order — run-to-run deterministic for a fixed dop, though the low bits
  // may differ from the serial left-to-right sum.
  void Merge(const AggState& other) {
    count += other.count;
    sum += other.sum;
    isum += other.isum;
    sum_is_int = sum_is_int && other.sum_is_int;
    if (!other.min.is_null() && (min.is_null() || other.min < min)) {
      min = other.min;
    }
    if (!other.max.is_null() && (max.is_null() || other.max > max)) {
      max = other.max;
    }
  }
};

// Evaluates an expression in which aggregate nodes have precomputed values.
Value EvalWithAggregates(
    const Expr& expr, const ColumnReader& row,
    const std::vector<Value>* params,
    const std::unordered_map<const Expr*, Value>& agg_values) {
  auto it = agg_values.find(&expr);
  if (it != agg_values.end()) return it->second;
  if (!ContainsAggregate(expr)) return EvalExpr(expr, row, params);
  // Recurse through composite nodes that contain aggregates below.
  Expr shallow;
  shallow.kind = expr.kind;
  shallow.op = expr.op;
  shallow.negated = expr.negated;
  shallow.literal = expr.literal;
  shallow.param_index = expr.param_index;
  shallow.bound_index = expr.bound_index;
  for (const auto& child : expr.children) {
    shallow.children.push_back(
        MakeLiteral(EvalWithAggregates(*child, row, params, agg_values)));
  }
  return EvalExpr(shallow, row, params);
}

std::string OutputName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
  return item.expr->ToString();
}

}  // namespace

// ---------------------------------------------------------------------
// Operator tree
// ---------------------------------------------------------------------
//
// A SELECT runs as a chain of pull operators:
//
//   Seed -> JoinStage* -> Filter? -> (Aggregate | SortProject | Project)
//        -> Distinct? -> Limit?
//
// Below the top operator the chain passes tuples of slot ids, not rows:
// a tuple holds one RowId per stage so far (a table slot, or a row index
// of a materialized relation). Join stages read probe keys, hash keys and
// predicates in place through a TupleReader, and the top operator is the
// single point where values are materialized: each output row (or group
// key, or sort key) reads just the columns its expressions name. Slot ids
// stay valid because every execution holds the database read lock for
// its whole life.
//
// JoinStage covers both the scan of the first FROM relation (its upstream
// is the Seed's one empty tuple) and each subsequent join: index probe,
// then (for materialized or unindexed relations with >1 outer tuple) a
// transient hash join, then an ordered-index range scan, then a full
// scan. A counted stage visits no rows at all: under an aggregate that
// only counts, it multiplies each tuple by the length of its posting
// runs. Counters are incremented per row actually visited, so early
// termination is visible in ExecInfo.

namespace exec_ops {

/// Slot of a stage whose row is absent: a LEFT JOIN's null extension, or
/// a counted stage, which stands for its rows without naming one. Reads
/// as NULL.
constexpr RowId kNullSlot = ~RowId{0};

// How a stage's relation is obtained. Base tables are resolved once, at
// build; everything else is materialized per execution.
struct RelationSource {
  enum class Kind { kBaseTable, kVirtualTable, kView, kSubquery, kFunction };
  Kind kind = Kind::kBaseTable;
  const TableRef* ref = nullptr;  // names, function args, declared columns
  bool check_access = false;      // kTable refs outside a view body
  const Table* table = nullptr;   // kBaseTable
  std::shared_ptr<const SelectSection> body;  // kView / kSubquery
};

// One execution's data for a join stage: a table (base or virtual
// snapshot) or materialized rows.
struct PlanRelation {
  const Table* table = nullptr;
  std::vector<Row> rows;
  bool materialized() const { return table == nullptr; }
};

// Where a flat scope offset lives: a stage, and a column of its relation.
struct StageCell {
  uint32_t stage = 0;
  uint32_t column = 0;
};

struct PlanContext {
  Database* db = nullptr;
  const std::vector<Value>* params = nullptr;
  size_t block_rows = kDefaultBlockRows;
  /// Resolved ExecConfig degree of parallelism: >1 lets eligible
  /// operators (parallel scan/aggregate, sharded hash-join build,
  /// parallel sort) dispatch morsels to the shared pool.
  int dop = 1;
  /// This execution's stage relations, in stage order, and the section's
  /// map from flat offsets to their cells: what tuple readers read.
  std::vector<PlanRelation> relations;
  const std::vector<StageCell>* cells = nullptr;
  ExecInfo exec;
  Status error = Status::OK();
  /// EXPLAIN [ANALYZE] / ExecConfig::profile: each operator gets a
  /// wrapper that records into one node here. deque: the wrappers hold
  /// stable pointers while compilation keeps appending. Leaf-first order.
  bool profiled = false;
  std::deque<OpProfile> profiles;
};

// Cooperative workload-governor check, called by the block-producing
// operators (the join/scan stages both operator trees pull through) at
// each block boundary. A deadline / cancellation / budget violation lands
// in the plan's error slot exactly like an operator failure, so the
// existing unwind path — every upstream Next() observes the error and
// stops — carries it to the root. Ungoverned executions pay one
// thread-local read.
bool GovernorOk(PlanContext* ctx) {
  if (!ctx->error.ok()) return false;
  Status st = governor::CheckCurrent();
  if (!st.ok()) {
    ctx->error = std::move(st);
    return false;
  }
  return true;
}

// A block of slot tuples: tuple i is slots[i * width, (i + 1) * width),
// one RowId per stage. `mult` is empty unless a counted stage produced
// the block; then tuple i stands for mult[i] joined rows.
struct TupleBlock {
  size_t width = 0;
  size_t count = 0;
  size_t capacity = kDefaultBlockRows;
  std::vector<RowId> slots;
  std::vector<uint64_t> mult;

  void Reset(size_t w) {
    width = w;
    count = 0;
    slots.clear();
    mult.clear();
  }
  const RowId* tuple(size_t i) const { return slots.data() + i * width; }
  uint64_t multiplicity(size_t i) const { return mult.empty() ? 1 : mult[i]; }
  void Append(const TupleBlock& from, size_t i) {
    const RowId* t = from.tuple(i);
    slots.insert(slots.end(), t, t + width);
    if (!from.mult.empty()) mult.push_back(from.mult[i]);
    ++count;
  }
};

// Reads the cells of one slot tuple in place: a bound column's flat
// offset names a stage and a column, and the tuple's slot for that stage
// names the row. kNullSlot reads as NULL.
class TupleReader final : public ColumnReader {
 public:
  explicit TupleReader(const PlanContext* ctx)
      : relations_(ctx->relations), cells_(*ctx->cells) {}
  void Bind(const RowId* tuple) { tuple_ = tuple; }
  Value Read(size_t offset) const override {
    const StageCell cell = cells_[offset];
    const RowId slot = tuple_[cell.stage];
    if (slot == kNullSlot) return Value::Null();
    const PlanRelation& rel = relations_[cell.stage];
    if (rel.table != nullptr) return rel.table->ValueAt(slot, cell.column);
    return rel.rows[slot][cell.column];
  }

 private:
  const std::vector<PlanRelation>& relations_;
  const std::vector<StageCell>& cells_;
  const RowId* tuple_ = nullptr;
};

// Operators that emit output rows.
class Op {
 public:
  using Interface = Op;
  using Block = RowBlock;
  explicit Op(PlanContext* ctx) : ctx_(ctx) {}
  virtual ~Op() = default;
  virtual bool Next(RowBlock* out) = 0;
  virtual void Close() = 0;

 protected:
  PlanContext* ctx_;
};

// Operators below the top of the chain: they emit slot tuples.
class TupleOp {
 public:
  using Interface = TupleOp;
  using Block = TupleBlock;
  explicit TupleOp(PlanContext* ctx) : ctx_(ctx) {}
  virtual ~TupleOp() = default;
  virtual bool Next(TupleBlock* out) = 0;
  virtual void Close() = 0;

 protected:
  PlanContext* ctx_;
};

// Emits a single empty tuple: the seed the first join stage crosses with.
class SeedOp : public TupleOp {
 public:
  using TupleOp::TupleOp;
  bool Next(TupleBlock* out) override {
    out->Reset(0);
    if (done_) return false;
    done_ = true;
    out->count = 1;
    return true;
  }
  void Close() override { done_ = true; }

 private:
  bool done_ = false;
};

// A join stage's compiled access path: part of the immutable section.
struct StageConfig {
  std::string alias;
  std::vector<std::string> columns;
  RelationSource source;
  std::vector<const Expr*> preds;  // ON + eligible WHERE conjuncts
  /// The conjuncts of `preds` each candidate row must still pass: all of
  /// them but the ones the index probe answers exactly.
  std::vector<const Expr*> residual;
  bool left = false;

  // Index-probe access path.
  IndexProbe probe;
  /// Counted: the rows are never visited; each outer tuple is multiplied
  /// by the length of its posting runs (see SelectSection::Build).
  bool counted = false;

  // Hash-join candidate (used when no index and >1 outer row).
  bool has_hash = false;
  size_t hash_column = 0;          // inner column
  const Expr* hash_key = nullptr;  // outer-side expression

  // Ordered-index range access path.
  const OrderedIndex* range_index = nullptr;
  const Expr* range_lo = nullptr;
  const Expr* range_hi = nullptr;
  bool range_lo_excl = false;
  bool range_hi_excl = false;

  /// Profile label: alias plus the access path.
  std::string detail;

  bool table_backed() const {
    return source.kind == RelationSource::Kind::kBaseTable ||
           source.kind == RelationSource::Kind::kVirtualTable;
  }
};

class JoinStageOp : public TupleOp {
 public:
  JoinStageOp(PlanContext* ctx, std::unique_ptr<TupleOp> child,
              const StageConfig& cfg, size_t stage)
      : TupleOp(ctx),
        child_(std::move(child)),
        cfg_(cfg),
        stage_(stage),
        rel_(ctx->relations[stage]),
        reader_(ctx) {
    ctx_->exec.scalar_ops += 1;
  }

  bool Next(TupleBlock* out) override {
    out->Reset(stage_ + 1);
    if (closed_) return false;
    if (!GovernorOk(ctx_)) return false;
    DB2G_FAILPOINT_STATUS("sql.executor.block", ctx_->error);
    if (!ctx_->error.ok()) return false;
    pull_cap_ = std::min(ctx_->block_rows, std::max<size_t>(out->capacity, 1));
    EnsureDecided();
    while (out->count < out->capacity) {
      if (phase_ == Phase::kNeedOuter) {
        if (!FetchNextOuter()) break;
        if (cfg_.counted) {
          EmitCounted(out);
          continue;
        }
        StartCursor();
        matched_ = false;
        phase_ = Phase::kDraining;
      } else if (phase_ == Phase::kDraining) {
        RowId slot;
        if (!NextSlot(&slot)) {
          phase_ = (!matched_ && cfg_.left) ? Phase::kPendingLeft
                                            : Phase::kNeedOuter;
          continue;
        }
        ctx_->exec.rows_scanned += 1;
        EmitIfMatch(out, slot);
      } else {  // kPendingLeft: null-extend the unmatched outer tuple
        Emit(out, kNullSlot);
        phase_ = Phase::kNeedOuter;
      }
    }
    return out->count > 0;
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    child_->Close();
    hash_table_.clear();
    shards_.clear();
    in_.Reset(0);
    rids_.clear();
  }

 private:
  enum class Phase { kNeedOuter, kDraining, kPendingLeft };
  enum class CursorKind { kRuns, kRids, kHash, kScan, kRows };

  // Pulls the child's next block. Outer tuples not yet consumed stay
  // buffered ahead of it (only the hash decision reads ahead).
  void PullChild() {
    pulled_.capacity = pull_cap_;
    if (!child_->Next(&pulled_)) {
      child_eof_ = true;
      return;
    }
    if (in_pos_ >= in_.count) {
      std::swap(in_, pulled_);
      in_pos_ = 0;
      return;
    }
    for (size_t i = 0; i < pulled_.count; ++i) in_.Append(pulled_, i);
  }

  // Decides nested-loop vs hash once, mirroring the materialized rule
  // "hash only with more than one outer row": buffer outer tuples until
  // two arrive (or upstream ends), then build the table if they did.
  void EnsureDecided() {
    if (decided_) return;
    decided_ = true;
    if (cfg_.probe.index != nullptr || !cfg_.has_hash) return;
    while (in_.count - in_pos_ < 2 && !child_eof_) PullChild();
    if (in_.count - in_pos_ < 2) return;
    hash_mode_ = true;
    const PlanRelation& rel = rel_;
    size_t build_slots =
        rel.materialized() ? rel.rows.size() : rel.table->slot_count();
    if (ctx_->dop > 1 && build_slots >= kParallelBuildMinSlots) {
      BuildSharded(build_slots);
      return;
    }
    if (rel.materialized()) {
      for (size_t r = 0; r < rel.rows.size(); ++r) {
        hash_table_.emplace(rel.rows[r][cfg_.hash_column], r);
      }
    } else {
      for (RowId rid = 0; rid < rel.table->slot_count(); ++rid) {
        if (!rel.table->IsLive(rid)) continue;
        hash_table_.emplace(rel.table->ValueAt(rid, cfg_.hash_column), rid);
      }
    }
  }

  // ClickHouse ConcurrentHashJoin-style sharded build. Phase 1 scatters
  // (key, slot) pairs into per-(morsel, shard) buckets — shard =
  // ValueHash(key) % shard_count — with one pool task per morsel. Phase 2
  // builds each shard's multimap from its buckets in morsel order, one
  // pool task per shard, no locks: a shard is owned by exactly one task.
  // Equal keys land in one shard and are inserted in ascending-slot order
  // (morsel order == slot order), i.e. the same insertion sequence the
  // serial loop produces, so probes see identical match order. Probes are
  // lock-free reads: shard = ValueHash(probe key) % shard_count.
  void BuildSharded(size_t build_slots) {
    const PlanRelation& rel = rel_;
    const size_t shard_count = static_cast<size_t>(ctx_->dop);
    const size_t morsel_slots = kBuildMorselSlots;
    const size_t morsel_count = (build_slots + morsel_slots - 1) / morsel_slots;
    struct BuildPair {
      Value key;
      size_t slot;
    };
    // buckets[morsel][shard] -> pairs scattered while that morsel was
    // scanned. Workers are capped at dop: each task owns a contiguous
    // morsel range but still fills per-morsel buckets, which is what lets
    // phase 2 replay insertions in morsel (== slot) order.
    std::vector<std::vector<std::vector<BuildPair>>> buckets(morsel_count);
    std::vector<Status> morsel_status(morsel_count, Status::OK());
    const size_t task_count = std::min(shard_count, morsel_count);
    const size_t morsels_per_task = (morsel_count + task_count - 1) / task_count;
    governor::QueryContext* qc = governor::CurrentQueryContext();
    ThreadPool::Shared().RunBatch(task_count, [&](size_t t) {
      governor::ScopedQueryContext governed(qc);
      size_t m_lo = t * morsels_per_task;
      size_t m_hi = std::min(morsel_count, m_lo + morsels_per_task);
      for (size_t m = m_lo; m < m_hi; ++m) {
        Status st = governor::CheckCurrent();
        if (!st.ok()) {
          morsel_status[m] = std::move(st);
          return;
        }
        std::vector<std::vector<BuildPair>>& local = buckets[m];
        local.resize(shard_count);
        size_t lo = m * morsel_slots;
        size_t hi = std::min(build_slots, lo + morsel_slots);
        if (rel.materialized()) {
          for (size_t r = lo; r < hi; ++r) {
            const Value& key = rel.rows[r][cfg_.hash_column];
            local[ValueHash{}(key) % shard_count].push_back({key, r});
          }
        } else {
          for (RowId rid = lo; rid < hi; ++rid) {
            if (!rel.table->IsLive(rid)) continue;
            Value key = rel.table->ValueAt(rid, cfg_.hash_column);
            size_t shard = ValueHash{}(key) % shard_count;
            local[shard].push_back({std::move(key), rid});
          }
        }
      }
    });
    for (size_t m = 0; m < morsel_count; ++m) {
      if (!morsel_status[m].ok()) {
        if (ctx_->error.ok()) ctx_->error = std::move(morsel_status[m]);
        return;
      }
    }
    shards_.resize(shard_count);
    ThreadPool::Shared().RunBatch(shard_count, [&](size_t s) {
      governor::ScopedQueryContext governed(qc);
      for (size_t m = 0; m < morsel_count; ++m) {
        if (buckets[m].empty()) continue;  // governor stopped this morsel
        for (BuildPair& pair : buckets[m][s]) {
          shards_[s].emplace(std::move(pair.key), pair.slot);
        }
      }
    });
    sharded_ = true;
    ctx_->exec.dop = std::max<uint64_t>(ctx_->exec.dop, shard_count);
    ctx_->exec.morsels += morsel_count + shard_count;
  }

  bool FetchNextOuter() {
    while (in_pos_ >= in_.count && !child_eof_) PullChild();
    if (in_pos_ >= in_.count) return false;
    outer_ = in_pos_++;
    reader_.Bind(in_.tuple(outer_));
    return true;
  }

  // The current outer tuple's probe keys, into keys_.
  void OuterKeys() {
    ctx_->exec.index_probes +=
        ProbeKeys(cfg_.probe, reader_, ctx_->params, &keys_);
  }

  void StartCursor() {
    const PlanRelation& rel = rel_;
    if (cfg_.probe.index != nullptr) {
      cursor_ = CursorKind::kRuns;
      runs_.clear();
      run_index_ = 0;
      run_pos_ = 0;
      const size_t width = cfg_.probe.terms.size();
      OuterKeys();
      for (size_t k = 0; k < keys_.size(); k += width) {
        Index::Run run = cfg_.probe.index->Find(keys_.data() + k, width);
        if (run.size > 0) runs_.push_back(run);
      }
      return;
    }
    if (hash_mode_) {
      cursor_ = CursorKind::kHash;
      Value key = EvalExpr(*cfg_.hash_key, reader_, ctx_->params);
      const auto& table =
          sharded_ ? shards_[ValueHash{}(key) % shards_.size()] : hash_table_;
      auto range = table.equal_range(key);
      hash_it_ = range.first;
      hash_end_ = range.second;
      ctx_->exec.index_probes += 1;
      return;
    }
    if (cfg_.range_index != nullptr) {
      cursor_ = CursorKind::kRids;
      rids_.clear();
      rid_pos_ = 0;
      Value lo_value;
      Value hi_value;
      if (cfg_.range_lo != nullptr) {
        lo_value = EvalExpr(*cfg_.range_lo, reader_, ctx_->params);
      }
      if (cfg_.range_hi != nullptr) {
        hi_value = EvalExpr(*cfg_.range_hi, reader_, ctx_->params);
      }
      cfg_.range_index->RangeLookup(
          cfg_.range_lo != nullptr ? &lo_value : nullptr, cfg_.range_lo_excl,
          cfg_.range_hi != nullptr ? &hi_value : nullptr, cfg_.range_hi_excl,
          &rids_);
      ctx_->exec.range_scans += 1;
      return;
    }
    if (rel.table != nullptr) {
      cursor_ = CursorKind::kScan;
      scan_rid_ = 0;
      ctx_->exec.full_scans += 1;
      return;
    }
    cursor_ = CursorKind::kRows;
    rows_pos_ = 0;
  }

  // The current cursor's next slot (a row id of the base table, or an
  // index into the materialized rows); false at cursor end.
  bool NextSlot(RowId* slot) {
    const PlanRelation& rel = rel_;
    switch (cursor_) {
      case CursorKind::kRuns:
        while (run_index_ < runs_.size()) {
          const Index::Run& run = runs_[run_index_];
          if (run_pos_ < run.size) {
            *slot = run.data[run_pos_++];
            return true;
          }
          ++run_index_;
          run_pos_ = 0;
        }
        return false;
      case CursorKind::kRids:
        if (rid_pos_ >= rids_.size()) return false;
        *slot = rids_[rid_pos_++];
        return true;
      case CursorKind::kHash:
        if (hash_it_ == hash_end_) return false;
        *slot = hash_it_->second;
        ++hash_it_;
        return true;
      case CursorKind::kScan:
        while (scan_rid_ < rel.table->slot_count() &&
               !rel.table->IsLive(scan_rid_)) {
          ++scan_rid_;
        }
        if (scan_rid_ >= rel.table->slot_count()) return false;
        *slot = scan_rid_++;
        return true;
      case CursorKind::kRows:
        if (rows_pos_ >= rel.rows.size()) return false;
        *slot = rows_pos_++;
        return true;
    }
    return false;
  }

  // Appends the current outer tuple extended by `slot`.
  void Emit(TupleBlock* out, RowId slot) {
    const RowId* outer = in_.tuple(outer_);
    out->slots.insert(out->slots.end(), outer, outer + stage_);
    out->slots.push_back(slot);
    if (!in_.mult.empty()) out->mult.push_back(in_.mult[outer_]);
    ++out->count;
  }

  // Emits the outer tuple extended by `slot` if the row passes the
  // stage's residual conjuncts, read in place from the emitted tuple.
  void EmitIfMatch(TupleBlock* out, RowId slot) {
    Emit(out, slot);
    if (!cfg_.residual.empty()) {
      // The emitted tuple extends the outer one, so the reader may move
      // to it: the outer tuple's keys were read when its cursor started.
      reader_.Bind(out->tuple(out->count - 1));
      for (const Expr* pred : cfg_.residual) {
        Value v = EvalExpr(*pred, reader_, ctx_->params);
        if (v.is_null() || !v.Truthy()) {
          out->slots.resize(out->slots.size() - out->width);
          if (!in_.mult.empty()) out->mult.pop_back();
          --out->count;
          return;
        }
      }
    }
    matched_ = true;
  }

  // A counted stage: the outer tuple, once, standing for as many joined
  // rows as its keys' posting runs hold; nothing when they hold none.
  void EmitCounted(TupleBlock* out) {
    const size_t width = cfg_.probe.terms.size();
    OuterKeys();
    uint64_t rows = 0;
    for (size_t k = 0; k < keys_.size(); k += width) {
      rows += cfg_.probe.index->Find(keys_.data() + k, width).size;
    }
    if (rows == 0) return;
    const RowId* outer = in_.tuple(outer_);
    out->slots.insert(out->slots.end(), outer, outer + stage_);
    out->slots.push_back(kNullSlot);
    out->mult.push_back(in_.multiplicity(outer_) * rows);
    ++out->count;
  }

  std::unique_ptr<TupleOp> child_;
  const StageConfig& cfg_;
  const size_t stage_;  // this stage's index == the width of its input
  const PlanRelation& rel_;
  TupleReader reader_;  // the current outer tuple, or one extending it

  // Build sides below this many slots build serially: the scatter/build
  // round-trips through the pool would dominate.
  static constexpr size_t kParallelBuildMinSlots = 256;
  static constexpr size_t kBuildMorselSlots = 4096;

  bool decided_ = false;
  bool hash_mode_ = false;
  std::unordered_multimap<Value, size_t, ValueHash> hash_table_;
  /// Sharded build (dop > 1): shard s holds every key with
  /// ValueHash(key) % shards_.size() == s. Empty when serial.
  std::vector<std::unordered_multimap<Value, size_t, ValueHash>> shards_;
  bool sharded_ = false;

  TupleBlock in_;      // outer tuples; in_pos_ is the next unconsumed one
  TupleBlock pulled_;  // the child's latest block
  size_t in_pos_ = 0;
  bool child_eof_ = false;
  bool closed_ = false;
  size_t pull_cap_ = kDefaultBlockRows;

  Phase phase_ = Phase::kNeedOuter;
  size_t outer_ = 0;  // the current outer tuple, in in_
  bool matched_ = false;

  CursorKind cursor_ = CursorKind::kRows;
  std::vector<Value> keys_;
  std::vector<Index::Run> runs_;
  size_t run_index_ = 0;
  size_t run_pos_ = 0;
  std::vector<RowId> rids_;
  size_t rid_pos_ = 0;
  std::unordered_multimap<Value, size_t, ValueHash>::const_iterator hash_it_;
  std::unordered_multimap<Value, size_t, ValueHash>::const_iterator hash_end_;
  RowId scan_rid_ = 0;
  size_t rows_pos_ = 0;
};

// Residual WHERE (needed with LEFT JOINs; idempotent otherwise), read in
// place from each tuple.
class FilterOp : public TupleOp {
 public:
  FilterOp(PlanContext* ctx, std::unique_ptr<TupleOp> child, const Expr* where)
      : TupleOp(ctx), child_(std::move(child)), where_(where), reader_(ctx) {
    ctx_->exec.scalar_ops += 1;
  }

  bool Next(TupleBlock* out) override {
    out->Reset(out->width);
    if (closed_) return false;
    in_.capacity = std::max<size_t>(out->capacity, 1);
    while (child_->Next(&in_)) {
      out->Reset(in_.width);
      for (size_t i = 0; i < in_.count; ++i) {
        reader_.Bind(in_.tuple(i));
        Value v = EvalExpr(*where_, reader_, ctx_->params);
        if (!v.is_null() && v.Truthy()) out->Append(in_, i);
      }
      if (out->count > 0) return true;
    }
    return false;
  }

  void Close() override {
    closed_ = true;
    child_->Close();
  }

 private:
  std::unique_ptr<TupleOp> child_;
  const Expr* where_;
  TupleReader reader_;
  TupleBlock in_;
  bool closed_ = false;
};

// Select-list shape shared by the projection operators.
struct Projection {
  std::vector<const Expr*> item_exprs;
  std::vector<std::vector<size_t>> star_expansion;  // per item (kStar only)
  size_t width = 0;  // output columns

  Row Apply(const ColumnReader& row, const std::vector<Value>* params) const {
    Row out;
    out.reserve(width);
    for (size_t i = 0; i < item_exprs.size(); ++i) {
      if (item_exprs[i]->kind == ExprKind::kStar) {
        for (size_t offset : star_expansion[i]) {
          out.push_back(row.Read(offset));
        }
      } else {
        out.push_back(EvalExpr(*item_exprs[i], row, params));
      }
    }
    return out;
  }
};

// Streaming projection (no ORDER BY).
class ProjectOp : public Op {
 public:
  ProjectOp(PlanContext* ctx, std::unique_ptr<TupleOp> child,
            const Projection& proj)
      : Op(ctx), child_(std::move(child)), proj_(proj), reader_(ctx) {
    ctx_->exec.scalar_ops += 1;
  }

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_) return false;
    in_.capacity = std::max<size_t>(out->capacity, 1);
    if (!child_->Next(&in_)) return false;
    out->rows.reserve(in_.count);
    for (size_t i = 0; i < in_.count; ++i) {
      reader_.Bind(in_.tuple(i));
      out->rows.push_back(proj_.Apply(reader_, ctx_->params));
    }
    return true;
  }

  void Close() override {
    closed_ = true;
    child_->Close();
  }

 private:
  std::unique_ptr<TupleOp> child_;
  const Projection& proj_;
  TupleReader reader_;
  TupleBlock in_;
  bool closed_ = false;
};

// Barrier: drains its input, projects with sort keys, stable-sorts, then
// emits blocks.
class SortProjectOp : public Op {
 public:
  SortProjectOp(PlanContext* ctx, std::unique_ptr<TupleOp> child,
                const Projection& proj,
                const std::vector<const Expr*>& order_exprs,
                const std::vector<bool>& descending)
      : Op(ctx),
        child_(std::move(child)),
        proj_(proj),
        order_exprs_(order_exprs),
        descending_(descending),
        reader_(ctx) {
    ctx_->exec.scalar_ops += 1;
  }

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_) return false;
    if (!drained_) Drain();
    while (pos_ < sorted_.size() && out->rows.size() < out->capacity) {
      out->rows.push_back(std::move(sorted_[pos_].out));
      ++pos_;
    }
    return !out->rows.empty();
  }

  void Close() override {
    closed_ = true;
    child_->Close();
    sorted_.clear();
    if (charged_bytes_ > 0) {
      if (governor::QueryContext* qc = governor::CurrentQueryContext()) {
        qc->ReleaseMemory(charged_bytes_);
      }
      charged_bytes_ = 0;
    }
  }

 private:
  struct Projected {
    Row out;
    Row sort_keys;
  };

  /// Approximate retained bytes of one buffered (projected + keyed) row.
  static constexpr uint64_t kApproxSortedRowBytes = 128;

  void Drain() {
    drained_ = true;
    governor::QueryContext* qc = governor::CurrentQueryContext();
    TupleBlock block;
    block.capacity = ctx_->block_rows;
    while (child_->Next(&block)) {
      if (qc != nullptr) {
        // The sort buffer is the one place the SQL layer materializes an
        // unbounded input; charge it against the query's memory budget
        // block by block so a runaway ORDER BY trips before the buffer
        // does the damage the budget exists to prevent.
        uint64_t bytes = block.count * kApproxSortedRowBytes;
        charged_bytes_ += bytes;
        Status st = qc->ChargeMemory(bytes);
        if (!st.ok()) {
          ctx_->error = std::move(st);
          return;
        }
      }
      for (size_t i = 0; i < block.count; ++i) {
        reader_.Bind(block.tuple(i));
        Projected p;
        p.out = proj_.Apply(reader_, ctx_->params);
        p.sort_keys.reserve(order_exprs_.size());
        for (const Expr* expr : order_exprs_) {
          p.sort_keys.push_back(EvalExpr(*expr, reader_, ctx_->params));
        }
        sorted_.push_back(std::move(p));
      }
    }
    auto less = [&](const Projected& a, const Projected& b) {
      for (size_t i = 0; i < order_exprs_.size(); ++i) {
        int c = a.sort_keys[i].Compare(b.sort_keys[i]);
        if (c != 0) return descending_[i] ? c > 0 : c < 0;
      }
      return false;
    };
    if (ctx_->dop > 1 && sorted_.size() >= kParallelSortMinRows) {
      ParallelStableSort(less);
    } else {
      std::stable_sort(sorted_.begin(), sorted_.end(), less);
    }
  }

  // Chunked parallel sort with a deterministic merge: split the buffer
  // into dop contiguous chunks, stable-sort each on a pool worker, then
  // stable-merge adjacent chunks left to right. A stable merge of
  // stable-sorted chunks of a contiguous split is elementwise identical
  // to one global stable_sort, so the parallel path cannot reorder ties.
  template <typename Less>
  void ParallelStableSort(const Less& less) {
    const size_t chunks = std::min<size_t>(ctx_->dop, sorted_.size());
    std::vector<size_t> bounds;  // chunk boundaries, ascending
    bounds.push_back(0);
    const size_t per = (sorted_.size() + chunks - 1) / chunks;
    for (size_t c = 1; c < chunks; ++c) {
      bounds.push_back(std::min(sorted_.size(), c * per));
    }
    bounds.push_back(sorted_.size());
    governor::QueryContext* qc = governor::CurrentQueryContext();
    ThreadPool::Shared().RunBatch(chunks, [&](size_t c) {
      governor::ScopedQueryContext governed(qc);
      std::stable_sort(sorted_.begin() + bounds[c],
                       sorted_.begin() + bounds[c + 1], less);
    });
    for (size_t c = 1; c < chunks; ++c) {
      std::inplace_merge(sorted_.begin(), sorted_.begin() + bounds[c],
                         sorted_.begin() + bounds[c + 1], less);
    }
    ctx_->exec.dop = std::max<uint64_t>(ctx_->exec.dop, chunks);
    ctx_->exec.morsels += chunks;
  }

  static constexpr size_t kParallelSortMinRows = 1024;

  std::unique_ptr<TupleOp> child_;
  const Projection& proj_;
  const std::vector<const Expr*>& order_exprs_;
  const std::vector<bool>& descending_;
  TupleReader reader_;
  std::vector<Projected> sorted_;
  uint64_t charged_bytes_ = 0;
  bool drained_ = false;
  size_t pos_ = 0;
  bool closed_ = false;
};

// Barrier: accumulates aggregate state block by block, then emits the
// grouped (or global) output. HAVING, the SELECT-*-with-aggregation check,
// and ORDER-BY-over-aggregates resolution run at finish time, with the
// same data-dependent semantics the materialized executor had. A tuple's
// multiplicity (a counted stage below) adds to COUNT(*) in one step;
// counted stages only exist when every aggregate is COUNT(*).
class AggregateOp : public Op {
 public:
  struct Config {
    bool simple = false;
    // Simple path ("SELECT AGG(..), AGG(..)" with no grouping):
    std::vector<std::string> ops;
    std::vector<const Expr*> args;  // nullptr = COUNT(*)
    // General grouped path:
    std::vector<const Expr*> group_exprs;
    bool has_group_by = false;
    const Expr* having = nullptr;
    std::vector<AggSpec> agg_specs;
    const std::vector<OrderItem>* order_by = nullptr;  // may be empty
    const std::vector<std::string>* columns = nullptr;  // output names
  };

  AggregateOp(PlanContext* ctx, std::unique_ptr<TupleOp> child,
              const Projection& proj, const Config& cfg)
      : Op(ctx),
        child_(std::move(child)),
        proj_(proj),
        cfg_(cfg),
        reader_(ctx) {
    ctx_->exec.scalar_ops += 1;
  }

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_) return false;
    if (!finished_) {
      Status st = DrainAndFinish();
      if (!st.ok()) {
        ctx_->error = st;
        Close();
        return false;
      }
    }
    while (pos_ < output_.size() && out->rows.size() < out->capacity) {
      out->rows.push_back(std::move(output_[pos_]));
      ++pos_;
    }
    return !out->rows.empty();
  }

  void Close() override {
    closed_ = true;
    child_->Close();
    groups_.clear();
    output_.clear();
  }

 private:
  struct Group {
    std::vector<RowId> sample;  // the group's first tuple
    std::vector<AggState> states;
  };

  Status DrainAndFinish() {
    finished_ = true;
    TupleBlock block;
    block.capacity = ctx_->block_rows;
    if (cfg_.simple) {
      std::vector<AggState> states(cfg_.args.size());
      while (child_->Next(&block)) {
        for (size_t t = 0; t < block.count; ++t) {
          reader_.Bind(block.tuple(t));
          for (size_t i = 0; i < states.size(); ++i) {
            if (cfg_.args[i] == nullptr) {
              states[i].count += static_cast<int64_t>(block.multiplicity(t));
            } else {
              states[i].Accumulate(
                  EvalExpr(*cfg_.args[i], reader_, ctx_->params));
            }
          }
        }
      }
      Row out;
      out.reserve(states.size());
      for (size_t i = 0; i < states.size(); ++i) {
        out.push_back(states[i].Finish(cfg_.ops[i]));
      }
      output_.push_back(std::move(out));
      return Status::OK();
    }

    Row key;
    while (child_->Next(&block)) {
      for (size_t t = 0; t < block.count; ++t) {
        const RowId* tuple = block.tuple(t);
        reader_.Bind(tuple);
        key.clear();
        for (const Expr* g : cfg_.group_exprs) {
          key.push_back(EvalExpr(*g, reader_, ctx_->params));
        }
        auto it = groups_.find(key);
        if (it == groups_.end()) {
          it = groups_.emplace(key, Group()).first;
          it->second.states.resize(cfg_.agg_specs.size());
          it->second.sample.assign(tuple, tuple + block.width);
        }
        Group& group = it->second;
        for (size_t a = 0; a < cfg_.agg_specs.size(); ++a) {
          if (cfg_.agg_specs[a].arg == nullptr) {
            group.states[a].count +=
                static_cast<int64_t>(block.multiplicity(t));  // COUNT(*)
          } else {
            group.states[a].Accumulate(
                EvalExpr(*cfg_.agg_specs[a].arg, reader_, ctx_->params));
          }
        }
      }
    }
    // A global aggregate over zero rows still yields one output row; its
    // columns read as NULL.
    if (groups_.empty() && !cfg_.has_group_by) {
      Group& group = groups_[Row()];
      group.states.resize(cfg_.agg_specs.size());
      group.sample.assign(ctx_->relations.size(), kNullSlot);
    }
    for (auto& [group_key, group] : groups_) {
      (void)group_key;
      std::unordered_map<const Expr*, Value> agg_values;
      for (size_t a = 0; a < cfg_.agg_specs.size(); ++a) {
        agg_values[cfg_.agg_specs[a].node] =
            group.states[a].Finish(cfg_.agg_specs[a].op);
      }
      reader_.Bind(group.sample.data());
      if (cfg_.having != nullptr) {
        Value keep = EvalWithAggregates(*cfg_.having, reader_, ctx_->params,
                                        agg_values);
        if (keep.is_null() || !keep.Truthy()) continue;
      }
      Row out;
      for (const Expr* expr : proj_.item_exprs) {
        if (expr->kind == ExprKind::kStar) {
          return Status::Unsupported("SELECT * with aggregation");
        }
        out.push_back(
            EvalWithAggregates(*expr, reader_, ctx_->params, agg_values));
      }
      output_.push_back(std::move(out));
    }
    // ORDER BY over aggregated output: match items by name or position.
    if (cfg_.order_by != nullptr && !cfg_.order_by->empty()) {
      std::vector<std::pair<int, bool>> keys;
      for (const OrderItem& item : *cfg_.order_by) {
        int idx = -1;
        if (item.expr->kind == ExprKind::kColumnRef) {
          idx = ColumnIndexOf(item.expr->column);
        } else if (item.expr->kind == ExprKind::kLiteral &&
                   item.expr->literal.is_int()) {
          idx = static_cast<int>(item.expr->literal.as_int()) - 1;
        }
        if (idx < 0 || idx >= static_cast<int>(cfg_.columns->size())) {
          return Status::Unsupported(
              "ORDER BY with aggregation must name an output column");
        }
        keys.emplace_back(idx, item.descending);
      }
      std::stable_sort(output_.begin(), output_.end(),
                       [&](const Row& a, const Row& b) {
                         for (auto [idx, desc] : keys) {
                           int c = a[idx].Compare(b[idx]);
                           if (c != 0) return desc ? c > 0 : c < 0;
                         }
                         return false;
                       });
    }
    return Status::OK();
  }

  int ColumnIndexOf(const std::string& name) const {
    for (size_t i = 0; i < cfg_.columns->size(); ++i) {
      if (EqualsIgnoreCase((*cfg_.columns)[i], name)) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  std::unique_ptr<TupleOp> child_;
  const Projection& proj_;
  const Config& cfg_;
  TupleReader reader_;
  std::map<Row, Group> groups_;  // ordered for deterministic output
  std::vector<Row> output_;
  bool finished_ = false;
  size_t pos_ = 0;
  bool closed_ = false;
};

// Streaming DISTINCT: keeps first occurrences.
class DistinctOp : public Op {
 public:
  DistinctOp(PlanContext* ctx, std::unique_ptr<Op> child)
      : Op(ctx), child_(std::move(child)) {}

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_) return false;
    in_.capacity = std::max<size_t>(out->capacity, 1);
    while (child_->Next(&in_)) {
      for (Row& row : in_.rows) {
        if (seen_.insert(row).second) out->rows.push_back(std::move(row));
      }
      if (!out->rows.empty()) return true;
    }
    return false;
  }

  void Close() override {
    closed_ = true;
    child_->Close();
    seen_.clear();
  }

 private:
  std::unique_ptr<Op> child_;
  std::unordered_set<Row, RowHash> seen_;
  RowBlock in_;
  bool closed_ = false;
};

// Caps total output; shrinks the requested capacity so upstream scans
// stop at the budget, and closes the child as soon as it is met — the
// early-termination signal the whole pipeline is built around.
class LimitOp : public Op {
 public:
  LimitOp(PlanContext* ctx, std::unique_ptr<Op> child, uint64_t limit)
      : Op(ctx), child_(std::move(child)), remaining_(limit) {}

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_ || remaining_ == 0) {
      CloseChild();
      return false;
    }
    size_t saved = out->capacity;
    out->capacity = static_cast<size_t>(
        std::min<uint64_t>(std::max<size_t>(saved, 1), remaining_));
    bool ok = child_->Next(out);
    out->capacity = saved;
    if (!ok) return false;
    if (out->rows.size() > remaining_) out->rows.resize(remaining_);
    remaining_ -= out->rows.size();
    if (remaining_ == 0) CloseChild();
    return !out->rows.empty();
  }

  void Close() override {
    closed_ = true;
    CloseChild();
  }

 private:
  void CloseChild() {
    if (child_closed_) return;
    child_closed_ = true;
    child_->Close();
  }

  std::unique_ptr<Op> child_;
  uint64_t remaining_;
  bool closed_ = false;
  bool child_closed_ = false;
};

// ---------------------------------------------------------------------
// Vectorized (column-at-a-time) operators
// ---------------------------------------------------------------------
//
// These run below the row tree for single-table full scans when the
// resolved ExecConfig is vectorized:
//
//   ColumnScan -> (ColumnProject | ColumnToTuple -> <row operators>)
//   ColumnAggregate
//
// Both leaves scan and filter in one operator, morsel by morsel, at the
// resolved dop (dop 1 is the serial case). Blocks are selection vectors
// over the base table's column vectors; no row is materialized until the
// top of the column section. Filter conjuncts compile to fused
// compare+select kernels when they have the shape `col <op> const` (or
// IS [NOT] NULL); anything else falls back to per-row materialization +
// EvalExpr, counted in scalar_fallback_rows so profile() shows how much
// of the block actually ran scalar.

// Pull interface for the column section (ColumnBlock analogue of Op).
class ColOp {
 public:
  using Interface = ColOp;
  using Block = ColumnBlock;
  explicit ColOp(PlanContext* ctx) : ctx_(ctx) {}
  virtual ~ColOp() = default;
  virtual bool Next(ColumnBlock* out) = 0;
  virtual void Close() = 0;

 protected:
  PlanContext* ctx_;
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

// One compiled WHERE conjunct. kCompare/kIsNull run as typed kernels over
// the column vectors; kFallback materializes each still-selected row and
// calls the scalar evaluator.
struct FilterKernel {
  enum class Kind { kCompare, kIsNull, kFallback };
  Kind kind = Kind::kFallback;
  size_t col = 0;                    // kCompare / kIsNull
  CmpOp cmp = CmpOp::kEq;            // kCompare
  const Expr* const_expr = nullptr;  // kCompare: constant operand
  bool negated = false;              // kIsNull: IS NOT NULL
  const Expr* expr = nullptr;        // kFallback: whole conjunct
};

inline bool CmpMatches(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

// Constant operand a compare kernel may evaluate once per execution:
// literals and '?' parameters.
inline bool IsConstExpr(const Expr& e) {
  return e.kind == ExprKind::kLiteral || e.kind == ExprKind::kParam;
}

inline bool IsBoundColumn(const Expr* e) {
  return e != nullptr && e->kind == ExprKind::kColumnRef &&
         e->bound_index >= 0;
}

inline CmpOp MirrorCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // = and <> are symmetric
  }
}

// Compiles one conjunct into a kernel; unsupported shapes become the
// scalar fallback.
inline FilterKernel CompileFilterKernel(const Expr* conjunct) {
  FilterKernel k;
  k.expr = conjunct;
  if (conjunct->kind == ExprKind::kIsNull &&
      IsBoundColumn(conjunct->children[0].get())) {
    k.kind = FilterKernel::Kind::kIsNull;
    k.col = static_cast<size_t>(conjunct->children[0]->bound_index);
    k.negated = conjunct->negated;
    return k;
  }
  if (conjunct->kind == ExprKind::kBinary) {
    CmpOp cmp;
    const std::string& op = conjunct->op;
    if (op == "=") {
      cmp = CmpOp::kEq;
    } else if (op == "<>" || op == "!=") {
      cmp = CmpOp::kNe;
    } else if (op == "<") {
      cmp = CmpOp::kLt;
    } else if (op == "<=") {
      cmp = CmpOp::kLe;
    } else if (op == ">") {
      cmp = CmpOp::kGt;
    } else if (op == ">=") {
      cmp = CmpOp::kGe;
    } else {
      return k;
    }
    const Expr* lhs = conjunct->children[0].get();
    const Expr* rhs = conjunct->children[1].get();
    if (IsBoundColumn(lhs) && IsConstExpr(*rhs)) {
      k.kind = FilterKernel::Kind::kCompare;
      k.col = static_cast<size_t>(lhs->bound_index);
      k.cmp = cmp;
      k.const_expr = rhs;
    } else if (IsBoundColumn(rhs) && IsConstExpr(*lhs)) {
      k.kind = FilterKernel::Kind::kCompare;
      k.col = static_cast<size_t>(rhs->bound_index);
      k.cmp = MirrorCmp(cmp);  // keep the column on the left
      k.const_expr = lhs;
    }
  }
  return k;
}

// Compiles WHERE conjuncts into kernels, kernelized conjuncts before
// scalar fallbacks (AND conjuncts are side-effect free, so reordering
// preserves the result set). Part of the immutable section.
std::vector<FilterKernel> CompileKernels(
    const std::vector<const Expr*>& conjuncts) {
  std::vector<FilterKernel> kernels;
  std::vector<FilterKernel> fallbacks;
  for (const Expr* conjunct : conjuncts) {
    FilterKernel k = CompileFilterKernel(conjunct);
    if (k.kind == FilterKernel::Kind::kFallback) {
      fallbacks.push_back(k);
    } else {
      kernels.push_back(k);
    }
  }
  kernels.insert(kernels.end(), fallbacks.begin(), fallbacks.end());
  return kernels;
}

// One execution's compiled WHERE conjuncts, shared by the morsel workers
// of the column scan and the column aggregate. The constructor evaluates
// compare constants once on the coordinating thread, after which the set
// is read-only and Apply() is safe to call from concurrent workers — each
// brings its own scratch row for the fallback path.
class KernelSet {
 public:
  KernelSet(const std::vector<FilterKernel>& kernels,
            const std::vector<Value>* params)
      : kernels_(kernels), constants_(kernels.size()) {
    Row empty;
    for (size_t i = 0; i < kernels_.size(); ++i) {
      if (kernels_[i].kind == FilterKernel::Kind::kCompare) {
        constants_[i] = EvalExpr(*kernels_[i].const_expr, empty, params);
      }
    }
  }

  /// Narrows `sel` in place through every kernel; returns how many rows
  /// the scalar fallback had to materialize (scalar_fallback_rows).
  uint64_t Apply(const Table* table, std::vector<uint64_t>* sel,
                 const std::vector<Value>* params, Row* scratch) const {
    uint64_t fallback_rows = 0;
    for (size_t i = 0; i < kernels_.size(); ++i) {
      const FilterKernel& k = kernels_[i];
      if (sel->empty()) break;
      switch (k.kind) {
        case FilterKernel::Kind::kCompare:
          ApplyCompare(k, constants_[i], table, sel);
          break;
        case FilterKernel::Kind::kIsNull:
          ApplyIsNull(k, table, sel);
          break;
        case FilterKernel::Kind::kFallback:
          fallback_rows += sel->size();
          ApplyFallback(k, table, sel, params, scratch);
          break;
      }
    }
    return fallback_rows;
  }

 private:
  static void ApplyIsNull(const FilterKernel& k, const Table* table,
                          std::vector<uint64_t>* sel_in) {
    const Column& col = table->column(k.col);
    auto& sel = *sel_in;
    size_t w = 0;
    for (uint64_t rid : sel) {
      if (col.IsNull(rid) != k.negated) sel[w++] = rid;
    }
    sel.resize(w);
  }

  // Fused compare + select. NULL cells never match (the scalar evaluator
  // returns NULL for comparisons with a NULL operand, and filters treat
  // NULL as false); a NULL constant rejects the whole block.
  static void ApplyCompare(const FilterKernel& k, const Value& constant,
                           const Table* table, std::vector<uint64_t>* sel_in) {
    auto& sel = *sel_in;
    if (constant.is_null()) {
      sel.clear();
      return;
    }
    const Column& col = table->column(k.col);
    size_t w = 0;
    switch (col.value_type()) {
      case ValueType::kInt:
        if (constant.is_int()) {
          const int64_t* data = col.ints();
          int64_t rhs = constant.as_int();
          for (uint64_t rid : sel) {
            if (col.IsNull(rid)) continue;
            int64_t x = data[rid];
            int c = x < rhs ? -1 : (x > rhs ? 1 : 0);
            if (CmpMatches(k.cmp, c)) sel[w++] = rid;
          }
          sel.resize(w);
          return;
        }
        if (constant.is_double()) {
          const int64_t* data = col.ints();
          double rhs = constant.as_double();
          for (uint64_t rid : sel) {
            if (col.IsNull(rid)) continue;
            double x = static_cast<double>(data[rid]);
            int c = x < rhs ? -1 : (x > rhs ? 1 : 0);
            if (CmpMatches(k.cmp, c)) sel[w++] = rid;
          }
          sel.resize(w);
          return;
        }
        break;
      case ValueType::kDouble:
        if (constant.is_numeric()) {
          const double* data = col.doubles();
          double rhs = constant.NumericValue();
          for (uint64_t rid : sel) {
            if (col.IsNull(rid)) continue;
            double x = data[rid];
            int c = x < rhs ? -1 : (x > rhs ? 1 : 0);
            if (CmpMatches(k.cmp, c)) sel[w++] = rid;
          }
          sel.resize(w);
          return;
        }
        break;
      case ValueType::kString:
        if (constant.is_string()) {
          const std::string* data = col.strings();
          const std::string& rhs = constant.as_string();
          for (uint64_t rid : sel) {
            if (col.IsNull(rid)) continue;
            int c = data[rid].compare(rhs);
            if (CmpMatches(k.cmp, c)) sel[w++] = rid;
          }
          sel.resize(w);
          return;
        }
        break;
      case ValueType::kBool:
        if (constant.is_bool()) {
          const uint8_t* data = col.bools();
          int rhs = constant.as_bool() ? 1 : 0;
          for (uint64_t rid : sel) {
            if (col.IsNull(rid)) continue;
            int c = static_cast<int>(data[rid]) - rhs;
            if (CmpMatches(k.cmp, c)) sel[w++] = rid;
          }
          sel.resize(w);
          return;
        }
        break;
      default:
        break;
    }
    // Cross-type-class comparison (e.g. int column vs string constant):
    // still in-kernel, per-cell Value::Compare, no row materialization.
    for (uint64_t rid : sel) {
      if (col.IsNull(rid)) continue;
      if (CmpMatches(k.cmp, col.Get(rid).Compare(constant))) sel[w++] = rid;
    }
    sel.resize(w);
  }

  static void ApplyFallback(const FilterKernel& k, const Table* table,
                            std::vector<uint64_t>* sel_in,
                            const std::vector<Value>* params, Row* scratch) {
    auto& sel = *sel_in;
    size_t w = 0;
    for (uint64_t rid : sel) {
      table->MaterializeRow(rid, scratch);
      Value v = EvalExpr(*k.expr, *scratch, params);
      if (!v.is_null() && v.Truthy()) sel[w++] = rid;
    }
    sel.resize(w);
  }

  const std::vector<FilterKernel>& kernels_;
  std::vector<Value> constants_;  // per kernel; set for kCompare only
};

// Morsel sizing for dop > 1: aim for ~4 morsels per worker (work
// stealing evens out skew from dead-slot gaps and selective filters)
// within fixed bounds.
constexpr uint64_t kMinMorselSlots = 256;
constexpr uint64_t kMaxMorselSlots = 8192;

uint64_t MorselSlots(uint64_t slots, int dop) {
  uint64_t morsel = slots / (static_cast<uint64_t>(dop) * 4);
  return std::clamp(morsel, kMinMorselSlots, kMaxMorselSlots);
}

// The column scan, with the WHERE conjuncts fused in. Each round cuts
// the next slot range into up to dop morsels and runs them on the shared
// pool (RunBatch(1, ...) runs inline, so dop 1 is the serial scan); every
// morsel enumerates the live slots of its range and narrows them through
// the shared read-only KernelSet. Outputs concatenate in morsel order, so
// every dop emits the same ascending-slot selection. At dop 1 a round is
// one morsel of the consumer's block capacity, and Next() returns as soon
// as a round produced rows, so a LIMIT above stops the scan within one
// block. Each worker installs the query's governor context and checks it
// per morsel, so deadlines, cancellation, and budgets observe mid-scan;
// the first failing morsel (in morsel order) becomes the plan error.
class ColumnScanOp : public ColOp {
 public:
  ColumnScanOp(PlanContext* ctx, const Table* table,
               const std::vector<FilterKernel>& kernels, int dop,
               OpProfile* profile)
      : ColOp(ctx),
        table_(table),
        dop_(dop < 1 ? 1 : dop),
        profile_(profile),
        kernels_(kernels, ctx->params) {
    ctx_->exec.vectorized_ops += 1;
  }

  bool Next(ColumnBlock* out) override {
    out->Clear();
    out->table = table_;
    if (closed_) return false;
    if (!GovernorOk(ctx_)) return false;
    DB2G_FAILPOINT_STATUS("sql.executor.block", ctx_->error);
    if (!ctx_->error.ok()) return false;
    if (!started_) Start();
    size_t cap = std::max<size_t>(out->capacity, 1);
    while (out->sel.size() < cap) {
      if (pos_ >= ready_.size()) {
        if (!out->sel.empty() || next_slot_ >= slot_count_) break;
        RunRound(cap);
        if (!ctx_->error.ok()) return false;
        continue;
      }
      if (pos_ == 0 && out->sel.empty() && ready_.size() <= cap) {
        out->sel.swap(ready_);  // the whole round fits: no copy
        continue;
      }
      size_t take = std::min(cap - out->sel.size(), ready_.size() - pos_);
      out->sel.insert(out->sel.end(), ready_.begin() + pos_,
                      ready_.begin() + pos_ + take);
      pos_ += take;
    }
    return !out->sel.empty();
  }

  void Close() override {
    closed_ = true;
    ready_.clear();
  }

 private:
  struct MorselOut {
    std::vector<uint64_t> sel;
    Row scratch;  // scalar-fallback row
    uint64_t live = 0;
    uint64_t fallback = 0;
    Status status = Status::OK();
  };

  void Start() {
    started_ = true;
    slot_count_ = table_->slot_count();
    ctx_->exec.full_scans += 1;
    if (dop_ == 1) return;  // serial: reports dop 1 / morsels 0
    morsel_slots_ = MorselSlots(slot_count_, dop_);
    uint64_t morsels = (slot_count_ + morsel_slots_ - 1) / morsel_slots_;
    ctx_->exec.dop = std::max<uint64_t>(ctx_->exec.dop,
                                        static_cast<uint64_t>(dop_));
    ctx_->exec.morsels += morsels;
    if (profile_ != nullptr) {
      profile_->detail += " morsels=" + std::to_string(morsels);
    }
  }

  // One round: up to dop_ morsels from next_slot_ on, outputs merged in
  // morsel order into ready_. `cap` sizes the dop-1 morsel.
  void RunRound(size_t cap) {
    const uint64_t base = next_slot_;
    // Capped at the slots left, so a block capacity near SIZE_MAX (one
    // block for the whole query) cannot overflow the round arithmetic.
    const uint64_t width =
        dop_ == 1 ? std::min<uint64_t>(cap, slot_count_ - base)
                  : morsel_slots_;
    const size_t n = static_cast<size_t>(std::min<uint64_t>(
        dop_, (slot_count_ - base + width - 1) / width));
    next_slot_ = std::min<uint64_t>(slot_count_, base + n * width);
    if (outs_.size() < n) outs_.resize(n);
    governor::QueryContext* qc = governor::CurrentQueryContext();
    ThreadPool::Shared().RunBatch(n, [&](size_t i) {
      governor::ScopedQueryContext governed(qc);
      MorselOut& mo = outs_[i];
      mo.sel.clear();
      mo.live = mo.fallback = 0;
      mo.status = governor::CheckCurrent();
      if (!mo.status.ok()) return;
      uint64_t lo = base + i * width;
      uint64_t hi = std::min<uint64_t>(slot_count_, lo + width);
      for (uint64_t rid = lo; rid < hi; ++rid) {
        if (table_->IsLive(rid)) mo.sel.push_back(rid);
      }
      mo.live = mo.sel.size();
      mo.fallback =
          kernels_.Apply(table_, &mo.sel, ctx_->params, &mo.scratch);
    });
    ready_.clear();
    pos_ = 0;
    for (size_t i = 0; i < n; ++i) {
      MorselOut& mo = outs_[i];
      if (!mo.status.ok()) {
        if (ctx_->error.ok()) ctx_->error = std::move(mo.status);
        return;
      }
      ctx_->exec.rows_scanned += mo.live;
      ctx_->exec.vectorized_rows += mo.live;
      ctx_->exec.scalar_fallback_rows += mo.fallback;
      if (ready_.empty()) {
        ready_.swap(mo.sel);  // buffers circulate between rounds
      } else {
        ready_.insert(ready_.end(), mo.sel.begin(), mo.sel.end());
      }
    }
  }

  const Table* table_;
  int dop_;
  OpProfile* profile_;
  KernelSet kernels_;
  std::vector<MorselOut> outs_;
  std::vector<uint64_t> ready_;
  size_t pos_ = 0;
  uint64_t slot_count_ = 0;
  uint64_t morsel_slots_ = kMaxMorselSlots;
  uint64_t next_slot_ = 0;
  bool started_ = false;
  bool closed_ = false;
};

// Column pruning at the top of the column section: materializes only the
// projected columns, straight from the column vectors (late
// materialization — rows filtered out upstream never touch these
// columns). Eligible when every select item is a bound column reference
// or a star.
class ColumnProjectOp : public Op {
 public:
  ColumnProjectOp(PlanContext* ctx, std::unique_ptr<ColOp> child,
                  const std::vector<size_t>& out_cols)
      : Op(ctx), child_(std::move(child)), out_cols_(out_cols) {
    ctx_->exec.vectorized_ops += 1;
  }

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_) return false;
    in_.capacity = std::max<size_t>(out->capacity, 1);
    if (!child_->Next(&in_)) return false;
    out->rows.reserve(std::min(out->capacity, in_.sel.size()));
    for (uint64_t rid : in_.sel) {
      Row& row = out->rows.emplace_back();
      row.reserve(out_cols_.size());
      for (size_t c : out_cols_) {
        row.push_back(in_.table->column(c).Get(rid));
      }
    }
    return true;
  }

  void Close() override {
    closed_ = true;
    child_->Close();
  }

 private:
  std::unique_ptr<ColOp> child_;
  const std::vector<size_t>& out_cols_;
  ColumnBlock in_;
  bool closed_ = false;
};

// Adapter at the boundary between the column section and the tuple
// chain: each selected slot becomes a one-stage tuple, so the scalar
// operators above (sort, distinct, scalar aggregation) read its columns
// in place like any join's.
class ColumnToTupleOp : public TupleOp {
 public:
  ColumnToTupleOp(PlanContext* ctx, std::unique_ptr<ColOp> child)
      : TupleOp(ctx), child_(std::move(child)) {
    ctx_->exec.vectorized_ops += 1;
  }

  bool Next(TupleBlock* out) override {
    out->Reset(1);
    if (closed_) return false;
    in_.capacity = std::max<size_t>(out->capacity, 1);
    if (!child_->Next(&in_)) return false;
    out->slots.swap(in_.sel);  // buffers circulate: RowId is the slot type
    out->count = out->slots.size();
    return true;
  }

  void Close() override {
    closed_ = true;
    child_->Close();
  }

 private:
  std::unique_ptr<ColOp> child_;
  ColumnBlock in_;
  bool closed_ = false;
};

// Lowered shape of a vectorized aggregate. Two shapes, mirroring
// AggregateOp: the "simple" global-aggregate list (SELECT AGG(col), ...),
// accumulated with typed per-column loops, and GROUP BY over plain
// columns with aggregate-or-group-key select items. Anything else stays
// on the scalar AggregateOp behind the ColumnToTuple adapter.
struct ColumnAggConfig {
  bool simple = false;
  std::vector<std::string> ops;  // per aggregate, upper-cased
  std::vector<int> arg_cols;     // per aggregate; -1 = COUNT(*)
  // Grouped shape:
  std::vector<size_t> group_cols;
  struct Item {
    bool is_group = false;  // true: group key, false: aggregate
    size_t index = 0;       // into group_cols / ops+arg_cols
  };
  std::vector<Item> items;  // grouped shape only
};

// Typed accumulation of one aggregate over one selection. Mirrors
// AggState::Accumulate exactly (including elementwise double-sum
// rounding, so AVG over one partial matches the row path bit for bit);
// min/max are only tracked when the op needs them.
void AccumulateColumn(const Table* table, const std::vector<uint64_t>& sel,
                      int arg_col, const std::string& op, AggState* st) {
  if (arg_col < 0) {
    st->count += static_cast<int64_t>(sel.size());  // COUNT(*)
    return;
  }
  const Column& col = table->column(arg_col);
  bool want_minmax = op == "MIN" || op == "MAX";
  switch (col.value_type()) {
    case ValueType::kInt: {
      const int64_t* data = col.ints();
      for (uint64_t rid : sel) {
        if (col.IsNull(rid)) continue;
        int64_t x = data[rid];
        ++st->count;
        st->isum += x;
        st->sum += static_cast<double>(x);
        if (want_minmax) {
          if (st->min.is_null() || x < st->min.as_int()) st->min = Value(x);
          if (st->max.is_null() || x > st->max.as_int()) st->max = Value(x);
        }
      }
      return;
    }
    case ValueType::kDouble: {
      const double* data = col.doubles();
      for (uint64_t rid : sel) {
        if (col.IsNull(rid)) continue;
        double x = data[rid];
        ++st->count;
        st->sum += x;
        st->sum_is_int = false;
        if (want_minmax) {
          if (st->min.is_null() || x < st->min.as_double()) {
            st->min = Value(x);
          }
          if (st->max.is_null() || x > st->max.as_double()) {
            st->max = Value(x);
          }
        }
      }
      return;
    }
    default:
      for (uint64_t rid : sel) {
        if (!col.IsNull(rid)) st->Accumulate(col.Get(rid));
      }
      return;
  }
}

// Grouped accumulation of one selection into a (group key -> states) map.
void AccumulateGrouped(const Table* table, const std::vector<uint64_t>& sel,
                       const ColumnAggConfig& cfg,
                       std::map<Row, std::vector<AggState>>* groups) {
  for (uint64_t rid : sel) {
    Row key;
    key.reserve(cfg.group_cols.size());
    for (size_t c : cfg.group_cols) {
      key.push_back(table->column(c).Get(rid));
    }
    std::vector<AggState>& states = (*groups)[key];
    if (states.empty()) states.resize(cfg.ops.size());
    for (size_t a = 0; a < states.size(); ++a) {
      int ci = cfg.arg_cols[a];
      if (ci < 0) {
        ++states[a].count;  // COUNT(*)
      } else {
        states[a].Accumulate(table->column(ci).Get(rid));
      }
    }
  }
}

// Renders one group's output row per the select-item layout.
Row FinishGroup(const ColumnAggConfig& cfg, const Row& key,
                const std::vector<AggState>& states) {
  Row out;
  out.reserve(cfg.items.size());
  for (const ColumnAggConfig::Item& item : cfg.items) {
    if (item.is_group) {
      out.push_back(key[item.index]);
    } else {
      out.push_back(states[item.index].Finish(cfg.ops[item.index]));
    }
  }
  return out;
}

// The column aggregate, with the scan and the WHERE conjuncts fused in:
// the barrier owns the whole input, so it skips the block protocol
// entirely. Each of up to dop tasks scans a contiguous range of morsels,
// narrows them through the shared KernelSet, and accumulates into a
// private partial state (vector<AggState> for the simple shape, an
// ordered group map for GROUP BY); dop 1 is one inline task over every
// morsel. The barrier merges partials in task order: COUNT/MIN/MAX and
// integer sums merge exactly; double sums reassociate deterministically
// for a fixed dop, and at dop 1 the single partial is the row path's
// sum. Grouped output stays key-sorted (std::map) at every dop.
class ColumnAggregateOp : public Op {
 public:
  ColumnAggregateOp(PlanContext* ctx, const Table* table,
                    const std::vector<FilterKernel>& kernels,
                    const ColumnAggConfig& cfg, int dop, OpProfile* profile)
      : Op(ctx),
        table_(table),
        cfg_(cfg),
        dop_(dop < 1 ? 1 : dop),
        profile_(profile),
        kernels_(kernels, ctx->params) {
    ctx_->exec.vectorized_ops += 1;
  }

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_) return false;
    if (!GovernorOk(ctx_)) return false;
    DB2G_FAILPOINT_STATUS("sql.executor.block", ctx_->error);
    if (!ctx_->error.ok()) return false;
    if (!finished_) {
      DrainAndFinish();
      if (!ctx_->error.ok()) return false;
    }
    while (pos_ < output_.size() && out->rows.size() < out->capacity) {
      out->rows.push_back(std::move(output_[pos_]));
      ++pos_;
    }
    return !out->rows.empty();
  }

  void Close() override {
    closed_ = true;
    output_.clear();
  }

 private:
  struct Partial {
    std::vector<AggState> states;            // simple shape
    std::map<Row, std::vector<AggState>> groups;  // grouped shape
    uint64_t live = 0;
    uint64_t fallback = 0;
    Status status = Status::OK();
  };

  void DrainAndFinish() {
    finished_ = true;
    const uint64_t slots = table_->slot_count();
    const uint64_t morsel_slots = MorselSlots(slots, dop_);
    const uint64_t morsel_count = (slots + morsel_slots - 1) / morsel_slots;
    // At least one task, so an empty table still yields the simple
    // shape's one row.
    const size_t task_count = static_cast<size_t>(
        std::max<uint64_t>(1, std::min<uint64_t>(dop_, morsel_count)));
    const uint64_t per_task = (morsel_count + task_count - 1) / task_count;
    std::vector<Partial> partials(task_count);
    governor::QueryContext* qc = governor::CurrentQueryContext();
    ThreadPool::Shared().RunBatch(task_count, [&](size_t t) {
      governor::ScopedQueryContext governed(qc);
      Partial& p = partials[t];
      if (cfg_.simple) p.states.resize(cfg_.ops.size());
      Row scratch;
      std::vector<uint64_t> sel;
      uint64_t m_lo = t * per_task;
      uint64_t m_hi = std::min<uint64_t>(morsel_count, m_lo + per_task);
      for (uint64_t m = m_lo; m < m_hi; ++m) {
        p.status = governor::CheckCurrent();
        if (!p.status.ok()) return;
        uint64_t lo = m * morsel_slots;
        uint64_t hi = std::min<uint64_t>(slots, lo + morsel_slots);
        sel.clear();
        for (uint64_t rid = lo; rid < hi; ++rid) {
          if (table_->IsLive(rid)) sel.push_back(rid);
        }
        p.live += sel.size();
        p.fallback += kernels_.Apply(table_, &sel, ctx_->params, &scratch);
        if (cfg_.simple) {
          for (size_t a = 0; a < p.states.size(); ++a) {
            AccumulateColumn(table_, sel, cfg_.arg_cols[a], cfg_.ops[a],
                             &p.states[a]);
          }
        } else {
          AccumulateGrouped(table_, sel, cfg_, &p.groups);
        }
      }
    });
    ctx_->exec.full_scans += 1;
    if (dop_ > 1) {
      ctx_->exec.dop = std::max<uint64_t>(ctx_->exec.dop,
                                          static_cast<uint64_t>(dop_));
      ctx_->exec.morsels += morsel_count;
      if (profile_ != nullptr) {
        profile_->detail += " morsels=" + std::to_string(morsel_count);
      }
    }
    // Merge in task order (== morsel order, tasks own contiguous ranges).
    std::vector<AggState> states(cfg_.ops.size());
    std::map<Row, std::vector<AggState>> groups;
    for (Partial& p : partials) {
      if (!p.status.ok()) {
        if (ctx_->error.ok()) ctx_->error = std::move(p.status);
        return;
      }
      ctx_->exec.rows_scanned += p.live;
      ctx_->exec.vectorized_rows += p.live;
      ctx_->exec.scalar_fallback_rows += p.fallback;
      if (cfg_.simple) {
        for (size_t a = 0; a < states.size(); ++a) {
          states[a].Merge(p.states[a]);
        }
      } else if (groups.empty()) {
        groups = std::move(p.groups);
      } else {
        for (auto& [key, partial_states] : p.groups) {
          std::vector<AggState>& merged = groups[key];
          if (merged.empty()) merged.resize(cfg_.ops.size());
          for (size_t a = 0; a < merged.size(); ++a) {
            merged[a].Merge(partial_states[a]);
          }
        }
      }
    }
    if (cfg_.simple) {
      Row out;
      out.reserve(states.size());
      for (size_t a = 0; a < states.size(); ++a) {
        out.push_back(states[a].Finish(cfg_.ops[a]));
      }
      output_.push_back(std::move(out));
      return;
    }
    for (auto& [key, group_states] : groups) {
      output_.push_back(FinishGroup(cfg_, key, group_states));
    }
  }

  const Table* table_;
  const ColumnAggConfig& cfg_;
  int dop_;
  OpProfile* profile_;
  KernelSet kernels_;
  std::vector<Row> output_;
  bool finished_ = false;
  size_t pos_ = 0;
  bool closed_ = false;
};

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE instrumentation
// ---------------------------------------------------------------------
//
// Timing wrappers inserted around every operator when the statement runs
// profiled. micros are inclusive (each wrapper times its child's Next,
// which pulls the whole subtree); rows_in is derived after execution from
// the chain order, so the wrappers only count their own output.

inline size_t BlockRows(const RowBlock& block) { return block.rows.size(); }
inline size_t BlockRows(const ColumnBlock& block) { return block.sel.size(); }
inline size_t BlockRows(const TupleBlock& block) { return block.count; }

// The wrapper around any of the three operator interfaces (Op, TupleOp,
// ColOp).
template <typename Base>
class Profiled final : public Base {
 public:
  using Block = typename Base::Block;
  Profiled(PlanContext* ctx, std::unique_ptr<Base> child, OpProfile* prof)
      : Base(ctx), child_(std::move(child)), prof_(prof) {}

  bool Next(Block* out) override {
    uint64_t t0 = TraceClock::Default()->NowMicros();
    bool ok = child_->Next(out);
    prof_->micros += TraceClock::Default()->NowMicros() - t0;
    if (ok) {
      prof_->blocks += 1;
      prof_->rows_out += BlockRows(*out);
    }
    return ok;
  }

  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Base> child_;
  OpProfile* prof_;
};

}  // namespace exec_ops

namespace {

// Tries to lower an aggregate configuration onto the column path: the
// simple global-aggregate list with plain-column (or *) arguments, or
// GROUP BY over plain columns where every select item is a group key or a
// bare aggregate over a plain column, with no HAVING and no ORDER BY.
bool LowerVectorizedAggregate(const exec_ops::AggregateOp::Config& agg,
                              const exec_ops::Projection& proj,
                              const SelectStmt& stmt,
                              exec_ops::ColumnAggConfig* out) {
  auto bound_col = [](const Expr* e) {
    return e != nullptr && e->kind == ExprKind::kColumnRef &&
           e->bound_index >= 0;
  };
  if (agg.simple) {
    out->simple = true;
    out->ops = agg.ops;
    for (const Expr* arg : agg.args) {
      if (arg == nullptr) {
        out->arg_cols.push_back(-1);
      } else if (bound_col(arg)) {
        out->arg_cols.push_back(arg->bound_index);
      } else {
        return false;
      }
    }
    return true;
  }
  if (!agg.has_group_by || agg.having != nullptr || !stmt.order_by.empty()) {
    return false;
  }
  for (const Expr* g : agg.group_exprs) {
    if (!bound_col(g)) return false;
    out->group_cols.push_back(static_cast<size_t>(g->bound_index));
  }
  for (const AggSpec& spec : agg.agg_specs) {
    out->ops.push_back(spec.op);
    if (spec.arg == nullptr) {
      out->arg_cols.push_back(-1);
    } else if (bound_col(spec.arg)) {
      out->arg_cols.push_back(spec.arg->bound_index);
    } else {
      return false;
    }
  }
  for (const Expr* item : proj.item_exprs) {
    exec_ops::ColumnAggConfig::Item lowered;
    bool found = false;
    if (bound_col(item)) {
      // A bare column must be one of the group keys; anything else is
      // evaluated from a data-dependent sample row on the scalar path.
      for (size_t g = 0; g < agg.group_exprs.size(); ++g) {
        if (agg.group_exprs[g]->bound_index == item->bound_index) {
          lowered.is_group = true;
          lowered.index = g;
          found = true;
          break;
        }
      }
    } else {
      for (size_t a = 0; a < agg.agg_specs.size(); ++a) {
        if (agg.agg_specs[a].node == item) {
          lowered.index = a;
          found = true;
          break;
        }
      }
    }
    if (!found) return false;
    out->items.push_back(lowered);
  }
  return true;
}

// Projection is pure column pruning when every item is a bound column
// reference or a star; `out_cols` receives the flat column offsets.
bool LowerVectorizedProjection(const exec_ops::Projection& proj,
                               std::vector<size_t>* out_cols) {
  for (size_t i = 0; i < proj.item_exprs.size(); ++i) {
    const Expr* e = proj.item_exprs[i];
    if (e->kind == ExprKind::kStar) {
      for (size_t offset : proj.star_expansion[i]) {
        out_cols->push_back(offset);
      }
    } else if (e->kind == ExprKind::kColumnRef && e->bound_index >= 0) {
      out_cols->push_back(static_cast<size_t>(e->bound_index));
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------
// SelectPlan
// ---------------------------------------------------------------------

struct SelectPlan::State {
  exec_ops::PlanContext ctx;
  const std::vector<std::string>* columns = nullptr;  // the section's
  std::unique_ptr<exec_ops::Op> root;
  // Virtual-table snapshots: operators keep raw `const Table*` pointers
  // (same as base tables), so the plan owns the backing storage.
  std::vector<std::shared_ptr<Table>> pinned;
  ExecInfo flushed;  // portion already mirrored into Database::stats()
  bool closed = false;
  // A top-level execution's statement and open time, logged on Close().
  const SelectStmt* logged = nullptr;
  uint64_t opened_micros = 0;

  // Copies the live profile nodes into ExecInfo, deriving rows_in from
  // the linear chain (each operator consumes the previous one's output).
  void FinalizeProfiles() {
    if (ctx.profiles.empty()) return;
    ctx.exec.op_profiles.assign(ctx.profiles.begin(), ctx.profiles.end());
    for (size_t i = 1; i < ctx.exec.op_profiles.size(); ++i) {
      ctx.exec.op_profiles[i].rows_in = ctx.exec.op_profiles[i - 1].rows_out;
    }
  }

  void FlushStats() {
    ExecStats& stats = ctx.db->stats();
    const ExecInfo& cur = ctx.exec;
    auto add = [](metrics::Counter& counter, uint64_t now, uint64_t before) {
      if (now > before) {
        counter.fetch_add(now - before, std::memory_order_relaxed);
      }
    };
    add(stats.index_probes, cur.index_probes, flushed.index_probes);
    add(stats.range_scans, cur.range_scans, flushed.range_scans);
    add(stats.full_scans, cur.full_scans, flushed.full_scans);
    add(stats.rows_scanned, cur.rows_scanned, flushed.rows_scanned);
    add(stats.rows_returned, cur.rows_emitted, flushed.rows_emitted);
    flushed = cur;
  }
};

SelectPlan::SelectPlan(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

SelectPlan::~SelectPlan() { Close(); }

const std::vector<std::string>& SelectPlan::columns() const {
  return *state_->columns;
}

const Status& SelectPlan::status() const { return state_->ctx.error; }

const ExecInfo& SelectPlan::exec() const { return state_->ctx.exec; }

bool SelectPlan::Next(RowBlock* out) {
  State* s = state_.get();
  if (s->closed || !s->ctx.error.ok()) return false;
  if (out->capacity == 0) out->capacity = s->ctx.block_rows;
  // Simulated block-allocation failure: the fault harness proves the plan
  // unwinds (Close() reaches every operator, stats flush) when memory for
  // the next block cannot be had.
  DB2G_FAILPOINT_STATUS("sql.executor.alloc", s->ctx.error);
  if (!s->ctx.error.ok()) {
    s->FlushStats();
    return false;
  }
  bool ok = s->root->Next(out);
  if (!s->ctx.error.ok()) {
    s->FlushStats();
    return false;
  }
  if (ok) s->ctx.exec.rows_emitted += out->rows.size();
  s->FlushStats();
  return ok;
}

void SelectPlan::Close() {
  State* s = state_.get();
  if (s == nullptr || s->closed) return;
  s->closed = true;
  s->root->Close();
  s->FinalizeProfiles();
  s->FlushStats();
  if (s->logged != nullptr) {
    RecordQueryLog(DescribeSelect(*s->logged), &s->ctx.exec,
                   s->ctx.exec.rows_emitted, s->ctx.error,
                   TraceClock::Default()->NowMicros() - s->opened_micros);
  }
}

Result<ResultSet> SelectPlan::Drain() {
  ResultSet result;
  result.columns = *state_->columns;
  RowBlock block;
  block.capacity = state_->ctx.block_rows;
  while (Next(&block)) {
    for (Row& row : block.rows) result.rows.push_back(std::move(row));
  }
  if (!state_->ctx.error.ok()) return state_->ctx.error;
  state_->FinalizeProfiles();
  result.exec = state_->ctx.exec;
  return result;
}

// ---------------------------------------------------------------------
// SelectSection: built once, opened per call
// ---------------------------------------------------------------------
//
// Build() turns a SELECT into the configs of this chain of pull
// operators:
//
//   Seed -> JoinStage* -> Filter? -> (Aggregate | SortProject | Project)
//        -> Distinct? -> Limit?
//
// JoinStage covers both the scan of the first FROM relation (its
// upstream is the one-empty-tuple Seed) and each subsequent join. Its
// access path, in order of preference: index probe, then (for
// materialized or unindexed relations with >1 outer tuple) a transient
// hash join, then an ordered-index range scan, then a full scan; an
// index-probe stage may be counted. A single-stage full scan over a
// table-backed relation may instead become the column section
// (ColumnScan below ColumnProject / ColumnToTuple, or a fused
// ColumnAggregate) when the ExecConfig at Open() is vectorized.
// Open() instantiates the operators over those configs; counters are
// incremented per row actually visited, so early termination is visible
// in ExecInfo.

// Everything Build() decides. Operators borrow these configs by
// reference, so the layout outlives every plan opened from it.
struct SelectSection::Layout {
  std::vector<std::unique_ptr<Expr>> owned;  // bound expression clones
  std::vector<std::string> columns;
  std::vector<exec_ops::StageConfig> stages;
  /// Per flat scope offset: the stage and column it reads.
  std::vector<exec_ops::StageCell> cells;
  /// Residual WHERE, run as an operator with LEFT JOINs or without FROM.
  const Expr* residual = nullptr;

  exec_ops::Projection proj;
  bool has_aggregate = false;
  exec_ops::AggregateOp::Config agg;
  std::vector<const Expr*> order_exprs;  // ORDER BY of a plain projection
  std::vector<bool> order_desc;

  // Column section, taken when the open-time ExecConfig is vectorized.
  bool columnar = false;
  std::vector<exec_ops::FilterKernel> kernels;  // the stage's predicates
  bool agg_lowered = false;   // ColumnAggregate replaces scan + aggregate
  exec_ops::ColumnAggConfig vagg;
  bool proj_lowered = false;  // ColumnProject replaces the projection
  std::vector<size_t> out_cols;

  // Profile labels of the operators above the join stages.
  std::string residual_label;
  std::string conjunct_label;  // ColumnScan / ColumnAggregate suffix
  std::string top_label;   // Aggregate / SortProject / Project
  std::string column_project_label;
  std::string limit_label;
};

SelectSection::SelectSection(Database* db,
                             std::shared_ptr<const SelectStmt> stmt,
                             uint64_t ddl_version,
                             std::unique_ptr<Layout> layout)
    : db_(db),
      stmt_(std::move(stmt)),
      ddl_version_(ddl_version),
      layout_(std::move(layout)) {}

SelectSection::~SelectSection() = default;

const std::vector<std::string>& SelectSection::columns() const {
  return layout_->columns;
}

Result<std::shared_ptr<const SelectSection>> SelectSection::Build(
    Database* db, std::shared_ptr<const SelectStmt> stmt) {
  return BuildWithAccess(db, std::move(stmt), /*check_access=*/true);
}

Result<std::shared_ptr<const SelectSection>> SelectSection::BuildWithAccess(
    Database* db, std::shared_ptr<const SelectStmt> stmt_ptr,
    bool check_access) {
  using exec_ops::RelationSource;
  using exec_ops::StageConfig;
  static metrics::Counter* const compiles =
      metrics::MetricsRegistry::Global().GetCounter(kCompilesCounter);
  compiles->fetch_add(1);
  const uint64_t ddl_version = db->ddl_version();
  const SelectStmt& stmt = *stmt_ptr;
  auto layout = std::make_unique<Layout>();
  std::vector<StageConfig>& stages = layout->stages;

  // 1. Resolve every FROM-clause relation, in order, to its source and
  // column names. View bodies and subqueries compile into sections of
  // their own; their rows are produced per execution.
  std::vector<const Expr*> stage_on_source;  // unbound ON conditions
  auto add_stage = [&](const TableRef& ref, const Expr* on,
                       bool left) -> Status {
    StageConfig stage;
    stage.alias = ref.alias;
    stage.left = left;
    RelationSource& source = stage.source;
    source.ref = &ref;
    switch (ref.kind) {
      case TableRef::Kind::kTable:
        source.check_access = check_access;
        if (const Table* table = db->GetTable(ref.table)) {
          source.kind = RelationSource::Kind::kBaseTable;
          source.table = table;
          stage.columns = table->schema().ColumnNames();
        } else if (const VirtualTableDef* vt =
                       db->FindVirtualTable(ref.table)) {
          source.kind = RelationSource::Kind::kVirtualTable;
          stage.columns = vt->schema.ColumnNames();
        } else if (db->IsView(ref.table)) {
          const Database::ViewDef& view = db->views_.at(CatalogKey(ref.table));
          Result<std::shared_ptr<const SelectSection>> body =
              BuildWithAccess(db, view.select, /*check_access=*/false);
          if (!body.ok()) return body.status();
          source.kind = RelationSource::Kind::kView;
          source.body = std::move(*body);
          stage.columns = view.derived_schema.ColumnNames();
        } else {
          return Status::NotFound("unknown table or view: " + ref.table);
        }
        break;
      case TableRef::Kind::kSubquery: {
        Result<std::shared_ptr<const SelectSection>> body =
            BuildWithAccess(db, ref.subquery, /*check_access=*/true);
        if (!body.ok()) return body.status();
        source.kind = RelationSource::Kind::kSubquery;
        source.body = std::move(*body);
        stage.columns = source.body->columns();
        break;
      }
      case TableRef::Kind::kTableFunction:
        if (db->FindTableFunction(ref.function_name) == nullptr) {
          return Status::NotFound("unknown table function: " +
                                  ref.function_name);
        }
        source.kind = RelationSource::Kind::kFunction;
        // The declared column list names (and truncates/pads) the output.
        for (const ColumnDef& c : ref.function_columns) {
          stage.columns.push_back(c.name);
        }
        break;
    }
    stages.push_back(std::move(stage));
    stage_on_source.push_back(on);
    return Status::OK();
  };
  for (const TableRef& ref : stmt.from) {
    DB2G_RETURN_NOT_OK(add_stage(ref, nullptr, false));
  }
  for (const JoinClause& join : stmt.joins) {
    DB2G_RETURN_NOT_OK(add_stage(join.table, join.on.get(),
                                 join.kind == JoinClause::Kind::kLeft));
  }

  // 2. Bind clones of the statement's expressions against the full scope.
  // Join conditions and WHERE conjuncts bind against the FULL scope too: a
  // prefix-stage tuple reads the offsets of its prefix, so evaluating a
  // conjunct early is safe whenever its columns resolve in the prefix.
  Scope scope;
  bool any_left = false;
  for (size_t k = 0; k < stages.size(); ++k) {
    const StageConfig& stage = stages[k];
    scope.AddTable(stage.alias, stage.columns);
    any_left |= stage.left;
    for (size_t c = 0; c < stage.columns.size(); ++c) {
      layout->cells.push_back(
          {static_cast<uint32_t>(k), static_cast<uint32_t>(c)});
    }
  }
  auto bind = [&](const Expr& source) -> Result<const Expr*> {
    std::unique_ptr<Expr> copy = source.Clone();
    DB2G_RETURN_NOT_OK(BindExpr(copy.get(), scope));
    layout->owned.push_back(std::move(copy));
    return static_cast<const Expr*>(layout->owned.back().get());
  };

  const Expr* where = nullptr;
  if (stmt.where) {
    Result<const Expr*> bound = bind(*stmt.where);
    if (!bound.ok()) return bound.status();
    where = *bound;
  }
  std::vector<const Expr*> where_conjuncts;
  SplitConjuncts(where, &where_conjuncts);

  // 3. Plan each join stage's access path.
  Scope partial_scope;
  for (size_t k = 0; k < stages.size(); ++k) {
    StageConfig& cfg = stages[k];
    Scope before = partial_scope;
    partial_scope.AddTable(cfg.alias, cfg.columns);

    // Predicates applicable at this stage.
    if (stage_on_source[k] != nullptr) {
      Result<const Expr*> on = bind(*stage_on_source[k]);
      if (!on.ok()) return on.status();
      cfg.preds.push_back(*on);
    }
    if (!any_left) {
      for (const Expr* conjunct : where_conjuncts) {
        if (BindsIn(*conjunct, partial_scope) &&
            !BindsIn(*conjunct, before)) {
          cfg.preds.push_back(conjunct);
        }
      }
    }
    std::vector<const Expr*> conjuncts;
    for (const Expr* pred : cfg.preds) SplitConjuncts(pred, &conjuncts);

    // Index probe against a base table (a virtual-table snapshot has no
    // indexes).
    const Table* table = cfg.source.table;
    if (table != nullptr) {
      cfg.probe = PlanIndexProbe(*table, cfg.alias, conjuncts, before);
    }
    // An index probe answers its terms exactly, provided it skips keys
    // holding NULL (ProbeKeys does): index equality is `=` on every
    // non-NULL value, across int/double representations included. Every
    // other conjunct is re-checked per candidate row.
    for (const Expr* conjunct : conjuncts) {
      bool answered = false;
      for (const ProbeTerm& term : cfg.probe.terms) {
        answered |= term.conjunct == conjunct;
      }
      if (!answered) cfg.residual.push_back(conjunct);
    }

    // Hash-join candidate: an equality term with no backing index
    // (materialized relations — subqueries, views, table functions — or
    // unindexed tables). Whether the hash table is actually built is
    // decided at runtime, once the stage has seen more than one outer row.
    if (cfg.probe.index == nullptr) {
      auto inner_col = [&](const Expr* e) -> int {
        if (e->kind != ExprKind::kColumnRef) return -1;
        if (!e->table_alias.empty() &&
            !EqualsIgnoreCase(e->table_alias, cfg.alias)) {
          return -1;
        }
        if (BindsIn(*e, before)) return -1;
        for (size_t c = 0; c < cfg.columns.size(); ++c) {
          if (EqualsIgnoreCase(cfg.columns[c], e->column)) {
            return static_cast<int>(c);
          }
        }
        return -1;
      };
      for (const Expr* conjunct : conjuncts) {
        if (conjunct->kind != ExprKind::kBinary || conjunct->op != "=") {
          continue;
        }
        const Expr* lhs = conjunct->children[0].get();
        const Expr* rhs = conjunct->children[1].get();
        int col = inner_col(lhs);
        if (col >= 0 && BindsIn(*rhs, before)) {
          cfg.has_hash = true;
          cfg.hash_column = static_cast<size_t>(col);
          cfg.hash_key = rhs;
          break;
        }
        col = inner_col(rhs);
        if (col >= 0 && BindsIn(*lhs, before)) {
          cfg.has_hash = true;
          cfg.hash_column = static_cast<size_t>(col);
          cfg.hash_key = lhs;
          break;
        }
      }
    }

    // Ordered-index range path: a range conjunct (col < / <= / > / >= v)
    // on a column with an ORDERED INDEX scans only the matching key range.
    // Used at runtime only when neither the index probe nor the hash join
    // applies.
    if (cfg.probe.index == nullptr && table != nullptr) {
      const TableSchema& schema = table->schema();
      auto inner_col = [&](const Expr* e) {
        return e->kind == ExprKind::kColumnRef &&
               (e->table_alias.empty() ||
                EqualsIgnoreCase(e->table_alias, cfg.alias)) &&
               schema.HasColumn(e->column) && !BindsIn(*e, before);
      };
      for (const Expr* conjunct : conjuncts) {
        if (conjunct->kind != ExprKind::kBinary) continue;
        const std::string& op = conjunct->op;
        if (op != "<" && op != "<=" && op != ">" && op != ">=") continue;
        const Expr* lhs = conjunct->children[0].get();
        const Expr* rhs = conjunct->children[1].get();
        const Expr* column_side = nullptr;
        const Expr* value_side = nullptr;
        bool upper = false;  // column < value?
        if (inner_col(lhs) && BindsIn(*rhs, before)) {
          column_side = lhs;
          value_side = rhs;
          upper = op == "<" || op == "<=";
        } else if (inner_col(rhs) && BindsIn(*lhs, before)) {
          column_side = rhs;
          value_side = lhs;
          upper = op == ">" || op == ">=";  // v > col  <=>  col < v
        } else {
          continue;
        }
        size_t col = *schema.ColumnIndex(column_side->column);
        const OrderedIndex* candidate = table->FindOrderedIndexOn(col);
        if (candidate == nullptr) continue;
        if (cfg.range_index != nullptr && candidate != cfg.range_index) {
          continue;
        }
        cfg.range_index = candidate;
        bool exclusive = op == "<" || op == ">";
        if (upper) {
          cfg.range_hi = value_side;
          cfg.range_hi_excl = exclusive;
        } else {
          cfg.range_lo = value_side;
          cfg.range_lo_excl = exclusive;
        }
      }
      if (cfg.range_lo == nullptr && cfg.range_hi == nullptr) {
        cfg.range_index = nullptr;
      }
    }

    cfg.detail = cfg.alias;
    if (cfg.probe.index != nullptr) {
      cfg.detail += " index probe";
    } else if (cfg.range_index != nullptr) {
      cfg.detail += " range scan";
    } else if (cfg.has_hash) {
      cfg.detail += " hash candidate";
    } else if (cfg.table_backed()) {
      cfg.detail += " scan";
    } else {
      cfg.detail += " materialized";
    }
  }

  // Column section: a single-stage full scan over a table-backed relation
  // — no index probe, no range scan (the transient hash join never builds
  // against the one-row seed, so it would full-scan too) — with the
  // stage's predicates compiled to kernels.
  layout->columnar = stages.size() == 1 && !stages[0].left &&
                     stages[0].table_backed() &&
                     stages[0].probe.index == nullptr &&
                     stages[0].range_index == nullptr;
  if (layout->columnar) {
    layout->kernels = exec_ops::CompileKernels(stages[0].preds);
    if (!stages[0].preds.empty()) {
      layout->conjunct_label =
          " " + std::to_string(stages[0].preds.size()) + " conjunct(s)";
    }
  }

  // 4. Residual WHERE (needed with LEFT JOINs; idempotent otherwise).
  if (where != nullptr && (any_left || stages.empty())) {
    layout->residual = where;
    layout->residual_label = where->ToString();
  }

  // 5. Projection / aggregation.
  bool has_aggregate = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    has_aggregate |= ContainsAggregate(*item.expr);
  }
  layout->has_aggregate = has_aggregate;

  exec_ops::Projection& proj = layout->proj;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->kind == ExprKind::kStar) {
      std::vector<size_t> offsets =
          scope.StarOffsets(item.expr->table_alias);
      if (offsets.empty() && !item.expr->table_alias.empty()) {
        return Status::NotFound("unknown alias in " +
                                item.expr->table_alias + ".*");
      }
      for (size_t offset : offsets) {
        layout->columns.push_back(scope.NameAt(offset));
      }
      proj.star_expansion.push_back(std::move(offsets));
      proj.item_exprs.push_back(item.expr.get());
      continue;
    }
    Result<const Expr*> bound = bind(*item.expr);
    if (!bound.ok()) return bound.status();
    layout->columns.push_back(OutputName(item));
    proj.star_expansion.emplace_back();
    proj.item_exprs.push_back(*bound);
  }
  proj.width = layout->columns.size();

  if (has_aggregate) {
    exec_ops::AggregateOp::Config& agg = layout->agg;
    // Fast path for the pushdown shape "SELECT AGG(..), AGG(..) FROM ..."
    // with no grouping: single pass, no hash map, no tree rewriting.
    bool simple = stmt.group_by.empty() && !stmt.distinct &&
                  stmt.order_by.empty() && stmt.having == nullptr;
    if (simple) {
      for (const Expr* expr : proj.item_exprs) {
        simple &= expr->kind == ExprKind::kFuncCall &&
                  IsAggregateName(expr->op);
      }
    }
    agg.simple = simple;
    if (simple) {
      for (const Expr* expr : proj.item_exprs) {
        agg.ops.push_back(ToUpper(expr->op));
        agg.args.push_back(!expr->children.empty() &&
                                   expr->children[0]->kind != ExprKind::kStar
                               ? expr->children[0].get()
                               : nullptr);
      }
    } else {
      for (const auto& g : stmt.group_by) {
        Result<const Expr*> bound = bind(*g);
        if (!bound.ok()) return bound.status();
        agg.group_exprs.push_back(*bound);
      }
      agg.has_group_by = !stmt.group_by.empty();
      if (stmt.having) {
        Result<const Expr*> bound = bind(*stmt.having);
        if (!bound.ok()) return bound.status();
        agg.having = *bound;
      }
      for (const Expr* expr : proj.item_exprs) {
        CollectAggregates(expr, &agg.agg_specs);
      }
      if (agg.having != nullptr) {
        CollectAggregates(agg.having, &agg.agg_specs);
      }
      // With aggregation, ORDER BY names output columns (by name or
      // position) and is resolved after grouping.
      agg.order_by = &stmt.order_by;
      agg.columns = &layout->columns;
    }
    layout->agg_lowered =
        layout->columnar &&
        LowerVectorizedAggregate(agg, proj, stmt, &layout->vagg);
    layout->top_label = agg.simple ? "simple" : "grouped";
  } else {
    // Plain projection, with optional ORDER BY over source rows.
    for (const OrderItem& item : stmt.order_by) {
      layout->order_desc.push_back(item.descending);
      // ORDER BY may reference a select alias.
      const Expr* aliased = nullptr;
      if (item.expr->kind == ExprKind::kColumnRef &&
          item.expr->table_alias.empty()) {
        for (size_t i = 0; i < stmt.items.size(); ++i) {
          if (EqualsIgnoreCase(stmt.items[i].alias, item.expr->column)) {
            aliased = proj.item_exprs[i];
            break;
          }
        }
      }
      if (aliased == nullptr) {
        Result<const Expr*> bound = bind(*item.expr);
        if (!bound.ok()) return bound.status();
        aliased = *bound;
      }
      layout->order_exprs.push_back(aliased);
    }
    layout->proj_lowered =
        layout->columnar && layout->order_exprs.empty() &&
        LowerVectorizedProjection(proj, &layout->out_cols);
    layout->column_project_label =
        "cols=" + std::to_string(layout->out_cols.size());
    layout->top_label =
        layout->order_exprs.empty()
            ? "cols=" + std::to_string(proj.item_exprs.size())
            : "keys=" + std::to_string(layout->order_exprs.size());
  }
  layout->limit_label = std::to_string(stmt.limit);

  // 6. Counted stages. Under an aggregate that only counts rows (every
  // aggregate COUNT(*), no DISTINCT), a stage contributes nothing but how
  // many rows match when nothing reads its columns except its own index
  // probe, every conjunct on it is answered by that probe, and it is not
  // LEFT: the stage then multiplies each tuple by the length of its
  // posting runs and visits none of its rows.
  bool counts_only = has_aggregate && !stmt.distinct;
  if (counts_only) {
    const exec_ops::AggregateOp::Config& agg = layout->agg;
    for (const Expr* arg : agg.args) counts_only &= arg == nullptr;
    for (const std::string& op : agg.ops) counts_only &= op == "COUNT";
    for (const AggSpec& spec : agg.agg_specs) {
      counts_only &= spec.op == "COUNT" && spec.arg == nullptr;
    }
  }
  if (counts_only) {
    std::vector<bool> read(scope.width(), false);
    for (size_t i = 0; i < proj.item_exprs.size(); ++i) {
      for (size_t offset : proj.star_expansion[i]) read[offset] = true;
      MarkBoundReads(*proj.item_exprs[i], &read);
    }
    for (const Expr* g : layout->agg.group_exprs) MarkBoundReads(*g, &read);
    if (layout->agg.having != nullptr) {
      MarkBoundReads(*layout->agg.having, &read);
    }
    if (layout->residual != nullptr) {
      MarkBoundReads(*layout->residual, &read);
    }
    for (const StageConfig& cfg : stages) {
      for (const Expr* conjunct : cfg.residual) {
        MarkBoundReads(*conjunct, &read);
      }
      for (const ProbeTerm& term : cfg.probe.terms) {
        for (const Expr* value : term.values) MarkBoundReads(*value, &read);
      }
    }
    size_t offset = 0;
    for (StageConfig& cfg : stages) {
      const size_t end = offset + cfg.columns.size();
      cfg.counted = cfg.probe.index != nullptr && !cfg.left &&
                    cfg.residual.empty() &&
                    std::none_of(read.begin() + static_cast<ptrdiff_t>(offset),
                                 read.begin() + static_cast<ptrdiff_t>(end),
                                 [](bool r) { return r; });
      if (cfg.counted) cfg.detail += ", counted";
      offset = end;
    }
  }

  return std::shared_ptr<const SelectSection>(new SelectSection(
      db, std::move(stmt_ptr), ddl_version, std::move(layout)));
}

Result<std::unique_ptr<SelectPlan>> SelectSection::Open(
    const std::vector<Value>* params, size_t block_rows) const {
  if (!QueryLog::Global().enabled()) return OpenPlan(params, block_rows);
  const uint64_t start = TraceClock::Default()->NowMicros();
  Result<std::unique_ptr<SelectPlan>> plan = OpenPlan(params, block_rows);
  if (!plan.ok()) {
    RecordQueryLog(DescribeSelect(*stmt_), nullptr, 0, plan.status(),
                   TraceClock::Default()->NowMicros() - start);
    return plan;
  }
  (*plan)->state_->logged = stmt_.get();
  (*plan)->state_->opened_micros = start;
  return plan;
}

Result<std::unique_ptr<SelectPlan>> SelectSection::OpenPlan(
    const std::vector<Value>* params, size_t block_rows) const {
  using exec_ops::Op;
  using exec_ops::PlanRelation;
  using exec_ops::RelationSource;
  using exec_ops::StageConfig;
  const Layout& layout = *layout_;
  const SelectStmt& stmt = *stmt_;

  db_->stats().selects.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_unique<SelectPlan::State>();
  state->columns = &layout.columns;
  exec_ops::PlanContext& ctx = state->ctx;
  ctx.db = db_;
  ctx.params = params;
  ctx.block_rows = std::max<size_t>(block_rows, 1);

  // The call's effective ExecConfig: process defaults <- session config
  // <- thread-local per-query override (ScopedExecConfig).
  const ExecConfig exec_cfg = db_->ResolveExecConfig();
  const int dop = exec_cfg.parallelism();
  ctx.dop = dop;
  if (exec_cfg.block_rows() > 0 && block_rows == kDefaultBlockRows) {
    // A config block size applies only when the caller did not ask for a
    // specific one (streaming pulls pass their own).
    ctx.block_rows = std::max<size_t>(exec_cfg.block_rows(), 1);
  }

  // EXPLAIN needs the operator chain recorded even without execution;
  // ANALYZE and the config's profile flag additionally time each Next().
  const bool profiled = stmt.explain || stmt.analyze || exec_cfg.profile();
  ctx.profiled = profiled;
  auto node = [&](const char* name, const std::string& detail) {
    OpProfile profile;
    profile.name = name;
    profile.detail = detail;
    ctx.profiles.push_back(std::move(profile));
    return &ctx.profiles.back();
  };
  // Wraps an operator of any of the three interfaces in its profile node.
  auto prof = [&]<typename OpT>(std::unique_ptr<OpT> op, const char* name,
                                const std::string& detail)
      -> std::unique_ptr<typename OpT::Interface> {
    using Base = typename OpT::Interface;
    if (!profiled) return op;
    return std::make_unique<exec_ops::Profiled<Base>>(&ctx, std::move(op),
                                                      node(name, detail));
  };

  // 1. This execution's relation data, in stage order: access checks
  // (grants may change without DDL), virtual-table snapshots, and the
  // rows of views, subqueries and table functions.
  std::vector<PlanRelation>& relations = ctx.relations;
  relations.resize(layout.stages.size());
  ctx.cells = &layout.cells;
  for (size_t k = 0; k < layout.stages.size(); ++k) {
    const StageConfig& stage = layout.stages[k];
    const RelationSource& source = stage.source;
    PlanRelation& rel = relations[k];
    if (source.check_access) {
      DB2G_RETURN_NOT_OK(db_->CheckAccess(source.ref->table, /*write=*/false));
    }
    switch (source.kind) {
      case RelationSource::Kind::kBaseTable:
        rel.table = source.table;
        break;
      case RelationSource::Kind::kVirtualTable: {
        const VirtualTableDef* def = db_->FindVirtualTable(source.ref->table);
        if (def == nullptr) {
          return Status::NotFound("unknown table or view: " +
                                  source.ref->table);
        }
        Result<std::shared_ptr<Table>> snapshot = MaterializeVirtualTable(*def);
        if (!snapshot.ok()) return snapshot.status();
        if ((*snapshot)->column_count() != stage.columns.size()) {
          return Status::InvalidArgument("virtual table " + source.ref->table +
                                         " changed shape");
        }
        rel.table = snapshot->get();
        state->pinned.push_back(std::move(*snapshot));
        break;
      }
      case RelationSource::Kind::kView:
      case RelationSource::Kind::kSubquery: {
        // A view body sees no parameters; a subquery sees the statement's.
        Result<std::unique_ptr<SelectPlan>> body = source.body->OpenPlan(
            source.kind == RelationSource::Kind::kView ? nullptr : params,
            kDefaultBlockRows);
        if (!body.ok()) return body.status();
        Result<ResultSet> rs = (*body)->Drain();
        if (!rs.ok()) return rs.status();
        rel.rows = std::move(rs->rows);
        break;
      }
      case RelationSource::Kind::kFunction: {
        const TableRef& ref = *source.ref;
        const Database::TableFunction* fn =
            db_->FindTableFunction(ref.function_name);
        if (fn == nullptr) {
          return Status::NotFound("unknown table function: " +
                                  ref.function_name);
        }
        std::vector<Value> args;
        Row empty;
        for (const auto& arg : ref.function_args) {
          args.push_back(EvalExpr(*arg, empty, params));
        }
        Result<ResultSet> rs = (*fn)(args);
        if (!rs.ok()) return rs.status();
        rel.rows.reserve(rs->rows.size());
        for (Row& row : rs->rows) {
          row.resize(stage.columns.size());
          rel.rows.push_back(std::move(row));
        }
        break;
      }
    }
  }

  // 2. The operator tree over the section's configs.
  const bool columnar = layout.columnar && exec_cfg.vectorized();
  // The column section's fused leaf: its profile node is registered
  // before the operator exists so it can append its morsel count.
  const Table* col_table = columnar ? relations[0].table : nullptr;
  auto col_node = [&](const char* name, const std::string& detail) {
    return profiled ? node(name, detail + " dop=" + std::to_string(dop) +
                                     layout.conjunct_label)
                    : nullptr;
  };
  auto col_scan = [&]() -> std::unique_ptr<exec_ops::ColOp> {
    OpProfile* scan_node = col_node("ColumnScan", layout.stages[0].alias);
    std::unique_ptr<exec_ops::ColOp> op =
        std::make_unique<exec_ops::ColumnScanOp>(&ctx, col_table,
                                                 layout.kernels, dop,
                                                 scan_node);
    if (scan_node == nullptr) return op;
    return std::make_unique<exec_ops::Profiled<exec_ops::ColOp>>(
        &ctx, std::move(op), scan_node);
  };
  // The tuple chain under the top operator: the join stages, or the
  // column scan for shapes without a column lowering (those keep the
  // scalar operators above: "mixed" mode in profile()).
  auto tuples = [&]() -> std::unique_ptr<exec_ops::TupleOp> {
    std::unique_ptr<exec_ops::TupleOp> chain;
    if (columnar) {
      chain = prof(std::make_unique<exec_ops::ColumnToTupleOp>(&ctx,
                                                               col_scan()),
                   "ColumnToTuple", "");
    } else {
      chain = std::make_unique<exec_ops::SeedOp>(&ctx);
      for (size_t k = 0; k < layout.stages.size(); ++k) {
        const StageConfig& stage = layout.stages[k];
        chain = prof(std::make_unique<exec_ops::JoinStageOp>(
                         &ctx, std::move(chain), stage, k),
                     k == 0 ? "Scan" : "Join", stage.detail);
      }
    }
    if (layout.residual != nullptr) {
      chain = prof(std::make_unique<exec_ops::FilterOp>(
                       &ctx, std::move(chain), layout.residual),
                   "Filter", layout.residual_label);
    }
    return chain;
  };

  std::unique_ptr<Op> source;
  if (layout.has_aggregate) {
    if (columnar && layout.agg_lowered) {
      OpProfile* agg_node = col_node(
          "ColumnAggregate", layout.vagg.simple ? "simple" : "grouped");
      source = std::make_unique<exec_ops::ColumnAggregateOp>(
          &ctx, col_table, layout.kernels, layout.vagg, dop, agg_node);
      if (agg_node != nullptr) {
        source = std::make_unique<exec_ops::Profiled<Op>>(
            &ctx, std::move(source), agg_node);
      }
    } else {
      source = prof(std::make_unique<exec_ops::AggregateOp>(
                        &ctx, tuples(), layout.proj, layout.agg),
                    "Aggregate", layout.top_label);
    }
  } else if (columnar && layout.proj_lowered) {
    source = prof(std::make_unique<exec_ops::ColumnProjectOp>(
                      &ctx, col_scan(), layout.out_cols),
                  "ColumnProject", layout.column_project_label);
  } else if (!layout.order_exprs.empty()) {
    source = prof(std::make_unique<exec_ops::SortProjectOp>(
                      &ctx, tuples(), layout.proj, layout.order_exprs,
                      layout.order_desc),
                  "SortProject", layout.top_label);
  } else {
    source = prof(std::make_unique<exec_ops::ProjectOp>(&ctx, tuples(),
                                                        layout.proj),
                  "Project", layout.top_label);
  }

  // 3. DISTINCT, LIMIT.
  if (stmt.distinct) {
    source = prof(std::make_unique<exec_ops::DistinctOp>(&ctx,
                                                         std::move(source)),
                  "Distinct", "");
  }
  if (stmt.limit >= 0) {
    source = prof(std::make_unique<exec_ops::LimitOp>(
                      &ctx, std::move(source),
                      static_cast<uint64_t>(stmt.limit)),
                  "Limit", layout.limit_label);
  }

  state->root = std::move(source);
  return std::unique_ptr<SelectPlan>(new SelectPlan(std::move(state)));
}

Result<ResultSet> SelectSection::Run(const std::vector<Value>* params) const {
  Result<std::unique_ptr<SelectPlan>> plan = Open(params);
  if (!plan.ok()) return plan.status();
  if (!stmt_->explain) return (*plan)->Drain();

  // EXPLAIN [ANALYZE]: return the rendered operator tree, one row per
  // line, instead of the query's rows. ANALYZE runs the query first so
  // the nodes carry actual blocks/rows/micros; plain EXPLAIN only
  // opens, leaving the counters zero (and unrendered).
  ResultSet out;
  out.columns = {"plan"};
  if (stmt_->analyze) {
    Result<ResultSet> executed = (*plan)->Drain();
    if (!executed.ok()) return executed.status();
    out.exec = executed->exec;
  } else {
    (*plan)->Close();
    out.exec = (*plan)->exec();
  }
  std::string tree = RenderPlanTree(out.exec.op_profiles, stmt_->analyze);
  size_t start = 0;
  while (start < tree.size()) {
    size_t end = tree.find('\n', start);
    if (end == std::string::npos) end = tree.size();
    out.rows.push_back({Value(tree.substr(start, end - start))});
    start = end + 1;
  }
  return out;
}

std::string DescribeSelect(const SelectStmt& stmt) {
  std::string s = stmt.explain ? (stmt.analyze ? "EXPLAIN ANALYZE SELECT"
                                               : "EXPLAIN SELECT")
                               : "SELECT";
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const TableRef& ref = stmt.from[i];
    s += i == 0 ? " FROM " : ", ";
    switch (ref.kind) {
      case TableRef::Kind::kTable:
        s += ref.table;
        break;
      case TableRef::Kind::kTableFunction:
        s += "TABLE(" + ref.function_name + ")";
        break;
      case TableRef::Kind::kSubquery:
        s += "(subquery)";
        break;
    }
  }
  return s;
}

void RecordQueryLog(std::string script, const ExecInfo* exec,
                    uint64_t rows_emitted, const Status& status,
                    uint64_t micros) {
  QueryLog::Entry entry;
  entry.layer = "sql";
  entry.script = std::move(script);
  entry.micros = micros;
  if (exec != nullptr) {
    entry.exec_mode = exec->ExecMode();
    entry.access_path = exec->AccessPath();
    entry.dop = exec->dop;
    entry.morsels = exec->morsels;
    entry.rows_scanned = exec->rows_scanned;
    entry.rows_emitted = rows_emitted;
    if (!exec->op_profiles.empty()) {
      entry.plan = RenderPlanTree(exec->op_profiles, /*analyzed=*/true);
    }
  }
  if (!status.ok()) {
    entry.error = true;
    entry.error_message = status.message();
  }
  entry.reason = governor::TerminationReason(status);
  QueryLog::Global().Record(std::move(entry));
}

// ---------------------------------------------------------------------
// Schema derivation (CREATE VIEW)
// ---------------------------------------------------------------------

Result<std::vector<ColumnDef>> RelationColumns(Database* db,
                                               const TableRef& ref) {
  switch (ref.kind) {
    case TableRef::Kind::kTable: {
      const TableSchema* schema = db->GetSchema(ref.table);
      if (schema == nullptr) {
        return Status::NotFound("unknown table or view: " + ref.table);
      }
      return schema->columns;
    }
    case TableRef::Kind::kSubquery:
      return DeriveSelectColumns(db, *ref.subquery);
    case TableRef::Kind::kTableFunction:
      return ref.function_columns;
  }
  return Status::Internal("unreachable");
}

Result<std::vector<ColumnDef>> DeriveSelectColumns(Database* db,
                                                   const SelectStmt& stmt) {
  // Build a scope plus a parallel type map.
  Scope scope;
  std::vector<ColumnType> types;
  auto add_ref = [&](const TableRef& ref) -> Status {
    Result<std::vector<ColumnDef>> cols = RelationColumns(db, ref);
    if (!cols.ok()) return cols.status();
    std::vector<std::string> names;
    for (const ColumnDef& c : *cols) {
      names.push_back(c.name);
      types.push_back(c.type);
    }
    scope.AddTable(ref.alias, names);
    return Status::OK();
  };
  for (const TableRef& ref : stmt.from) {
    DB2G_RETURN_NOT_OK(add_ref(ref));
  }
  for (const JoinClause& join : stmt.joins) {
    DB2G_RETURN_NOT_OK(add_ref(join.table));
  }

  std::vector<ColumnDef> out;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->kind == ExprKind::kStar) {
      for (size_t offset : scope.StarOffsets(item.expr->table_alias)) {
        ColumnDef col;
        col.name = scope.NameAt(offset);
        col.type = types[offset];
        out.push_back(std::move(col));
      }
      continue;
    }
    ColumnDef col;
    col.name = !item.alias.empty()
                   ? item.alias
                   : (item.expr->kind == ExprKind::kColumnRef
                          ? item.expr->column
                          : item.expr->ToString());
    col.type = ColumnType::kString;
    if (item.expr->kind == ExprKind::kColumnRef) {
      Result<size_t> offset =
          scope.Resolve(item.expr->table_alias, item.expr->column);
      if (!offset.ok()) return offset.status();
      col.type = types[*offset];
    } else if (item.expr->kind == ExprKind::kFuncCall &&
               EqualsIgnoreCase(item.expr->op, "COUNT")) {
      col.type = ColumnType::kInt;
    } else if (item.expr->kind == ExprKind::kFuncCall &&
               (EqualsIgnoreCase(item.expr->op, "AVG") ||
                EqualsIgnoreCase(item.expr->op, "SUM"))) {
      col.type = ColumnType::kDouble;
    } else if (item.expr->kind == ExprKind::kLiteral) {
      switch (item.expr->literal.type()) {
        case ValueType::kInt:
          col.type = ColumnType::kInt;
          break;
        case ValueType::kDouble:
          col.type = ColumnType::kDouble;
          break;
        case ValueType::kBool:
          col.type = ColumnType::kBool;
          break;
        default:
          col.type = ColumnType::kString;
      }
    }
    out.push_back(std::move(col));
  }
  return out;
}

}  // namespace db2graph::sql
