#include "sql/executor.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/exec_config.h"
#include "common/fault_injection.h"
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
          {*schema.ColumnIndex(column_side->column), std::move(values)});
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

std::vector<Row> ProbeKeys(const IndexProbe& probe, const Row& outer,
                           const std::vector<Value>* params) {
  std::vector<Row> keys;
  keys.emplace_back();
  for (const ProbeTerm& term : probe.terms) {
    std::vector<Row> expanded;
    expanded.reserve(keys.size() * term.values.size());
    for (const Row& partial : keys) {
      for (const Expr* value_expr : term.values) {
        Row key = partial;
        key.push_back(EvalExpr(*value_expr, outer, params));
        expanded.push_back(std::move(key));
      }
    }
    keys = std::move(expanded);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<RowId> FindTargetRows(const Table& table, const std::string& alias,
                                  const Expr* where,
                                  const std::vector<Value>* params,
                                  ExecInfo* exec) {
  std::vector<RowId> targets;
  Row row;
  auto consider = [&](RowId rid) {
    exec->rows_scanned += 1;
    if (where != nullptr) {
      table.MaterializeRow(rid, &row);
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
  std::vector<Row> keys = ProbeKeys(probe, Row(), params);
  std::vector<RowId> candidates;
  for (const Row& key : keys) probe.index->Lookup(key, &candidates);
  exec->index_probes += keys.size();
  // Distinct keys of one index never share a row, so sorting alone puts
  // the candidates in the slot order a scan would visit them.
  std::sort(candidates.begin(), candidates.end());
  for (RowId rid : candidates) consider(rid);
  return targets;
}

// ---------------------------------------------------------------------
// Relation resolution
// ---------------------------------------------------------------------

Result<Executor::Relation> Executor::ResolveRef(const TableRef& ref) {
  Relation rel;
  rel.alias = ref.alias;
  switch (ref.kind) {
    case TableRef::Kind::kTable: {
      if (!skip_access_checks_) {
        DB2G_RETURN_NOT_OK(db_->CheckAccess(ref.table, /*write=*/false));
      }
      if (Table* table = db_->GetTable(ref.table)) {
        rel.table = table;
        rel.columns = table->schema().ColumnNames();
        return rel;
      }
      if (const VirtualTableDef* vt = db_->FindVirtualTable(ref.table)) {
        // Materialize a point-in-time snapshot. The relation owns it, so
        // downstream operators treat it exactly like a base table (index-
        // free, so scans — including the vectorized path — apply).
        Result<std::shared_ptr<Table>> snapshot = MaterializeVirtualTable(*vt);
        if (!snapshot.ok()) return snapshot.status();
        rel.owned = std::move(*snapshot);
        rel.table = rel.owned.get();
        rel.columns = rel.owned->schema().ColumnNames();
        return rel;
      }
      if (db_->IsView(ref.table)) {
        // Expand the non-materialized view by executing its definition.
        const TableSchema* schema = db_->GetSchema(ref.table);
        SelectStmt* view_select = nullptr;
        {
          auto it = db_->views_.find(CatalogKey(ref.table));
          view_select = it->second.select.get();
        }
        Executor sub(db_, nullptr);
        sub.set_skip_access_checks(true);  // definer's rights
        Result<ResultSet> rs = sub.Select(*view_select);
        if (!rs.ok()) return rs.status();
        rel.columns = schema->ColumnNames();
        rel.rows = std::move(rs->rows);
        return rel;
      }
      return Status::NotFound("unknown table or view: " + ref.table);
    }
    case TableRef::Kind::kSubquery: {
      Executor sub(db_, params_);
      Result<ResultSet> rs = sub.Select(*ref.subquery);
      if (!rs.ok()) return rs.status();
      rel.columns = rs->columns;
      rel.rows = std::move(rs->rows);
      return rel;
    }
    case TableRef::Kind::kTableFunction: {
      const Database::TableFunction* fn =
          db_->FindTableFunction(ref.function_name);
      if (fn == nullptr) {
        return Status::NotFound("unknown table function: " +
                                ref.function_name);
      }
      std::vector<Value> args;
      Row empty;
      for (const auto& arg : ref.function_args) {
        args.push_back(EvalExpr(*arg, empty, params_));
      }
      Result<ResultSet> rs = (*fn)(args);
      if (!rs.ok()) return rs.status();
      // The declared column list names (and truncates/pads) the output.
      for (const ColumnDef& c : ref.function_columns) {
        rel.columns.push_back(c.name);
      }
      rel.rows.reserve(rs->rows.size());
      for (Row& row : rs->rows) {
        row.resize(ref.function_columns.size());
        rel.rows.push_back(std::move(row));
      }
      return rel;
    }
  }
  return Status::Internal("unreachable table ref kind");
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
    const Expr& expr, const Row& row, const std::vector<Value>* params,
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
// Compile() turns a SELECT into a chain of pull operators:
//
//   Seed -> JoinStage* -> Filter? -> (Aggregate | SortProject | Project)
//        -> Distinct? -> Limit?
//
// Every operator obeys the RowSource block contract. JoinStage covers both
// the scan of the first FROM relation (its upstream is the one-empty-row
// Seed) and each subsequent join, with the same access-path selection as
// the materialized executor had: index probe, then (for materialized or
// unindexed relations with >1 outer row) a transient hash join, then an
// ordered-index range scan, then a full scan. Counters are incremented per
// row actually visited, so early termination is visible in ExecInfo.

namespace exec_ops {

struct PlanContext {
  Database* db = nullptr;
  const std::vector<Value>* params = nullptr;
  size_t block_rows = kDefaultBlockRows;
  /// Resolved ExecConfig degree of parallelism: >1 lets eligible
  /// operators (parallel scan/aggregate, sharded hash-join build,
  /// parallel sort) dispatch morsels to the shared pool.
  int dop = 1;
  ExecInfo exec;
  Status error = Status::OK();
  /// EXPLAIN [ANALYZE] / Database::profile_execution: each operator gets a
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

class Op {
 public:
  explicit Op(PlanContext* ctx) : ctx_(ctx) {}
  virtual ~Op() = default;
  virtual bool Next(RowBlock* out) = 0;
  virtual void Close() = 0;

 protected:
  PlanContext* ctx_;
};

// Emits a single empty row: the seed the first join stage crosses with.
class SeedOp : public Op {
 public:
  using Op::Op;
  bool Next(RowBlock* out) override {
    out->Clear();
    if (done_) return false;
    done_ = true;
    out->rows.emplace_back();
    return true;
  }
  void Close() override { done_ = true; }

 private:
  bool done_ = false;
};

// The relation a join stage reads (mirror of Executor::Relation, moved in
// so the operator owns materialized rows).
struct PlanRelation {
  std::string alias;
  std::vector<std::string> columns;
  const Table* table = nullptr;
  std::vector<Row> rows;
  bool materialized() const { return table == nullptr; }
};

struct StageConfig {
  PlanRelation relation;
  std::vector<const Expr*> preds;  // ON + eligible WHERE conjuncts
  bool left = false;

  // Index-probe access path.
  IndexProbe probe;

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
};

class JoinStageOp : public Op {
 public:
  JoinStageOp(PlanContext* ctx, std::unique_ptr<Op> child, StageConfig cfg)
      : Op(ctx), child_(std::move(child)), cfg_(std::move(cfg)) {
    ctx_->exec.scalar_ops += 1;
  }

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_) return false;
    if (!GovernorOk(ctx_)) return false;
    DB2G_FAILPOINT_STATUS("sql.executor.block", ctx_->error);
    if (!ctx_->error.ok()) return false;
    pull_cap_ = std::min(ctx_->block_rows, std::max<size_t>(out->capacity, 1));
    EnsureDecided();
    while (out->rows.size() < out->capacity) {
      if (phase_ == Phase::kNeedOuter) {
        if (!FetchNextOuter()) break;
        StartCursor();
        matched_ = false;
        phase_ = Phase::kDraining;
      } else if (phase_ == Phase::kDraining) {
        if (!NextJoined()) {
          phase_ = (!matched_ && cfg_.left) ? Phase::kPendingLeft
                                            : Phase::kNeedOuter;
          continue;
        }
        EmitIfMatch(out);
      } else {  // kPendingLeft: null-extend the unmatched outer row
        Row joined = outer_;
        joined.resize(joined.size() + cfg_.relation.columns.size());
        out->rows.push_back(std::move(joined));
        phase_ = Phase::kNeedOuter;
      }
    }
    return !out->rows.empty();
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    child_->Close();
    hash_table_.clear();
    shards_.clear();
    outer_buffer_.clear();
    rids_.clear();
  }

 private:
  enum class Phase { kNeedOuter, kDraining, kPendingLeft };
  enum class CursorKind { kRids, kHash, kScan, kRows };

  void PullChild() {
    child_block_.capacity = pull_cap_;
    if (child_->Next(&child_block_)) {
      for (Row& r : child_block_.rows) outer_buffer_.push_back(std::move(r));
    } else {
      child_eof_ = true;
    }
  }

  // Decides nested-loop vs hash once, mirroring the materialized rule
  // "hash only with more than one outer row": buffer outer rows until two
  // arrive (or upstream ends), then build the table if they did.
  void EnsureDecided() {
    if (decided_) return;
    decided_ = true;
    if (cfg_.probe.index != nullptr || !cfg_.has_hash) return;
    while (outer_buffer_.size() < 2 && !child_eof_) PullChild();
    if (outer_buffer_.size() < 2) return;
    hash_mode_ = true;
    const PlanRelation& rel = cfg_.relation;
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
    const PlanRelation& rel = cfg_.relation;
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
    while (outer_buffer_.empty() && !child_eof_) PullChild();
    if (outer_buffer_.empty()) return false;
    outer_ = std::move(outer_buffer_.front());
    outer_buffer_.pop_front();
    return true;
  }

  void StartCursor() {
    const PlanRelation& rel = cfg_.relation;
    rids_.clear();
    rid_pos_ = 0;
    if (cfg_.probe.index != nullptr) {
      cursor_ = CursorKind::kRids;
      std::vector<Row> keys = ProbeKeys(cfg_.probe, outer_, ctx_->params);
      for (const Row& key : keys) cfg_.probe.index->Lookup(key, &rids_);
      ctx_->exec.index_probes += keys.size();
      return;
    }
    if (hash_mode_) {
      cursor_ = CursorKind::kHash;
      Value key = EvalExpr(*cfg_.hash_key, outer_, ctx_->params);
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
      Value lo_value;
      Value hi_value;
      if (cfg_.range_lo != nullptr) {
        lo_value = EvalExpr(*cfg_.range_lo, outer_, ctx_->params);
      }
      if (cfg_.range_hi != nullptr) {
        hi_value = EvalExpr(*cfg_.range_hi, outer_, ctx_->params);
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

  // Starts the joined scratch row with a copy of the outer row; the inner
  // side is appended straight from column storage (base tables) or from
  // the materialized rows, with no intermediate Row.
  void StartJoined(size_t inner_width) {
    joined_.clear();
    joined_.reserve(outer_.size() + inner_width);
    joined_.insert(joined_.end(), outer_.begin(), outer_.end());
  }

  // Builds the next joined (outer + inner) row of the current cursor into
  // joined_; false at cursor end. Counts each visited row.
  bool NextJoined() {
    const PlanRelation& rel = cfg_.relation;
    switch (cursor_) {
      case CursorKind::kRids:
        if (rid_pos_ >= rids_.size()) return false;
        ctx_->exec.rows_scanned += 1;
        StartJoined(rel.columns.size());
        rel.table->AppendRow(rids_[rid_pos_++], &joined_);
        return true;
      case CursorKind::kHash: {
        if (hash_it_ == hash_end_) return false;
        ctx_->exec.rows_scanned += 1;
        size_t slot = hash_it_->second;
        ++hash_it_;
        StartJoined(rel.columns.size());
        if (rel.materialized()) {
          const Row& inner = rel.rows[slot];
          joined_.insert(joined_.end(), inner.begin(), inner.end());
        } else {
          rel.table->AppendRow(slot, &joined_);
        }
        return true;
      }
      case CursorKind::kScan:
        while (scan_rid_ < rel.table->slot_count() &&
               !rel.table->IsLive(scan_rid_)) {
          ++scan_rid_;
        }
        if (scan_rid_ >= rel.table->slot_count()) return false;
        ctx_->exec.rows_scanned += 1;
        StartJoined(rel.columns.size());
        rel.table->AppendRow(scan_rid_++, &joined_);
        return true;
      case CursorKind::kRows: {
        if (rows_pos_ >= rel.rows.size()) return false;
        ctx_->exec.rows_scanned += 1;
        StartJoined(rel.columns.size());
        const Row& inner = rel.rows[rows_pos_++];
        joined_.insert(joined_.end(), inner.begin(), inner.end());
        return true;
      }
    }
    return false;
  }

  void EmitIfMatch(RowBlock* out) {
    for (const Expr* pred : cfg_.preds) {
      Value v = EvalExpr(*pred, joined_, ctx_->params);
      if (v.is_null() || !v.Truthy()) return;
    }
    out->rows.push_back(std::move(joined_));
    matched_ = true;
  }

  std::unique_ptr<Op> child_;
  StageConfig cfg_;

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

  RowBlock child_block_;
  std::deque<Row> outer_buffer_;
  bool child_eof_ = false;
  bool closed_ = false;
  size_t pull_cap_ = kDefaultBlockRows;

  Phase phase_ = Phase::kNeedOuter;
  Row outer_;
  Row joined_;  // scratch outer+inner row built by NextJoined()
  bool matched_ = false;

  CursorKind cursor_ = CursorKind::kRows;
  std::vector<RowId> rids_;
  size_t rid_pos_ = 0;
  std::unordered_multimap<Value, size_t, ValueHash>::const_iterator hash_it_;
  std::unordered_multimap<Value, size_t, ValueHash>::const_iterator hash_end_;
  RowId scan_rid_ = 0;
  size_t rows_pos_ = 0;
};

// Residual WHERE (needed with LEFT JOINs; idempotent otherwise).
class FilterOp : public Op {
 public:
  FilterOp(PlanContext* ctx, std::unique_ptr<Op> child, const Expr* where)
      : Op(ctx), child_(std::move(child)), where_(where) {
    ctx_->exec.scalar_ops += 1;
  }

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_) return false;
    in_.capacity = std::max<size_t>(out->capacity, 1);
    while (child_->Next(&in_)) {
      for (Row& row : in_.rows) {
        Value v = EvalExpr(*where_, row, ctx_->params);
        if (!v.is_null() && v.Truthy()) out->rows.push_back(std::move(row));
      }
      if (!out->rows.empty()) return true;
    }
    return false;
  }

  void Close() override {
    closed_ = true;
    child_->Close();
  }

 private:
  std::unique_ptr<Op> child_;
  const Expr* where_;
  RowBlock in_;
  bool closed_ = false;
};

// Select-list shape shared by the projection operators.
struct Projection {
  std::vector<const Expr*> item_exprs;
  std::vector<std::vector<size_t>> star_expansion;  // per item (kStar only)

  Row Apply(const Row& row, const std::vector<Value>* params) const {
    Row out;
    for (size_t i = 0; i < item_exprs.size(); ++i) {
      if (item_exprs[i]->kind == ExprKind::kStar) {
        for (size_t offset : star_expansion[i]) {
          out.push_back(row[offset]);
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
  ProjectOp(PlanContext* ctx, std::unique_ptr<Op> child, Projection proj)
      : Op(ctx), child_(std::move(child)), proj_(std::move(proj)) {
    ctx_->exec.scalar_ops += 1;
  }

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_) return false;
    in_.capacity = std::max<size_t>(out->capacity, 1);
    if (!child_->Next(&in_)) return false;
    for (const Row& row : in_.rows) {
      out->rows.push_back(proj_.Apply(row, ctx_->params));
    }
    return true;
  }

  void Close() override {
    closed_ = true;
    child_->Close();
  }

 private:
  std::unique_ptr<Op> child_;
  Projection proj_;
  RowBlock in_;
  bool closed_ = false;
};

// Barrier: drains its input, projects with sort keys, stable-sorts, then
// emits blocks.
class SortProjectOp : public Op {
 public:
  SortProjectOp(PlanContext* ctx, std::unique_ptr<Op> child, Projection proj,
                std::vector<const Expr*> order_exprs,
                std::vector<bool> descending)
      : Op(ctx),
        child_(std::move(child)),
        proj_(std::move(proj)),
        order_exprs_(std::move(order_exprs)),
        descending_(std::move(descending)) {
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
    RowBlock block;
    block.capacity = ctx_->block_rows;
    while (child_->Next(&block)) {
      if (qc != nullptr) {
        // The sort buffer is the one place the SQL layer materializes an
        // unbounded input; charge it against the query's memory budget
        // block by block so a runaway ORDER BY trips before the buffer
        // does the damage the budget exists to prevent.
        uint64_t bytes = block.rows.size() * kApproxSortedRowBytes;
        charged_bytes_ += bytes;
        Status st = qc->ChargeMemory(bytes);
        if (!st.ok()) {
          ctx_->error = std::move(st);
          return;
        }
      }
      for (const Row& row : block.rows) {
        Projected p;
        p.out = proj_.Apply(row, ctx_->params);
        for (const Expr* expr : order_exprs_) {
          p.sort_keys.push_back(EvalExpr(*expr, row, ctx_->params));
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

  std::unique_ptr<Op> child_;
  Projection proj_;
  std::vector<const Expr*> order_exprs_;
  std::vector<bool> descending_;
  std::vector<Projected> sorted_;
  uint64_t charged_bytes_ = 0;
  bool drained_ = false;
  size_t pos_ = 0;
  bool closed_ = false;
};

// Barrier: accumulates aggregate state block by block, then emits the
// grouped (or global) output. HAVING, the SELECT-*-with-aggregation check,
// and ORDER-BY-over-aggregates resolution run at finish time, with the
// same data-dependent semantics the materialized executor had.
class AggregateOp : public Op {
 public:
  struct Config {
    Projection proj;
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

  AggregateOp(PlanContext* ctx, std::unique_ptr<Op> child, Config cfg)
      : Op(ctx), child_(std::move(child)), cfg_(std::move(cfg)) {
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
    Row sample;
    std::vector<AggState> states;
  };

  Status DrainAndFinish() {
    finished_ = true;
    RowBlock block;
    block.capacity = ctx_->block_rows;
    if (cfg_.simple) {
      std::vector<AggState> states(cfg_.args.size());
      while (child_->Next(&block)) {
        for (const Row& row : block.rows) {
          for (size_t i = 0; i < states.size(); ++i) {
            if (cfg_.args[i] == nullptr) {
              ++states[i].count;
            } else {
              states[i].Accumulate(EvalExpr(*cfg_.args[i], row, ctx_->params));
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

    while (child_->Next(&block)) {
      for (const Row& row : block.rows) {
        Row key;
        key.reserve(cfg_.group_exprs.size());
        for (const Expr* g : cfg_.group_exprs) {
          key.push_back(EvalExpr(*g, row, ctx_->params));
        }
        Group& group = groups_[key];
        if (group.states.empty()) {
          group.states.resize(cfg_.agg_specs.size());
          group.sample = row;
        }
        for (size_t a = 0; a < cfg_.agg_specs.size(); ++a) {
          if (cfg_.agg_specs[a].arg == nullptr) {
            ++group.states[a].count;  // COUNT(*)
          } else {
            group.states[a].Accumulate(
                EvalExpr(*cfg_.agg_specs[a].arg, row, ctx_->params));
          }
        }
      }
    }
    // A global aggregate over zero rows still yields one output row.
    if (groups_.empty() && !cfg_.has_group_by) {
      Group& group = groups_[Row()];
      group.states.resize(cfg_.agg_specs.size());
    }
    for (auto& [key, group] : groups_) {
      (void)key;
      std::unordered_map<const Expr*, Value> agg_values;
      for (size_t a = 0; a < cfg_.agg_specs.size(); ++a) {
        agg_values[cfg_.agg_specs[a].node] =
            group.states[a].Finish(cfg_.agg_specs[a].op);
      }
      if (cfg_.having != nullptr) {
        Value keep = EvalWithAggregates(*cfg_.having, group.sample,
                                        ctx_->params, agg_values);
        if (keep.is_null() || !keep.Truthy()) continue;
      }
      Row out;
      for (const Expr* expr : cfg_.proj.item_exprs) {
        if (expr->kind == ExprKind::kStar) {
          return Status::Unsupported("SELECT * with aggregation");
        }
        out.push_back(EvalWithAggregates(*expr, group.sample, ctx_->params,
                                         agg_values));
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

  std::unique_ptr<Op> child_;
  Config cfg_;
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
// These run below the row tree for single-table full scans when
// Database::vectorized_execution() is on:
//
//   ColumnScan -> ColumnFilter? -> (ColumnAggregate | ColumnProject
//                                   | ColumnToRow -> <row operators>)
//
// Blocks are selection vectors over the base table's column vectors; no
// row is materialized until the top of the column section. Filter
// conjuncts compile to fused compare+select kernels when they have the
// shape `col <op> const` (or IS [NOT] NULL); anything else falls back to
// per-row materialization + EvalExpr, counted in scalar_fallback_rows so
// profile() shows how much of the block actually ran scalar.

// Pull interface for the column section (ColumnBlock analogue of Op).
class ColOp {
 public:
  explicit ColOp(PlanContext* ctx) : ctx_(ctx) {}
  virtual ~ColOp() = default;
  virtual bool Next(ColumnBlock* out) = 0;
  virtual void Close() = 0;

 protected:
  PlanContext* ctx_;
};

// Emits the live slots of a base table in ascending order.
class ColumnScanOp : public ColOp {
 public:
  ColumnScanOp(PlanContext* ctx, const Table* table)
      : ColOp(ctx), table_(table) {
    ctx_->exec.vectorized_ops += 1;
  }

  bool Next(ColumnBlock* out) override {
    out->Clear();
    out->table = table_;
    if (closed_) return false;
    if (!GovernorOk(ctx_)) return false;
    DB2G_FAILPOINT_STATUS("sql.executor.block", ctx_->error);
    if (!ctx_->error.ok()) return false;
    if (!started_) {
      started_ = true;
      ctx_->exec.full_scans += 1;
    }
    size_t cap = std::max<size_t>(out->capacity, 1);
    while (rid_ < table_->slot_count() && out->sel.size() < cap) {
      if (table_->IsLive(rid_)) out->sel.push_back(rid_);
      ++rid_;
    }
    ctx_->exec.rows_scanned += out->sel.size();
    ctx_->exec.vectorized_rows += out->sel.size();
    return !out->sel.empty();
  }

  void Close() override { closed_ = true; }

 private:
  const Table* table_;
  RowId rid_ = 0;
  bool started_ = false;
  bool closed_ = false;
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

// Compiled WHERE conjuncts, shared by the serial ColumnFilterOp and the
// parallel scan workers. Compile() orders kernelized conjuncts before
// scalar fallbacks (AND conjuncts are side-effect free, so reordering
// preserves the result set); MaterializeConstants() evaluates compare
// constants once on the coordinating thread, after which the set is
// read-only and Apply() is safe to call from concurrent workers — each
// brings its own scratch row for the fallback path.
class KernelSet {
 public:
  void Compile(const std::vector<const Expr*>& conjuncts) {
    std::vector<FilterKernel> fallbacks;
    for (const Expr* conjunct : conjuncts) {
      FilterKernel k = CompileFilterKernel(conjunct);
      if (k.kind == FilterKernel::Kind::kFallback) {
        fallbacks.push_back(k);
      } else {
        kernels_.push_back(k);
      }
    }
    kernels_.insert(kernels_.end(), fallbacks.begin(), fallbacks.end());
  }

  bool empty() const { return kernels_.empty(); }

  void MaterializeConstants(const std::vector<Value>* params) {
    Row empty;
    for (const FilterKernel& k : kernels_) {
      if (k.kind == FilterKernel::Kind::kCompare) {
        constants_.emplace(k.const_expr,
                           EvalExpr(*k.const_expr, empty, params));
      }
    }
  }

  /// Narrows `sel` in place through every kernel; returns how many rows
  /// the scalar fallback had to materialize (scalar_fallback_rows).
  uint64_t Apply(const Table* table, std::vector<uint64_t>* sel,
                 const std::vector<Value>* params, Row* scratch) const {
    uint64_t fallback_rows = 0;
    for (const FilterKernel& k : kernels_) {
      if (sel->empty()) break;
      switch (k.kind) {
        case FilterKernel::Kind::kCompare:
          ApplyCompare(k, table, sel);
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
  void ApplyCompare(const FilterKernel& k, const Table* table,
                    std::vector<uint64_t>* sel_in) const {
    const Value& constant = constants_.at(k.const_expr);
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

  std::vector<FilterKernel> kernels_;
  std::unordered_map<const Expr*, Value> constants_;
};

// Applies compiled kernels to each block, narrowing the selection vector
// in place.
class ColumnFilterOp : public ColOp {
 public:
  ColumnFilterOp(PlanContext* ctx, std::unique_ptr<ColOp> child,
                 const std::vector<const Expr*>& conjuncts)
      : ColOp(ctx), child_(std::move(child)) {
    ctx_->exec.vectorized_ops += 1;
    kernels_.Compile(conjuncts);
    kernels_.MaterializeConstants(ctx->params);
  }

  bool Next(ColumnBlock* out) override {
    if (closed_) {
      out->Clear();
      return false;
    }
    while (child_->Next(out)) {
      ctx_->exec.scalar_fallback_rows +=
          kernels_.Apply(out->table, &out->sel, ctx_->params, &scratch_);
      if (!out->sel.empty()) return true;
    }
    out->Clear();
    return false;
  }

  void Close() override {
    closed_ = true;
    child_->Close();
  }

 private:
  std::unique_ptr<ColOp> child_;
  KernelSet kernels_;
  Row scratch_;
  bool closed_ = false;
};

// Morsel-driven parallel scan with fused filtering: the table's slot
// space splits into fixed-size morsels; each round dispatches up to dop
// morsels to the shared pool, every worker enumerating the live slots of
// its range and narrowing them through the shared read-only KernelSet
// (private scratch row each). Worker outputs concatenate in morsel index
// order, so downstream operators see the identical ascending-slot
// selection a serial ColumnScan -> ColumnFilter chain emits. Each worker
// installs the query's governor context and checks it per morsel, so
// deadlines, cancellation, and budgets observe mid-scan; the first
// failing morsel (in morsel order) becomes the plan error.
class ParallelColumnScanOp : public ColOp {
 public:
  ParallelColumnScanOp(PlanContext* ctx, const Table* table,
                       const std::vector<const Expr*>& conjuncts, int dop,
                       OpProfile* profile)
      : ColOp(ctx),
        table_(table),
        dop_(dop < 1 ? 1 : dop),
        profile_(profile) {
    ctx_->exec.vectorized_ops += 1;
    kernels_.Compile(conjuncts);
    kernels_.MaterializeConstants(ctx->params);
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
        if (next_morsel_ >= morsel_count_) break;
        RunRound();
        if (!ctx_->error.ok()) return false;
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
  void Start() {
    started_ = true;
    uint64_t slots = table_->slot_count();
    // Aim for ~4 morsels per worker (work stealing evens out skew from
    // dead-slot gaps and selective filters) within fixed bounds.
    morsel_slots_ = slots / (static_cast<uint64_t>(dop_) * 4);
    if (morsel_slots_ < kMinMorselSlots) morsel_slots_ = kMinMorselSlots;
    if (morsel_slots_ > kMaxMorselSlots) morsel_slots_ = kMaxMorselSlots;
    morsel_count_ = (slots + morsel_slots_ - 1) / morsel_slots_;
    ctx_->exec.full_scans += 1;
    ctx_->exec.dop = std::max<uint64_t>(ctx_->exec.dop,
                                        static_cast<uint64_t>(dop_));
    ctx_->exec.morsels += morsel_count_;
    if (profile_ != nullptr) {
      profile_->detail += " morsels=" + std::to_string(morsel_count_);
    }
  }

  // One round: up to dop_ morsels in parallel, outputs merged in morsel
  // order into ready_.
  void RunRound() {
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(dop_, morsel_count_ - next_morsel_));
    uint64_t base = next_morsel_;
    next_morsel_ += n;
    struct MorselOut {
      std::vector<uint64_t> sel;
      uint64_t live = 0;
      uint64_t fallback = 0;
      Status status = Status::OK();
    };
    std::vector<MorselOut> outs(n);
    governor::QueryContext* qc = governor::CurrentQueryContext();
    ThreadPool::Shared().RunBatch(n, [&](size_t i) {
      governor::ScopedQueryContext governed(qc);
      MorselOut& mo = outs[i];
      mo.status = governor::CheckCurrent();
      if (!mo.status.ok()) return;
      uint64_t lo = (base + i) * morsel_slots_;
      uint64_t hi =
          std::min<uint64_t>(table_->slot_count(), lo + morsel_slots_);
      mo.sel.reserve(hi - lo);
      for (uint64_t rid = lo; rid < hi; ++rid) {
        if (table_->IsLive(rid)) mo.sel.push_back(rid);
      }
      mo.live = mo.sel.size();
      Row scratch;
      mo.fallback = kernels_.Apply(table_, &mo.sel, ctx_->params, &scratch);
    });
    ready_.clear();
    pos_ = 0;
    for (MorselOut& mo : outs) {
      if (!mo.status.ok()) {
        if (ctx_->error.ok()) ctx_->error = std::move(mo.status);
        return;
      }
      ctx_->exec.rows_scanned += mo.live;
      ctx_->exec.vectorized_rows += mo.live;
      ctx_->exec.scalar_fallback_rows += mo.fallback;
      ready_.insert(ready_.end(), mo.sel.begin(), mo.sel.end());
    }
  }

  static constexpr uint64_t kMinMorselSlots = 256;
  static constexpr uint64_t kMaxMorselSlots = 8192;

  const Table* table_;
  int dop_;
  OpProfile* profile_;
  KernelSet kernels_;
  std::vector<uint64_t> ready_;
  size_t pos_ = 0;
  uint64_t morsel_slots_ = kMaxMorselSlots;
  uint64_t morsel_count_ = 0;
  uint64_t next_morsel_ = 0;
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
                  std::vector<size_t> out_cols)
      : Op(ctx), child_(std::move(child)), out_cols_(std::move(out_cols)) {
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
  std::vector<size_t> out_cols_;
  ColumnBlock in_;
  bool closed_ = false;
};

// Row-materialization adapter at the boundary between the column section
// and the classic row operators: turns each selected slot into a full
// row, so everything above (sort, distinct, scalar aggregation, the
// RowStream API) is unchanged.
class ColumnToRowOp : public Op {
 public:
  ColumnToRowOp(PlanContext* ctx, std::unique_ptr<ColOp> child)
      : Op(ctx), child_(std::move(child)) {
    ctx_->exec.vectorized_ops += 1;
  }

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_) return false;
    in_.capacity = std::max<size_t>(out->capacity, 1);
    if (!child_->Next(&in_)) return false;
    out->rows.reserve(std::min(out->capacity, in_.sel.size()));
    for (uint64_t rid : in_.sel) {
      in_.table->AppendRow(rid, &out->rows.emplace_back());
    }
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

// Vectorized aggregation barrier. Two shapes, mirroring AggregateOp:
// the "simple" global-aggregate list (SELECT AGG(col), ...), accumulated
// with typed per-column loops, and GROUP BY over plain columns with
// aggregate-or-group-key select items. Anything else stays on the scalar
// AggregateOp behind the ColumnToRow adapter.
class ColumnAggregateOp : public Op {
 public:
  struct Config {
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

  ColumnAggregateOp(PlanContext* ctx, std::unique_ptr<ColOp> child,
                    Config cfg)
      : Op(ctx), child_(std::move(child)), cfg_(std::move(cfg)) {
    ctx_->exec.vectorized_ops += 1;
  }

  // Typed accumulation of one aggregate over one selection. Mirrors
  // AggState::Accumulate exactly (including elementwise double-sum
  // rounding, so AVG matches the scalar path bit for bit); min/max are
  // only tracked when the op needs them. Static and side-effect free on
  // shared state, so parallel morsel workers reuse it on partial states.
  static void AccumulateColumn(const Table* table,
                               const std::vector<uint64_t>& sel, int arg_col,
                               const std::string& op, AggState* st) {
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

  // Grouped accumulation of one selection into a (group key -> states)
  // map; shared with the parallel aggregate's per-worker partial maps.
  static void AccumulateGrouped(const Table* table,
                                const std::vector<uint64_t>& sel,
                                const Config& cfg,
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
  static Row FinishGroup(const Config& cfg, const Row& key,
                         const std::vector<AggState>& states) {
    Row out;
    out.reserve(cfg.items.size());
    for (const Config::Item& item : cfg.items) {
      if (item.is_group) {
        out.push_back(key[item.index]);
      } else {
        out.push_back(states[item.index].Finish(cfg.ops[item.index]));
      }
    }
    return out;
  }

  bool Next(RowBlock* out) override {
    out->Clear();
    if (closed_) return false;
    if (!finished_) DrainAndFinish();
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
  void DrainAndFinish() {
    finished_ = true;
    ColumnBlock block;
    block.capacity = ctx_->block_rows;
    if (cfg_.simple) {
      std::vector<AggState> states(cfg_.ops.size());
      while (child_->Next(&block)) {
        for (size_t a = 0; a < states.size(); ++a) {
          AccumulateColumn(block.table, block.sel, cfg_.arg_cols[a],
                           cfg_.ops[a], &states[a]);
        }
      }
      Row out;
      out.reserve(states.size());
      for (size_t a = 0; a < states.size(); ++a) {
        out.push_back(states[a].Finish(cfg_.ops[a]));
      }
      output_.push_back(std::move(out));
      return;
    }

    while (child_->Next(&block)) {
      AccumulateGrouped(block.table, block.sel, cfg_, &groups_);
    }
    for (auto& [key, states] : groups_) {
      output_.push_back(FinishGroup(cfg_, key, states));
    }
  }

  std::unique_ptr<ColOp> child_;
  Config cfg_;
  std::map<Row, std::vector<AggState>> groups_;  // deterministic output
  std::vector<Row> output_;
  bool finished_ = false;
  size_t pos_ = 0;
  bool closed_ = false;
};

// Fused parallel scan + filter + aggregate: the full-scan aggregate is
// the one shape where the barrier already owns the whole input, so the
// morsel workers skip the block protocol entirely — each task scans a
// contiguous range of morsels, narrows them through the shared KernelSet,
// and accumulates into a private partial state (vector<AggState> for the
// simple shape, an ordered group map for GROUP BY). The barrier merges
// partials in task order: COUNT/MIN/MAX and integer sums merge exactly;
// double sums reassociate deterministically for a fixed dop. Grouped
// output stays key-sorted (std::map) and therefore identical to serial.
class ParallelColumnAggregateOp : public Op {
 public:
  using Config = ColumnAggregateOp::Config;

  ParallelColumnAggregateOp(PlanContext* ctx, const Table* table,
                            const std::vector<const Expr*>& conjuncts,
                            Config cfg, int dop, OpProfile* profile)
      : Op(ctx),
        table_(table),
        cfg_(std::move(cfg)),
        dop_(dop < 1 ? 1 : dop),
        profile_(profile) {
    ctx_->exec.vectorized_ops += 1;
    kernels_.Compile(conjuncts);
    kernels_.MaterializeConstants(ctx->params);
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
    uint64_t morsel_slots = slots / (static_cast<uint64_t>(dop_) * 4);
    if (morsel_slots < kMinMorselSlots) morsel_slots = kMinMorselSlots;
    if (morsel_slots > kMaxMorselSlots) morsel_slots = kMaxMorselSlots;
    const uint64_t morsel_count = (slots + morsel_slots - 1) / morsel_slots;
    const size_t task_count =
        static_cast<size_t>(std::min<uint64_t>(dop_, morsel_count));
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
            ColumnAggregateOp::AccumulateColumn(table_, sel, cfg_.arg_cols[a],
                                                cfg_.ops[a], &p.states[a]);
          }
        } else {
          ColumnAggregateOp::AccumulateGrouped(table_, sel, cfg_, &p.groups);
        }
      }
    });
    ctx_->exec.full_scans += 1;
    ctx_->exec.dop = std::max<uint64_t>(ctx_->exec.dop,
                                        static_cast<uint64_t>(dop_));
    ctx_->exec.morsels += morsel_count;
    if (profile_ != nullptr) {
      profile_->detail += " morsels=" + std::to_string(morsel_count);
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
      output_.push_back(ColumnAggregateOp::FinishGroup(cfg_, key,
                                                       group_states));
    }
  }

  static constexpr uint64_t kMinMorselSlots = 256;
  static constexpr uint64_t kMaxMorselSlots = 8192;

  const Table* table_;
  Config cfg_;
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

class ProfiledOp : public Op {
 public:
  ProfiledOp(PlanContext* ctx, std::unique_ptr<Op> child, OpProfile* prof)
      : Op(ctx), child_(std::move(child)), prof_(prof) {}

  bool Next(RowBlock* out) override {
    uint64_t t0 = TraceClock::Default()->NowMicros();
    bool ok = child_->Next(out);
    prof_->micros += TraceClock::Default()->NowMicros() - t0;
    if (ok) {
      prof_->blocks += 1;
      prof_->rows_out += out->rows.size();
    }
    return ok;
  }

  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Op> child_;
  OpProfile* prof_;
};

class ProfiledColOp : public ColOp {
 public:
  ProfiledColOp(PlanContext* ctx, std::unique_ptr<ColOp> child,
                OpProfile* prof)
      : ColOp(ctx), child_(std::move(child)), prof_(prof) {}

  bool Next(ColumnBlock* out) override {
    uint64_t t0 = TraceClock::Default()->NowMicros();
    bool ok = child_->Next(out);
    prof_->micros += TraceClock::Default()->NowMicros() - t0;
    if (ok) {
      prof_->blocks += 1;
      prof_->rows_out += out->sel.size();
    }
    return ok;
  }

  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<ColOp> child_;
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
                              exec_ops::ColumnAggregateOp::Config* out) {
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
    exec_ops::ColumnAggregateOp::Config::Item lowered;
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
  std::vector<std::unique_ptr<Expr>> owned;  // bound expression clones
  std::vector<std::string> columns;
  std::unique_ptr<exec_ops::Op> root;
  // Virtual-table snapshots: operators keep raw `const Table*` pointers
  // (same as base tables), so the plan owns the backing storage.
  std::vector<std::shared_ptr<Table>> pinned;
  ExecInfo flushed;  // portion already mirrored into Database::stats()
  bool closed = false;

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
  return state_->columns;
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
}

Result<ResultSet> SelectPlan::Drain() {
  ResultSet result;
  result.columns = state_->columns;
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
// SELECT compilation
// ---------------------------------------------------------------------

Result<std::unique_ptr<SelectPlan>> Executor::Compile(const SelectStmt& stmt,
                                                      size_t block_rows) {
  using exec_ops::JoinStageOp;
  using exec_ops::Op;
  using exec_ops::PlanRelation;
  using exec_ops::Projection;
  using exec_ops::StageConfig;

  db_->stats().selects.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_unique<SelectPlan::State>();
  state->ctx.db = db_;
  state->ctx.params = params_;
  state->ctx.block_rows = std::max<size_t>(block_rows, 1);

  // Resolve the statement's effective ExecConfig: process defaults <-
  // session config <- thread-local per-query override (ScopedExecConfig).
  const ExecConfig exec_cfg = db_->ResolveExecConfig();
  const int dop = exec_cfg.parallelism();
  state->ctx.dop = dop;
  if (exec_cfg.block_rows() > 0 && block_rows == kDefaultBlockRows) {
    // A config block size applies only when the caller did not ask for a
    // specific one (streaming pulls pass their own).
    state->ctx.block_rows = std::max<size_t>(exec_cfg.block_rows(), 1);
  }

  // EXPLAIN needs the operator chain recorded even without execution;
  // ANALYZE and the config's profile flag additionally time each Next().
  const bool profiled =
      stmt.explain || stmt.analyze || exec_cfg.profile();
  state->ctx.profiled = profiled;
  auto prof = [&](std::unique_ptr<exec_ops::Op> op, const char* name,
                  std::string detail) -> std::unique_ptr<exec_ops::Op> {
    if (!profiled) return op;
    OpProfile node;
    node.name = name;
    node.detail = std::move(detail);
    state->ctx.profiles.push_back(std::move(node));
    return std::make_unique<exec_ops::ProfiledOp>(
        &state->ctx, std::move(op), &state->ctx.profiles.back());
  };
  auto prof_col = [&](std::unique_ptr<exec_ops::ColOp> op, const char* name,
                      std::string detail)
      -> std::unique_ptr<exec_ops::ColOp> {
    if (!profiled) return op;
    OpProfile node;
    node.name = name;
    node.detail = std::move(detail);
    state->ctx.profiles.push_back(std::move(node));
    return std::make_unique<exec_ops::ProfiledColOp>(
        &state->ctx, std::move(op), &state->ctx.profiles.back());
  };

  // 1. Resolve all FROM-clause relations, in order.
  struct StageInput {
    PlanRelation relation;
    const Expr* on = nullptr;  // join condition (nullptr for FROM list)
    bool left = false;
  };
  std::vector<StageInput> stages;
  auto add_stage = [&](const TableRef& ref, const Expr* on,
                       bool left) -> Status {
    Result<Relation> rel = ResolveRef(ref);
    if (!rel.ok()) return rel.status();
    PlanRelation plan_rel;
    plan_rel.alias = std::move(rel->alias);
    plan_rel.columns = std::move(rel->columns);
    plan_rel.table = rel->table;
    plan_rel.rows = std::move(rel->rows);
    if (rel->owned) state->pinned.push_back(std::move(rel->owned));
    stages.push_back({std::move(plan_rel), on, left});
    return Status::OK();
  };
  for (const TableRef& ref : stmt.from) {
    DB2G_RETURN_NOT_OK(add_stage(ref, nullptr, false));
  }
  for (const JoinClause& join : stmt.joins) {
    DB2G_RETURN_NOT_OK(add_stage(join.table, join.on.get(),
                                 join.kind == JoinClause::Kind::kLeft));
  }

  // 2. Build the full scope. Prebound statements carry resolved column
  // offsets already; otherwise clone + bind against this scope. Join
  // conditions and WHERE conjuncts are bound against the FULL scope — a
  // prefix-stage row shares the offsets of its prefix, so evaluating a
  // conjunct early is safe whenever its columns resolve in the prefix.
  Scope scope;
  for (const StageInput& stage : stages) {
    scope.AddTable(stage.relation.alias, stage.relation.columns);
  }
  bool any_left = false;
  for (const StageInput& stage : stages) any_left |= stage.left;

  std::vector<std::unique_ptr<Expr>>& owned = state->owned;
  auto borrow = [&](const std::unique_ptr<Expr>& source)
      -> Result<const Expr*> {
    if (stmt.prebound) return source.get();
    std::unique_ptr<Expr> copy = source->Clone();
    Status st = BindExpr(copy.get(), scope);
    if (!st.ok()) return st;
    owned.push_back(std::move(copy));
    return static_cast<const Expr*>(owned.back().get());
  };

  const Expr* where = nullptr;
  if (stmt.where) {
    Result<const Expr*> bound = borrow(stmt.where);
    if (!bound.ok()) return bound.status();
    where = *bound;
  }
  std::vector<const Expr*> where_conjuncts;
  SplitConjuncts(where, &where_conjuncts);

  // Join ON conditions, parallel to stages.
  std::vector<const Expr*> stage_on(stages.size(), nullptr);
  for (size_t k = 0; k < stages.size(); ++k) {
    if (stages[k].on == nullptr) continue;
    if (stmt.prebound) {
      stage_on[k] = stages[k].on;
    } else {
      std::unique_ptr<Expr> copy = stages[k].on->Clone();
      DB2G_RETURN_NOT_OK(BindExpr(copy.get(), scope));
      owned.push_back(std::move(copy));
      stage_on[k] = owned.back().get();
    }
  }

  // 3. Chain join-stage operators, probing indexes where possible. A
  // single-stage base-table full scan may instead become the column
  // section of the tree (ColumnScan -> ColumnFilter), consumed in step 5.
  std::unique_ptr<Op> source =
      std::make_unique<exec_ops::SeedOp>(&state->ctx);
  std::unique_ptr<exec_ops::ColOp> col_source;
  // Column-section pieces, recorded by the vectorized gate below and
  // lowered lazily in step 5: at dop > 1 the scan (and, for eligible
  // aggregates, the whole scan+filter+aggregate pipeline) fuses into a
  // parallel operator instead of the serial ColumnScan -> ColumnFilter
  // chain.
  const Table* col_table = nullptr;
  std::vector<const Expr*> col_preds;
  std::string col_alias;
  auto build_col_source = [&]() -> std::unique_ptr<exec_ops::ColOp> {
    if (dop > 1) {
      std::unique_ptr<exec_ops::ColOp> op;
      if (profiled) {
        OpProfile node;
        node.name = "ParallelColumnScan";
        node.detail = col_alias + " dop=" + std::to_string(dop);
        if (!col_preds.empty()) {
          node.detail += " " + std::to_string(col_preds.size()) +
                         " conjunct(s)";
        }
        state->ctx.profiles.push_back(std::move(node));
        OpProfile* prof_node = &state->ctx.profiles.back();
        op = std::make_unique<exec_ops::ParallelColumnScanOp>(
            &state->ctx, col_table, col_preds, dop, prof_node);
        return std::make_unique<exec_ops::ProfiledColOp>(
            &state->ctx, std::move(op), prof_node);
      }
      return std::make_unique<exec_ops::ParallelColumnScanOp>(
          &state->ctx, col_table, col_preds, dop, nullptr);
    }
    std::unique_ptr<exec_ops::ColOp> op =
        prof_col(std::make_unique<exec_ops::ColumnScanOp>(&state->ctx,
                                                          col_table),
                 "ColumnScan", col_alias);
    if (!col_preds.empty()) {
      size_t npreds = col_preds.size();
      op = prof_col(std::make_unique<exec_ops::ColumnFilterOp>(
                        &state->ctx, std::move(op), col_preds),
                    "ColumnFilter", std::to_string(npreds) + " conjunct(s)");
    }
    return op;
  };
  Scope partial_scope;
  bool no_from = stages.empty();

  for (size_t k = 0; k < stages.size(); ++k) {
    StageInput& stage = stages[k];
    Scope before = partial_scope;
    partial_scope.AddTable(stage.relation.alias, stage.relation.columns);

    StageConfig cfg;
    cfg.left = stage.left;

    // Collect predicates applicable at this stage (borrowed pointers into
    // the already-bound where / on expressions).
    if (stage_on[k] != nullptr) cfg.preds.push_back(stage_on[k]);
    if (!any_left) {
      for (const Expr* conjunct : where_conjuncts) {
        if (BindsIn(*conjunct, partial_scope) &&
            !BindsIn(*conjunct, before)) {
          cfg.preds.push_back(conjunct);
        }
      }
    }

    // Index probe against the inner relation's base table.
    const Table* table = stage.relation.table;
    if (table != nullptr) {
      std::vector<const Expr*> conjuncts;
      for (const Expr* pred : cfg.preds) SplitConjuncts(pred, &conjuncts);
      cfg.probe =
          PlanIndexProbe(*table, stage.relation.alias, conjuncts, before);
    }

    // Hash-join candidate: an equality term with no backing index
    // (materialized relations — subqueries, views, table functions — or
    // unindexed base tables). Whether the hash table is actually built is
    // decided at runtime, once the stage has seen more than one outer row.
    if (cfg.probe.index == nullptr) {
      std::vector<const Expr*> conjuncts;
      for (const Expr* pred : cfg.preds) SplitConjuncts(pred, &conjuncts);
      for (const Expr* conjunct : conjuncts) {
        if (conjunct->kind != ExprKind::kBinary || conjunct->op != "=") {
          continue;
        }
        const Expr* lhs = conjunct->children[0].get();
        const Expr* rhs = conjunct->children[1].get();
        auto inner_col = [&](const Expr* e) -> int {
          if (e->kind != ExprKind::kColumnRef) return -1;
          if (!e->table_alias.empty() &&
              !EqualsIgnoreCase(e->table_alias, stage.relation.alias)) {
            return -1;
          }
          if (BindsIn(*e, before)) return -1;
          for (size_t c = 0; c < stage.relation.columns.size(); ++c) {
            if (EqualsIgnoreCase(stage.relation.columns[c], e->column)) {
              return static_cast<int>(c);
            }
          }
          return -1;
        };
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
      std::vector<const Expr*> conjuncts;
      for (const Expr* pred : cfg.preds) SplitConjuncts(pred, &conjuncts);
      const TableSchema& schema = table->schema();
      for (const Expr* conjunct : conjuncts) {
        if (conjunct->kind != ExprKind::kBinary) continue;
        const std::string& op = conjunct->op;
        if (op != "<" && op != "<=" && op != ">" && op != ">=") continue;
        const Expr* lhs = conjunct->children[0].get();
        const Expr* rhs = conjunct->children[1].get();
        auto inner_col = [&](const Expr* e) {
          return e->kind == ExprKind::kColumnRef &&
                 (e->table_alias.empty() ||
                  EqualsIgnoreCase(e->table_alias, stage.relation.alias)) &&
                 schema.HasColumn(e->column) && !BindsIn(*e, before);
        };
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

    // Vectorized path: a single-stage full scan over a base table — no
    // index probe, no range scan (the transient hash join never builds
    // against the one-row seed, so it would full-scan too) — runs
    // column-at-a-time, with the WHERE conjuncts compiled to kernels.
    if (k == 0 && stages.size() == 1 && !cfg.left &&
        stage.relation.table != nullptr && cfg.probe.index == nullptr &&
        cfg.range_index == nullptr && exec_cfg.vectorized()) {
      col_table = stage.relation.table;
      col_preds = cfg.preds;
      col_alias = stage.relation.alias;
      continue;
    }

    std::string stage_detail = stage.relation.alias;
    if (cfg.probe.index != nullptr) {
      stage_detail += " index probe";
    } else if (cfg.range_index != nullptr) {
      stage_detail += " range scan";
    } else if (cfg.has_hash) {
      stage_detail += " hash candidate";
    } else if (stage.relation.table != nullptr) {
      stage_detail += " scan";
    } else {
      stage_detail += " materialized";
    }
    cfg.relation = std::move(stage.relation);
    source = prof(std::make_unique<JoinStageOp>(&state->ctx,
                                                std::move(source),
                                                std::move(cfg)),
                  k == 0 ? "Scan" : "Join", std::move(stage_detail));
  }

  // 4. Residual WHERE (needed with LEFT JOINs; idempotent otherwise).
  if (where != nullptr && (any_left || no_from)) {
    source = prof(std::make_unique<exec_ops::FilterOp>(
                      &state->ctx, std::move(source), where),
                  "Filter", where->ToString());
  }

  // 5. Projection / aggregation.
  bool has_aggregate = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    has_aggregate |= ContainsAggregate(*item.expr);
  }

  Projection proj;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->kind == ExprKind::kStar) {
      std::vector<size_t> offsets =
          scope.StarOffsets(item.expr->table_alias);
      if (offsets.empty() && !item.expr->table_alias.empty()) {
        return Status::NotFound("unknown alias in " +
                                item.expr->table_alias + ".*");
      }
      for (size_t offset : offsets) {
        state->columns.push_back(scope.NameAt(offset));
      }
      proj.star_expansion.push_back(std::move(offsets));
      proj.item_exprs.push_back(item.expr.get());
      continue;
    }
    Result<const Expr*> bound = borrow(item.expr);
    if (!bound.ok()) return bound.status();
    state->columns.push_back(OutputName(item));
    proj.star_expansion.emplace_back();
    proj.item_exprs.push_back(*bound);
  }

  if (has_aggregate) {
    exec_ops::AggregateOp::Config agg;
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
        Result<const Expr*> bound = borrow(g);
        if (!bound.ok()) return bound.status();
        agg.group_exprs.push_back(*bound);
      }
      agg.has_group_by = !stmt.group_by.empty();
      if (stmt.having) {
        Result<const Expr*> bound = borrow(stmt.having);
        if (!bound.ok()) return bound.status();
        agg.having = *bound;
      }
      for (const Expr* expr : proj.item_exprs) {
        CollectAggregates(expr, &agg.agg_specs);
      }
      if (agg.having != nullptr) {
        CollectAggregates(agg.having, &agg.agg_specs);
      }
      agg.order_by = &stmt.order_by;
      agg.columns = &state->columns;
    }
    bool lowered = false;
    if (col_table != nullptr) {
      exec_ops::ColumnAggregateOp::Config vagg;
      if (LowerVectorizedAggregate(agg, proj, stmt, &vagg)) {
        const char* vdetail = vagg.simple ? "simple" : "grouped";
        if (dop > 1) {
          // Fused parallel scan+filter+aggregate: the barrier owns the
          // whole input, so the morsel workers aggregate directly into
          // per-worker partial states merged in morsel order.
          std::string pdetail =
              std::string(vdetail) + " dop=" + std::to_string(dop);
          if (profiled) {
            OpProfile node;
            node.name = "ParallelColumnAggregate";
            node.detail = std::move(pdetail);
            state->ctx.profiles.push_back(std::move(node));
            OpProfile* prof_node = &state->ctx.profiles.back();
            std::unique_ptr<exec_ops::Op> op =
                std::make_unique<exec_ops::ParallelColumnAggregateOp>(
                    &state->ctx, col_table, col_preds, std::move(vagg), dop,
                    prof_node);
            source = std::make_unique<exec_ops::ProfiledOp>(
                &state->ctx, std::move(op), prof_node);
          } else {
            source = std::make_unique<exec_ops::ParallelColumnAggregateOp>(
                &state->ctx, col_table, col_preds, std::move(vagg), dop,
                nullptr);
          }
        } else {
          source = prof(std::make_unique<exec_ops::ColumnAggregateOp>(
                            &state->ctx, build_col_source(),
                            std::move(vagg)),
                        "ColumnAggregate", vdetail);
        }
        lowered = true;
      } else {
        // Aggregate shape without a vectorized lowering: materialize rows
        // and keep the scalar barrier ("mixed" mode in profile()).
        source = prof(std::make_unique<exec_ops::ColumnToRowOp>(
                          &state->ctx, build_col_source()),
                      "ColumnToRow", "");
      }
    }
    if (!lowered) {
      const char* adetail = agg.simple ? "simple" : "grouped";
      agg.proj = std::move(proj);
      source = prof(std::make_unique<exec_ops::AggregateOp>(
                        &state->ctx, std::move(source), std::move(agg)),
                    "Aggregate", adetail);
    }
  } else {
    // Plain projection, with optional ORDER BY over source rows.
    std::vector<const Expr*> order_exprs;
    std::vector<bool> order_desc;
    for (const OrderItem& item : stmt.order_by) {
      order_desc.push_back(item.descending);
      if (stmt.prebound) {
        order_exprs.push_back(item.expr.get());
        continue;
      }
      std::unique_ptr<Expr> expr = item.expr->Clone();
      // ORDER BY may reference a select alias.
      bool rebound = false;
      if (expr->kind == ExprKind::kColumnRef && expr->table_alias.empty()) {
        for (size_t i = 0; i < stmt.items.size(); ++i) {
          if (EqualsIgnoreCase(stmt.items[i].alias, expr->column)) {
            order_exprs.push_back(proj.item_exprs[i]);
            rebound = true;
            break;
          }
        }
      }
      if (rebound) continue;
      DB2G_RETURN_NOT_OK(BindExpr(expr.get(), scope));
      owned.push_back(std::move(expr));
      order_exprs.push_back(owned.back().get());
    }
    bool lowered = false;
    std::vector<size_t> out_cols;
    if (col_table != nullptr) col_source = build_col_source();
    if (col_source != nullptr && order_exprs.empty() &&
        LowerVectorizedProjection(proj, &out_cols)) {
      size_t ncols = out_cols.size();
      source = prof(std::make_unique<exec_ops::ColumnProjectOp>(
                        &state->ctx, std::move(col_source),
                        std::move(out_cols)),
                    "ColumnProject", "cols=" + std::to_string(ncols));
      lowered = true;
    } else if (col_source != nullptr) {
      // Computed select items or ORDER BY: materialize rows and keep the
      // scalar projection/sort ("mixed" mode in profile()).
      source = prof(std::make_unique<exec_ops::ColumnToRowOp>(
                        &state->ctx, std::move(col_source)),
                    "ColumnToRow", "");
    }
    if (!lowered) {
      size_t nitems = proj.item_exprs.size();
      if (!order_exprs.empty()) {
        size_t nkeys = order_exprs.size();
        source = prof(std::make_unique<exec_ops::SortProjectOp>(
                          &state->ctx, std::move(source), std::move(proj),
                          std::move(order_exprs), std::move(order_desc)),
                      "SortProject", "keys=" + std::to_string(nkeys));
      } else {
        source = prof(std::make_unique<exec_ops::ProjectOp>(
                          &state->ctx, std::move(source), std::move(proj)),
                      "Project", "cols=" + std::to_string(nitems));
      }
    }
  }

  // 6. DISTINCT, LIMIT.
  if (stmt.distinct) {
    source = prof(std::make_unique<exec_ops::DistinctOp>(&state->ctx,
                                                         std::move(source)),
                  "Distinct", "");
  }
  if (stmt.limit >= 0) {
    source = prof(std::make_unique<exec_ops::LimitOp>(
                      &state->ctx, std::move(source),
                      static_cast<uint64_t>(stmt.limit)),
                  "Limit", std::to_string(stmt.limit));
  }

  state->root = std::move(source);
  return std::unique_ptr<SelectPlan>(new SelectPlan(std::move(state)));
}

Result<ResultSet> Executor::Select(const SelectStmt& stmt) {
  Result<std::unique_ptr<SelectPlan>> plan = Compile(stmt);
  if (!plan.ok()) return plan.status();
  if (!stmt.explain) return (*plan)->Drain();

  // EXPLAIN [ANALYZE]: return the rendered operator tree, one row per
  // line, instead of the query's rows. ANALYZE runs the query first so
  // the nodes carry actual blocks/rows/micros; plain EXPLAIN only
  // compiles, leaving the counters zero (and unrendered).
  ResultSet out;
  out.columns = {"plan"};
  if (stmt.analyze) {
    Result<ResultSet> executed = (*plan)->Drain();
    if (!executed.ok()) return executed.status();
    out.exec = executed->exec;
  } else {
    (*plan)->Close();
    out.exec = (*plan)->exec();
  }
  std::string tree = RenderPlanTree(out.exec.op_profiles, stmt.analyze);
  size_t start = 0;
  while (start < tree.size()) {
    size_t end = tree.find('\n', start);
    if (end == std::string::npos) end = tree.size();
    out.rows.push_back({Value(tree.substr(start, end - start))});
    start = end + 1;
  }
  return out;
}

// ---------------------------------------------------------------------
// Prebinding (Database::Prepare fast path)
// ---------------------------------------------------------------------

bool PrebindSelect(Database* db, SelectStmt* stmt) {
  // Build the scope from catalog metadata only.
  Scope scope;
  auto add_ref = [&](const TableRef& ref) -> bool {
    Result<std::vector<ColumnDef>> cols = RelationColumns(db, ref);
    if (!cols.ok()) return false;
    std::vector<std::string> names;
    for (const ColumnDef& c : *cols) names.push_back(c.name);
    scope.AddTable(ref.alias, names);
    return true;
  };
  for (const TableRef& ref : stmt->from) {
    if (!add_ref(ref)) return false;
  }
  for (const JoinClause& join : stmt->joins) {
    if (!add_ref(join.table)) return false;
  }

  if (stmt->where && !BindExpr(stmt->where.get(), scope).ok()) return false;
  for (JoinClause& join : stmt->joins) {
    if (join.on && !BindExpr(join.on.get(), scope).ok()) return false;
  }
  for (SelectItem& item : stmt->items) {
    if (item.expr->kind == ExprKind::kStar) continue;
    if (!BindExpr(item.expr.get(), scope).ok()) return false;
  }
  for (auto& g : stmt->group_by) {
    if (!BindExpr(g.get(), scope).ok()) return false;
  }
  if (stmt->having && !BindExpr(stmt->having.get(), scope).ok()) {
    return false;
  }
  for (OrderItem& item : stmt->order_by) {
    // Rewrite select-alias references to the underlying expression so
    // execution needs no alias logic.
    if (item.expr->kind == ExprKind::kColumnRef &&
        item.expr->table_alias.empty()) {
      bool rewritten = false;
      for (SelectItem& sel : stmt->items) {
        if (EqualsIgnoreCase(sel.alias, item.expr->column) &&
            sel.expr->kind != ExprKind::kStar) {
          item.expr = sel.expr->Clone();
          rewritten = true;
          break;
        }
      }
      if (rewritten) continue;  // already bound via the item
    }
    if (!BindExpr(item.expr.get(), scope).ok()) return false;
  }
  stmt->prebound = true;
  return true;
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
