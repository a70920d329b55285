// Copyright (c) 2026 The db2graph-repro Authors.

#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "core/graph_planning.h"
#include "core/graph_structure.h"
#include "gremlin/graph_api.h"
#include "sql/table.h"

namespace db2graph::core {

// ----------------------------------------------------------------------
// OptimizerLog
// ----------------------------------------------------------------------

uint64_t OptimizerLog::Record(Decision d) {
  // Process-wide mirrors for sysmon.metrics (per-instance counts stay on
  // this log for precise test assertions).
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  registry.GetCounter("optimizer.attempted")->fetch_add(1);
  registry.GetCounter(d.chosen ? "optimizer.chosen" : "optimizer.bailed")
      ->fetch_add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  d.id = next_id_++;
  counters_.attempted++;
  if (d.chosen) {
    counters_.chosen++;
  } else {
    counters_.bailed++;
  }
  if (ring_.size() >= kCapacity) ring_.pop_front();
  ring_.push_back(std::move(d));
  return ring_.back().id;
}

void OptimizerLog::RecordExecution(uint64_t id, uint64_t actual_rows,
                                   bool fell_back) {
  metrics::MetricsRegistry::Global()
      .GetCounter(fell_back ? "optimizer.fallbacks" : "optimizer.executions")
      ->fetch_add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  if (fell_back) {
    counters_.fallbacks++;
  } else {
    counters_.executions++;
  }
  for (Decision& d : ring_) {
    if (d.id != id) continue;
    if (fell_back) {
      d.fallbacks++;
    } else {
      d.executions++;
      d.actual_rows += actual_rows;
    }
    return;
  }
}

OptimizerLog::Counters OptimizerLog::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::vector<OptimizerLog::Decision> OptimizerLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

// ----------------------------------------------------------------------
// Hop extraction
// ----------------------------------------------------------------------

namespace {

using gremlin::AggOp;
using gremlin::Direction;
using gremlin::LookupSpec;
using gremlin::MultiHopHop;
using gremlin::MultiHopSpec;
using gremlin::PropPredicate;
using gremlin::Step;
using gremlin::StepKind;

bool PredicatesBindable(const std::vector<PropPredicate>& preds) {
  for (const PropPredicate& p : preds) {
    if (!p.var.empty()) return false;
  }
  return true;
}

/// A lookup spec the collapse can carry: no aggregate/limit pushdown, no
/// id or endpoint constraints (those never appear mid-chain), no pending
/// variables (never pushed down), and a projection only where the caller
/// allows one (the chain's final vertex lookup).
bool SpecCollapsible(const LookupSpec& spec, bool allow_projection) {
  return spec.agg == AggOp::kNone && spec.limit < 0 && spec.ids.empty() &&
         spec.src_ids.empty() && spec.dst_ids.empty() &&
         (allow_projection || !spec.has_projection) &&
         PredicatesBindable(spec.predicates);
}

/// One candidate hop and how many plan steps it covers (1 for out()/in(),
/// 2 for an outE().inV() / inE().outV() pair).
struct CandidateHop {
  MultiHopHop hop;
  size_t step_count = 1;
};

/// Tries to read one collapsible hop starting at steps[i].
bool ExtractHop(const std::vector<Step>& steps, size_t i, CandidateHop* out) {
  const Step& s = steps[i];
  if (s.kind != StepKind::kVertex || s.direction == Direction::kBoth) {
    return false;
  }
  if (s.to_vertex) {
    // out(labels...) — the interpreter queries edges by label only and
    // applies the step spec to the far vertices.
    if (!SpecCollapsible(s.spec, /*allow_projection=*/true)) return false;
    out->hop = MultiHopHop{};
    out->hop.direction = s.direction;
    out->hop.edge_labels = s.edge_labels;
    out->hop.edge_spec.labels = s.edge_labels;
    out->hop.vertex_spec = s.spec;
    out->hop.emit_edge_id = false;
    out->step_count = 1;
    return true;
  }
  // outE(labels...) — collapsible only as a pair with the matching
  // far-endpoint step (outE().inV() / inE().outV()); the intermediate
  // edge traversers then only contribute their ids to the path.
  if (i + 1 >= steps.size()) return false;
  const Step& n = steps[i + 1];
  Direction far =
      s.direction == Direction::kOut ? Direction::kIn : Direction::kOut;
  if (n.kind != StepKind::kEdgeVertex || n.direction != far) return false;
  if (s.spec.has_projection || !SpecCollapsible(s.spec, false)) return false;
  if (!SpecCollapsible(n.spec, /*allow_projection=*/true)) return false;
  out->hop = MultiHopHop{};
  out->hop.direction = s.direction;
  out->hop.edge_labels = s.edge_labels;
  out->hop.edge_spec.labels = s.edge_labels;
  out->hop.edge_spec.predicates = s.spec.predicates;
  out->hop.vertex_spec = n.spec;
  out->hop.emit_edge_id = true;
  out->step_count = 2;
  return true;
}

/// Tries to read an id-sourced first hop at steps[i]: the GraphStep(E)
/// the GraphStep::VertexStep mutation makes of g.V(ids).out(labels) (or
/// of g.V(ids).outE(labels).has(...)) — edges by source ids, or by
/// destination ids for in() — carrying only labels and pushable edge
/// predicates, followed by its far-endpoint EdgeVertexStep. The fetched
/// edges start the traverser path, so the hop records the edge id before
/// the vertex id.
bool ExtractIdSourcedHop(const std::vector<Step>& steps, size_t i,
                         CandidateHop* out) {
  const Step& g = steps[i];
  if (g.kind != StepKind::kGraph || !g.graph_emits_edges ||
      !g.start_ids.empty() || g.src_id_args.empty() == g.dst_id_args.empty() ||
      !SpecCollapsible(g.spec, /*allow_projection=*/false)) {
    return false;
  }
  const Direction dir =
      g.src_id_args.empty() ? Direction::kIn : Direction::kOut;
  if (i + 1 >= steps.size()) return false;
  const Step& n = steps[i + 1];
  if (n.kind != StepKind::kEdgeVertex ||
      n.direction !=
          (dir == Direction::kOut ? Direction::kIn : Direction::kOut) ||
      !SpecCollapsible(n.spec, /*allow_projection=*/true)) {
    return false;
  }
  out->hop = MultiHopHop{};
  out->hop.direction = dir;
  out->hop.edge_labels = g.spec.labels;
  out->hop.edge_spec.labels = g.spec.labels;
  out->hop.edge_spec.predicates = g.spec.predicates;
  out->hop.vertex_spec = n.spec;
  out->hop.emit_edge_id = true;
  out->step_count = 2;
  return true;
}

/// True when `s` emits vertex traversers a hop chain can start from.
bool EmitsVertices(const Step& s) {
  switch (s.kind) {
    case StepKind::kGraph:
      return !s.graph_emits_edges && s.spec.agg == AggOp::kNone;
    case StepKind::kVertex:
      return s.to_vertex && s.spec.agg == AggOp::kNone;
    case StepKind::kEdgeVertex:
      return s.spec.agg == AggOp::kNone;
    case StepKind::kMultiHop:
      return s.multi_hop == nullptr || s.multi_hop->agg == AggOp::kNone;
    default:
      return false;
  }
}

std::string DescribeHops(const std::vector<CandidateHop>& hops,
                         bool id_sourced) {
  std::vector<std::string> parts;
  parts.reserve(hops.size() + 1);
  if (id_sourced) parts.push_back("V(ids)");
  for (const CandidateHop& h : hops) {
    bool outward = h.hop.direction == Direction::kOut;
    std::string p = h.hop.emit_edge_id ? (outward ? "outE" : "inE")
                                       : (outward ? "out" : "in");
    p += "(" + Join(h.hop.edge_labels, ",") + ")";
    if (h.hop.emit_edge_id) p += outward ? ".inV()" : ".outV()";
    parts.push_back(std::move(p));
  }
  return Join(parts, ".");
}

// ----------------------------------------------------------------------
// Costing
// ----------------------------------------------------------------------

/// One SnapshotTableStats per table per pass.
class StatsCache {
 public:
  explicit StatsCache(const sql::Database* db) : db_(db) {}

  const sql::Database::TableStats* Get(const std::string& name) {
    auto it = cache_.find(name);
    if (it == cache_.end()) {
      sql::Database::TableStats st;
      bool ok = db_->SnapshotTableStats(name, &st);
      it = cache_
               .emplace(name, ok ? std::optional<sql::Database::TableStats>(
                                       std::move(st))
                                 : std::nullopt)
               .first;
    }
    return it->second ? &*it->second : nullptr;
  }

 private:
  const sql::Database* db_;
  std::unordered_map<std::string, std::optional<sql::Database::TableStats>>
      cache_;
};

constexpr double kRangeSelectivity = 1.0 / 3.0;

double CondSelectivity(const SqlCond& c, const sql::TableSchema& schema,
                       const sql::Database::TableStats* st) {
  if (!c.ref_column.empty()) return 1.0;  // join terms cost via ndv below
  std::optional<size_t> idx = schema.ColumnIndex(c.column);
  if (st == nullptr || !idx || *idx >= st->columns.size()) {
    return kRangeSelectivity;
  }
  const sql::Table::ColumnStats& cs = st->columns[*idx];
  double rows = std::max<double>(1.0, static_cast<double>(st->row_count));
  double ndv = std::max<double>(1.0, static_cast<double>(cs.ndv));
  if (c.op == "=") return 1.0 / ndv;
  if (c.op == "IN") {
    return std::min(1.0, static_cast<double>(c.params.size()) / ndv);
  }
  if (c.op == "NOTNULL") {
    return std::max(0.0, 1.0 - static_cast<double>(cs.null_count) / rows);
  }
  if (c.op == "<>") return std::max(0.0, 1.0 - 1.0 / ndv);
  return kRangeSelectivity;
}

double CondsSelectivity(const QueryConds& conds,
                        const sql::TableSchema& schema,
                        const sql::Database::TableStats* st) {
  double sel = 1.0;
  for (const SqlCond& c : conds.conjuncts) {
    sel *= CondSelectivity(c, schema, st);
  }
  for (const auto& group : conds.or_groups) {
    double g = 0.0;
    for (const auto& alt : group) {
      double a = 1.0;
      for (const SqlCond& c : alt) a *= CondSelectivity(c, schema, st);
      g += a;
    }
    sel *= std::min(1.0, g);
  }
  return sel;
}

double ColumnNdv(const sql::Database::TableStats* st, size_t column) {
  if (st == nullptr || column >= st->columns.size()) return 1.0;
  return std::max<double>(1.0, static_cast<double>(st->columns[column].ndv));
}

// ----------------------------------------------------------------------
// Probe parity
// ----------------------------------------------------------------------

/// Simulates the executor's probe-index choice for one join stage: the
/// plan's equality conjuncts in statement order with the join term (near
/// column = previous stage) spliced in at its runtime position. The
/// step-at-a-time counterpart of the join term is an IN over however many
/// ids the previous hop produced, so its candidate multiplicity varies at
/// runtime; requiring the SAME index under value_count 1 and 2 proves the
/// choice — and with it the per-key enumeration order — is insensitive to
/// that multiplicity.
bool ProbeParity(const sql::Database* db, const std::string& table_name,
                 const sql::TableSchema& schema, const QueryConds& conds,
                 const std::optional<size_t>& label_column,
                 size_t join_column) {
  const sql::Table* table = db->GetTable(table_name);
  if (table == nullptr) return false;
  std::vector<sql::ProbeCandidate> base;
  for (const SqlCond& c : conds.conjuncts) {
    if (c.op != "=" && c.op != "IN") continue;
    std::optional<size_t> idx = schema.ColumnIndex(c.column);
    if (!idx) return false;
    sql::ProbeCandidate pc;
    pc.column_index = *idx;
    pc.value_count = c.op == "=" ? 1 : c.params.size();
    base.push_back(pc);
  }
  size_t pos = JoinCondPosition(conds, schema, label_column);
  auto choose = [&](size_t join_count) {
    std::vector<sql::ProbeCandidate> cands = base;
    sql::ProbeCandidate join;
    join.column_index = join_column;
    join.value_count = join_count;
    cands.insert(cands.begin() + static_cast<ptrdiff_t>(
                                     std::min(pos, cands.size())),
                 join);
    return sql::ChooseProbeIndex(*table, cands).index;
  };
  const sql::Index* one = choose(1);
  return one != nullptr && one == choose(2);
}

/// True when `column` is covered by a single-column unique index (the
/// auto-created primary-key index, typically). The collapsed join emits
/// one row per matching vertex row while step-at-a-time execution keys
/// vertices by id, so id uniqueness must be enforced by the catalog.
bool UniqueOn(const sql::Database* db, const std::string& table_name,
              size_t column) {
  const sql::Table* table = db->GetTable(table_name);
  if (table == nullptr) return false;
  const sql::Index* idx = table->FindIndexOn({column});
  return idx != nullptr && idx->unique();
}

// ----------------------------------------------------------------------
// Chain analysis
// ----------------------------------------------------------------------

/// The tables one accepted hop joins: an edge table and its far
/// endpoint's pinned vertex table (Topology indexes).
struct HopTables {
  int edge_table = -1;
  int vertex_table = -1;
};

struct ChainResult {
  int hops_used = 0;        // legal + cheap prefix length
  std::string stop_reason;  // why the prefix ended early (diagnostic)
  std::vector<HopTables> first_hop;   // candidate chains, table order
  std::vector<HopTables> later_hops;  // hops 2..N
  std::string join_order;
  double est_rows = 1.0;  // per-source estimate for the prefix
};

/// Walks the candidate hops front to back, proving per hop that the join
/// restriction of the chain enumerates exactly what step-at-a-time
/// execution would (DESIGN.md §15), and costing the fan-out from the
/// catalog statistics. Stops at the first hop that fails either test;
/// the surviving prefix collapses when it still covers >= 2 hops.
ChainResult AnalyzeChain(const std::vector<CandidateHop>& hops,
                         const OptimizerContext& ctx, StatsCache* stats) {
  ChainResult r;
  if (!ctx.runtime->endpoint_table_pruning) {
    // Without endpoint pinning the provider cannot classify endpoints to
    // one vertex table, and the chain-per-table decomposition is invalid.
    r.stop_reason = "endpoint table pruning disabled";
    return r;
  }
  const auto& etables = ctx.topology->edge_tables();
  const auto& vtables = ctx.topology->vertex_tables();
  std::vector<int> prev_far;  // far vertex tables of the previous hop
  std::vector<std::string> order_parts;
  double cumulative = 1.0;

  for (size_t k = 0; k < hops.size(); ++k) {
    const MultiHopHop& hop = hops[k].hop;
    const bool outward = hop.direction == Direction::kOut;
    const std::string at_hop = " at hop " + std::to_string(k + 1);

    struct Cand {
      int edge = -1;
      int far = -1;
      const overlay::ResolvedEdgeTable* et = nullptr;
      const overlay::ResolvedVertexTable* vt = nullptr;
      TablePlan eplan;
      TablePlan vplan;
    };
    std::vector<Cand> cands;
    std::string fail;

    for (size_t ti = 0; ti < etables.size() && fail.empty(); ++ti) {
      const overlay::ResolvedEdgeTable& t = etables[ti];
      TablePlan ep = PlanEdgeTable(t, hop.edge_spec, *ctx.runtime);
      if (ep.skip) continue;
      if (ep.client_filter) {
        fail = "client-side edge predicate on \"" + t.conf.table_name + "\"";
        break;
      }
      int near = outward ? t.src_vertex_table : t.dst_vertex_table;
      if (k > 0 && near >= 0 &&
          std::find(prev_far.begin(), prev_far.end(), near) ==
              prev_far.end()) {
        continue;  // runtime endpoint pruning drops it for every source
      }
      int far = outward ? t.dst_vertex_table : t.src_vertex_table;
      if (far < 0) {
        fail = "far endpoint of \"" + t.conf.table_name +
               "\" not pinned to a vertex table";
        break;
      }
      const overlay::ResolvedVertexTable& vt =
          vtables[static_cast<size_t>(far)];
      TablePlan vp = PlanVertexTable(vt, hop.vertex_spec, *ctx.runtime);
      if (vp.client_filter) {
        fail =
            "client-side vertex predicate on \"" + vt.conf.table_name + "\"";
        break;
      }
      if (vp.skip) {
        // Step-at-a-time execution prunes the pinned vertex fetch the
        // same way, so every emission through this table is dropped: at
        // hop 1 the chain just disappears; deeper it kills the hop.
        if (k == 0) continue;
        fail = "pruned far vertex table" + at_hop;
        break;
      }
      Cand c;
      c.edge = static_cast<int>(ti);
      c.far = far;
      c.et = &t;
      c.vt = &vt;
      c.eplan = std::move(ep);
      c.vplan = std::move(vp);
      cands.push_back(std::move(c));
    }

    if (fail.empty() && cands.empty()) {
      fail = "no candidate edge table" + at_hop;
    }
    if (fail.empty() && k > 0 && cands.size() != 1) {
      fail = "multiple candidate edge tables" + at_hop;
    }
    if (fail.empty() && k > 0) {
      const Cand& c = cands[0];
      int near = outward ? c.et->src_vertex_table : c.et->dst_vertex_table;
      if (near >= 0) {
        // With a pinned near endpoint, runtime pruning keys off the
        // actual source tables; that only matches the per-chain join
        // when every previous chain ends at exactly that table.
        for (int pf : prev_far) {
          if (pf != near) {
            fail = "depends on runtime endpoint pruning" + at_hop;
            break;
          }
        }
      }
      if (fail.empty()) {
        const overlay::ResolvedField& nearf =
            outward ? c.et->src_v : c.et->dst_v;
        if (!nearf.def.SingleColumn()) {
          fail =
              "composite near endpoint on \"" + c.et->conf.table_name + "\"";
        }
        for (int pf : prev_far) {
          if (!fail.empty()) break;
          const overlay::ResolvedVertexTable& pvt =
              vtables[static_cast<size_t>(pf)];
          if (!pvt.id.def.SingleColumn()) {
            fail = "composite vertex id on \"" + pvt.conf.table_name + "\"";
          }
        }
        if (fail.empty() &&
            !ProbeParity(ctx.db, c.et->conf.table_name, *c.et->schema,
                         c.eplan.conds, c.et->label_column,
                         nearf.column_indexes[0])) {
          fail =
              "no stable probe index on \"" + c.et->conf.table_name + "\"";
        }
      }
    }

    // Per-candidate checks that apply at every hop: the far-side join
    // (vertex id = edge far column) must be a single-column equality on
    // a unique, stably-indexed vertex id.
    for (const Cand& c : cands) {
      if (!fail.empty()) break;
      const overlay::ResolvedField& farf = outward ? c.et->dst_v : c.et->src_v;
      if (!farf.def.SingleColumn() || !c.vt->id.def.SingleColumn()) {
        fail = "composite far endpoint on \"" + c.et->conf.table_name + "\"";
        break;
      }
      if (!UniqueOn(ctx.db, c.vt->conf.table_name,
                    c.vt->id.column_indexes[0])) {
        fail = "vertex id not unique on \"" + c.vt->conf.table_name + "\"";
        break;
      }
      if (!ProbeParity(ctx.db, c.vt->conf.table_name, *c.vt->schema,
                       c.vplan.conds, c.vt->label_column,
                       c.vt->id.column_indexes[0])) {
        fail = "no stable probe index on \"" + c.vt->conf.table_name + "\"";
        break;
      }
      if (hop.vertex_spec.has_projection &&
          ctx.runtime->vertex_from_edge_shortcut &&
          EqualsIgnoreCase(c.et->conf.table_name, c.vt->conf.table_name)) {
        // The vertex-from-edge shortcut materializes full-property
        // vertices straight from the edge row; under a projection the
        // collapsed fetch would return narrower vertices.
        fail = "projection with vertex-from-edge shortcut on \"" +
               c.vt->conf.table_name + "\"";
        break;
      }
    }

    if (fail.empty()) {
      // Cost: per-source fan-out of this hop.
      double fanout = 0.0;
      for (const Cand& c : cands) {
        const sql::Database::TableStats* est =
            stats->Get(c.et->conf.table_name);
        const sql::Database::TableStats* vst =
            stats->Get(c.vt->conf.table_name);
        double rows = est ? static_cast<double>(est->row_count) : 1024.0;
        double esel = CondsSelectivity(c.eplan.conds, *c.et->schema, est);
        const overlay::ResolvedField& nearf =
            outward ? c.et->src_v : c.et->dst_v;
        double near_ndv = nearf.column_indexes.empty()
                              ? 1.0
                              : ColumnNdv(est, nearf.column_indexes[0]);
        double vsel = CondsSelectivity(c.vplan.conds, *c.vt->schema, vst);
        fanout += rows * esel / near_ndv * vsel;
      }
      if (fanout > ctx.options.max_fanout) {
        fail = "fan-out estimate " + std::to_string(fanout) + " exceeds cap" +
               at_hop;
      } else if (cumulative * fanout > ctx.options.max_est_rows) {
        fail = "cumulative row estimate exceeds cap" + at_hop;
      } else {
        cumulative *= std::max(fanout, 1e-9);
      }
    }

    if (!fail.empty()) {
      r.stop_reason = fail;
      break;
    }

    // Hop accepted: record its tables and enumeration order.
    std::vector<std::string> part;
    std::vector<int> far_set;
    for (const Cand& c : cands) {
      HopTables ht;
      ht.edge_table = c.edge;
      ht.vertex_table = c.far;
      if (k == 0) {
        r.first_hop.push_back(ht);
      } else {
        r.later_hops.push_back(ht);
      }
      part.push_back(c.et->conf.table_name + ">" + c.vt->conf.table_name);
      if (std::find(far_set.begin(), far_set.end(), c.far) == far_set.end()) {
        far_set.push_back(c.far);
      }
    }
    order_parts.push_back(part.size() == 1 ? part[0]
                                           : "(" + Join(part, "|") + ")");
    prev_far = std::move(far_set);
    r.hops_used = static_cast<int>(k) + 1;
    r.est_rows = cumulative;
  }

  r.join_order = Join(order_parts, ">");
  return r;
}

// ----------------------------------------------------------------------
// The pass
// ----------------------------------------------------------------------

void Merge(CollapseSummary* into, const CollapseSummary& from) {
  into->collapsed += from.collapsed;
  into->attempted += from.attempted;
}

CollapseSummary CollapseInSteps(std::vector<Step>* steps,
                                const OptimizerContext& ctx,
                                StatsCache* stats) {
  CollapseSummary sum;
  for (Step& s : *steps) {
    if (s.kind == StepKind::kMultiHop) continue;  // body is the fallback
    if (!s.body.empty()) Merge(&sum, CollapseInSteps(&s.body, ctx, stats));
    for (std::vector<Step>& b : s.branches) {
      Merge(&sum, CollapseInSteps(&b, ctx, stats));
    }
  }

  for (size_t i = 0; i < steps->size();) {
    // A chain starts at a mutated g.V(ids).out() pair, or at any hop
    // after a step that emits vertices.
    std::vector<CandidateHop> hops;
    CandidateHop first;
    const bool id_sourced = ExtractIdSourcedHop(*steps, i, &first);
    if (!id_sourced && (i == 0 || !EmitsVertices((*steps)[i - 1]))) {
      ++i;
      continue;
    }
    size_t pos = i;
    const size_t max_hops =
        static_cast<size_t>(std::max(ctx.options.max_hops, 0));
    bool projected = false;  // projected vertices end the chain
    if (id_sourced) {
      pos += first.step_count;
      projected = first.hop.vertex_spec.has_projection;
      hops.push_back(std::move(first));
    }
    while (!projected && pos < steps->size() && hops.size() < max_hops) {
      CandidateHop ch;
      if (!ExtractHop(*steps, pos, &ch)) break;
      projected = ch.hop.vertex_spec.has_projection;
      pos += ch.step_count;
      hops.push_back(std::move(ch));
    }
    if (hops.size() < 2) {
      ++i;
      continue;
    }

    sum.attempted++;
    ChainResult chain = AnalyzeChain(hops, ctx, stats);
    bool chosen = chain.hops_used >= 2;
    size_t span = 0;
    for (int h = 0; h < chain.hops_used; ++h) {
      span += hops[static_cast<size_t>(h)].step_count;
    }
    // Count folding: a count() right after the collapsed chain moves into
    // the step, which then asks the provider for per-source walk counts.
    const bool fold_count =
        chosen && ctx.aggregate_pushdown && i + span < steps->size() &&
        (*steps)[i + span].kind == StepKind::kAggregate &&
        (*steps)[i + span].agg == AggOp::kCount;

    // The join of every table chain compiles with the plan.
    auto spec = std::make_shared<MultiHopSpec>();
    auto pplan = std::make_shared<MultiHopProviderPlan>();
    if (chosen) {
      for (int h = 0; h < chain.hops_used; ++h) {
        spec->hops.push_back(hops[static_cast<size_t>(h)].hop);
      }
      if (fold_count) spec->agg = AggOp::kCount;
      for (const HopTables& first : chain.first_hop) {
        std::vector<int> edge_tables = {first.edge_table};
        std::vector<int> vertex_tables = {first.vertex_table};
        for (const HopTables& later : chain.later_hops) {
          edge_tables.push_back(later.edge_table);
          vertex_tables.push_back(later.vertex_table);
        }
        JoinChainPlan cp;
        Status built =
            BuildJoinChainPlan(*ctx.topology, *ctx.runtime, *spec,
                               std::move(edge_tables),
                               std::move(vertex_tables), &cp);
        if (!built.ok()) {
          chosen = false;
          chain.stop_reason = built.message();
          break;
        }
        pplan->chains.push_back(std::move(cp));
      }
    }

    OptimizerLog::Decision d;
    d.chain = DescribeHops(hops, id_sourced);
    if (chosen && fold_count) d.chain += ".count()";
    d.chosen = chosen;
    d.hops = chosen ? chain.hops_used : static_cast<int>(hops.size());
    if (chosen) {
      d.join_order = chain.join_order;
      d.est_rows =
          static_cast<uint64_t>(std::llround(std::max(chain.est_rows, 0.0)));
      if (chain.hops_used < static_cast<int>(hops.size())) {
        d.bail_reason = "truncated: " + chain.stop_reason;
      }
    } else {
      d.bail_reason = chain.stop_reason;
    }
    uint64_t decision_id = ctx.log ? ctx.log->Record(std::move(d)) : 0;

    if (!chosen) {
      // A shorter sub-run would fail the same legality checks — except
      // that the hops after a rejected id-sourced first hop may still
      // collapse on their own, from its EdgeVertexStep's vertices.
      i = id_sourced ? i + hops[0].step_count : pos;
      continue;
    }

    if (fold_count) span += 1;  // the count() joins the fallback body
    spec->est_rows =
        static_cast<uint64_t>(std::llround(std::max(chain.est_rows, 0.0)));
    spec->join_order = chain.join_order;
    pplan->log = ctx.log;
    pplan->decision_id = decision_id;
    spec->provider_plan = std::static_pointer_cast<const void>(
        std::shared_ptr<const MultiHopProviderPlan>(std::move(pplan)));

    Step collapsed;
    collapsed.kind = StepKind::kMultiHop;
    if (id_sourced) {
      // The start ids stay id arguments, so plan-cache slots and prepared
      // bindings resolve them per execution.
      collapsed.src_id_args = (*steps)[i].src_id_args;
      collapsed.dst_id_args = (*steps)[i].dst_id_args;
    }
    collapsed.body.assign(steps->begin() + static_cast<ptrdiff_t>(i),
                          steps->begin() + static_cast<ptrdiff_t>(i + span));
    collapsed.multi_hop = std::move(spec);
    steps->erase(steps->begin() + static_cast<ptrdiff_t>(i),
                 steps->begin() + static_cast<ptrdiff_t>(i + span));
    steps->insert(steps->begin() + static_cast<ptrdiff_t>(i),
                  std::move(collapsed));
    sum.collapsed++;
    ++i;  // a new run may start after the collapsed step
  }
  return sum;
}

bool ContextUsable(const OptimizerContext& ctx) {
  return ctx.options.multi_hop_collapse && ctx.topology != nullptr &&
         ctx.db != nullptr && ctx.runtime != nullptr;
}

}  // namespace

CollapseSummary CollapseMultiHops(gremlin::Script* script,
                                  const OptimizerContext& ctx) {
  CollapseSummary sum;
  if (script == nullptr || !ContextUsable(ctx)) return sum;
  StatsCache stats(ctx.db);
  for (gremlin::ScriptStatement& stmt : script->statements) {
    Merge(&sum, CollapseInSteps(&stmt.traversal.steps, ctx, &stats));
  }
  return sum;
}

CollapseSummary CollapseMultiHopsInTraversal(gremlin::Traversal* traversal,
                                             const OptimizerContext& ctx) {
  CollapseSummary sum;
  if (traversal == nullptr || !ContextUsable(ctx)) return sum;
  StatsCache stats(ctx.db);
  return CollapseInSteps(&traversal->steps, ctx, &stats);
}

}  // namespace db2graph::core
