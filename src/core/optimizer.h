// Copyright (c) 2026 The db2graph-repro Authors.
//
// The cost-based multi-hop join optimizer: a compile-time pass over the
// strategy-mutated step plan that folds runs of consecutive adjacency
// hops — out()/in(), and outE().inV() / inE().outV() pairs — into one
// MultiHopStep the provider executes as a single N-way join per
// (edge-table × vertex-table) chain, instead of one SQL round-trip per
// hop. The pass is conservative by construction: it collapses only when
// it can prove the join enumerates exactly the rows, in exactly the
// order, the step-at-a-time plans would produce (see DESIGN.md §15), and
// the replaced steps are preserved in the step body so the interpreter
// falls back whenever the provider declines at runtime. A count() that
// directly follows a collapsed chain folds into the step (with aggregate
// pushdown on): the provider then groups the same join by source and
// returns per-source walk counts instead of the walks. A chain may start
// at the edge fetch the GraphStep::VertexStep mutation makes of
// g.V(ids).out(): the collapsed step is then a source that keeps those
// ids as its own id arguments, and the join's first edge stage is
// constrained by them, so g.V(id).out(a).out(b).out(c).count() is one
// statement.
//
// Costing uses the live catalog statistics (table cardinalities and the
// per-column KMV distinct-value estimates): per-hop fan-out is
// rows(E) · sel(edge predicates) / ndv(join column), scaled by the far
// vertex predicates' selectivity. A hop whose estimated fan-out exceeds
// the cap — or a chain whose cumulative estimate does — stays
// step-at-a-time, where each hop's intermediate result bounds the next
// lookup. Every attempt lands in the OptimizerLog (surfaced as the
// sysmon.optimizer virtual table) with its decision, bail reason, and —
// once executed — actual row count next to the estimate.

#ifndef DB2GRAPH_CORE_OPTIMIZER_H_
#define DB2GRAPH_CORE_OPTIMIZER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/graph_planning.h"
#include "gremlin/step.h"
#include "overlay/topology.h"
#include "sql/database.h"

namespace db2graph::core {

struct RuntimeOptions;  // core/graph_structure.h

/// Tuning for the multi-hop collapse pass.
struct OptimizerOptions {
  /// Master switch; off compiles every plan step-at-a-time.
  bool multi_hop_collapse = true;
  /// Longest chain one MultiHopStep may cover.
  int max_hops = 4;
  /// Per-hop estimated fan-out (output rows per input row) above which
  /// the collapse bails: a high-fan-out join materializes the cross
  /// product inside SQL, while step-at-a-time execution re-deduplicates
  /// sources between hops.
  double max_fanout = 4096.0;
  /// Cumulative per-source row estimate cap for the whole chain.
  double max_est_rows = 1e7;
  /// Collapsed plans are statistics-sensitive: when the catalog stats
  /// epoch has drifted this many mutations past the plan's compile-time
  /// epoch, the cached plan is invalidated and recompiled (counted as
  /// plan_cache.stale_stats_recompiles).
  uint64_t stats_drift_limit = 256;
};

/// Ring of collapse decisions, shared between the compiler (records
/// attempts) and the provider (records executed row counts). Exposed as
/// the sysmon.optimizer virtual table.
class OptimizerLog {
 public:
  struct Decision {
    uint64_t id = 0;
    std::string chain;        // rendering of the candidate hop chain
    bool chosen = false;      // collapse applied to the plan
    std::string bail_reason;  // why not, when !chosen
    int hops = 0;
    std::string join_order;
    uint64_t est_rows = 0;     // per-source estimate at compile time
    uint64_t actual_rows = 0;  // total walks emitted (or counted), executed
    uint64_t executions = 0;   // collapsed runs of this decision
    uint64_t fallbacks = 0;    // runtime declines (step-at-a-time reruns)
  };

  struct Counters {
    uint64_t attempted = 0;
    uint64_t chosen = 0;
    uint64_t bailed = 0;
    uint64_t executions = 0;
    uint64_t fallbacks = 0;
  };

  /// Files a compile-time decision; returns its id.
  uint64_t Record(Decision d);
  /// Adds one execution outcome to decision `id`.
  void RecordExecution(uint64_t id, uint64_t actual_rows, bool fell_back);

  Counters counters() const;
  std::vector<Decision> Snapshot() const;

 private:
  static constexpr size_t kCapacity = 256;

  mutable std::mutex mutex_;
  uint64_t next_id_ = 1;
  Counters counters_;
  std::deque<Decision> ring_;
};

/// The provider-side payload of a MultiHopSpec (carried through the
/// gremlin layer as an opaque pointer): the compiled join of each table
/// chain. Hop 1 may fan out over several edge tables (one chain per
/// table, executed in table-index order); every later hop was proven to
/// resolve to exactly one.
struct MultiHopProviderPlan {
  std::vector<JoinChainPlan> chains;  // candidate chains, table order
  /// Execution feedback channel (est vs actual in sysmon.optimizer).
  std::weak_ptr<OptimizerLog> log;
  uint64_t decision_id = 0;
};

/// Everything the pass needs from the graph it compiles for.
struct OptimizerContext {
  const overlay::Topology* topology = nullptr;
  const sql::Database* db = nullptr;
  const RuntimeOptions* runtime = nullptr;
  OptimizerOptions options;
  /// The graph's StrategyOptions::aggregate_pushdown: when set, a count()
  /// directly after a collapsed chain folds into the MultiHopStep.
  bool aggregate_pushdown = true;
  std::shared_ptr<OptimizerLog> log;  // optional
};

/// What the pass did: how many MultiHopSteps it introduced and how many
/// candidate chains it examined. A plan with attempted > 0 is
/// statistics-sensitive (its shape was decided from the live stats).
struct CollapseSummary {
  int collapsed = 0;
  int attempted = 0;
};

/// Runs the collapse pass over every traversal of the script (including
/// repeat/where/union bodies).
CollapseSummary CollapseMultiHops(gremlin::Script* script,
                                  const OptimizerContext& ctx);

/// Single-traversal entry point (tests).
CollapseSummary CollapseMultiHopsInTraversal(gremlin::Traversal* traversal,
                                             const OptimizerContext& ctx);

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_OPTIMIZER_H_
