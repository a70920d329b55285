// Copyright (c) 2026 The db2graph-repro Authors.
//
// Compile-once/execute-many support for the Gremlin pipeline: a compiled
// plan (parsed + strategy-mutated script with its bind-variable slots) and
// a sharded LRU cache of such plans keyed on script text, so LinkBench-
// style serving traffic — a small set of query shapes executed millions of
// times with different ids — pays ParseGremlin and strategy application
// once per shape instead of once per request. Mirrors Gremlin Server's
// parameterized-script compilation cache and GRAPHITE's plan/execute
// separation (PAPERS.md).
//
// Staleness: each entry records the catalog ddl_version it was compiled
// under; a lookup under a newer version evicts the entry and reports a
// miss (the same mechanism Db2Graph::OverlayMayBeStale() uses), so DDL can
// never serve a stale plan.
//
// Text executions are keyed on their concentrated shape (Db2's statement
// concentrator): id literals become numbered slots, so g.V(1).out() and
// g.V(2).out() share one plan that reads the id per execution (see
// Db2Graph::Execute and DESIGN.md §9).

#ifndef DB2GRAPH_CORE_PLAN_CACHE_H_
#define DB2GRAPH_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "gremlin/step.h"

namespace db2graph::core {

/// An immutable, shareable compiled query: the parsed + strategy-mutated
/// script, the strategy rewrites that produced it (replayed into traces),
/// and the bind-variable slots executions must supply. Execution never
/// mutates a plan — the interpreter copies per-execution state — so one
/// plan serves unlimited concurrent executions.
struct CompiledPlan {
  std::string script_text;
  gremlin::Script script;  // strategies already applied
  /// Catalog version this plan was compiled under (stale when the
  /// database's ddl_version has moved past it).
  uint64_t ddl_version = 0;
  /// Statistics epoch at compile time. Plans whose shape the multi-hop
  /// optimizer decided from the live statistics (stats_sensitive) are
  /// recompiled once the epoch drifts past OptimizerOptions::
  /// stats_drift_limit — counted as plan_cache.stale_stats_recompiles.
  uint64_t stats_epoch = 0;
  bool stats_sensitive = false;
  /// Total hops folded into MultiHopSteps (0 = fully step-at-a-time);
  /// surfaced in sysmon.query_log.
  uint64_t collapsed_hops = 0;
  /// Any statement carries a .profile() terminal.
  bool has_profile = false;
  /// Number of concentrated id slots the plan reads per execution (0 =
  /// compiled for its script text as written). script_text is then the
  /// shape ("g.V(__c0)...") and executions supply the slot values.
  size_t slot_count = 0;
  /// A shape entry with no plan of its own: compiling the shape consumed
  /// an id literal into a LookupSpec (a hasId() folded into an adjacency
  /// step), so scripts of this shape are cached under their text as
  /// written.
  bool literal_keyed = false;
  /// Strategy rewrites recorded at compile time, replayed into the trace
  /// of each traced execution (strategies do not re-run on cached plans).
  std::vector<StrategyRewrite> rewrites;

  /// One variable the script references without assigning first — a bind
  /// placeholder the execution must supply (e.g. `vid` in g.V(vid)).
  struct BindSlot {
    enum class Use {
      kId,         // element-id position: V()/E()/hasId()/endpoint args
      kPredicate,  // has(key, var) / has(key, gt(var)) value position
    };
    std::string name;
    Use use = Use::kId;
    /// For kPredicate: the comparison the binding feeds.
    gremlin::PropPredicate::Op op = gremlin::PropPredicate::Op::kEq;
  };
  std::vector<BindSlot> binds;
};

/// Collects the bind slots of a parsed script: every variable referenced
/// before (or without) an assignment by an earlier statement.
std::vector<CompiledPlan::BindSlot> CollectBindSlots(
    const gremlin::Script& script);

/// Finishes a plan compiled from concentrated text (ParseGremlin with the
/// slot offsets of ConcentrateIdLiterals; `values` are the slot literals).
/// When every slot still appears as an id argument and no compile pass
/// moved an id into a LookupSpec, the tagged arguments become
/// per-execution slot reads (slot_count = values.size()) and the plan
/// serves every script of its shape: returns true. Otherwise the shape is
/// literal-keyed: the tags are dropped, leaving exactly the plan the text
/// as written compiles to, and false is returned.
bool ParameterizeIdSlots(CompiledPlan* plan, const std::vector<Value>& values);

/// Sharded LRU cache of compiled plans. Thread-safe; lookups and inserts
/// on different shards never contend. Hit/miss/invalidation/eviction
/// counts are kept both per instance (precise test assertions) and in the
/// process metrics registry (operational visibility).
class PlanCache {
 public:
  /// Registry metric names.
  static constexpr const char* kHitsCounter = "plan_cache.hits";
  static constexpr const char* kMissesCounter = "plan_cache.misses";
  static constexpr const char* kInvalidationsCounter =
      "plan_cache.invalidations";
  static constexpr const char* kEvictionsCounter = "plan_cache.evictions";
  /// Bumped by Db2Graph when a statistics-sensitive cache hit is thrown
  /// away because the stats epoch drifted past the plan's compile-time
  /// epoch (the cache itself has no stats visibility).
  static constexpr const char* kStaleStatsRecompilesCounter =
      "plan_cache.stale_stats_recompiles";

  explicit PlanCache(size_t capacity = 1024, size_t shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `key`, or nullptr. An entry compiled
  /// under an older ddl_version is erased (counted as an invalidation)
  /// and reported as a miss.
  std::shared_ptr<const CompiledPlan> Lookup(const std::string& key,
                                             uint64_t current_ddl_version);

  /// Lookup without counting the hit or miss: for a probe whose outcome
  /// the caller reports itself (CountLookup), once it knows which plan it
  /// serves. Invalidations still count.
  std::shared_ptr<const CompiledPlan> Find(const std::string& key,
                                           uint64_t current_ddl_version);
  void CountLookup(bool hit);

  /// Inserts (or replaces) the plan for `key`, evicting the shard's least
  /// recently used entry when full.
  void Insert(const std::string& key,
              std::shared_ptr<const CompiledPlan> plan);

  /// Drops every entry (tests).
  void Clear();

  size_t size() const;

  /// Plain-value copy of the per-instance counters.
  struct Counts {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
    uint64_t evictions = 0;
  };
  Counts Snapshot() const;

 private:
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const CompiledPlan>>>;

  struct Shard {
    mutable std::mutex mutex;
    LruList lru;  // front = most recently used
    std::unordered_map<std::string, LruList::iterator> map;
  };

  Shard& ShardFor(const std::string& key);

  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Per-instance counters.
  metrics::Counter hits_;
  metrics::Counter misses_;
  metrics::Counter invalidations_;
  metrics::Counter evictions_;
  // Registry counters (process-wide, aggregated across instances).
  metrics::Counter* registry_hits_;
  metrics::Counter* registry_misses_;
  metrics::Counter* registry_invalidations_;
  metrics::Counter* registry_evictions_;
};

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_PLAN_CACHE_H_
