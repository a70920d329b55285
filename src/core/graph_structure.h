// Copyright (c) 2026 The db2graph-repro Authors.
//
// The Graph Structure module (paper Section 6): implements the TinkerPop
// provider API over relational tables through the graph overlay, turning
// every Graph-Structure-Accessing step into SQL. All of Section 6.3's
// data-dependent runtime optimizations live here, individually toggleable
// for the ablation benchmarks:
//
//  * fixed-label table pruning,
//  * prefixed-id table pinning (+ composite-id decomposition into
//    conjunctive predicates),
//  * property-name table pruning from pushdown predicates/projections,
//  * src_v_table / dst_v_table endpoint pruning,
//  * the vertex-table-is-also-edge-table shortcut (construct the vertex
//    from the edge row, no SQL at all),
//  * implicit-edge-id decomposition (src::label::dst) into predicates.

#ifndef DB2GRAPH_CORE_GRAPH_STRUCTURE_H_
#define DB2GRAPH_CORE_GRAPH_STRUCTURE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sql_dialect.h"
#include "core/vertex_cache.h"
#include "gremlin/graph_api.h"
#include "overlay/topology.h"

namespace db2graph::core {

/// Toggles for the Section 6.3 data-dependent runtime optimizations, plus
/// the execution-layer knobs (parallel fan-out, hot-vertex cache) that sit
/// on top of them.
struct RuntimeOptions {
  bool label_pruning = true;
  bool prefixed_id_pinning = true;
  bool property_pruning = true;
  bool endpoint_table_pruning = true;
  bool vertex_from_edge_shortcut = true;
  bool implicit_edge_id_decomposition = true;

  /// Fan per-table SQL of one lookup out across the shared thread pool
  /// whenever more than one table survives pruning. Skipped when the
  /// calling thread already holds the database read lock (graphQuery
  /// inside a SELECT) — see DESIGN.md "Concurrency & caching".
  bool parallel_fanout = true;
  /// Sharded LRU cache of fully-materialized vertices by id, invalidated
  /// via the database write epoch. Bypassed under access control.
  bool vertex_cache = true;
  size_t vertex_cache_entries = 65536;

  static RuntimeOptions AllOff() {
    RuntimeOptions o;
    o.label_pruning = o.prefixed_id_pinning = o.property_pruning =
        o.endpoint_table_pruning = o.vertex_from_edge_shortcut =
            o.implicit_edge_id_decomposition = o.parallel_fanout =
                o.vertex_cache = false;
    return o;
  }
};

/// GraphProvider over a relational database + overlay topology.
class Db2GraphProvider : public gremlin::GraphProvider {
 public:
  Db2GraphProvider(SqlDialect* dialect, overlay::Topology topology,
                   RuntimeOptions options = {});

  std::string name() const override { return "Db2Graph"; }
  bool SupportsPushdown() const override { return true; }

  Status Vertices(const gremlin::LookupSpec& spec,
                  std::vector<gremlin::VertexPtr>* out) override;
  Status Edges(const gremlin::LookupSpec& spec,
               std::vector<gremlin::EdgePtr>* out) override;

  /// Streaming lookups read each table through the per-table reader the
  /// materialized calls drain, so a consumer that stops pulling never pays
  /// for the tables it did not reach. Without fan-out the tables stream
  /// lazily in table order; with it, per-table producers feed bounded
  /// queues drained in table order, and Close() cancels the ones not yet
  /// started. A vertex point lookup the cache can answer goes through
  /// Vertices() and the base class's chunking adapter.
  Result<std::unique_ptr<gremlin::VertexStream>> VerticesStreaming(
      const gremlin::LookupSpec& spec) override;
  Result<std::unique_ptr<gremlin::EdgeStream>> EdgesStreaming(
      const gremlin::LookupSpec& spec) override;
  Status AdjacentEdges(const std::vector<gremlin::VertexPtr>& from,
                       gremlin::Direction dir,
                       const gremlin::LookupSpec& spec,
                       std::vector<gremlin::EdgePtr>* out) override;
  Status EdgeEndpoints(const std::vector<gremlin::EdgePtr>& edges,
                       gremlin::Direction endpoint,
                       const gremlin::LookupSpec& spec,
                       std::vector<gremlin::VertexPtr>* out) override;
  Result<Value> AggregateVertices(const gremlin::LookupSpec& spec) override;
  Result<Value> AggregateEdges(const gremlin::LookupSpec& spec) override;

  /// Executes an optimizer-collapsed hop chain as one N-way join per
  /// (edge-table × vertex-table) chain, in chain order, appending each
  /// chain's walks in the join's row order — which reproduces the
  /// table-major order of step-at-a-time execution, per source and, for
  /// an id-sourced chain, overall. Each chain's join was compiled with the
  /// plan; an execution plans only its first edge stage, with the source
  /// ids. A count-folded spec renders the same joins as SELECT <near
  /// endpoint>, COUNT(*) ... GROUP BY <near endpoint> (SELECT COUNT(*)
  /// from a single source) and sums the per-source counts instead. Returns
  /// Unsupported (after logging a fallback against the plan's optimizer
  /// decision) whenever a runtime condition breaks the compile-time
  /// legality assumptions; the interpreter then re-runs the preserved
  /// step-at-a-time body.
  Status MultiHopTraverse(const gremlin::MultiHopSources& sources,
                          const gremlin::MultiHopSpec& spec,
                          gremlin::MultiHopResult* out) override;

  const overlay::Topology& topology() const { return topology_; }
  const RuntimeOptions& options() const { return options_; }
  SqlDialect* dialect() const { return dialect_; }

  /// Optimization-visible counters for tests and ablations. Readers
  /// should take a Snapshot() for assertions/reporting rather than load
  /// the live counters field by field.
  struct Stats {
    metrics::Counter vertex_tables_queried;
    metrics::Counter vertex_tables_pruned;
    metrics::Counter edge_tables_queried;
    metrics::Counter edge_tables_pruned;
    metrics::Counter shortcut_vertices;  // built from edge rows
    metrics::Counter parallel_batches;   // fan-outs dispatched
    metrics::Counter parallel_tasks;     // per-table jobs in them
    metrics::Counter cache_hits;         // vertex-cache hits
    metrics::Counter cache_misses;       // vertex-cache misses

    /// Plain-value copy of every counter.
    struct Counts {
      uint64_t vertex_tables_queried = 0;
      uint64_t vertex_tables_pruned = 0;
      uint64_t edge_tables_queried = 0;
      uint64_t edge_tables_pruned = 0;
      uint64_t shortcut_vertices = 0;
      uint64_t parallel_batches = 0;
      uint64_t parallel_tasks = 0;
      uint64_t cache_hits = 0;
      uint64_t cache_misses = 0;
    };

    Counts Snapshot() const {
      Counts c;
      c.vertex_tables_queried = vertex_tables_queried.load();
      c.vertex_tables_pruned = vertex_tables_pruned.load();
      c.edge_tables_queried = edge_tables_queried.load();
      c.edge_tables_pruned = edge_tables_pruned.load();
      c.shortcut_vertices = shortcut_vertices.load();
      c.parallel_batches = parallel_batches.load();
      c.parallel_tasks = parallel_tasks.load();
      c.cache_hits = cache_hits.load();
      c.cache_misses = cache_misses.load();
      return c;
    }

    void Reset() {
      vertex_tables_queried = 0;
      vertex_tables_pruned = 0;
      edge_tables_queried = 0;
      edge_tables_pruned = 0;
      shortcut_vertices = 0;
      parallel_batches = 0;
      parallel_tasks = 0;
      cache_hits = 0;
      cache_misses = 0;
    }
  };
  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

  /// One per-table entry of a compile-time plan preview (Explain): the SQL
  /// a lookup spec would generate against this table, the access path the
  /// executor is predicted to choose (from index availability), and the
  /// table cardinality as a row-count upper bound. Pruned tables appear
  /// with pruned=true and no SQL.
  struct SqlPreview {
    std::string table;
    std::string sql;
    std::string access_path;  // "index probe" | "full scan" | "full scan+filter" | "pruned"
    uint64_t estimated_rows = 0;
    bool pruned = false;
    int table_index = -1;  // overlay table index; -1 for a join preview
  };

  /// Plan previews for a vertex/edge lookup, without touching any data.
  /// Previews run the same per-table planner as execution, so they show
  /// exactly which tables pruning would skip.
  Status ExplainVertices(const gremlin::LookupSpec& spec,
                         std::vector<SqlPreview>* out) const;
  Status ExplainEdges(const gremlin::LookupSpec& spec,
                      std::vector<SqlPreview>* out) const;
  /// Preview of the endpoint fetch that follows an edge lookup
  /// (inV()/outV(), or the second half of out()/in()): only the vertex
  /// tables endpoint pruning keeps for the given edge tables (indexes;
  /// null means every edge table), each probed by id. The endpoint ids
  /// come from the fetched edges, so they render as "?".
  Status ExplainEndpoints(const std::vector<int>* edge_tables,
                          gremlin::Direction endpoint,
                          const gremlin::LookupSpec& spec,
                          std::vector<SqlPreview>* out) const;
  /// Preview of a collapsed multi-hop chain: one entry per table chain
  /// with the rendered N-way join SQL and the optimizer's
  /// output-cardinality estimate. `source_ids` are an id-sourced chain's
  /// literal start ids; the runtime source-id conditions of a chain that
  /// starts from traversers are left out.
  Status ExplainMultiHop(const gremlin::MultiHopSpec& spec,
                         const std::vector<Value>& source_ids,
                         std::vector<SqlPreview>* out) const;

 private:
  // The per-table lookup pipeline (graph_structure.cc). Vertex and edge
  // tables run the same stages; each template is instantiated for
  // overlay::ResolvedVertexTable and overlay::ResolvedEdgeTable.

  /// Materialized element fetch over `tables` (all of them, or only
  /// `subset` when it is non-null): plan, prune and count the tables, then
  /// drain each survivor's reader through RunInOrder, in table order.
  template <typename Table, typename ElementPtr>
  Status FetchTables(const std::vector<Table>& tables,
                     const gremlin::LookupSpec& spec,
                     const std::vector<int>* subset,
                     std::vector<ElementPtr>* out);
  /// Streaming counterpart of FetchTables over all of `tables`.
  template <typename Table, typename Stream>
  Result<std::unique_ptr<Stream>> StreamTables(
      const std::vector<Table>& tables, const gremlin::LookupSpec& spec);
  /// Aggregate pushdown over `tables`: one aggregate statement per
  /// consulted table, partials merged in table order. Unsupported when a
  /// table needs client-side filtering.
  template <typename Table>
  Result<Value> AggregateTables(const std::vector<Table>& tables,
                                const gremlin::LookupSpec& spec);
  /// Runs job(j, &slot) for j in [0, n) — on the shared thread pool when
  /// BeginFanOut(n) allows, serially otherwise — and appends the slots to
  /// `out` in job order. The first failed job (in job order) wins. A job
  /// appends to its slot, and only when it succeeds.
  template <typename T>
  Status RunInOrder(size_t n,
                    const std::function<Status(size_t, std::vector<T>*)>& job,
                    std::vector<T>* out);
  /// True when `n` per-table jobs fan out across the pool: enabled, n > 1,
  /// and the caller not inside a database read lock. Counts and traces
  /// the fan-out it allows.
  bool BeginFanOut(size_t n);

  /// Cache is consulted only for pure single-id point lookups that fetch
  /// full rows (no projection, no aggregate) outside access control.
  bool CacheUsable(const gremlin::LookupSpec& spec) const;
  /// Entries may only be *filled* from fetches whose result is the
  /// complete vertex set for the id: no label/predicate restriction (those
  /// prune or filter tables a later lookup might need).
  bool CacheFillEligible(const gremlin::LookupSpec& spec) const;

  SqlDialect* dialect_;
  overlay::Topology topology_;
  RuntimeOptions options_;
  Stats stats_;
  std::unique_ptr<VertexCache> cache_;
};

/// Provenance payload attached to elements produced by Db2GraphProvider:
/// the overlay-table index and the originating relational row.
struct RowProvenance {
  int table_index;
  Row row;
};

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_GRAPH_STRUCTURE_H_
