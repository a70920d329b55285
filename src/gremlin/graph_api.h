// Copyright (c) 2026 The db2graph-repro Authors.
//
// The TinkerPop-style "core API" seam (paper Section 3): property-graph
// element types plus the abstract GraphProvider interface that graph
// back ends implement. Db2 Graph's Graph Structure module, the native
// GDB-X simulator, and the JanusGraph-like baseline all plug in here, so
// the Gremlin interpreter runs identical queries against all three.
//
// The LookupSpec carries the *extended* structure-API pushdown information
// of Section 6: ids, labels, property predicates, endpoint constraints,
// projections, and aggregates. Providers are free to ignore any hint
// (except ids/endpoints, which are semantic); the interpreter re-applies
// filters client-side, so pushdown only ever reduces transferred data.

#ifndef DB2GRAPH_GREMLIN_GRAPH_API_H_
#define DB2GRAPH_GREMLIN_GRAPH_API_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace db2graph::gremlin {

/// Base of vertices and edges: id, label, properties, and provenance.
struct Element {
  Value id;
  std::string label;
  std::vector<std::pair<std::string, Value>> properties;

  /// The overlay/storage table this element came from ("" when the back
  /// end has no table notion). Drives the paper's Section 6.3
  /// data-dependent optimizations.
  std::string source_table;

  /// Provider-private provenance payload (e.g. the originating row and
  /// overlay-table index in Db2 Graph, enabling the "vertex table is also
  /// an edge table" shortcut). Opaque to the interpreter.
  std::shared_ptr<const void> provenance;

  /// Property value by key; nullptr when absent.
  const Value* FindProperty(const std::string& key) const {
    for (const auto& [k, v] : properties) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

struct Vertex : Element {};

struct Edge : Element {
  Value src_id;
  Value dst_id;
};

using VertexPtr = std::shared_ptr<const Vertex>;
using EdgePtr = std::shared_ptr<const Edge>;

/// Traversal direction relative to a vertex.
enum class Direction { kOut, kIn, kBoth };

/// Comparison predicate on one property, pushed down to providers
/// (Gremlin P.eq/neq/lt/lte/gt/gte/within).
struct PropPredicate {
  enum class Op {
    kEq,
    kNeq,
    kLt,
    kLte,
    kGt,
    kGte,
    kWithin,
    kWithout,
    kExists,  // has(key): the property merely needs to be present
  };
  std::string key;
  Op op = Op::kEq;
  std::vector<Value> values;  // 1 value for scalar ops, n for within/without
  /// Bind placeholder: when non-empty, `values` is unset at compile time
  /// and the interpreter resolves the variable from the execution
  /// environment (has('age', gt(threshold))). Predicates with a pending
  /// variable are never pushed down to providers.
  std::string var;

  bool Matches(const Value& v) const;
  /// Evaluates against an element ("~id" and "~label" address the id and
  /// label fields; anything else is a property key — absent property fails).
  bool Matches(const Element& element) const;
};

/// Reserved predicate keys addressing required fields.
inline const char kIdKey[] = "~id";
inline const char kLabelKey[] = "~label";

/// Client-side-computable aggregate, also pushed down when supported.
enum class AggOp { kNone, kCount, kSum, kMean, kMin, kMax };

/// What to retrieve, with every pushdown hint the optimized traversal
/// strategies may fold in.
struct LookupSpec {
  std::vector<Value> ids;       // empty = unconstrained
  std::vector<std::string> labels;
  std::vector<PropPredicate> predicates;

  // Edge lookups only: constrain endpoints ("SELECT ... WHERE src_v IN").
  std::vector<Value> src_ids;
  std::vector<Value> dst_ids;

  // Projection pushdown: property names the traversal will consume
  // (empty = all properties). Ids/labels are always retrieved.
  std::vector<std::string> projection;
  bool has_projection = false;

  // Aggregate pushdown: when set, a supporting provider returns the
  // aggregate instead of the elements.
  AggOp agg = AggOp::kNone;
  std::string agg_key;  // property for sum/mean/min/max

  // Limit pushdown: when >= 0, the traversal consumes at most this many
  // elements from *each* consulted table (a trailing limit(n)/range(lo,hi)
  // with no row-dropping step in between). Providers may render it as a
  // SQL LIMIT so the per-table scan short-circuits; it is a budget, not a
  // semantic bound — the interpreter keeps enforcing the exact cross-table
  // limit client-side.
  int64_t limit = -1;

  bool HasIdConstraint() const { return !ids.empty(); }
};

/// One collapsed hop of a multi-hop traversal: the adjacency direction,
/// the pushdown hints for the hop's edges, and the lookup hints for the
/// far-endpoint vertices. When emit_edge_id is set (an outE().inV()
/// step pair), the traverser path records the edge id before the far
/// vertex id; a plain out()/in() hop records only the vertex id.
struct MultiHopHop {
  Direction direction = Direction::kOut;
  std::vector<std::string> edge_labels;
  LookupSpec edge_spec;
  LookupSpec vertex_spec;
  bool emit_edge_id = false;
};

/// A chain of hops the cost-based optimizer collapsed into one provider
/// call; the Db2 Graph provider renders it as a single N-way join per
/// eligible table chain instead of one statement per hop.
struct MultiHopSpec {
  std::vector<MultiHopHop> hops;
  uint64_t est_rows = 0;   // optimizer's output-cardinality estimate
  std::string join_order;  // human-readable join order for Explain
  /// kCount when the count() that directly followed the chain was folded
  /// in: the provider returns per-source walk counts instead of the walks
  /// (one GROUP BY join), and the step emits their sum as a barrier.
  AggOp agg = AggOp::kNone;
  /// Provider-private compiled join plan (table chains, layouts, shape
  /// keys), attached by the optimizer and opaque to the interpreter.
  std::shared_ptr<const void> provider_plan;
};

/// One multi-hop walk: the source id it started from, the final vertex,
/// and the ids the traverser path accumulates along the way, in hop order
/// (the edge id first for emit_edge_id hops, then the hop's vertex id).
struct MultiHopEmission {
  Value source;
  VertexPtr vertex;
  std::vector<Value> path_ids;
};

/// Where one MultiHopTraverse call starts: the distinct source ids, and
/// the vertex tables the source vertices were read from (the input of
/// endpoint-table pruning). A chain continuing from vertex traversers
/// passes both. An id-sourced chain (g.V(ids).out()... after the
/// GraphStep::VertexStep mutation) never looks its start vertices up, so
/// it passes no tables: every edge table stays a candidate and id pinning
/// alone prunes, exactly as for the edge fetch the chain replaces.
struct MultiHopSources {
  std::vector<Value> ids;
  std::unordered_set<std::string> tables;
};

/// What one MultiHopTraverse call returns: the walks, or — for a
/// count-folded spec — the per-source number of walks.
struct MultiHopResult {
  /// agg == kNone: every walk in the order step-at-a-time execution of an
  /// id-sourced chain emits them (first-hop table order, then the join's
  /// row order). Walks from one source keep the order step-at-a-time
  /// execution emits for that source, so a vertex-sourced chain groups
  /// them by source id without reordering.
  std::vector<MultiHopEmission> walks;
  std::unordered_map<Value, int64_t, ValueHash> counts;  // agg == kCount
};

/// Pull cursor over an element lookup: the streaming counterpart of
/// GraphProvider::Vertices / Edges. Blocks arrive in the same
/// deterministic order the materialized call would produce, so a consumer
/// that stops pulling early sees a prefix of the materialized result.
template <typename Ptr>
class ElementStream {
 public:
  virtual ~ElementStream() = default;

  /// Clears `out` and appends up to `max` elements (at least 1 when any
  /// remain). Returns true iff elements were delivered; false means the
  /// stream is exhausted — or failed, which status() distinguishes.
  virtual bool Next(std::vector<Ptr>* out, size_t max) = 0;

  /// Stops the stream and releases its resources (idempotent; also run by
  /// the destructor). A provider backed by parallel per-table fetches
  /// cancels work that has not started yet.
  virtual void Close() = 0;

  virtual const Status& status() const = 0;
};

using VertexStream = ElementStream<VertexPtr>;
using EdgeStream = ElementStream<EdgePtr>;

/// Abstract graph back end. All methods are thread-safe for concurrent
/// readers.
class GraphProvider {
 public:
  virtual ~GraphProvider() = default;

  virtual std::string name() const = 0;

  /// Vertices matching `spec` (ids/labels/predicates conjunctive).
  virtual Status Vertices(const LookupSpec& spec,
                          std::vector<VertexPtr>* out) = 0;

  /// Edges matching `spec`, including src/dst endpoint constraints.
  virtual Status Edges(const LookupSpec& spec,
                       std::vector<EdgePtr>* out) = 0;

  /// Edges incident to `from` in direction `dir`, also matching `spec`
  /// (labels/predicates). Default: delegates to Edges() with endpoint
  /// constraints; providers with provenance-aware pruning override.
  virtual Status AdjacentEdges(const std::vector<VertexPtr>& from,
                               Direction dir, const LookupSpec& spec,
                               std::vector<EdgePtr>* out);

  /// Endpoint vertices of `edges` (kOut = source, kIn = destination),
  /// matching `spec`. Default: delegates to Vertices() by id; providers
  /// can use per-edge table provenance to do better.
  virtual Status EdgeEndpoints(const std::vector<EdgePtr>& edges,
                               Direction endpoint, const LookupSpec& spec,
                               std::vector<VertexPtr>* out);

  /// Streaming variants: same element set and order as the materialized
  /// calls, delivered block-at-a-time so a downstream limit can stop the
  /// lookup before every table is drained. Defaults materialize through
  /// Vertices()/Edges() and chunk the result — correct for any provider;
  /// ones that can stream natively override (Db2 Graph streams both, and
  /// its materialized calls drain the same per-table read).
  virtual Result<std::unique_ptr<VertexStream>> VerticesStreaming(
      const LookupSpec& spec);
  virtual Result<std::unique_ptr<EdgeStream>> EdgesStreaming(
      const LookupSpec& spec);

  /// Aggregate pushdown. Providers that can compute spec.agg natively
  /// (e.g. SELECT COUNT(*)) return the value; default is Unsupported and
  /// the interpreter aggregates client-side.
  virtual Result<Value> AggregateVertices(const LookupSpec& spec);
  virtual Result<Value> AggregateEdges(const LookupSpec& spec);

  /// Collapsed multi-hop traversal: all hops of `spec` from each source
  /// in one call (one N-way join statement per table chain in Db2 Graph).
  /// Fills out->walks, or out->counts when spec.agg is kCount.
  /// Default is Unsupported — the interpreter then falls back to the
  /// step-at-a-time plan kept alongside the MultiHopStep.
  virtual Status MultiHopTraverse(const MultiHopSources& sources,
                                  const MultiHopSpec& spec,
                                  MultiHopResult* out);

  /// Whether the provider benefits from the Db2 Graph provider strategies
  /// (predicate/projection/aggregate pushdown and step mutations).
  virtual bool SupportsPushdown() const { return false; }
};

/// Applies labels + predicates of `spec` to an element, client-side.
bool MatchesSpec(const Element& element, const LookupSpec& spec);

}  // namespace db2graph::gremlin

#endif  // DB2GRAPH_GREMLIN_GRAPH_API_H_
