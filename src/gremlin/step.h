// Copyright (c) 2026 The db2graph-repro Authors.
//
// Logical traversal plan: the Gremlin compiler (parser.h) produces a
// sequence of Steps, the Traversal Strategy module (core/strategies.h)
// mutates it, and the interpreter executes it against a GraphProvider.
//
// A Step is a tagged struct rather than a class hierarchy because the
// optimized traversal strategies of Section 6.2 are plan *rewrites*
// (folding, removing, and replacing steps); a flat representation keeps
// those rewrites simple and testable.

#ifndef DB2GRAPH_GREMLIN_STEP_H_
#define DB2GRAPH_GREMLIN_STEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gremlin/graph_api.h"

namespace db2graph::gremlin {

enum class StepKind {
  kGraph,       // g.V(...) / g.E(...); a Graph-Structure-Accessing step
  kVertex,      // out/in/both/outE/inE/bothE; a GSA step
  kEdgeVertex,  // outV/inV/bothV; a GSA step
  kHas,         // has/hasLabel/hasId — pure filter
  kValues,      // values(keys...) — property projection
  kValueMap,    // valueMap(keys...) — rendered property map
  kId,          // id()
  kLabel,       // label()
  kAggregate,   // count/sum/mean/min/max — barrier
  kDedup,       // dedup() — stateful filter (global across loops)
  kLimit,       // limit(n)
  kRange,       // range(lo, hi)
  kOrder,       // order() [desc]
  kRepeat,      // repeat(body).times(n)[.emit()]
  kWhere,       // where(sub) / filter(sub) — keep when sub matches
  kNot,         // not(sub) — keep when sub does not match
  kStore,       // store(key) / aggregate(key) — side effect
  kCap,         // cap(key) — barrier emitting the stored list
  kUnion,       // union(subA, subB, ...) — per-traverser branch merge
  kCoalesce,    // coalesce(subA, subB, ...) — first branch with results
  kIs,          // is(P) — filter a value stream
  kPath,        // path() — emit each traverser's id/value history
  kSimplePath,  // simplePath() — drop traversers that revisit an element
  kTail,        // tail(n) — last n traversers
  kGroupCount,  // groupCount() — barrier: value -> multiplicity
  kMultiHop,    // optimizer-collapsed hop chain (N-way join); a GSA step
};

/// Returns a printable step name.
const char* StepKindName(StepKind kind);

/// An argument that is either a literal or a script-variable reference
/// (e.g. g.V(similar_diseases) in the paper's Section 4 query).
struct GremlinArg {
  Value literal;
  std::string var;  // non-empty = variable reference
  /// >= 0: an id literal of concentrated script text (see
  /// ConcentrateIdLiterals in parser.h), numbered in text order. While
  /// the plan compiles, `literal` still holds the value and strategies
  /// treat the argument as a literal; a plan cached per text shape clears
  /// `literal` and reads slot values per execution instead. Renders as
  /// "$__c<slot>".
  int slot = -1;
  bool is_var() const { return !var.empty(); }
  bool is_slot() const { return slot >= 0; }
};

/// Reserved identifier prefix of concentrated id slots ("__c0", "__c1",
/// ...). Text that already contains it is never concentrated, so slot
/// names cannot collide with script variables.
inline constexpr const char kSlotPrefix[] = "__c";

/// Replaces every "$__c<N>" slot rendering in `text` (a Step::ToString or
/// Traversal::ToString result) with slot N's value, so traces of a plan
/// cached per text shape read like the caller's own text.
std::string BindSlotText(const std::string& text,
                         const std::vector<Value>& slots);

/// One step of a traversal plan. Only the fields relevant to `kind` are
/// meaningful; everything else stays default.
struct Step {
  StepKind kind = StepKind::kHas;

  // kGraph ------------------------------------------------------------
  bool graph_emits_edges = false;  // g.E(), or a mutated g.V().outE()
  std::vector<GremlinArg> start_ids;
  /// Pushdown spec (strategies fold labels / predicates / projections /
  /// aggregates / endpoint constraints in here). For kVertex steps the
  /// spec applies to the *emitted* elements.
  LookupSpec spec;
  /// Endpoint constraints produced by the GraphStep::VertexStep mutation
  /// (may hold variable refs, unlike spec.src_ids).
  std::vector<GremlinArg> src_id_args;
  std::vector<GremlinArg> dst_id_args;

  // kVertex / kEdgeVertex ----------------------------------------------
  Direction direction = Direction::kOut;
  bool to_vertex = false;  // out()/in()/both() vs outE()/inE()/bothE()
  std::vector<std::string> edge_labels;

  // kHas ---------------------------------------------------------------
  std::vector<PropPredicate> predicates;
  /// hasId arguments may reference variables.
  std::vector<GremlinArg> id_args;

  // kValues / kValueMap ------------------------------------------------
  std::vector<std::string> keys;

  // kAggregate ----------------------------------------------------------
  AggOp agg = AggOp::kNone;

  // kLimit / kRange -----------------------------------------------------
  int64_t low = 0;
  int64_t high = -1;

  // kOrder ---------------------------------------------------------------
  bool descending = false;

  // kRepeat / kWhere / kNot ----------------------------------------------
  std::vector<Step> body;
  int64_t times = 1;
  bool emit = false;

  // kUnion / kCoalesce ----------------------------------------------------
  std::vector<std::vector<Step>> branches;

  // kStore / kCap ----------------------------------------------------------
  std::string side_effect_key;

  // kMultiHop ---------------------------------------------------------------
  /// The collapsed hop chain. The replaced step-at-a-time steps live in
  /// `body` so the interpreter can fall back when the provider declines;
  /// an id-sourced chain keeps its start ids in src_id_args/dst_id_args.
  std::shared_ptr<const MultiHopSpec> multi_hop;

  /// True for steps that access the graph structure API (the paper's GSA
  /// steps, Section 6.1): these are the steps that turn into SQL.
  bool IsGsa() const {
    return kind == StepKind::kGraph || kind == StepKind::kVertex ||
           kind == StepKind::kEdgeVertex || kind == StepKind::kMultiHop;
  }

  /// True for a MultiHopStep whose chain starts from ids (src_id_args for
  /// an outward first hop, dst_id_args for an inward one: a collapsed
  /// g.V(ids).out()...) instead of from its input traversers. Like the
  /// GraphStep it replaces, such a step is a source.
  bool IdSourced() const {
    return kind == StepKind::kMultiHop &&
           (!src_id_args.empty() || !dst_id_args.empty());
  }

  /// Human-readable rendering for plan diagnostics and strategy tests.
  std::string ToString() const;
};

/// A full traversal: g.<steps...>.
struct Traversal {
  std::vector<Step> steps;

  std::string ToString() const;
};

/// One script statement: an optional variable assignment of a traversal's
/// terminal result. `g.V()...` (iterate) or `x = g.V()....next()`.
struct ScriptStatement {
  std::string assign_to;  // empty = no assignment
  Traversal traversal;
  bool terminal_next = false;  // .next() — take the first result
  /// .profile() — execute traced and return the trace as the result (one
  /// traverser holding the JSON rendering).
  bool terminal_profile = false;
};

/// A parsed Gremlin script (';'-separated statements).
struct Script {
  std::vector<ScriptStatement> statements;
};

}  // namespace db2graph::gremlin

#endif  // DB2GRAPH_GREMLIN_STEP_H_
