// Copyright (c) 2026 The db2graph-repro Authors.
//
// Per-table SQL planning shared by the Graph Structure module (step-at-a-
// time lookups, paper Section 6) and the multi-hop join optimizer (which
// collapses hop chains into one N-way join). Everything here is pure
// planning — condition construction, select-list layout, shape keys for
// the SQL-skeleton cache, access-path prediction — with no data access,
// so the optimizer can cost and render candidate joins at compile time
// using exactly the logic execution will use.

#ifndef DB2GRAPH_CORE_GRAPH_PLANNING_H_
#define DB2GRAPH_CORE_GRAPH_PLANNING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "gremlin/graph_api.h"
#include "overlay/topology.h"
#include "sql/database.h"

namespace db2graph::core {

struct RuntimeOptions;  // core/graph_structure.h

// ----------------------------------------------------------------------
// SQL construction
// ----------------------------------------------------------------------

/// One SQL condition on a column. `alias` qualifies the column reference
/// ("alias"."col") inside multi-table join statements; empty for the
/// single-table lookups. When `ref_column` is non-empty the condition is
/// a column-to-column join predicate ("alias"."col" op
/// "ref_alias"."ref_col") and contributes no parameters.
struct SqlCond {
  std::string column;
  std::string op;  // "=", "<>", "<", "<=", ">", ">=", "IN", "NOTNULL"
  std::vector<Value> params;
  std::string alias;
  std::string ref_alias;
  std::string ref_column;
};

/// Conjunction of simple conditions plus OR-groups of conjunctions (used
/// for multi-column composite ids: (a=? AND b=?) OR (a=? AND b=?)).
struct QueryConds {
  std::vector<SqlCond> conjuncts;
  std::vector<std::vector<std::vector<SqlCond>>> or_groups;
};

/// Renders one condition into `*sql`, pushing its parameters.
void RenderCond(const SqlCond& cond, std::string* sql,
                std::vector<Value>* params);

/// Renders "SELECT <select> FROM <table> WHERE ... [LIMIT n]" with
/// parameters. A non-negative `limit` is the LookupSpec's per-table row
/// budget; rendering it lets the SQL executor's streaming scan stop after
/// `limit` matching rows instead of draining the table.
std::string BuildSql(const std::string& table, const std::string& select,
                     const QueryConds& conds, std::vector<Value>* params,
                     int64_t limit = -1);

/// Extracts the parameter values of `conds` in exactly the order
/// BuildSql/RenderCond would push them (NOTNULL contributes none, IN all
/// of its values, a scalar comparison its first) — so a cached SQL
/// skeleton can execute with fresh values and no string assembly.
void CollectParams(const QueryConds& conds, std::vector<Value>* params);

/// A key that uniquely determines the SQL text BuildSql would produce:
/// table, select list, the structure (aliases, columns, operators, IN
/// arities) of the conditions, and the LIMIT value — everything except
/// the parameter values.
std::string ShapeKey(const std::string& table, const std::string& select,
                     const QueryConds& conds, int64_t limit = -1);

/// SQL comparison operator for a scalar predicate op; nullptr for
/// within/without/exists (handled separately).
const char* SqlOpFor(gremlin::PropPredicate::Op op);

/// One table of a multi-hop collapsed join: base table, statement alias,
/// and the conditions whose leftmost binding scope is this table (the
/// per-stage predicate order the step-at-a-time plans would use).
struct JoinStage {
  std::string table;
  std::string alias;
  QueryConds conds;
};

/// Renders "SELECT <select> FROM "T0" AS a0, "T1" AS a1, ... WHERE ...
/// [GROUP BY <group_by>]" for a collapsed hop chain. Conditions render
/// stage by stage (all of stage 0's, then stage 1's, ...) so the SQL
/// executor assigns each one to the earliest join stage that covers its
/// aliases — mirroring the per-table WHERE clauses of the equivalent
/// step-at-a-time statements.
std::string BuildJoinSql(const std::vector<JoinStage>& stages,
                         const std::string& select,
                         const std::string& group_by,
                         std::vector<Value>* params);

/// Shape key uniquely determining BuildJoinSql's text (everything except
/// parameter values), for the SQL-skeleton cache: the select list and
/// GROUP BY, then `stage_keys`, the JoinStageKey of every stage in order.
std::string JoinShapeKey(const std::string& select,
                         const std::string& group_by,
                         const std::string& stage_keys);
/// One stage's part of a JoinShapeKey.
std::string JoinStageKey(const JoinStage& stage);

/// Position a runtime-injected id/endpoint/join condition takes among a
/// plan's conjuncts: PlanVertexTable/PlanEdgeTable place the label
/// condition first, then id/endpoint conditions, then property
/// conditions. Shared between the multi-hop optimizer's probe-parity
/// simulation and the provider's join-stage construction so both agree
/// with the step-at-a-time statement layout.
size_t JoinCondPosition(const QueryConds& conds,
                        const sql::TableSchema& schema,
                        const std::optional<size_t>& label_column);

// ----------------------------------------------------------------------
// Fetch layout: which schema columns a query selects, and where the
// element's required fields and properties land in the fetched row.
// ----------------------------------------------------------------------

struct FetchLayout {
  std::vector<size_t> schema_cols;  // schema column index per SELECT column
  std::vector<size_t> positions_of_schema;  // schema idx -> fetched pos

  size_t PosOf(size_t schema_col) const {
    return positions_of_schema[schema_col];
  }
  bool Has(size_t schema_col) const {
    return schema_col < positions_of_schema.size() &&
           positions_of_schema[schema_col] != SIZE_MAX;
  }
};

FetchLayout MakeLayout(const sql::TableSchema& schema,
                       std::vector<size_t> cols);

std::string SelectListFor(const sql::TableSchema& schema,
                          const FetchLayout& layout);

/// Composes a ResolvedField value from a *fetched* row through the layout.
Value ComposeField(const overlay::ResolvedField& field,
                   const FetchLayout& layout, const Row& fetched);

// ----------------------------------------------------------------------
// Id decomposition into conditions
// ----------------------------------------------------------------------

struct IdCondResult {
  bool any_match = false;
};

/// A decomposed id component can only match rows when its runtime type is
/// compatible with the column's declared type; a string id like
/// "patient::1" can never live in a BIGINT key column. This is what makes
/// prefixed (and otherwise type-distinct) ids pin down the exact table.
bool TypeCompatible(const Value& v, sql::ColumnType column_type);

/// Builds conditions constraining `field` to one of `ids` (single-column
/// fields become an IN conjunct, multi-column fields an OR-group).
/// any_match=false means no id can belong to this definition.
IdCondResult BuildIdConds(const overlay::ResolvedField& field,
                          const sql::TableSchema& schema,
                          const std::vector<Value>& ids, QueryConds* conds);

/// Extends gremlin::MatchesSpec with edge endpoint checks, for the naive
/// (client-filter) execution paths.
bool MatchesEdgeSpec(const gremlin::Edge& e, const gremlin::LookupSpec& spec);

/// Splits an implicit edge id "srcParts::label::dstParts" against an edge
/// table's definitions; nullopt when it cannot belong to this table.
struct ImplicitIdParts {
  std::vector<Value> src_values;
  std::string label;
  std::vector<Value> dst_values;
};
std::optional<ImplicitIdParts> DecomposeImplicitEdgeId(
    const overlay::ResolvedEdgeTable& table, const Value& id);

// ----------------------------------------------------------------------
// Per-table lookup plans
// ----------------------------------------------------------------------

/// Per-table lookup plan for either kind of table, shared by the
/// provider's lookups, aggregates and Explain, and by the multi-hop
/// optimizer's legality checks.
struct TablePlan {
  bool skip = false;           // no row of the table can match: prune it
  bool client_filter = false;  // fetch everything, filter in the provider
  QueryConds conds;
  std::vector<std::string> predicate_columns;  // for the index advisor
};

TablePlan PlanVertexTable(const overlay::ResolvedVertexTable& t,
                          const gremlin::LookupSpec& spec,
                          const RuntimeOptions& options);

TablePlan PlanEdgeTable(const overlay::ResolvedEdgeTable& t,
                        const gremlin::LookupSpec& spec,
                        const RuntimeOptions& options);

/// Columns a vertex / edge fetch needs under `spec` (projection-aware).
std::vector<size_t> VertexFetchColumns(const overlay::ResolvedVertexTable& t,
                                       const gremlin::LookupSpec& spec);
std::vector<size_t> EdgeFetchColumns(const overlay::ResolvedEdgeTable& t,
                                     const gremlin::LookupSpec& spec);

/// Schema column behind property `key` (matched case-insensitively);
/// nullopt when the table has no such property.
std::optional<size_t> PropertyColumn(const overlay::ResolvedVertexTable& t,
                                     const std::string& key);
std::optional<size_t> PropertyColumn(const overlay::ResolvedEdgeTable& t,
                                     const std::string& key);

/// Predicts the access path the executor would pick for `conds` against
/// `table` from index availability: an equality/IN conjunct backed by an
/// index probes it, an ordered comparison backed by an index range-scans
/// it, anything else falls back to a table scan (with residual filtering
/// when conditions exist).
std::string PredictAccessPath(const sql::Database* db,
                              const std::string& table,
                              const QueryConds& conds);

// ----------------------------------------------------------------------
// Multi-hop join chains
// ----------------------------------------------------------------------

/// Qualifies every column reference of `conds` with `alias`.
void SetCondAlias(QueryConds* conds, const std::string& alias);

/// One (edge-table × vertex-table) chain of a collapsed hop chain,
/// compiled once with its plan: the N-way join's stages, where each
/// stage's fetched columns land in the joined row, and the select list.
/// Stage order is e0, v1, e1, v2, ... — hop h contributes edge stage 2h
/// and vertex stage 2h+1. Stage e0 holds hop 1's edge plan without
/// source ids; an execution plans e0 with its ids and puts it in front
/// of the other stages, whose shape-key part and parameters are computed
/// here once.
struct JoinChainPlan {
  struct StageLayout {
    FetchLayout layout;
    size_t offset = 0;  // column offset in the joined row
  };
  std::vector<JoinStage> stages;
  std::vector<StageLayout> layouts;                // per stage
  std::vector<std::vector<std::string>> patterns;  // per-stage pred columns
  std::vector<int> edge_tables;    // per hop: Topology::edge_tables() index
  std::vector<int> vertex_tables;  // per hop: Topology::vertex_tables() index
  /// Walks: every stage's fetched columns. Counted: e0's near-endpoint
  /// columns, which the rows group by, and COUNT(*); `key_layout` places
  /// those columns in the grouped row.
  std::string select;
  std::string group_by;
  FetchLayout key_layout;
  std::string rest_key;            // JoinStageKey of stages v1.., in order
  std::vector<Value> rest_params;  // parameters of stages v1.., in order
};

/// Compiles the chain whose hop h joins edge table `edge_tables[h]` to
/// vertex table `vertex_tables[h]`. Unsupported when one N-way join
/// cannot express it (a composite join field, a table the hop's spec
/// prunes or filters client-side).
Status BuildJoinChainPlan(const overlay::Topology& topology,
                          const RuntimeOptions& options,
                          const gremlin::MultiHopSpec& spec,
                          std::vector<int> edge_tables,
                          std::vector<int> vertex_tables, JoinChainPlan* out);

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_GRAPH_PLANNING_H_
