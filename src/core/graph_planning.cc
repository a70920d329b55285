#include "core/graph_planning.h"

#include <algorithm>
#include <cstdlib>

#include "common/strings.h"
#include "core/graph_structure.h"

namespace db2graph::core {

using gremlin::LookupSpec;
using gremlin::PropPredicate;
using overlay::ResolvedEdgeTable;
using overlay::ResolvedField;
using overlay::ResolvedVertexTable;

// ----------------------------------------------------------------------
// SQL construction
// ----------------------------------------------------------------------

namespace {

std::string QualifiedColumn(const SqlCond& cond) {
  if (cond.alias.empty()) return "\"" + cond.column + "\"";
  return "\"" + cond.alias + "\".\"" + cond.column + "\"";
}

}  // namespace

void RenderCond(const SqlCond& cond, std::string* sql,
                std::vector<Value>* params) {
  if (!cond.ref_column.empty()) {
    *sql += QualifiedColumn(cond) + " " + cond.op + " \"" + cond.ref_alias +
            "\".\"" + cond.ref_column + "\"";
    return;
  }
  if (cond.op == "NOTNULL") {
    *sql += QualifiedColumn(cond) + " IS NOT NULL";
    return;
  }
  if (cond.op == "IN") {
    *sql += QualifiedColumn(cond) + " IN (";
    for (size_t i = 0; i < cond.params.size(); ++i) {
      if (i > 0) *sql += ", ";
      *sql += "?";
      params->push_back(cond.params[i]);
    }
    *sql += ")";
    return;
  }
  *sql += QualifiedColumn(cond) + " " + cond.op + " ?";
  params->push_back(cond.params[0]);
}

namespace {

// Renders each conjunct, then each OR-group, as one WHERE part.
void AppendCondParts(const QueryConds& conds, std::vector<std::string>* parts,
                     std::vector<Value>* params) {
  for (const SqlCond& cond : conds.conjuncts) {
    std::string part;
    RenderCond(cond, &part, params);
    parts->push_back(std::move(part));
  }
  for (const auto& group : conds.or_groups) {
    std::string part = "(";
    for (size_t g = 0; g < group.size(); ++g) {
      if (g > 0) part += " OR ";
      part += "(";
      for (size_t c = 0; c < group[g].size(); ++c) {
        if (c > 0) part += " AND ";
        RenderCond(group[g][c], &part, params);
      }
      part += ")";
    }
    part += ")";
    parts->push_back(std::move(part));
  }
}

}  // namespace

std::string BuildSql(const std::string& table, const std::string& select,
                     const QueryConds& conds, std::vector<Value>* params,
                     int64_t limit) {
  std::string sql = "SELECT " + select + " FROM \"" + table + "\"";
  std::vector<std::string> where_parts;
  AppendCondParts(conds, &where_parts, params);
  if (!where_parts.empty()) {
    sql += " WHERE " + Join(where_parts, " AND ");
  }
  if (limit >= 0) {
    sql += " LIMIT " + std::to_string(limit);
  }
  return sql;
}

void CollectParams(const QueryConds& conds, std::vector<Value>* params) {
  auto one = [params](const SqlCond& cond) {
    if (!cond.ref_column.empty()) return;
    if (cond.op == "NOTNULL") return;
    if (cond.op == "IN") {
      for (const Value& v : cond.params) params->push_back(v);
      return;
    }
    params->push_back(cond.params[0]);
  };
  for (const SqlCond& cond : conds.conjuncts) one(cond);
  for (const auto& group : conds.or_groups) {
    for (const auto& conjunction : group) {
      for (const SqlCond& cond : conjunction) one(cond);
    }
  }
}

std::string ShapeKey(const std::string& table, const std::string& select,
                     const QueryConds& conds, int64_t limit) {
  std::string key = table + "\x01" + select;
  if (limit >= 0) {
    key += "\x06";
    key += std::to_string(limit);
  }
  auto one = [&key](const SqlCond& cond) {
    key += "\x04";
    if (!cond.alias.empty()) {
      key += cond.alias;
      key += "\x07";
    }
    key += cond.column;
    key += "\x05";
    key += cond.op;
    if (!cond.ref_column.empty()) {
      key += "\x08";
      key += cond.ref_alias;
      key += "\x07";
      key += cond.ref_column;
    } else if (cond.op == "IN") {
      key += std::to_string(cond.params.size());
    }
  };
  for (const SqlCond& cond : conds.conjuncts) {
    key += "\x02";
    one(cond);
  }
  for (const auto& group : conds.or_groups) {
    key += "\x03";
    for (const auto& conjunction : group) {
      key += "\x02";
      for (const SqlCond& cond : conjunction) one(cond);
    }
  }
  return key;
}

const char* SqlOpFor(PropPredicate::Op op) {
  switch (op) {
    case PropPredicate::Op::kEq:
      return "=";
    case PropPredicate::Op::kNeq:
      return "<>";
    case PropPredicate::Op::kLt:
      return "<";
    case PropPredicate::Op::kLte:
      return "<=";
    case PropPredicate::Op::kGt:
      return ">";
    case PropPredicate::Op::kGte:
      return ">=";
    default:
      return nullptr;  // within / without / exists handled separately
  }
}

std::string BuildJoinSql(const std::vector<JoinStage>& stages,
                         const std::string& select,
                         const std::string& group_by,
                         std::vector<Value>* params) {
  std::string sql = "SELECT " + select + " FROM ";
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += "\"" + stages[i].table + "\" AS " + stages[i].alias;
  }
  std::vector<std::string> where_parts;
  for (const JoinStage& stage : stages) {
    AppendCondParts(stage.conds, &where_parts, params);
  }
  if (!where_parts.empty()) {
    sql += " WHERE " + Join(where_parts, " AND ");
  }
  if (!group_by.empty()) sql += " GROUP BY " + group_by;
  return sql;
}

std::string JoinShapeKey(const std::string& select,
                         const std::string& group_by,
                         const std::string& stage_keys) {
  return "join\x01" + select + "\x02" + group_by + stage_keys;
}

std::string JoinStageKey(const JoinStage& stage) {
  return "\x06" +
         ShapeKey(stage.table + "\x07" + stage.alias, "", stage.conds);
}

size_t JoinCondPosition(const QueryConds& conds,
                        const sql::TableSchema& schema,
                        const std::optional<size_t>& label_column) {
  if (label_column && !conds.conjuncts.empty()) {
    std::optional<size_t> idx = schema.ColumnIndex(conds.conjuncts[0].column);
    if (idx && *idx == *label_column) return 1;
  }
  return 0;
}

// ----------------------------------------------------------------------
// Fetch layout
// ----------------------------------------------------------------------

FetchLayout MakeLayout(const sql::TableSchema& schema,
                       std::vector<size_t> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  FetchLayout layout;
  layout.schema_cols = cols;
  layout.positions_of_schema.assign(schema.columns.size(), SIZE_MAX);
  for (size_t i = 0; i < cols.size(); ++i) {
    layout.positions_of_schema[cols[i]] = i;
  }
  return layout;
}

std::string SelectListFor(const sql::TableSchema& schema,
                          const FetchLayout& layout) {
  std::vector<std::string> names;
  for (size_t c : layout.schema_cols) {
    names.push_back("\"" + schema.columns[c].name + "\"");
  }
  return Join(names, ", ");
}

Value ComposeField(const ResolvedField& field, const FetchLayout& layout,
                   const Row& fetched) {
  if (field.def.SingleColumn()) {
    return fetched[layout.PosOf(field.column_indexes[0])];
  }
  std::string out;
  size_t col = 0;
  for (size_t i = 0; i < field.def.parts.size(); ++i) {
    if (i > 0) out += kIdSeparator;
    if (field.def.parts[i].is_constant) {
      out += field.def.parts[i].text;
    } else {
      out += fetched[layout.PosOf(field.column_indexes[col++])].ToString();
    }
  }
  return Value(std::move(out));
}

// ----------------------------------------------------------------------
// Id decomposition
// ----------------------------------------------------------------------

bool TypeCompatible(const Value& v, sql::ColumnType column_type) {
  if (v.is_null()) return false;
  switch (column_type) {
    case sql::ColumnType::kInt:
    case sql::ColumnType::kDouble:
      return v.is_numeric();
    case sql::ColumnType::kString:
      return v.is_string();
    case sql::ColumnType::kBool:
      return v.is_bool();
  }
  return true;
}

IdCondResult BuildIdConds(const ResolvedField& field,
                          const sql::TableSchema& schema,
                          const std::vector<Value>& ids, QueryConds* conds) {
  IdCondResult result;
  std::vector<std::vector<Value>> decomposed;
  for (const Value& id : ids) {
    if (auto values = field.Decompose(id)) {
      bool compatible = true;
      for (size_t i = 0; i < values->size(); ++i) {
        compatible &= TypeCompatible(
            (*values)[i],
            schema.columns[field.column_indexes[i]].type);
      }
      if (compatible) decomposed.push_back(std::move(*values));
    }
  }
  if (decomposed.empty()) return result;
  result.any_match = true;
  if (field.column_indexes.size() == 1) {
    SqlCond cond;
    cond.column = schema.columns[field.column_indexes[0]].name;
    cond.op = "IN";
    for (auto& values : decomposed) cond.params.push_back(values[0]);
    conds->conjuncts.push_back(std::move(cond));
    return result;
  }
  std::vector<std::vector<SqlCond>> group;
  for (auto& values : decomposed) {
    std::vector<SqlCond> conjunction;
    for (size_t i = 0; i < field.column_indexes.size(); ++i) {
      SqlCond cond;
      cond.column = schema.columns[field.column_indexes[i]].name;
      cond.op = "=";
      cond.params.push_back(values[i]);
      conjunction.push_back(std::move(cond));
    }
    group.push_back(std::move(conjunction));
  }
  conds->or_groups.push_back(std::move(group));
  return result;
}

bool MatchesEdgeSpec(const gremlin::Edge& e, const LookupSpec& spec) {
  if (!gremlin::MatchesSpec(e, spec)) return false;
  if (!spec.src_ids.empty() &&
      std::find(spec.src_ids.begin(), spec.src_ids.end(), e.src_id) ==
          spec.src_ids.end()) {
    return false;
  }
  if (!spec.dst_ids.empty() &&
      std::find(spec.dst_ids.begin(), spec.dst_ids.end(), e.dst_id) ==
          spec.dst_ids.end()) {
    return false;
  }
  return true;
}

std::optional<ImplicitIdParts> DecomposeImplicitEdgeId(
    const ResolvedEdgeTable& table, const Value& id) {
  if (!id.is_string()) return std::nullopt;
  std::vector<std::string> parts = DecomposeId(id.as_string());
  size_t s = table.src_v.def.parts.size();
  size_t d = table.dst_v.def.parts.size();
  if (parts.size() != s + 1 + d) return std::nullopt;
  auto extract = [&](const overlay::FieldDef& def, size_t offset)
      -> std::optional<std::vector<Value>> {
    std::vector<Value> out;
    for (size_t i = 0; i < def.parts.size(); ++i) {
      const std::string& text = parts[offset + i];
      if (def.parts[i].is_constant) {
        if (text != def.parts[i].text) return std::nullopt;
      } else {
        char* end = nullptr;
        long long n = std::strtoll(text.c_str(), &end, 10);
        if (!text.empty() && end != nullptr && *end == '\0') {
          out.emplace_back(static_cast<int64_t>(n));
        } else {
          out.emplace_back(text);
        }
      }
    }
    return out;
  };
  ImplicitIdParts result;
  auto src = extract(table.src_v.def, 0);
  if (!src) return std::nullopt;
  result.src_values = std::move(*src);
  result.label = parts[s];
  auto dst = extract(table.dst_v.def, s + 1);
  if (!dst) return std::nullopt;
  result.dst_values = std::move(*dst);
  return result;
}

// ----------------------------------------------------------------------
// Per-table lookup plans
// ----------------------------------------------------------------------

namespace {

// Fixed-label pruning (Section 6.3 "Using Label Values") or, for a label
// column, an IN condition on it.
template <typename Table>
void PlanLabels(const Table& t, const LookupSpec& spec,
                const RuntimeOptions& options, TablePlan* plan) {
  if (spec.labels.empty()) return;
  if (t.conf.label.fixed) {
    bool matches = std::find(spec.labels.begin(), spec.labels.end(),
                             t.conf.label.value) != spec.labels.end();
    if (matches) return;
    if (options.label_pruning) {
      plan->skip = true;
    } else {
      plan->client_filter = true;
    }
    return;
  }
  SqlCond cond;
  cond.column = t.schema->columns[*t.label_column].name;
  cond.op = "IN";
  cond.params.reserve(spec.labels.size());
  for (const std::string& l : spec.labels) cond.params.emplace_back(l);
  plan->predicate_columns.push_back(cond.column);
  plan->conds.conjuncts.push_back(std::move(cond));
}

// Prefixed-id pinning / composite-id decomposition: constrains `field` to
// one of `ids`. Ids that cannot belong to the table prune it under
// pinning and are filtered client-side otherwise.
void PlanIdConds(const ResolvedField& field, const sql::TableSchema& schema,
                 const std::vector<Value>& ids, const RuntimeOptions& options,
                 TablePlan* plan) {
  if (ids.empty()) return;
  QueryConds conds;
  if (!BuildIdConds(field, schema, ids, &conds).any_match) {
    if (options.prefixed_id_pinning) {
      plan->skip = true;
    } else {
      plan->client_filter = true;
    }
    return;
  }
  for (SqlCond& c : conds.conjuncts) {
    plan->predicate_columns.push_back(c.column);
    plan->conds.conjuncts.push_back(std::move(c));
  }
  for (auto& group : conds.or_groups) {
    if (!group.empty()) {
      for (const SqlCond& c : group[0]) {
        plan->predicate_columns.push_back(c.column);
      }
    }
    plan->conds.or_groups.push_back(std::move(group));
  }
}

// Property predicates (pushdown + property-name pruning), then
// projection-based pruning: a traversal that only consumes projected
// properties gets nothing from a table having none of them.
template <typename Table>
void PlanProperties(const Table& t, const LookupSpec& spec,
                    const RuntimeOptions& options, TablePlan* plan) {
  for (const PropPredicate& pred : spec.predicates) {
    if (pred.key == gremlin::kIdKey || pred.key == gremlin::kLabelKey) {
      plan->client_filter = true;  // rare; resolved after materialization
      continue;
    }
    std::optional<size_t> column = PropertyColumn(t, pred.key);
    if (!column) {
      if (options.property_pruning) {
        plan->skip = true;  // no row of this table can have the property
        return;
      }
      plan->client_filter = true;
      continue;
    }
    SqlCond cond;
    cond.column = t.schema->columns[*column].name;
    if (pred.op == PropPredicate::Op::kExists) {
      cond.op = "NOTNULL";
    } else if (pred.op == PropPredicate::Op::kWithin) {
      cond.op = "IN";
      cond.params = pred.values;
    } else if (pred.op == PropPredicate::Op::kWithout) {
      plan->client_filter = true;  // NOT IN needs null care; keep client-side
      continue;
    } else {
      const char* op = SqlOpFor(pred.op);
      if (op == nullptr) {
        plan->client_filter = true;
        continue;
      }
      cond.op = op;
      cond.params = pred.values;
    }
    plan->predicate_columns.push_back(cond.column);
    plan->conds.conjuncts.push_back(std::move(cond));
  }

  if (spec.has_projection && !spec.projection.empty() &&
      options.property_pruning) {
    bool any = false;
    for (const std::string& key : spec.projection) {
      if (t.HasProperty(key)) {
        any = true;
        break;
      }
    }
    if (!any) plan->skip = true;
  }
}

// Appends the property columns `spec` fetches (projection-aware).
template <typename Table>
void AppendPropertyColumns(const Table& t, const LookupSpec& spec,
                           std::vector<size_t>* cols) {
  for (size_t i = 0; i < t.properties.size(); ++i) {
    if (spec.has_projection) {
      bool wanted = false;
      for (const std::string& key : spec.projection) {
        if (EqualsIgnoreCase(key, t.properties[i])) {
          wanted = true;
          break;
        }
      }
      if (!wanted) continue;
    }
    cols->push_back(t.property_columns[i]);
  }
}

template <typename Table>
std::optional<size_t> FindPropertyColumn(const Table& t,
                                         const std::string& key) {
  for (size_t i = 0; i < t.properties.size(); ++i) {
    if (EqualsIgnoreCase(t.properties[i], key)) return t.property_columns[i];
  }
  return std::nullopt;
}

}  // namespace

std::optional<size_t> PropertyColumn(const ResolvedVertexTable& t,
                                     const std::string& key) {
  return FindPropertyColumn(t, key);
}

std::optional<size_t> PropertyColumn(const ResolvedEdgeTable& t,
                                     const std::string& key) {
  return FindPropertyColumn(t, key);
}

TablePlan PlanVertexTable(const ResolvedVertexTable& t,
                          const LookupSpec& spec,
                          const RuntimeOptions& options) {
  TablePlan plan;
  PlanLabels(t, spec, options, &plan);
  if (plan.skip) return plan;
  PlanIdConds(t.id, *t.schema, spec.ids, options, &plan);
  if (plan.skip) return plan;
  PlanProperties(t, spec, options, &plan);
  return plan;
}

std::vector<size_t> VertexFetchColumns(const ResolvedVertexTable& t,
                                       const LookupSpec& spec) {
  std::vector<size_t> cols = t.id.column_indexes;
  if (t.label_column) cols.push_back(*t.label_column);
  AppendPropertyColumns(t, spec, &cols);
  return cols;
}

TablePlan PlanEdgeTable(const ResolvedEdgeTable& t, const LookupSpec& spec,
                        const RuntimeOptions& options) {
  TablePlan plan;
  const sql::TableSchema& schema = *t.schema;
  PlanLabels(t, spec, options, &plan);
  if (plan.skip) return plan;

  // Endpoint constraints via src/dst id decomposition.
  PlanIdConds(t.src_v, schema, spec.src_ids, options, &plan);
  if (plan.skip) return plan;
  PlanIdConds(t.dst_v, schema, spec.dst_ids, options, &plan);
  if (plan.skip) return plan;

  // Edge-id constraints: explicit ids decompose like vertex ids; implicit
  // ids decompose into src + label + dst conjunctive predicates.
  if (!t.conf.implicit_edge_id) {
    PlanIdConds(t.id, schema, spec.ids, options, &plan);
    if (plan.skip) return plan;
  } else if (!spec.ids.empty()) {
    std::vector<std::vector<SqlCond>> group;
    for (const Value& id : spec.ids) {
      auto parts = DecomposeImplicitEdgeId(t, id);
      if (!parts) continue;
      if (t.conf.label.fixed && parts->label != t.conf.label.value) {
        continue;  // label encoded in the id does not match this table
      }
      std::vector<SqlCond> conjunction;
      for (size_t i = 0; i < t.src_v.column_indexes.size(); ++i) {
        SqlCond c;
        c.column = schema.columns[t.src_v.column_indexes[i]].name;
        c.op = "=";
        c.params = {parts->src_values[i]};
        conjunction.push_back(std::move(c));
      }
      for (size_t i = 0; i < t.dst_v.column_indexes.size(); ++i) {
        SqlCond c;
        c.column = schema.columns[t.dst_v.column_indexes[i]].name;
        c.op = "=";
        c.params = {parts->dst_values[i]};
        conjunction.push_back(std::move(c));
      }
      if (!t.conf.label.fixed) {
        SqlCond c;
        c.column = schema.columns[*t.label_column].name;
        c.op = "=";
        c.params = {Value(parts->label)};
        conjunction.push_back(std::move(c));
      }
      group.push_back(std::move(conjunction));
    }
    if (group.empty()) {
      if (options.implicit_edge_id_decomposition) {
        plan.skip = true;
        return plan;
      }
      plan.client_filter = true;
    } else {
      for (const SqlCond& c : group[0]) {
        plan.predicate_columns.push_back(c.column);
      }
      plan.conds.or_groups.push_back(std::move(group));
    }
  }

  PlanProperties(t, spec, options, &plan);
  return plan;
}

std::vector<size_t> EdgeFetchColumns(const ResolvedEdgeTable& t,
                                     const LookupSpec& spec) {
  std::vector<size_t> cols = t.src_v.column_indexes;
  cols.insert(cols.end(), t.dst_v.column_indexes.begin(),
              t.dst_v.column_indexes.end());
  if (!t.conf.implicit_edge_id) {
    cols.insert(cols.end(), t.id.column_indexes.begin(),
                t.id.column_indexes.end());
  }
  if (t.label_column) cols.push_back(*t.label_column);
  AppendPropertyColumns(t, spec, &cols);
  return cols;
}

std::string PredictAccessPath(const sql::Database* db,
                              const std::string& table,
                              const QueryConds& conds) {
  const sql::Table* base = db->GetTable(table);
  bool has_conds = !conds.conjuncts.empty() || !conds.or_groups.empty();
  if (base != nullptr) {
    for (const SqlCond& cond : conds.conjuncts) {
      auto idx = base->schema().ColumnIndex(cond.column);
      if (!idx || base->FindIndexOn({*idx}) == nullptr) continue;
      if (cond.op == "=" || cond.op == "IN") return "index probe";
      if (cond.op == "<" || cond.op == "<=" || cond.op == ">" ||
          cond.op == ">=") {
        return "range scan";
      }
    }
  }
  return has_conds ? "full scan+filter" : "full scan";
}

// ----------------------------------------------------------------------
// Multi-hop join chains
// ----------------------------------------------------------------------

void SetCondAlias(QueryConds* conds, const std::string& alias) {
  for (SqlCond& c : conds->conjuncts) c.alias = alias;
  for (auto& group : conds->or_groups) {
    for (auto& alt : group) {
      for (SqlCond& c : alt) c.alias = alias;
    }
  }
}

Status BuildJoinChainPlan(const overlay::Topology& topology,
                          const RuntimeOptions& options,
                          const gremlin::MultiHopSpec& spec,
                          std::vector<int> edge_tables,
                          std::vector<int> vertex_tables, JoinChainPlan* out) {
  const size_t hops = spec.hops.size();
  if (hops == 0 || edge_tables.size() != hops ||
      vertex_tables.size() != hops) {
    return Status::Unsupported("malformed multi-hop plan");
  }
  const bool counting = spec.agg == gremlin::AggOp::kCount;
  size_t offset = 0;
  for (size_t h = 0; h < hops; ++h) {
    if (edge_tables[h] < 0 ||
        static_cast<size_t>(edge_tables[h]) >= topology.edge_tables().size() ||
        vertex_tables[h] < 0 ||
        static_cast<size_t>(vertex_tables[h]) >=
            topology.vertex_tables().size()) {
      return Status::Unsupported("multi-hop plan references unknown tables");
    }
    const ResolvedEdgeTable& et =
        topology.edge_tables()[static_cast<size_t>(edge_tables[h])];
    const ResolvedVertexTable& vt =
        topology.vertex_tables()[static_cast<size_t>(vertex_tables[h])];
    const gremlin::MultiHopHop& hop = spec.hops[h];
    if (hop.direction == gremlin::Direction::kBoth) {
      return Status::Unsupported("multi-hop over both()");
    }
    const bool outward = hop.direction == gremlin::Direction::kOut;
    const ResolvedField& nearf = outward ? et.src_v : et.dst_v;
    const ResolvedField& farf = outward ? et.dst_v : et.src_v;
    if (!farf.def.SingleColumn() || !vt.id.def.SingleColumn()) {
      return Status::Unsupported("composite multi-hop join field");
    }
    const std::string ealias = "e" + std::to_string(h);
    const std::string valias = "v" + std::to_string(h + 1);

    // Edge stage.
    TablePlan ep = PlanEdgeTable(et, hop.edge_spec, options);
    if (ep.skip || ep.client_filter) {
      return Status::Unsupported("multi-hop edge plan not pushable");
    }
    QueryConds econds = ep.conds;
    if (h > 0) {
      const ResolvedVertexTable& pvt =
          topology.vertex_tables()[static_cast<size_t>(vertex_tables[h - 1])];
      if (!nearf.def.SingleColumn() || !pvt.id.def.SingleColumn()) {
        return Status::Unsupported("composite multi-hop join field");
      }
      SqlCond join;
      join.column = et.schema->columns[nearf.column_indexes[0]].name;
      join.op = "=";
      join.ref_alias = "v" + std::to_string(h);
      join.ref_column = pvt.schema->columns[pvt.id.column_indexes[0]].name;
      econds.conjuncts.insert(
          econds.conjuncts.begin() +
              static_cast<ptrdiff_t>(
                  JoinCondPosition(ep.conds, *et.schema, et.label_column)),
          std::move(join));
    }
    SetCondAlias(&econds, ealias);
    std::vector<size_t> ecols = nearf.column_indexes;
    ecols.insert(ecols.end(), farf.column_indexes.begin(),
                 farf.column_indexes.end());
    if (et.label_column) ecols.push_back(*et.label_column);
    if (hop.emit_edge_id && !et.conf.implicit_edge_id) {
      ecols.insert(ecols.end(), et.id.column_indexes.begin(),
                   et.id.column_indexes.end());
    }
    JoinChainPlan::StageLayout elayout;
    elayout.layout = MakeLayout(*et.schema, std::move(ecols));
    elayout.offset = offset;
    offset += elayout.layout.schema_cols.size();
    out->stages.push_back(JoinStage{et.conf.table_name, ealias,
                                    std::move(econds)});
    out->layouts.push_back(std::move(elayout));
    out->patterns.push_back(std::move(ep.predicate_columns));

    // Vertex stage.
    TablePlan vp = PlanVertexTable(vt, hop.vertex_spec, options);
    if (vp.skip || vp.client_filter) {
      return Status::Unsupported("multi-hop vertex plan not pushable");
    }
    QueryConds vconds = vp.conds;
    SqlCond vjoin;
    vjoin.column = vt.schema->columns[vt.id.column_indexes[0]].name;
    vjoin.op = "=";
    vjoin.ref_alias = ealias;
    vjoin.ref_column = et.schema->columns[farf.column_indexes[0]].name;
    vconds.conjuncts.insert(
        vconds.conjuncts.begin() +
            static_cast<ptrdiff_t>(
                JoinCondPosition(vp.conds, *vt.schema, vt.label_column)),
        std::move(vjoin));
    SetCondAlias(&vconds, valias);
    std::vector<size_t> vcols = h + 1 == hops && !counting
                                    ? VertexFetchColumns(vt, hop.vertex_spec)
                                    : vt.id.column_indexes;
    JoinChainPlan::StageLayout vlayout;
    vlayout.layout = MakeLayout(*vt.schema, std::move(vcols));
    vlayout.offset = offset;
    offset += vlayout.layout.schema_cols.size();
    out->stages.push_back(JoinStage{vt.conf.table_name, valias,
                                    std::move(vconds)});
    out->layouts.push_back(std::move(vlayout));
    out->patterns.push_back(std::move(vp.predicate_columns));
  }
  out->edge_tables = std::move(edge_tables);
  out->vertex_tables = std::move(vertex_tables);
  for (size_t s = 1; s < out->stages.size(); ++s) {
    out->rest_key += JoinStageKey(out->stages[s]);
    CollectParams(out->stages[s].conds, &out->rest_params);
  }

  if (counting) {
    const ResolvedEdgeTable& et0 =
        topology.edge_tables()[static_cast<size_t>(out->edge_tables[0])];
    const ResolvedField& near0 =
        spec.hops[0].direction == gremlin::Direction::kOut ? et0.src_v
                                                           : et0.dst_v;
    if (near0.column_indexes.empty()) {
      return Status::Unsupported("multi-hop count without a source column");
    }
    std::vector<std::string> keys;
    for (size_t ci : near0.column_indexes) {
      keys.push_back("\"e0\".\"" + et0.schema->columns[ci].name + "\"");
    }
    out->group_by = Join(keys, ", ");
    out->select = out->group_by + ", COUNT(*)";
    out->key_layout = MakeLayout(*et0.schema, near0.column_indexes);
    return Status::OK();
  }

  std::vector<std::string> select_parts;
  for (size_t s = 0; s < out->stages.size(); ++s) {
    const size_t hop = s / 2;
    const sql::TableSchema& schema =
        s % 2 == 0 ? *topology.edge_tables()[out->edge_tables[hop]].schema
                   : *topology.vertex_tables()[out->vertex_tables[hop]].schema;
    for (size_t ci : out->layouts[s].layout.schema_cols) {
      select_parts.push_back("\"" + out->stages[s].alias + "\".\"" +
                             schema.columns[ci].name + "\"");
    }
  }
  out->select = Join(select_parts, ", ");
  return Status::OK();
}

}  // namespace db2graph::core
