#include "overlay/topology.h"

#include <algorithm>

#include "common/strings.h"

namespace db2graph::overlay {

Value ResolvedField::Compose(const Row& row) const {
  if (def.SingleColumn()) {
    return row[column_indexes[0]];
  }
  std::string out;
  size_t col = 0;
  for (size_t i = 0; i < def.parts.size(); ++i) {
    if (i > 0) out += kIdSeparator;
    if (def.parts[i].is_constant) {
      out += def.parts[i].text;
    } else {
      out += row[column_indexes[col++]].ToString();
    }
  }
  return Value(std::move(out));
}

std::optional<std::vector<Value>> ResolvedField::Decompose(
    const Value& id) const {
  if (def.SingleColumn()) {
    return std::vector<Value>{id};
  }
  if (!id.is_string()) return std::nullopt;
  std::vector<std::string> parts = DecomposeId(id.as_string());
  if (parts.size() != def.parts.size()) return std::nullopt;
  std::vector<Value> out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (def.parts[i].is_constant) {
      if (parts[i] != def.parts[i].text) return std::nullopt;
    } else {
      // Column values round-trip through ToString; recover integers.
      const std::string& text = parts[i];
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
}

bool ResolvedVertexTable::HasProperty(const std::string& name) const {
  for (const std::string& p : properties) {
    if (EqualsIgnoreCase(p, name)) return true;
  }
  return false;
}

bool ResolvedEdgeTable::HasProperty(const std::string& name) const {
  for (const std::string& p : properties) {
    if (EqualsIgnoreCase(p, name)) return true;
  }
  return false;
}

namespace {

Status ResolveField(const sql::TableSchema& schema, const FieldDef& def,
                    const std::string& context, ResolvedField* out) {
  out->def = def;
  out->column_indexes.clear();
  for (const std::string& column : def.Columns()) {
    std::optional<size_t> idx = schema.ColumnIndex(column);
    if (!idx) {
      return Status::NotFound("overlay: " + context + " references column " +
                              column + " absent from " + schema.name);
    }
    out->column_indexes.push_back(*idx);
  }
  if (out->column_indexes.empty()) {
    return Status::InvalidArgument("overlay: " + context +
                                   " must reference at least one column");
  }
  return Status::OK();
}

// Property resolution shared by vertex and edge tables: explicit list, or
// "all columns except the ones used for required fields".
Status ResolveProperties(const sql::TableSchema& schema,
                         const std::vector<std::string>& explicit_props,
                         bool specified,
                         const std::vector<size_t>& required_columns,
                         std::vector<std::string>* names,
                         std::vector<size_t>* indexes) {
  if (specified) {
    for (const std::string& p : explicit_props) {
      std::optional<size_t> idx = schema.ColumnIndex(p);
      if (!idx) {
        return Status::NotFound("overlay: property column " + p +
                                " absent from " + schema.name);
      }
      names->push_back(schema.columns[*idx].name);
      indexes->push_back(*idx);
    }
    return Status::OK();
  }
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    if (std::find(required_columns.begin(), required_columns.end(), i) !=
        required_columns.end()) {
      continue;
    }
    names->push_back(schema.columns[i].name);
    indexes->push_back(i);
  }
  return Status::OK();
}

// The overlay keeps its own copy of each table's schema: a DROP TABLE
// would leave a pointer into the catalog dangling.
Status CopySchema(const sql::Database& db, const std::string& table_name,
                  std::shared_ptr<const sql::TableSchema>* out) {
  const sql::TableSchema* schema = db.GetSchema(table_name);
  if (schema == nullptr) {
    return Status::NotFound("overlay: no table or view named " + table_name);
  }
  *out = std::make_shared<const sql::TableSchema>(*schema);
  return Status::OK();
}

}  // namespace

Result<Topology> Topology::Build(const sql::Database& db,
                                 const OverlayConfig& config) {
  Topology topo;
  topo.config_ = config;

  for (const VertexTableConf& conf : config.v_tables) {
    ResolvedVertexTable table;
    table.conf = conf;
    DB2G_RETURN_NOT_OK(CopySchema(db, conf.table_name, &table.schema));
    DB2G_RETURN_NOT_OK(ResolveField(*table.schema, conf.id,
                                    "v_table " + conf.table_name + " id",
                                    &table.id));
    std::vector<size_t> required = table.id.column_indexes;
    if (!conf.label.fixed) {
      std::optional<size_t> idx = table.schema->ColumnIndex(conf.label.value);
      if (!idx) {
        return Status::NotFound("overlay: label column " + conf.label.value +
                                " absent from " + conf.table_name);
      }
      table.label_column = *idx;
      required.push_back(*idx);
    }
    DB2G_RETURN_NOT_OK(ResolveProperties(
        *table.schema, conf.properties, conf.properties_specified, required,
        &table.properties, &table.property_columns));
    topo.vertex_tables_.push_back(std::move(table));
  }

  for (const EdgeTableConf& conf : config.e_tables) {
    ResolvedEdgeTable table;
    table.conf = conf;
    DB2G_RETURN_NOT_OK(CopySchema(db, conf.table_name, &table.schema));
    std::string context = "e_table " + conf.table_name;
    DB2G_RETURN_NOT_OK(ResolveField(*table.schema, conf.src_v,
                                    context + " src_v", &table.src_v));
    DB2G_RETURN_NOT_OK(ResolveField(*table.schema, conf.dst_v,
                                    context + " dst_v", &table.dst_v));
    std::vector<size_t> required = table.src_v.column_indexes;
    required.insert(required.end(), table.dst_v.column_indexes.begin(),
                    table.dst_v.column_indexes.end());
    if (!conf.implicit_edge_id) {
      DB2G_RETURN_NOT_OK(ResolveField(*table.schema, conf.id,
                                      context + " id", &table.id));
      required.insert(required.end(), table.id.column_indexes.begin(),
                      table.id.column_indexes.end());
    }
    if (!conf.label.fixed) {
      std::optional<size_t> idx = table.schema->ColumnIndex(conf.label.value);
      if (!idx) {
        return Status::NotFound("overlay: label column " + conf.label.value +
                                " absent from " + conf.table_name);
      }
      table.label_column = *idx;
      required.push_back(*idx);
    }
    DB2G_RETURN_NOT_OK(ResolveProperties(
        *table.schema, conf.properties, conf.properties_specified, required,
        &table.properties, &table.property_columns));

    // Bind and validate the declared endpoint vertex tables: the endpoint
    // definition must match the vertex table's id definition structurally
    // (same constants, same column count) — paper Section 5.
    auto bind_endpoint = [&](const std::string& vertex_table,
                             const ResolvedField& endpoint,
                             const char* which) -> Result<int> {
      if (vertex_table.empty()) return -1;
      int idx = topo.FindVertexTable(vertex_table);
      if (idx < 0) {
        return Status::NotFound("overlay: " + context + " " + which +
                                "_v_table " + vertex_table +
                                " is not a declared v_table");
      }
      const ResolvedVertexTable& vt = topo.vertex_tables_[idx];
      const FieldDef& vid = vt.conf.id;
      const FieldDef& eid = endpoint.def;
      bool matches = vid.parts.size() == eid.parts.size();
      if (matches) {
        for (size_t i = 0; i < vid.parts.size(); ++i) {
          if (vid.parts[i].is_constant != eid.parts[i].is_constant) {
            matches = false;
            break;
          }
          if (vid.parts[i].is_constant &&
              vid.parts[i].text != eid.parts[i].text) {
            matches = false;
            break;
          }
        }
      }
      if (!matches) {
        return Status::InvalidArgument(
            "overlay: " + context + " " + which + "_v definition '" +
            eid.ToString() + "' does not match the id definition '" +
            vid.ToString() + "' of v_table " + vertex_table);
      }
      return idx;
    };
    Result<int> src_idx =
        bind_endpoint(conf.src_v_table, table.src_v, "src");
    if (!src_idx.ok()) return src_idx.status();
    table.src_vertex_table = *src_idx;
    Result<int> dst_idx =
        bind_endpoint(conf.dst_v_table, table.dst_v, "dst");
    if (!dst_idx.ok()) return dst_idx.status();
    table.dst_vertex_table = *dst_idx;

    topo.edge_tables_.push_back(std::move(table));
  }
  return topo;
}

int Topology::FindVertexTable(const std::string& table_name) const {
  for (size_t i = 0; i < vertex_tables_.size(); ++i) {
    if (EqualsIgnoreCase(vertex_tables_[i].conf.table_name, table_name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int Topology::FindEdgeTable(const std::string& table_name) const {
  for (size_t i = 0; i < edge_tables_.size(); ++i) {
    if (EqualsIgnoreCase(edge_tables_[i].conf.table_name, table_name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace db2graph::overlay
