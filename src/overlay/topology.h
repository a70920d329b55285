// Copyright (c) 2026 The db2graph-repro Authors.
//
// The Topology module (paper Fig. 3): resolves an overlay configuration
// against the database catalog and answers the questions the runtime
// optimizations of Section 6.3 ask — which table(s) can contain elements
// with a given label, a given property, or a given (prefixed) id, and
// whether an edge table's endpoints are pinned to one vertex table.

#ifndef DB2GRAPH_OVERLAY_TOPOLOGY_H_
#define DB2GRAPH_OVERLAY_TOPOLOGY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "overlay/config.h"
#include "sql/database.h"

namespace db2graph::overlay {

/// One resolved field definition: constant parts pass through, column parts
/// are bound to column indexes of the table/view schema.
struct ResolvedField {
  FieldDef def;
  std::vector<size_t> column_indexes;  // parallel to def.Columns()

  /// Composes the field value from a row. Single plain column → the raw
  /// value (preserving its type); otherwise a '::'-joined string.
  Value Compose(const Row& row) const;

  /// Decomposes an id value against this definition: validates constant
  /// parts, extracts one value per column part. Returns nullopt when the
  /// id cannot belong to this definition (wrong prefix / arity).
  std::optional<std::vector<Value>> Decompose(const Value& id) const;
};

struct ResolvedVertexTable {
  VertexTableConf conf;
  std::shared_ptr<const sql::TableSchema> schema;  // copy taken at Build
  ResolvedField id;
  std::optional<size_t> label_column;  // set when label comes from a column
  std::vector<std::string> properties;        // final property names
  std::vector<size_t> property_columns;       // parallel indexes

  bool HasProperty(const std::string& name) const;
};

struct ResolvedEdgeTable {
  EdgeTableConf conf;
  std::shared_ptr<const sql::TableSchema> schema;  // copy taken at Build
  ResolvedField src_v;
  ResolvedField dst_v;
  ResolvedField id;  // explicit ids only (empty def when implicit)
  std::optional<size_t> label_column;
  std::vector<std::string> properties;
  std::vector<size_t> property_columns;
  /// Index into Topology::vertex_tables() when src_v_table/dst_v_table is
  /// declared; -1 otherwise.
  int src_vertex_table = -1;
  int dst_vertex_table = -1;

  bool HasProperty(const std::string& name) const;
};

/// Resolved overlay mapping. Immutable once built; safe to share across
/// query threads.
class Topology {
 public:
  /// Resolves `config` against the catalog: every table/view must exist
  /// and every referenced column must resolve. When src_v_table or
  /// dst_v_table is declared, its id definition must structurally match
  /// the edge endpoint definition (paper Section 5).
  static Result<Topology> Build(const sql::Database& db,
                                const OverlayConfig& config);

  const std::vector<ResolvedVertexTable>& vertex_tables() const {
    return vertex_tables_;
  }
  const std::vector<ResolvedEdgeTable>& edge_tables() const {
    return edge_tables_;
  }

  /// Vertex table by name; -1 when absent.
  int FindVertexTable(const std::string& table_name) const;
  int FindEdgeTable(const std::string& table_name) const;

  const OverlayConfig& config() const { return config_; }

 private:
  OverlayConfig config_;
  std::vector<ResolvedVertexTable> vertex_tables_;
  std::vector<ResolvedEdgeTable> edge_tables_;
};

}  // namespace db2graph::overlay

#endif  // DB2GRAPH_OVERLAY_TOPOLOGY_H_
