#include "linkbench/partitioned.h"

#include <unordered_set>

namespace db2graph::linkbench {

namespace {

std::string RandomPayload(std::mt19937_64* rng, int bytes) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::uniform_int_distribution<int> pick(0, sizeof(kAlphabet) - 2);
  std::string out;
  out.reserve(bytes);
  for (int i = 0; i < bytes; ++i) out.push_back(kAlphabet[pick(*rng)]);
  return out;
}

int NodeType(int64_t node_id) { return static_cast<int>(node_id % 10); }

// A node id of the wanted type, uniform over that type's stripe.
int64_t PickOfType(std::mt19937_64* rng, int64_t num_vertices, int type) {
  int64_t stripe = (num_vertices - type + 9) / 10;  // ids 1..N, id%10==type
  if (stripe <= 0) stripe = 1;
  std::uniform_int_distribution<int64_t> pick(0, stripe - 1);
  int64_t id = pick(*rng) * 10 + type;
  if (id == 0) id = 10;  // id 0 does not exist; wrap to the next of type 0
  if (id > num_vertices) id = type == 0 ? 10 : type;
  return id;
}

}  // namespace

std::string PartitionedVertexId(int64_t node_id) {
  return Dataset::VertexLabel(NodeType(node_id)) + "::" +
         std::to_string(node_id);
}

Dataset GeneratePartitioned(const Config& config) {
  Dataset dataset;
  dataset.config = config;
  std::mt19937_64 rng(config.seed);
  std::uniform_int_distribution<int64_t> stamp(1000000000, 2000000000);

  dataset.nodes.reserve(config.num_vertices);
  for (int64_t i = 1; i <= config.num_vertices; ++i) {
    Node node;
    node.id = i;
    node.type = NodeType(i);
    node.version = 1 + static_cast<int64_t>(rng() % 16);
    node.time = stamp(rng);
    node.data = RandomPayload(&rng, config.payload_bytes);
    dataset.nodes.push_back(std::move(node));
  }

  const int64_t target_edges = static_cast<int64_t>(
      config.edges_per_vertex * static_cast<double>(config.num_vertices));
  std::uniform_int_distribution<int> etype(0, config.num_edge_types - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::unordered_set<uint64_t> seen;
  seen.reserve(target_edges * 2);
  int64_t attempts = 0;
  while (static_cast<int64_t>(dataset.links.size()) < target_edges &&
         attempts < target_edges * 6) {
    ++attempts;
    Link link;
    link.ltype = etype(rng);
    int src_type = link.ltype % 10;
    int dst_type = (link.ltype + 3) % 10;
    link.id1 = PickOfType(&rng, config.num_vertices, src_type);
    // Skew destinations toward the first node of the destination type.
    if (coin(rng) < config.hot_vertex_fraction) {
      link.id2 = dst_type == 0 ? 10 : dst_type;
    } else {
      link.id2 = PickOfType(&rng, config.num_vertices, dst_type);
    }
    if (link.id1 == link.id2) continue;
    uint64_t key = (static_cast<uint64_t>(link.id1) * 1000003u +
                    static_cast<uint64_t>(link.ltype)) *
                       2654435761u +
                   static_cast<uint64_t>(link.id2);
    if (!seen.insert(key).second) continue;
    link.visibility = 1;
    link.data = RandomPayload(&rng, config.payload_bytes);
    link.time = stamp(rng);
    link.version = 1;
    dataset.links.push_back(std::move(link));
  }
  return dataset;
}

Status LoadIntoPartitionedDatabase(sql::Database* db,
                                   const Dataset& dataset) {
  for (int t = 0; t < 10; ++t) {
    DB2G_RETURN_NOT_OK(db->ExecuteScript(
        "CREATE TABLE Node_t" + std::to_string(t) +
        " (id BIGINT PRIMARY KEY, version BIGINT, time BIGINT, "
        "data VARCHAR(64));"));
  }
  for (int t = 0; t < 10; ++t) {
    std::string name = "Link_e" + std::to_string(t);
    DB2G_RETURN_NOT_OK(db->ExecuteScript(
        "CREATE TABLE " + name +
        " (id1 BIGINT NOT NULL, id2 BIGINT NOT NULL, visibility BIGINT, "
        "data VARCHAR(64), time BIGINT, version BIGINT);"
        "CREATE INDEX idx_" + name + "_src ON " + name + " (id1);"
        "CREATE INDEX idx_" + name + "_dst ON " + name + " (id2);"));
  }
  // One batch per table, each in dataset order, so every table's slots
  // match a row-by-row load while only one table's rows are in flight.
  for (int t = 0; t < 10; ++t) {
    std::vector<Row> rows;
    for (const Node& n : dataset.nodes) {
      if (NodeType(n.id) != t) continue;
      rows.push_back(
          {Value(n.id), Value(n.version), Value(n.time), Value(n.data)});
    }
    Result<std::vector<sql::RowId>> rids =
        db->GetTable("Node_t" + std::to_string(t))->InsertBatch(
            std::move(rows));
    if (!rids.ok()) return rids.status();
  }
  for (int t = 0; t < 10; ++t) {
    std::vector<Row> rows;
    for (const Link& l : dataset.links) {
      if (l.ltype != t) continue;
      rows.push_back({Value(l.id1), Value(l.id2), Value(l.visibility),
                      Value(l.data), Value(l.time), Value(l.version)});
    }
    Result<std::vector<sql::RowId>> rids =
        db->GetTable("Link_e" + std::to_string(t))->InsertBatch(
            std::move(rows));
    if (!rids.ok()) return rids.status();
  }
  return Status::OK();
}

overlay::OverlayConfig MakePartitionedOverlay(bool prefixed_ids) {
  overlay::OverlayConfig config;
  for (int t = 0; t < 10; ++t) {
    overlay::VertexTableConf v;
    v.table_name = "Node_t" + std::to_string(t);
    std::string id_def =
        prefixed_ids ? "'" + Dataset::VertexLabel(t) + "'::id" : "id";
    v.prefixed_id = prefixed_ids;
    v.id = std::move(overlay::FieldDef::Parse(id_def)).ValueOrThrow();
    v.label.fixed = true;
    v.label.value = Dataset::VertexLabel(t);
    v.properties = {"version", "time", "data"};
    v.properties_specified = true;
    config.v_tables.push_back(std::move(v));
  }
  for (int t = 0; t < 10; ++t) {
    int src_type = t % 10;
    int dst_type = (t + 3) % 10;
    overlay::EdgeTableConf e;
    e.table_name = "Link_e" + std::to_string(t);
    e.src_v_table = "Node_t" + std::to_string(src_type);
    e.src_v =
        std::move(overlay::FieldDef::Parse(
                      prefixed_ids
                          ? "'" + Dataset::VertexLabel(src_type) + "'::id1"
                          : "id1"))
            .ValueOrThrow();
    e.dst_v_table = "Node_t" + std::to_string(dst_type);
    e.dst_v =
        std::move(overlay::FieldDef::Parse(
                      prefixed_ids
                          ? "'" + Dataset::VertexLabel(dst_type) + "'::id2"
                          : "id2"))
            .ValueOrThrow();
    e.implicit_edge_id = true;
    e.label.fixed = true;
    e.label.value = Dataset::EdgeLabel(t);
    e.properties = {"visibility", "data", "time", "version"};
    e.properties_specified = true;
    config.e_tables.push_back(std::move(e));
  }
  return config;
}

std::string PartitionedWorkload::Next(QueryType type) {
  std::uniform_int_distribution<size_t> node_pick(0,
                                                  dataset_.nodes.size() - 1);
  std::uniform_int_distribution<size_t> link_pick(0,
                                                  dataset_.links.size() - 1);
  switch (type) {
    case QueryType::kGetNode: {
      const Node& n = dataset_.nodes[node_pick(rng_)];
      return "g.V('" + PartitionedVertexId(n.id) + "').hasLabel('" +
             Dataset::VertexLabel(n.type) + "')";
    }
    case QueryType::kCountLinks: {
      const Link& l = dataset_.links[link_pick(rng_)];
      return "g.V('" + PartitionedVertexId(l.id1) + "').outE('" +
             Dataset::EdgeLabel(l.ltype) + "').count()";
    }
    case QueryType::kGetLink: {
      const Link& l = dataset_.links[link_pick(rng_)];
      return "g.V('" + PartitionedVertexId(l.id1) + "').outE('" +
             Dataset::EdgeLabel(l.ltype) + "').where(inV().hasId('" +
             PartitionedVertexId(l.id2) + "'))";
    }
    case QueryType::kGetLinkList: {
      const Link& l = dataset_.links[link_pick(rng_)];
      return "g.V('" + PartitionedVertexId(l.id1) + "').outE('" +
             Dataset::EdgeLabel(l.ltype) + "')";
    }
  }
  return "g.V().count()";
}

}  // namespace db2graph::linkbench
