#include "linkbench/linkbench.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
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

}  // namespace

DatasetStats Dataset::Stats() const {
  DatasetStats stats;
  stats.num_vertices = static_cast<int64_t>(nodes.size());
  stats.num_edges = static_cast<int64_t>(links.size());
  stats.avg_degree =
      nodes.empty() ? 0
                    : static_cast<double>(links.size()) /
                          static_cast<double>(nodes.size());
  std::unordered_map<int64_t, int64_t> degree;
  for (const Link& l : links) {
    ++degree[l.id1];
    ++degree[l.id2];
  }
  for (const auto& [id, d] : degree) {
    (void)id;
    stats.max_degree = std::max(stats.max_degree, d);
  }
  for (const Node& n : nodes) {
    stats.approx_csv_bytes += 32 + n.data.size();
  }
  for (const Link& l : links) {
    stats.approx_csv_bytes += 48 + l.data.size();
  }
  return stats;
}

Dataset Generate(const Config& config) {
  Dataset dataset;
  dataset.config = config;
  std::mt19937_64 rng(config.seed);

  dataset.nodes.reserve(config.num_vertices);
  std::uniform_int_distribution<int> vtype(0, config.num_vertex_types - 1);
  std::uniform_int_distribution<int64_t> stamp(1000000000, 2000000000);
  for (int64_t i = 0; i < config.num_vertices; ++i) {
    Node node;
    node.id = i + 1;  // 1-based like LinkBench
    node.type = vtype(rng);
    node.version = 1 + static_cast<int64_t>(rng() % 16);
    node.time = stamp(rng);
    node.data = RandomPayload(&rng, config.payload_bytes);
    dataset.nodes.push_back(std::move(node));
  }

  const int64_t target_edges = static_cast<int64_t>(
      config.edges_per_vertex * static_cast<double>(config.num_vertices));
  std::uniform_int_distribution<int64_t> uniform_id(1, config.num_vertices);
  std::uniform_int_distribution<int> etype(0, config.num_edge_types - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  // Destination skew: a single scorching vertex plus a warm top-100 set
  // produce the Table 2 max-degree shape (max degree ~2% of edge count).
  const int64_t kWarmSet = std::min<int64_t>(100, config.num_vertices);
  std::uniform_int_distribution<int64_t> warm_id(1, kWarmSet);

  std::unordered_set<uint64_t> seen;  // (id1, ltype, id2) uniqueness
  seen.reserve(target_edges * 2);
  dataset.links.reserve(target_edges);
  int64_t attempts = 0;
  while (static_cast<int64_t>(dataset.links.size()) < target_edges &&
         attempts < target_edges * 4) {
    ++attempts;
    Link link;
    link.id1 = uniform_id(rng);
    double roll = coin(rng);
    if (roll < config.hot_vertex_fraction) {
      link.id2 = 1;  // the hub
    } else if (roll < config.hot_vertex_fraction + 0.1) {
      link.id2 = warm_id(rng);
    } else {
      link.id2 = uniform_id(rng);
    }
    if (link.id1 == link.id2) continue;
    link.ltype = etype(rng);
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

Status LoadIntoDatabase(sql::Database* db, const Dataset& dataset) {
  DB2G_RETURN_NOT_OK(db->ExecuteScript(R"sql(
    CREATE TABLE Node (
      id BIGINT PRIMARY KEY,
      ntype VARCHAR(10) NOT NULL,
      version BIGINT,
      time BIGINT,
      data VARCHAR(64)
    );
    CREATE TABLE Link (
      id1 BIGINT NOT NULL,
      ltype VARCHAR(10) NOT NULL,
      id2 BIGINT NOT NULL,
      visibility BIGINT,
      data VARCHAR(64),
      time BIGINT,
      version BIGINT
    );
    CREATE INDEX idx_link_src ON Link (id1);
    CREATE INDEX idx_link_dst ON Link (id2);
    CREATE INDEX idx_link_src_type ON Link (id1, ltype);
  )sql"));
  // Bulk load through the storage layer (SQL-per-row would model client
  // inserts; the premise here is pre-existing data). Each table is loaded
  // in dataset order, in batches of bounded size: Link holds every edge,
  // so one batch would put all of them in flight as Rows at once.
  constexpr size_t kChunkRows = size_t{1} << 16;
  sql::Table* node_table = db->GetTable("Node");
  sql::Table* link_table = db->GetTable("Link");
  std::vector<Row> rows;
  auto flush = [&rows](sql::Table* table, bool last) -> Status {
    if (rows.size() < kChunkRows && !last) return Status::OK();
    Result<std::vector<sql::RowId>> rids = table->InsertBatch(std::move(rows));
    rows.clear();
    return rids.status();
  };
  for (const Node& n : dataset.nodes) {
    rows.push_back({Value(n.id), Value(Dataset::VertexLabel(n.type)),
                    Value(n.version), Value(n.time), Value(n.data)});
    DB2G_RETURN_NOT_OK(flush(node_table, false));
  }
  DB2G_RETURN_NOT_OK(flush(node_table, true));
  for (const Link& l : dataset.links) {
    rows.push_back({Value(l.id1), Value(Dataset::EdgeLabel(l.ltype)),
                    Value(l.id2), Value(l.visibility), Value(l.data),
                    Value(l.time), Value(l.version)});
    DB2G_RETURN_NOT_OK(flush(link_table, false));
  }
  return flush(link_table, true);
}

overlay::OverlayConfig MakeOverlay() {
  const char* kJson = R"json({
    "v_tables": [
      {
        "table_name": "Node",
        "id": "id",
        "label": "ntype",
        "properties": ["version", "time", "data"]
      }
    ],
    "e_tables": [
      {
        "table_name": "Link",
        "src_v_table": "Node",
        "src_v": "id1",
        "dst_v_table": "Node",
        "dst_v": "id2",
        "implicit_edge_id": true,
        "label": "ltype",
        "properties": ["visibility", "data", "time", "version"]
      }
    ]
  })json";
  return std::move(overlay::OverlayConfig::Parse(kJson)).ValueOrThrow();
}

const char* QueryTypeName(QueryType type) {
  switch (type) {
    case QueryType::kGetNode:
      return "getNode";
    case QueryType::kCountLinks:
      return "countLinks";
    case QueryType::kGetLink:
      return "getLink";
    case QueryType::kGetLinkList:
      return "getLinkList";
  }
  return "?";
}

Workload::Workload(const Dataset& dataset, uint64_t seed, bool zipfian)
    : dataset_(dataset), rng_(seed), zipfian_(zipfian) {}

size_t Workload::PickIndex(size_t n) {
  if (n == 0) return 0;
  if (!zipfian_) {
    std::uniform_int_distribution<size_t> pick(0, n - 1);
    return pick(rng_);
  }
  // Rank-skewed pick via a log-uniform rank: r = floor(e^(u * ln n)) maps
  // u ~ U[0,1) to P(rank r) proportional to 1/r — the classic Zipf shape
  // without per-n harmonic-number tables.
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  double rank = std::exp(uniform(rng_) * std::log(static_cast<double>(n)));
  size_t r = static_cast<size_t>(rank);
  if (r >= n) r = n - 1;
  return r;
}

std::string Workload::Next(QueryType type) {
  // Parameters come from existing nodes/links so that queries mostly hit,
  // as LinkBench's request distributions do.
  switch (type) {
    case QueryType::kGetNode: {
      const Node& n = dataset_.nodes[PickIndex(dataset_.nodes.size())];
      return "g.V(" + std::to_string(n.id) + ").hasLabel('" +
             Dataset::VertexLabel(n.type) + "')";
    }
    case QueryType::kCountLinks: {
      const Link& l = dataset_.links[PickIndex(dataset_.links.size())];
      return "g.V(" + std::to_string(l.id1) + ").outE('" +
             Dataset::EdgeLabel(l.ltype) + "').count()";
    }
    case QueryType::kGetLink: {
      const Link& l = dataset_.links[PickIndex(dataset_.links.size())];
      return "g.V(" + std::to_string(l.id1) + ").outE('" +
             Dataset::EdgeLabel(l.ltype) + "').where(inV().hasId(" +
             std::to_string(l.id2) + "))";
    }
    case QueryType::kGetLinkList: {
      const Link& l = dataset_.links[PickIndex(dataset_.links.size())];
      return "g.V(" + std::to_string(l.id1) + ").outE('" +
             Dataset::EdgeLabel(l.ltype) + "')";
    }
  }
  return "g.V().count()";
}

std::string Workload::NextMixed() {
  std::uniform_int_distribution<int> pick(0, 3);
  return Next(static_cast<QueryType>(pick(rng_)));
}

}  // namespace db2graph::linkbench
