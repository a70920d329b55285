// Copyright (c) 2026 The db2graph-repro Authors.

#include "perfbench/workload.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace db2graph::perfbench {

namespace {

// One Table 1 read of each type per this many operations, and one khop3
// chain per block: khop3 is ~2% of operations and, being ~20x a point
// read, about a quarter of the time of a text stream.
constexpr int kReadsPerType = 12;
// Writes per block of the read-write workload: links added (and as many
// deleted) and node updates (half write a value, half restore it), ~11%
// of operations.
constexpr int kLinkAdds = 2;
constexpr int kNodeUpdates = 2;
// khop3 starts are drawn from a fixed seeded set of this many vertices.
constexpr int kKhop3Starts = 300;

constexpr WorkloadSpec kWorkloads[] = {
    {"lb_small_text", /*large=*/false, /*text=*/true, /*all_cpus=*/false,
     /*zipfian=*/false, /*writes=*/false},
    {"lb_large_prepared_4c", /*large=*/true, /*text=*/false,
     /*all_cpus=*/true, /*zipfian=*/true, /*writes=*/false},
    {"lb_small_rw", /*large=*/false, /*text=*/false, /*all_cpus=*/false,
     /*zipfian=*/false, /*writes=*/true},
};

int NodeType(int64_t id) { return static_cast<int>(id % 10); }

std::string VertexLabel(int type) {
  return linkbench::Dataset::VertexLabel(type);
}
std::string EdgeLabel(int type) { return linkbench::Dataset::EdgeLabel(type); }

std::string Payload(std::mt19937_64* rng, size_t bytes) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::uniform_int_distribution<int> pick(0, sizeof(kAlphabet) - 2);
  std::string out(bytes, ' ');
  for (char& c : out) c = kAlphabet[pick(*rng)];
  return out;
}

// Index in [0, n): uniform, or rank-skewed with P(rank r) ~ 1/r (the
// log-uniform construction linkbench::Workload uses).
size_t PickIndex(std::mt19937_64* rng, size_t n, bool zipfian) {
  if (!zipfian) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(*rng);
  }
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  auto r = static_cast<size_t>(
      std::exp(uniform(*rng) * std::log(static_cast<double>(n))));
  return std::min(r, n - 1);
}

std::string Khop3Labels(int a) {
  return "out('" + EdgeLabel(a) + "').out('" + EdgeLabel((a + 3) % 10) +
         "').out('" + EdgeLabel((a + 6) % 10) + "')";
}

std::string TextFor(const Op& op) {
  const std::string v = "g.V(" + std::to_string(op.id1) + ")";
  switch (op.type) {
    case OpType::kGetNode:
      return v + ".hasLabel('" + VertexLabel(op.label) + "')";
    case OpType::kCountLinks:
      return v + ".outE('" + EdgeLabel(op.label) + "').count()";
    case OpType::kGetLink:
      return v + ".outE('" + EdgeLabel(op.label) + "').where(inV().hasId(" +
             std::to_string(op.id2) + "))";
    case OpType::kGetLinkList:
      return v + ".outE('" + EdgeLabel(op.label) + "')";
    case OpType::kKhop3:
      return v + "." + Khop3Labels(op.label) + ".count()";
    default:
      return {};
  }
}

// Reorders a shuffled block so every deleteLink follows the addLink it
// deletes: the k-th delete of a block removes the k-th added link.
void OrderDeletesAfterAdds(std::vector<OpType>* kinds) {
  int pending = 0;
  for (size_t i = 0; i < kinds->size(); ++i) {
    if ((*kinds)[i] == OpType::kAddLink) ++pending;
    if ((*kinds)[i] != OpType::kDeleteLink) continue;
    if (pending > 0) {
      --pending;
      continue;
    }
    auto add = std::find(kinds->begin() + i, kinds->end(), OpType::kAddLink);
    std::iter_swap(kinds->begin() + i, add);
    ++pending;
  }
}

}  // namespace

const char* OpName(OpType type) {
  static const char* const kNames[kNumOpTypes] = {
      "getNode", "countLinks", "getLink",    "getLinkList",
      "khop3",   "addLink",    "deleteLink", "updateNode"};
  return kNames[static_cast<int>(type)];
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.push_back(spec.name);
  return names;
}

Oracle::Oracle(const linkbench::Dataset& dataset) {
  const size_t n = dataset.nodes.size();
  offsets_.assign(n + 2, 0);
  for (const linkbench::Link& l : dataset.links) ++offsets_[l.id1 + 1];
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  targets_.resize(dataset.links.size());
  std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const linkbench::Link& l : dataset.links) {
    targets_[fill[l.id1]++] = l.id2;
  }
}

std::vector<int64_t> Oracle::Neighbors(int64_t id) const {
  std::vector<int64_t> out(targets_.begin() + offsets_[id],
                           targets_.begin() + offsets_[id + 1]);
  for (const auto& [src, dst] : added_) {
    if (src == id) out.push_back(dst);
  }
  return out;
}

int64_t Oracle::OutDegree(int64_t id) const {
  return static_cast<int64_t>(Neighbors(id).size());
}

bool Oracle::HasLink(int64_t id1, int64_t id2) const {
  std::vector<int64_t> n = Neighbors(id1);
  return std::find(n.begin(), n.end(), id2) != n.end();
}

int64_t Oracle::Khop3(int64_t id) const {
  // Level-by-level expansion keeping walk multiplicities, as the
  // traversal does (out() does not deduplicate).
  std::vector<int64_t> frontier = {id};
  for (int hop = 0; hop < 2; ++hop) {
    std::vector<int64_t> next;
    for (int64_t v : frontier) {
      for (int64_t w : Neighbors(v)) next.push_back(w);
    }
    frontier = std::move(next);
  }
  int64_t walks = 0;
  for (int64_t v : frontier) walks += OutDegree(v);
  return walks;
}

void Oracle::AddLink(int64_t id1, int64_t id2) { added_.emplace_back(id1, id2); }

void Oracle::RemoveLink(int64_t id1, int64_t id2) {
  auto it = std::find(added_.begin(), added_.end(), std::make_pair(id1, id2));
  if (it == added_.end()) throw std::logic_error("removing an unknown link");
  added_.erase(it);
}

// The operation types of one block, unshuffled.
std::vector<OpType> BlockKinds(const WorkloadSpec& spec) {
  std::vector<OpType> kinds;
  for (OpType t : {OpType::kGetNode, OpType::kCountLinks, OpType::kGetLink,
                   OpType::kGetLinkList}) {
    kinds.insert(kinds.end(), kReadsPerType, t);
  }
  kinds.push_back(OpType::kKhop3);
  if (spec.writes) {
    kinds.insert(kinds.end(), kLinkAdds, OpType::kAddLink);
    kinds.insert(kinds.end(), kLinkAdds, OpType::kDeleteLink);
    kinds.insert(kinds.end(), kNodeUpdates, OpType::kUpdateNode);
  }
  return kinds;
}

int BlockSize(const WorkloadSpec& spec) {
  return static_cast<int>(BlockKinds(spec).size());
}

std::vector<Op> GenerateStream(const WorkloadSpec& spec,
                               const linkbench::Dataset& dataset,
                               Oracle* oracle, uint64_t seed, int client,
                               int blocks) {
  // The khop3 start set is shared by all clients; everything else is
  // drawn from a per-client generator.
  std::mt19937_64 start_rng(seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<int64_t> khop3_starts;
  for (int i = 0; i < kKhop3Starts; ++i) {
    khop3_starts.push_back(
        dataset.nodes[PickIndex(&start_rng, dataset.nodes.size(), false)].id);
  }
  std::mt19937_64 rng(seed * 1000003ull + static_cast<uint64_t>(client));

  std::vector<OpType> kinds = BlockKinds(spec);

  std::vector<Op> stream;
  stream.reserve(static_cast<size_t>(blocks) * kinds.size());
  for (int b = 0; b < blocks; ++b) {
    std::shuffle(kinds.begin(), kinds.end(), rng);
    OrderDeletesAfterAdds(&kinds);
    std::vector<std::pair<int64_t, int64_t>> added;  // this block, FIFO
    int64_t updating = 0;                            // node mid-update
    for (OpType kind : kinds) {
      Op op;
      op.type = kind;
      auto pick_link = [&]() -> const linkbench::Link& {
        return dataset.links[PickIndex(&rng, dataset.links.size(),
                                       spec.zipfian)];
      };
      switch (kind) {
        case OpType::kGetNode: {
          const linkbench::Node& node = dataset.nodes[PickIndex(
              &rng, dataset.nodes.size(), spec.zipfian)];
          op.id1 = node.id;
          op.label = node.type;
          op.expect = 1;
          break;
        }
        case OpType::kCountLinks:
        case OpType::kGetLinkList: {
          const linkbench::Link& link = pick_link();
          op.id1 = link.id1;
          op.label = link.ltype;
          op.expect = oracle->OutDegree(link.id1);
          break;
        }
        case OpType::kGetLink: {
          const linkbench::Link& link = pick_link();
          op.id1 = link.id1;
          op.id2 = link.id2;
          op.label = link.ltype;
          op.expect = 1;
          break;
        }
        case OpType::kKhop3: {
          op.id1 = khop3_starts[std::uniform_int_distribution<size_t>(
              0, khop3_starts.size() - 1)(rng)];
          op.label = NodeType(op.id1);
          op.expect = oracle->Khop3(op.id1);
          break;
        }
        case OpType::kAddLink: {
          // A new link from an existing link's source to another vertex
          // of the same destination type.
          const linkbench::Link& link = pick_link();
          op.id1 = link.id1;
          op.label = link.ltype;
          const int dst_type = (link.ltype + 3) % 10;
          const auto stripe =
              static_cast<int64_t>(dataset.nodes.size() - dst_type) / 10;
          do {
            op.id2 = 10 * std::uniform_int_distribution<int64_t>(
                              1, stripe)(rng) + dst_type;
          } while (oracle->HasLink(op.id1, op.id2));
          op.expect = 1;
          oracle->AddLink(op.id1, op.id2);
          added.emplace_back(op.id1, op.id2);
          break;
        }
        case OpType::kDeleteLink:
          op.id1 = added.front().first;
          op.id2 = added.front().second;
          op.label = NodeType(op.id1);
          op.expect = 1;
          oracle->RemoveLink(op.id1, op.id2);
          added.erase(added.begin());
          break;
        case OpType::kUpdateNode: {
          // Odd updates write a fresh value, even ones restore the loaded
          // value of the same node.
          if (updating == 0) {
            updating = dataset.nodes[PickIndex(&rng, dataset.nodes.size(),
                                               false)].id;
            op.id1 = updating;
            op.data = Payload(&rng, dataset.nodes[updating - 1].data.size());
          } else {
            op.id1 = updating;
            op.data = dataset.nodes[updating - 1].data;
            updating = 0;
          }
          op.label = NodeType(op.id1);
          op.expect = 1;
          break;
        }
      }
      if (spec.text) op.text = TextFor(op);
      stream.push_back(std::move(op));
    }
  }
  return stream;
}

std::string PreparedScript(OpType type, int label) {
  Op op;
  op.type = type;
  op.label = label;
  std::string text = TextFor(op);  // literal id 0 in place of vid
  text.replace(text.find("g.V(0)"), 6, "g.V(vid)");
  if (type == OpType::kGetLink) {
    text.replace(text.find("hasId(0)"), 8, "hasId(vid2)");
  }
  return text;
}

}  // namespace db2graph::perfbench
