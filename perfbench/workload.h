// Copyright (c) 2026 The db2graph-repro Authors.
//
// The LinkBench operation streams the performance benchmark replays, and
// the dataset-side oracle that gives every operation its expected result
// before any timing starts. See README.md for why the workloads are what
// they are.

#ifndef DB2GRAPH_PERFBENCH_WORKLOAD_H_
#define DB2GRAPH_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "linkbench/linkbench.h"

namespace db2graph::perfbench {

/// Table 1's four reads, the labelled 3-hop chain, and the three writes.
enum class OpType {
  kGetNode,
  kCountLinks,
  kGetLink,
  kGetLinkList,
  kKhop3,
  kAddLink,
  kDeleteLink,
  kUpdateNode,
};
inline constexpr int kNumOpTypes = 8;

const char* OpName(OpType type);
inline bool IsWrite(OpType type) { return type >= OpType::kAddLink; }

/// One operation of a stream, with the result the dataset says it must
/// produce. `label` is the vertex type (getNode), the edge type (link
/// operations), or the first edge type of the chain (khop3); the node
/// tables are Node_t<label> and the link tables Link_e<label>.
struct Op {
  OpType type = OpType::kGetNode;
  int label = 0;
  int64_t id1 = 0;
  int64_t id2 = 0;
  /// getNode/getLink: 1 element; countLinks/khop3: the count value;
  /// getLinkList: the number of edges; writes: rows affected (1).
  int64_t expect = 0;
  /// Gremlin text with literal ids (text workloads only).
  std::string text;
  /// updateNode: the value written to Node_t<label>.data.
  std::string data;
};

struct WorkloadSpec {
  const char* name;
  bool large;        // LB-large (400k vertices) instead of LB-small (40k)
  bool text;         // Gremlin text through Db2Graph::Execute vs prepared
  bool all_cpus;     // one client per online CPU instead of one client
  bool zipfian;      // rank-skewed parameters instead of uniform
  bool writes;       // SQL addLink/deleteLink/updateNode in every block
};

/// The workloads the benchmark knows, by --workload name; nullptr if none.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Out-adjacency of the generated dataset (vertex ids 1..N), the oracle
/// every expectation is computed from. In the partitioned layout a
/// vertex of type t has out-edges of label et<t> only, so the label of a
/// link operation is implied by id1.
class Oracle {
 public:
  explicit Oracle(const linkbench::Dataset& dataset);

  int64_t OutDegree(int64_t id) const;
  bool HasLink(int64_t id1, int64_t id2) const;
  /// Number of out-out-out walks from `id`, which is what
  /// g.V(id).out(a).out(a+3).out(a+6).count() returns.
  int64_t Khop3(int64_t id) const;

  /// Links added by the stream and not yet deleted, folded into every
  /// answer above.
  void AddLink(int64_t id1, int64_t id2);
  void RemoveLink(int64_t id1, int64_t id2);

 private:
  std::vector<int64_t> Neighbors(int64_t id) const;

  std::vector<uint32_t> offsets_;  // CSR over ids 0..N
  std::vector<int64_t> targets_;
  std::vector<std::pair<int64_t, int64_t>> added_;
};

/// Operations per block; the stream is whole blocks and every block
/// leaves the tables as loaded (each added link is deleted and each
/// updated node restored later in the same block).
int BlockSize(const WorkloadSpec& spec);

/// Generates client `client`'s stream of `blocks` blocks from `seed`.
/// Within a block the operation order is shuffled, so every operation
/// type is sampled across the whole run.
/// `oracle` tracks the links the stream adds while it is generated and
/// is back to the loaded state when this returns.
std::vector<Op> GenerateStream(const WorkloadSpec& spec,
                               const linkbench::Dataset& dataset,
                               Oracle* oracle, uint64_t seed, int client,
                               int blocks);

/// Gremlin for a prepared handle of `type` over `label` with bind
/// variables vid (and vid2 for getLink).
std::string PreparedScript(OpType type, int label);

}  // namespace db2graph::perfbench

#endif  // DB2GRAPH_PERFBENCH_WORKLOAD_H_
