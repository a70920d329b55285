#include "gremlin/step.h"

#include <cctype>
#include <sstream>
#include <string>

namespace db2graph::gremlin {

const char* StepKindName(StepKind kind) {
  switch (kind) {
    case StepKind::kGraph:
      return "GraphStep";
    case StepKind::kVertex:
      return "VertexStep";
    case StepKind::kEdgeVertex:
      return "EdgeVertexStep";
    case StepKind::kHas:
      return "HasStep";
    case StepKind::kValues:
      return "PropertiesStep";
    case StepKind::kValueMap:
      return "PropertyMapStep";
    case StepKind::kId:
      return "IdStep";
    case StepKind::kLabel:
      return "LabelStep";
    case StepKind::kAggregate:
      return "AggregateStep";
    case StepKind::kDedup:
      return "DedupStep";
    case StepKind::kLimit:
      return "LimitStep";
    case StepKind::kRange:
      return "RangeStep";
    case StepKind::kOrder:
      return "OrderStep";
    case StepKind::kRepeat:
      return "RepeatStep";
    case StepKind::kWhere:
      return "WhereStep";
    case StepKind::kNot:
      return "NotStep";
    case StepKind::kStore:
      return "StoreStep";
    case StepKind::kCap:
      return "CapStep";
    case StepKind::kUnion:
      return "UnionStep";
    case StepKind::kCoalesce:
      return "CoalesceStep";
    case StepKind::kIs:
      return "IsStep";
    case StepKind::kPath:
      return "PathStep";
    case StepKind::kSimplePath:
      return "SimplePathStep";
    case StepKind::kTail:
      return "TailStep";
    case StepKind::kGroupCount:
      return "GroupCountStep";
    case StepKind::kMultiHop:
      return "MultiHopStep";
  }
  return "?";
}

namespace {

const char* AggName(AggOp agg) {
  switch (agg) {
    case AggOp::kNone:
      return "none";
    case AggOp::kCount:
      return "count";
    case AggOp::kSum:
      return "sum";
    case AggOp::kMean:
      return "mean";
    case AggOp::kMin:
      return "min";
    case AggOp::kMax:
      return "max";
  }
  return "?";
}

void AppendValueList(const std::vector<Value>& values, std::ostream& os) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ",";
    os << values[i];
  }
}

// " ids=[...]": literals as written, variables and id slots as "$name".
void AppendIdArgs(const std::vector<GremlinArg>& ids, std::ostream& os) {
  if (ids.empty()) return;
  os << " ids=[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) os << ",";
    const GremlinArg& id = ids[i];
    os << (id.is_var()    ? "$" + id.var
           : id.is_slot() ? "$" + std::string(kSlotPrefix) +
                                std::to_string(id.slot)
                          : id.literal.ToString());
  }
  os << "]";
}

}  // namespace

std::string Step::ToString() const {
  std::ostringstream os;
  os << StepKindName(kind);
  switch (kind) {
    case StepKind::kGraph: {
      os << "(" << (graph_emits_edges ? "E" : "V");
      AppendIdArgs(start_ids, os);
      if (!spec.labels.empty()) {
        os << " labels=[";
        for (size_t i = 0; i < spec.labels.size(); ++i) {
          if (i > 0) os << ",";
          os << spec.labels[i];
        }
        os << "]";
      }
      if (!spec.predicates.empty()) os << " preds=" << spec.predicates.size();
      if (!src_id_args.empty() || !spec.src_ids.empty()) os << " by-src";
      if (!dst_id_args.empty() || !spec.dst_ids.empty()) os << " by-dst";
      if (spec.has_projection) os << " proj=" << spec.projection.size();
      if (spec.agg != AggOp::kNone) os << " agg=" << AggName(spec.agg);
      if (spec.limit >= 0) os << " limit=" << spec.limit;
      os << ")";
      break;
    }
    case StepKind::kVertex: {
      os << "(";
      os << (direction == Direction::kOut
                 ? (to_vertex ? "out" : "outE")
                 : direction == Direction::kIn ? (to_vertex ? "in" : "inE")
                                               : (to_vertex ? "both" : "bothE"));
      for (const std::string& l : edge_labels) os << " " << l;
      if (!spec.predicates.empty()) os << " preds=" << spec.predicates.size();
      if (spec.has_projection) os << " proj=" << spec.projection.size();
      if (spec.agg != AggOp::kNone) os << " agg=" << AggName(spec.agg);
      os << ")";
      break;
    }
    case StepKind::kEdgeVertex:
      os << "("
         << (direction == Direction::kOut
                 ? "outV"
                 : direction == Direction::kIn ? "inV" : "bothV");
      if (!spec.predicates.empty()) os << " preds=" << spec.predicates.size();
      if (spec.has_projection) os << " proj=" << spec.projection.size();
      os << ")";
      break;
    case StepKind::kHas: {
      os << "(";
      for (size_t i = 0; i < predicates.size(); ++i) {
        if (i > 0) os << ",";
        os << predicates[i].key << ":";
        if (!predicates[i].var.empty()) {
          os << "$" << predicates[i].var;
        } else {
          AppendValueList(predicates[i].values, os);
        }
      }
      os << ")";
      break;
    }
    case StepKind::kValues:
    case StepKind::kValueMap: {
      os << "(";
      for (size_t i = 0; i < keys.size(); ++i) {
        if (i > 0) os << ",";
        os << keys[i];
      }
      os << ")";
      break;
    }
    case StepKind::kAggregate:
      os << "(" << AggName(agg) << ")";
      break;
    case StepKind::kLimit:
      os << "(" << high << ")";
      break;
    case StepKind::kRange:
      os << "(" << low << "," << high << ")";
      break;
    case StepKind::kRepeat: {
      os << "(times=" << times << (emit ? " emit" : "") << " body=[";
      for (size_t i = 0; i < body.size(); ++i) {
        if (i > 0) os << ".";
        os << body[i].ToString();
      }
      os << "])";
      break;
    }
    case StepKind::kWhere:
    case StepKind::kNot: {
      os << "([";
      for (size_t i = 0; i < body.size(); ++i) {
        if (i > 0) os << ".";
        os << body[i].ToString();
      }
      os << "])";
      break;
    }
    case StepKind::kStore:
    case StepKind::kCap:
      os << "(" << side_effect_key << ")";
      break;
    case StepKind::kMultiHop: {
      os << "(hops=" << (multi_hop ? multi_hop->hops.size() : 0);
      if (!src_id_args.empty()) {
        AppendIdArgs(src_id_args, os);
        os << " by-src";
      }
      if (!dst_id_args.empty()) {
        AppendIdArgs(dst_id_args, os);
        os << " by-dst";
      }
      if (multi_hop && !multi_hop->join_order.empty()) {
        os << " join=" << multi_hop->join_order;
      }
      if (multi_hop) os << " est=" << multi_hop->est_rows;
      if (multi_hop && multi_hop->agg != AggOp::kNone) {
        os << " agg=" << AggName(multi_hop->agg);
      }
      os << " body=[";
      for (size_t i = 0; i < body.size(); ++i) {
        if (i > 0) os << ".";
        os << body[i].ToString();
      }
      os << "])";
      break;
    }
    default:
      break;
  }
  return os.str();
}

std::string BindSlotText(const std::string& text,
                         const std::vector<Value>& slots) {
  const std::string marker = std::string("$") + kSlotPrefix;
  std::string out;
  size_t copied = 0;
  for (size_t at = text.find(marker); at != std::string::npos;
       at = text.find(marker, copied)) {
    size_t end = at + marker.size();
    size_t slot = 0;
    while (end < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[end]))) {
      slot = slot * 10 + static_cast<size_t>(text[end] - '0');
      ++end;
    }
    out.append(text, copied, at - copied);
    if (end > at + marker.size() && slot < slots.size()) {
      out += slots[slot].ToString();
    } else {
      out.append(text, at, end - at);
    }
    copied = end;
  }
  out.append(text, copied, std::string::npos);
  return out;
}

std::string Traversal::ToString() const {
  std::string out = "g";
  for (const Step& step : steps) {
    out += ".";
    out += step.ToString();
  }
  return out;
}

}  // namespace db2graph::gremlin
