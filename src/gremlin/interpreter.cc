#include "gremlin/interpreter.h"

#include <algorithm>
#include <map>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "common/workload_governor.h"

namespace db2graph::gremlin {

namespace {

// Tracks the workload-governor memory charge for one traverser stream:
// Update() re-charges to the stream's current size (and enforces the
// result-row budget), the destructor releases whatever is still charged.
// A no-op when the execution is ungoverned.
class StreamMemoryCharge {
 public:
  StreamMemoryCharge() : qc_(governor::CurrentQueryContext()) {}
  ~StreamMemoryCharge() {
    if (qc_ != nullptr && charged_ > 0) qc_->ReleaseMemory(charged_);
  }
  StreamMemoryCharge(const StreamMemoryCharge&) = delete;
  StreamMemoryCharge& operator=(const StreamMemoryCharge&) = delete;

  Status Update(size_t traversers) {
    if (qc_ == nullptr) return Status::OK();
    DB2G_RETURN_NOT_OK(qc_->CheckResultRows(traversers));
    uint64_t bytes = traversers * governor::kApproxTraverserBytes;
    if (bytes > charged_) {
      Status st = qc_->ChargeMemory(bytes - charged_);
      charged_ = bytes;
      return st;
    }
    qc_->ReleaseMemory(charged_ - bytes);
    charged_ = bytes;
    return Status::OK();
  }

 private:
  governor::QueryContext* qc_;
  uint64_t charged_ = 0;
};

}  // namespace

Traverser Traverser::OfVertex(VertexPtr v) {
  Traverser t;
  t.kind = Kind::kVertex;
  t.vertex = std::move(v);
  return t;
}

Traverser Traverser::OfEdge(EdgePtr e) {
  Traverser t;
  t.kind = Kind::kEdge;
  t.edge = std::move(e);
  return t;
}

Traverser Traverser::OfValue(Value v) {
  Traverser t;
  t.kind = Kind::kValue;
  t.value = std::move(v);
  return t;
}

Traverser Traverser::OfList(std::vector<Value> values) {
  Traverser t;
  t.kind = Kind::kList;
  t.list = std::move(values);
  return t;
}

namespace {

// Derived-traverser constructor preserving and extending the path.
Traverser Derive(const Traverser& parent, Traverser child,
                 const Value& step_value) {
  child.path = parent.path;
  child.path.push_back(step_value);
  return child;
}

// A step as trace spans show it: concentrated id slots render as this
// execution's values, so a plan cached per text shape traces like the
// caller's own text.
std::string SpanText(const Step& step, const std::vector<Value>* slots) {
  std::string text = step.ToString();
  return slots == nullptr ? text : BindSlotText(text, *slots);
}

// True for steps a streaming segment can apply one block at a time with
// results identical to one pass over the whole stream: per-traverser
// transforms and filters, plus the cumulative-counter steps (limit/range,
// handled inline by the segment runner) and the steps whose cross-block
// state already lives in ExecState (dedup's seen-set, store's side-effect
// list).
bool IsStreamableStep(const Step& step) {
  switch (step.kind) {
    case StepKind::kVertex:
      // Adjacency with a folded aggregate collapses the whole stream to
      // one value — a barrier. both()/bothE() is also a barrier: the
      // provider reports an edge once per endpoint present in the *call's*
      // source set, so splitting the sources across blocks would change
      // the multiplicity an all-sources call produces. out()/in() key
      // each edge by the queried endpoint alone and stream safely.
      return step.spec.agg == AggOp::kNone &&
             step.direction != Direction::kBoth;
    case StepKind::kMultiHop:
      // Same shape as streamable kVertex: per-block distinct sources, one
      // provider call, per-traverser emission (the collapsed hops never
      // carry an aggregate or a kBoth direction — the optimizer bails).
      // A folded count() makes it a barrier, like the count itself. An
      // id-sourced chain ignores its input, like the GraphStep it
      // replaces, so it runs once per pass, as a barrier.
      return !step.IdSourced() &&
             (step.multi_hop == nullptr ||
              step.multi_hop->agg == AggOp::kNone);
    case StepKind::kEdgeVertex:
    case StepKind::kHas:
    case StepKind::kValues:
    case StepKind::kValueMap:
    case StepKind::kId:
    case StepKind::kLabel:
    case StepKind::kIs:
    case StepKind::kWhere:
    case StepKind::kNot:
    case StepKind::kDedup:
    case StepKind::kLimit:
    case StepKind::kRange:
    case StepKind::kStore:
    case StepKind::kPath:
    case StepKind::kSimplePath:
    case StepKind::kUnion:
    case StepKind::kCoalesce:
      return true;
    default:
      // kGraph restarts the stream (it is a segment *source*, never a
      // chain member); kOrder, kTail, kGroupCount, kCap, kRepeat and
      // kAggregate are barriers that need the whole input at once.
      return false;
  }
}

// True when the step (or a sub-traversal inside it) mutates state that
// outlives this pass over the stream: store() appends to a side-effect
// list and dedup() keeps its seen-set across repeat() iterations. A
// saturated limit may only cancel the upstream pull when no such step
// sits between the source and the limit — otherwise traversers that were
// never pulled would silently vanish from those side effects, diverging
// from a run that saw the whole stream.
bool HasCrossPassEffects(const Step& step) {
  if (step.kind == StepKind::kStore || step.kind == StepKind::kDedup) {
    return true;
  }
  for (const Step& s : step.body) {
    if (HasCrossPassEffects(s)) return true;
  }
  for (const auto& branch : step.branches) {
    for (const Step& s : branch) {
      if (HasCrossPassEffects(s)) return true;
    }
  }
  return false;
}

// Pull source feeding a streaming segment one traverser block at a time.
class TraverserBlockSource {
 public:
  virtual ~TraverserBlockSource() = default;
  /// Fills `out` (cleared first) with up to `max` traversers. Returns
  /// false when exhausted or failed (see status()); true with an empty
  /// block means "pulled a block, nothing survived the recheck — keep
  /// pulling".
  virtual bool Next(std::vector<Traverser>* out, size_t max) = 0;
  /// Stops the source early; cancels provider work not yet started.
  virtual void Close() {}
  virtual Status status() const { return Status::OK(); }
};

// Chunks an already-materialized traverser stream (the carried output of
// the previous segment or barrier step).
class VectorBlockSource : public TraverserBlockSource {
 public:
  explicit VectorBlockSource(std::vector<Traverser> input)
      : input_(std::move(input)) {}

  bool Next(std::vector<Traverser>* out, size_t max) override {
    out->clear();
    if (pos_ >= input_.size()) return false;
    size_t n = std::min(max, input_.size() - pos_);
    out->reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(input_[pos_ + i]));
    }
    pos_ += n;
    return true;
  }

 private:
  std::vector<Traverser> input_;
  size_t pos_ = 0;
};

Traverser OfElement(VertexPtr v) { return Traverser::OfVertex(std::move(v)); }
Traverser OfElement(EdgePtr e) { return Traverser::OfEdge(std::move(e)); }

// Adapts a provider element stream (g.V(), g.E() and the strategy-mutated
// g.V(ids).outE() shape): re-filters for a provider without pushdown (its
// plan carries no folded predicates, but the recheck keeps correctness
// independent of provider quality) and seeds each traverser's path with
// the element id.
template <typename Ptr>
class ElementStreamSource : public TraverserBlockSource {
 public:
  ElementStreamSource(std::unique_ptr<ElementStream<Ptr>> stream,
                      LookupSpec spec, bool recheck)
      : stream_(std::move(stream)),
        spec_(std::move(spec)),
        recheck_(recheck) {}

  bool Next(std::vector<Traverser>* out, size_t max) override {
    out->clear();
    if (!stream_->Next(&buffer_, max)) return false;
    for (Ptr& e : buffer_) {
      if (recheck_ && !MatchesSpec(*e, spec_)) continue;
      Traverser t = OfElement(std::move(e));
      t.path.push_back(t.element()->id);
      out->push_back(std::move(t));
    }
    return true;
  }
  void Close() override { stream_->Close(); }
  Status status() const override { return stream_->status(); }

 private:
  std::unique_ptr<ElementStream<Ptr>> stream_;
  LookupSpec spec_;
  bool recheck_;
  std::vector<Ptr> buffer_;
};

// The source over an opened provider stream, or the error it opened with;
// takes `spec` over.
template <typename Ptr>
Result<std::unique_ptr<TraverserBlockSource>> StreamSource(
    Result<std::unique_ptr<ElementStream<Ptr>>> stream, LookupSpec* spec,
    bool recheck) {
  if (!stream.ok()) return stream.status();
  return std::unique_ptr<TraverserBlockSource>(new ElementStreamSource<Ptr>(
      std::move(*stream), std::move(*spec), recheck));
}

}  // namespace

const Element* Traverser::element() const {
  if (kind == Kind::kVertex) return vertex.get();
  if (kind == Kind::kEdge) return edge.get();
  return nullptr;
}

Value Traverser::DedupKey() const {
  if (const Element* e = element()) return e->id;
  if (kind == Kind::kList) {
    std::string joined;
    for (const Value& v : list) {
      joined += v.ToString();
      joined += '\x1f';
    }
    return Value(joined);
  }
  return value;
}

std::string Traverser::ToString() const {
  switch (kind) {
    case Kind::kVertex:
      return "v[" + vertex->id.ToString() + "]";
    case Kind::kEdge:
      return "e[" + edge->id.ToString() + "][" + edge->src_id.ToString() +
             "-" + edge->label + "->" + edge->dst_id.ToString() + "]";
    case Kind::kValue:
      return value.ToString();
    case Kind::kList: {
      std::string out = "[";
      for (size_t i = 0; i < list.size(); ++i) {
        if (i > 0) out += ", ";
        out += list[i].ToString();
      }
      return out + "]";
    }
  }
  return "?";
}

// ---------------------------------------------------------------------

Result<std::vector<Value>> Interpreter::ResolveIds(
    const std::vector<GremlinArg>& args, const ExecState& state) const {
  std::vector<Value> out;
  for (const GremlinArg& arg : args) {
    if (arg.is_slot()) {
      if (state.slots == nullptr ||
          static_cast<size_t>(arg.slot) >= state.slots->size()) {
        return Status::Internal("Gremlin: no value for id slot " +
                                std::to_string(arg.slot));
      }
      out.push_back((*state.slots)[arg.slot]);
      continue;
    }
    if (!arg.is_var()) {
      out.push_back(arg.literal);
      continue;
    }
    auto it = state.env->find(arg.var);
    if (it == state.env->end()) {
      return Status::NotFound("Gremlin: unbound variable '" + arg.var + "'");
    }
    for (const Value& v : it->second) out.push_back(v);
  }
  return out;
}

Result<std::vector<Traverser>> Interpreter::Run(
    const Traversal& traversal, const Environment& env,
    const std::vector<Value>* slots) {
  ExecState state;
  state.env = &env;
  state.slots = slots;
  std::vector<Traverser> seed;
  seed.emplace_back();  // a single dummy traverser seeds the GraphStep
  std::vector<Traverser> out;
  Status st = Execute(traversal.steps, std::move(seed), &state, &out);
  if (!st.ok()) return st;
  return out;
}

Result<std::vector<Traverser>> Interpreter::RunScript(
    const Script& script, Environment* env,
    const std::vector<Value>* slots) {
  Environment local;
  Environment* bindings = env != nullptr ? env : &local;
  std::vector<Traverser> last;
  for (const ScriptStatement& stmt : script.statements) {
    Result<std::vector<Traverser>> result =
        Run(stmt.traversal, *bindings, slots);
    if (!result.ok()) return result.status();
    last = std::move(*result);
    if (stmt.terminal_next && last.size() > 1) {
      last.resize(1);
    }
    if (!stmt.assign_to.empty()) {
      std::vector<Value> values;
      for (const Traverser& t : last) {
        if (const Element* e = t.element()) {
          values.push_back(e->id);
        } else if (t.kind == Traverser::Kind::kList) {
          for (const Value& v : t.list) values.push_back(v);
        } else {
          values.push_back(t.value);
        }
      }
      (*bindings)[stmt.assign_to] = std::move(values);
    }
  }
  return last;
}

Status Interpreter::Execute(const std::vector<Step>& steps,
                            std::vector<Traverser> input, ExecState* state,
                            std::vector<Traverser>* out) {
  // Carve the plan into maximal streaming segments: a GraphStep (no folded
  // aggregate) opens a provider element stream; any run of streamable
  // steps pulls from it — or from the previous barrier's materialized
  // output — one block at a time. Barrier steps run as a materialized
  // pass in between.
  QueryTrace* trace = CurrentTrace();
  StreamMemoryCharge charge;
  std::vector<Traverser> stream = std::move(input);
  size_t pos = 0;
  while (pos < steps.size()) {
    const Step& step = steps[pos];
    const bool graph_source =
        step.kind == StepKind::kGraph && step.spec.agg == AggOp::kNone;
    if (graph_source || IsStreamableStep(step)) {
      size_t end = graph_source ? pos + 1 : pos;
      while (end < steps.size() && IsStreamableStep(steps[end])) ++end;
      std::vector<Traverser> next;
      DB2G_RETURN_NOT_OK(RunSegment(steps, pos, end, graph_source,
                                    std::move(stream), state, &next));
      stream = std::move(next);
      DB2G_RETURN_NOT_OK(charge.Update(stream.size()));
      pos = end;
      continue;
    }
    // Barrier (or aggregate GraphStep): one materialized pass. The
    // governor check runs before the drain so a query already past its
    // deadline never starts one.
    DB2G_RETURN_NOT_OK(governor::CheckCurrent());
    std::vector<Traverser> next;
    if (trace != nullptr) {
      int span = trace->BeginStep(StepKindName(step.kind),
                                  SpanText(step, state->slots), stream.size());
      Status st = ApplyStep(step, std::move(stream), state, &next);
      trace->EndStep(span, next.size());
      DB2G_RETURN_NOT_OK(st);
    } else {
      DB2G_RETURN_NOT_OK(ApplyStep(step, std::move(stream), state, &next));
    }
    stream = std::move(next);
    DB2G_RETURN_NOT_OK(charge.Update(stream.size()));
    ++pos;
  }
  *out = std::move(stream);
  return Status::OK();
}

Status Interpreter::RunSegment(const std::vector<Step>& steps, size_t begin,
                               size_t end, bool graph_source,
                               std::vector<Traverser> carried,
                               ExecState* state,
                               std::vector<Traverser>* out) {
  QueryTrace* trace = CurrentTrace();
  const size_t chain_begin = graph_source ? begin + 1 : begin;

  // Open the source: a provider element stream for a GraphStep, the
  // carried stream chunked into blocks otherwise. The GraphStep gets a
  // trace span like any other step; it stays open across the provider
  // call so table-consulted/pruned records attach to it, then pauses
  // between blocks.
  std::unique_ptr<TraverserBlockSource> source;
  int source_span = -1;
  if (graph_source) {
    const Step& g = steps[begin];
    if (trace != nullptr) {
      source_span = trace->BeginStep(StepKindName(g.kind),
                                     SpanText(g, state->slots),
                                     carried.size());
    }
    Result<LookupSpec> spec = BuildGraphSpec(g, *state);
    Status open_status = spec.ok() ? Status::OK() : spec.status();
    if (open_status.ok()) {
      const bool recheck = !provider_->SupportsPushdown();
      Result<std::unique_ptr<TraverserBlockSource>> opened =
          g.graph_emits_edges
              ? StreamSource(provider_->EdgesStreaming(*spec), &*spec, recheck)
              : StreamSource(provider_->VerticesStreaming(*spec), &*spec,
                             recheck);
      if (opened.ok()) {
        source = std::move(*opened);
      } else {
        open_status = opened.status();
      }
    }
    if (!open_status.ok()) {
      if (trace != nullptr) trace->EndStep(source_span, 0);
      return open_status;
    }
    if (trace != nullptr) trace->PauseStep(source_span);
  } else {
    source = std::make_unique<VectorBlockSource>(std::move(carried));
  }

  // Per-chain-step runtime state. Spans open up front (in step order, so
  // the trace reads like the plan) and start paused; each step's clock
  // only runs while one of its blocks is being processed.
  struct ChainStep {
    const Step* step = nullptr;
    int span = -1;
    int64_t seen = 0;     // traversers that reached this step
    int64_t emitted = 0;  // traversers it let through
    bool may_cancel_pull = false;
  };
  std::vector<ChainStep> chain;
  chain.reserve(end - chain_begin);
  bool clean_upstream = true;
  for (size_t j = chain_begin; j < end; ++j) {
    ChainStep cs;
    cs.step = &steps[j];
    if (trace != nullptr) {
      cs.span = trace->BeginStep(StepKindName(cs.step->kind),
                                 SpanText(*cs.step, state->slots), 0);
      trace->PauseStep(cs.span);
    }
    if (cs.step->kind == StepKind::kLimit ||
        cs.step->kind == StepKind::kRange) {
      cs.may_cancel_pull = clean_upstream;
    }
    if (HasCrossPassEffects(*cs.step)) clean_upstream = false;
    chain.push_back(cs);
  }

  // A saturated limit()/range() stops the pull — the whole point of the
  // streaming pipeline — unless a store()/dedup() upstream still needs to
  // observe the rest of the stream.
  auto saturated = [&chain]() {
    for (const ChainStep& cs : chain) {
      if (!cs.may_cancel_pull) continue;
      if (cs.step->kind == StepKind::kLimit && cs.emitted >= cs.step->high) {
        return true;
      }
      if (cs.step->kind == StepKind::kRange && cs.seen >= cs.step->high) {
        return true;
      }
    }
    return false;
  };

  uint64_t source_rows = 0;
  Status status;
  std::vector<Traverser> block;
  // The segment's pull cursor is the interpreter's block boundary: one
  // governor check per block keeps a governed full scan interruptible
  // within a block's worth of work. `out` accumulation is charged against
  // the memory budget here (and released on exit — the caller re-charges
  // for whatever stream it keeps) so a no-barrier full drain cannot grow
  // past the budget unnoticed.
  governor::QueryContext* governor_ctx = governor::CurrentQueryContext();
  uint64_t governor_charged = 0;
  while (!saturated()) {
    if (governor_ctx != nullptr) {
      Status gst = governor_ctx->Check();
      if (!gst.ok()) {
        status = std::move(gst);
        break;
      }
    }
    // Ask the source for no more than the leading limit/range still
    // accepts: with the usual strategy-rewritten shape (filters folded
    // into the GraphStep spec, limit directly after it) the final pull
    // fetches exactly the rows the query needs. A filter in between
    // decouples input from output counts, so the hint stops there —
    // under-pulling would stay correct but cost extra round trips.
    size_t pull = options_.block_size > 0 ? options_.block_size : size_t{1};
    for (const ChainStep& cs : chain) {
      if (cs.step->kind == StepKind::kLimit) {
        int64_t left = std::max<int64_t>(cs.step->high - cs.emitted, 0);
        pull = std::min(pull, static_cast<size_t>(left));
      } else if (cs.step->kind == StepKind::kRange) {
        int64_t left = std::max<int64_t>(cs.step->high - cs.seen, 0);
        pull = std::min(pull, static_cast<size_t>(left));
      } else {
        break;
      }
    }
    if (pull == 0) pull = 1;  // unreachable once saturated() gates the loop

    if (trace != nullptr && source_span >= 0) trace->ResumeStep(source_span);
    bool got = source->Next(&block, pull);
    if (trace != nullptr && source_span >= 0) {
      if (got) trace->AddBlocks(1);
      trace->PauseStep(source_span);
    }
    if (!got) {
      status = source->status();
      break;
    }
    source_rows += block.size();

    for (ChainStep& cs : chain) {
      if (block.empty()) break;  // nothing survived; pull the next block
      cs.seen += static_cast<int64_t>(block.size());
      if (trace != nullptr && cs.span >= 0) {
        trace->ResumeStep(cs.span);
        trace->AddStepInput(cs.span, block.size());
        trace->AddBlocks(1);
      }
      std::vector<Traverser> next;
      Status st;
      if (cs.step->kind == StepKind::kLimit) {
        // Cumulative across blocks — ApplyStep's per-call counter would
        // restart at every block.
        int64_t left = std::max<int64_t>(cs.step->high - cs.emitted, 0);
        size_t take = std::min(static_cast<size_t>(left), block.size());
        next.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          next.push_back(std::move(block[i]));
        }
      } else if (cs.step->kind == StepKind::kRange) {
        // Each traverser's position in the whole stream, not the block.
        int64_t first = cs.seen - static_cast<int64_t>(block.size());
        for (size_t i = 0; i < block.size(); ++i) {
          int64_t idx = first + static_cast<int64_t>(i);
          if (idx >= cs.step->low && idx < cs.step->high) {
            next.push_back(std::move(block[i]));
          }
        }
      } else {
        st = ApplyStep(*cs.step, std::move(block), state, &next);
      }
      cs.emitted += static_cast<int64_t>(next.size());
      if (trace != nullptr && cs.span >= 0) trace->PauseStep(cs.span);
      if (!st.ok()) {
        status = st;
        break;
      }
      block = std::move(next);
    }
    if (!status.ok()) break;
    if (governor_ctx != nullptr && !block.empty()) {
      governor_ctx->AddRowsProduced(block.size());
      Status gst = governor_ctx->CheckResultRows(out->size() + block.size());
      if (gst.ok()) {
        uint64_t bytes = block.size() * governor::kApproxTraverserBytes;
        governor_charged += bytes;
        gst = governor_ctx->ChargeMemory(bytes);
      }
      if (!gst.ok()) {
        status = std::move(gst);
        break;
      }
    }
    for (Traverser& t : block) out->push_back(std::move(t));
  }
  if (governor_ctx != nullptr && governor_charged > 0) {
    governor_ctx->ReleaseMemory(governor_charged);
  }

  // Close before the spans end so early-termination cancellation is
  // attributed to the segment. Idempotent when the source ran dry.
  source->Close();
  if (trace != nullptr) {
    if (source_span >= 0) trace->EndStep(source_span, source_rows);
    for (const ChainStep& cs : chain) {
      if (cs.span >= 0) {
        trace->EndStep(cs.span, static_cast<uint64_t>(cs.emitted));
      }
    }
  }
  return status;
}

namespace {

// Client-side aggregation over a traverser stream.
Value AggregateStream(const std::vector<Traverser>& stream, AggOp op) {
  if (op == AggOp::kCount) {
    return Value(static_cast<int64_t>(stream.size()));
  }
  int64_t count = 0;
  double sum = 0;
  bool all_int = true;
  int64_t isum = 0;
  Value min_v;
  Value max_v;
  for (const Traverser& t : stream) {
    Value v = t.kind == Traverser::Kind::kValue ? t.value : t.DedupKey();
    if (v.is_null()) continue;
    ++count;
    if (v.is_numeric()) {
      sum += v.NumericValue();
      if (v.is_int()) {
        isum += v.as_int();
      } else {
        all_int = false;
      }
    } else {
      all_int = false;
    }
    if (min_v.is_null() || v < min_v) min_v = v;
    if (max_v.is_null() || v > max_v) max_v = v;
  }
  switch (op) {
    case AggOp::kSum:
      return count == 0 ? Value::Null()
                        : (all_int ? Value(isum) : Value(sum));
    case AggOp::kMean:
      return count == 0 ? Value::Null()
                        : Value(sum / static_cast<double>(count));
    case AggOp::kMin:
      return min_v;
    case AggOp::kMax:
      return max_v;
    default:
      return Value::Null();
  }
}

}  // namespace

Result<LookupSpec> Interpreter::BuildGraphSpec(const Step& step,
                                               const ExecState& state) const {
  LookupSpec spec = step.spec;
  Result<std::vector<Value>> ids = ResolveIds(step.start_ids, state);
  if (!ids.ok()) return ids.status();
  for (Value& v : *ids) spec.ids.push_back(std::move(v));
  Result<std::vector<Value>> src_ids = ResolveIds(step.src_id_args, state);
  if (!src_ids.ok()) return src_ids.status();
  for (Value& v : *src_ids) spec.src_ids.push_back(std::move(v));
  Result<std::vector<Value>> dst_ids = ResolveIds(step.dst_id_args, state);
  if (!dst_ids.ok()) return dst_ids.status();
  for (Value& v : *dst_ids) spec.dst_ids.push_back(std::move(v));
  // Id lists carry set semantics (Db2 Graph turns them into SQL IN lists;
  // duplicates would otherwise duplicate traversers on other providers).
  auto dedupe = [](std::vector<Value>* values) {
    std::unordered_set<Value, ValueHash> seen;
    std::vector<Value> unique;
    for (Value& v : *values) {
      if (seen.insert(v).second) unique.push_back(std::move(v));
    }
    *values = std::move(unique);
  };
  dedupe(&spec.ids);
  dedupe(&spec.src_ids);
  dedupe(&spec.dst_ids);
  return spec;
}

Status Interpreter::ApplyGraphAggregate(const Step& step, ExecState* state,
                                        std::vector<Traverser>* out) {
  Result<LookupSpec> built = BuildGraphSpec(step, *state);
  if (!built.ok()) return built.status();
  LookupSpec spec = std::move(*built);

  // Aggregate pushdown: ask the provider first; fall back to client-side.
  Result<Value> agg = step.graph_emits_edges
                          ? provider_->AggregateEdges(spec)
                          : provider_->AggregateVertices(spec);
  if (agg.ok()) {
    out->push_back(Traverser::OfValue(*agg));
    return Status::OK();
  }
  if (agg.status().code() != StatusCode::kUnsupported) {
    return agg.status();
  }
  spec.agg = AggOp::kNone;  // fetch elements, aggregate below
  std::vector<EdgePtr> edges;
  std::vector<VertexPtr> vertices;
  DB2G_RETURN_NOT_OK(step.graph_emits_edges
                         ? provider_->Edges(spec, &edges)
                         : provider_->Vertices(spec, &vertices));
  std::vector<Traverser> fetched;
  for (EdgePtr& e : edges) fetched.push_back(OfElement(std::move(e)));
  for (VertexPtr& v : vertices) fetched.push_back(OfElement(std::move(v)));
  // When the aggregate was folded over values(key), aggregate the
  // property values, not the elements.
  if (!step.spec.agg_key.empty()) {
    std::vector<Traverser> values;
    for (const Traverser& t : fetched) {
      const Element* e = t.element();
      if (e == nullptr) continue;
      if (const Value* v = e->FindProperty(step.spec.agg_key)) {
        values.push_back(Traverser::OfValue(*v));
      }
    }
    fetched = std::move(values);
  }
  out->push_back(Traverser::OfValue(AggregateStream(fetched, step.spec.agg)));
  return Status::OK();
}

Status Interpreter::ApplyVertexStep(const Step& step,
                                    std::vector<Traverser> input,
                                    std::vector<Traverser>* out) {
  // Gather the distinct source vertices.
  std::vector<VertexPtr> sources;
  std::unordered_set<Value, ValueHash> seen;
  for (const Traverser& t : input) {
    if (t.kind != Traverser::Kind::kVertex) {
      return Status::InvalidArgument(
          "Gremlin: adjacency step applied to a non-vertex");
    }
    if (seen.insert(t.vertex->id).second) sources.push_back(t.vertex);
  }
  if (sources.empty()) {
    // A folded aggregate still produces its value over the empty stream
    // (count() of nothing is 0).
    if (!step.to_vertex && step.spec.agg != AggOp::kNone) {
      out->push_back(Traverser::OfValue(AggregateStream({}, step.spec.agg)));
    }
    return Status::OK();
  }

  // Fetch incident edges (labels + any pushed-down *edge* predicates).
  LookupSpec edge_spec;
  edge_spec.labels = step.edge_labels;
  if (!step.to_vertex) {
    edge_spec.predicates = step.spec.predicates;
    edge_spec.projection = step.spec.projection;
    edge_spec.has_projection = step.spec.has_projection;
    edge_spec.agg = step.spec.agg;
    edge_spec.agg_key = step.spec.agg_key;
  }

  // Aggregate pushdown for the common v.outE(lbl).count() shape, only
  // correct when each traverser is a distinct vertex (the barrier sums
  // over all input anyway).
  if (!step.to_vertex && edge_spec.agg == AggOp::kCount &&
      sources.size() == input.size()) {
    LookupSpec spec = edge_spec;
    std::vector<Value> ids;
    for (const VertexPtr& v : sources) ids.push_back(v->id);
    if (step.direction == Direction::kOut) {
      spec.src_ids = ids;
    } else if (step.direction == Direction::kIn) {
      spec.dst_ids = ids;
    }
    if (step.direction != Direction::kBoth) {
      Result<Value> agg = provider_->AggregateEdges(spec);
      if (agg.ok()) {
        out->push_back(Traverser::OfValue(*agg));
        return Status::OK();
      }
    }
  }
  edge_spec.agg = AggOp::kNone;

  std::vector<EdgePtr> edges;
  DB2G_RETURN_NOT_OK(provider_->AdjacentEdges(sources, step.direction,
                                              edge_spec, &edges));
  // Group edges by the endpoint on the source side. Shared EdgePtrs go
  // straight into the buckets, so emission below needs no second
  // lookup-by-id map.
  const bool recheck = !provider_->SupportsPushdown();
  std::unordered_map<Value, std::vector<EdgePtr>, ValueHash> by_source;
  for (const EdgePtr& e : edges) {
    if (recheck && !MatchesSpec(*e, edge_spec)) continue;
    if (step.direction == Direction::kOut) {
      by_source[e->src_id].push_back(e);
    } else if (step.direction == Direction::kIn) {
      by_source[e->dst_id].push_back(e);
    } else {
      by_source[e->src_id].push_back(e);
      if (!(e->dst_id == e->src_id)) by_source[e->dst_id].push_back(e);
    }
  }

  if (!step.to_vertex) {
    // outE/inE/bothE: emit the edges per traverser.
    std::vector<Traverser> emitted;
    for (const Traverser& t : input) {
      auto it = by_source.find(t.vertex->id);
      if (it == by_source.end()) continue;
      for (const EdgePtr& e : it->second) {
        emitted.push_back(Derive(t, Traverser::OfEdge(e), e->id));
      }
    }
    // An aggregate folded into this step that was not pushed down to the
    // provider (unsupported, kBoth, duplicate anchors) collapses here.
    if (step.spec.agg != AggOp::kNone) {
      std::vector<Traverser> basis;
      if (!step.spec.agg_key.empty()) {
        for (const Traverser& t : emitted) {
          if (const Value* v = t.edge->FindProperty(step.spec.agg_key)) {
            basis.push_back(Traverser::OfValue(*v));
          }
        }
      } else {
        basis = std::move(emitted);
      }
      out->push_back(Traverser::OfValue(AggregateStream(basis, step.spec.agg)));
      return Status::OK();
    }
    for (Traverser& t : emitted) out->push_back(std::move(t));
    return Status::OK();
  }

  // out/in/both: resolve the far endpoint vertices, with the step's vertex
  // pushdown spec applied.
  LookupSpec vertex_spec = step.spec;
  std::vector<EdgePtr> edge_vec(edges.begin(), edges.end());
  Direction endpoint = step.direction == Direction::kOut
                           ? Direction::kIn
                           : step.direction == Direction::kIn
                                 ? Direction::kOut
                                 : Direction::kBoth;
  std::vector<VertexPtr> endpoints;
  DB2G_RETURN_NOT_OK(provider_->EdgeEndpoints(edge_vec, endpoint, vertex_spec,
                                              &endpoints));
  std::unordered_map<Value, VertexPtr, ValueHash> vertex_by_id;
  for (const VertexPtr& v : endpoints) vertex_by_id[v->id] = v;

  for (const Traverser& t : input) {
    auto it = by_source.find(t.vertex->id);
    if (it == by_source.end()) continue;
    for (const EdgePtr& e : it->second) {
      // The far endpoint relative to this traverser's vertex.
      const Value& far = step.direction == Direction::kOut
                             ? e->dst_id
                             : step.direction == Direction::kIn
                                   ? e->src_id
                                   : (e->src_id == t.vertex->id ? e->dst_id
                                                                : e->src_id);
      auto vit = vertex_by_id.find(far);
      if (vit == vertex_by_id.end()) continue;  // filtered or dangling
      if (recheck && !MatchesSpec(*vit->second, vertex_spec)) continue;
      out->push_back(Derive(t, Traverser::OfVertex(vit->second), far));
    }
  }
  return Status::OK();
}

Status Interpreter::ApplyMultiHopStep(const Step& step,
                                      std::vector<Traverser> input,
                                      ExecState* state,
                                      std::vector<Traverser>* out) {
  const bool counted = step.multi_hop && step.multi_hop->agg == AggOp::kCount;
  const bool id_sourced = step.IdSourced();
  MultiHopSources sources;
  if (id_sourced) {
    // The chain starts from its resolved, deduplicated ids, as the edge
    // fetch it replaces does. An id list that resolves empty leaves that
    // fetch unconstrained, which the chain does not express: the body
    // runs instead.
    Result<LookupSpec> resolved = BuildGraphSpec(step, *state);
    if (!resolved.ok()) return resolved.status();
    sources.ids = std::move(step.src_id_args.empty() ? resolved->dst_ids
                                                     : resolved->src_ids);
    if (sources.ids.empty()) {
      return Execute(step.body, std::move(input), state, out);
    }
  } else {
    std::unordered_set<Value, ValueHash> seen;
    for (const Traverser& t : input) {
      if (t.kind != Traverser::Kind::kVertex) {
        return Status::InvalidArgument(
            "Gremlin: multi-hop step applied to a non-vertex");
      }
      if (!seen.insert(t.vertex->id).second) continue;
      sources.ids.push_back(t.vertex->id);
      if (!t.vertex->source_table.empty()) {
        sources.tables.insert(t.vertex->source_table);
      }
    }
    if (sources.ids.empty()) {
      if (counted) out->push_back(Traverser::OfValue(Value(int64_t{0})));
      return Status::OK();
    }
  }

  if (step.multi_hop) {
    MultiHopResult result;
    Status st = provider_->MultiHopTraverse(sources, *step.multi_hop, &result);
    if (st.ok() && counted) {
      // The folded count() sees one traverser per walk from each input
      // traverser, duplicates included; an id-sourced chain counts each
      // of its distinct ids once.
      int64_t total = 0;
      if (id_sourced) {
        for (const auto& [source, walks] : result.counts) total += walks;
      } else {
        for (const Traverser& t : input) {
          auto it = result.counts.find(t.vertex->id);
          if (it != result.counts.end()) total += it->second;
        }
      }
      out->push_back(Traverser::OfValue(Value(total)));
      return st;
    }
    if (st.ok() && id_sourced) {
      // Walks arrive in the order the replaced steps emit them; each
      // path starts at the walk's first edge, as the edge fetch's does.
      for (MultiHopEmission& e : result.walks) {
        Traverser child = Traverser::OfVertex(std::move(e.vertex));
        child.path = std::move(e.path_ids);
        out->push_back(std::move(child));
      }
      return st;
    }
    if (st.ok()) {
      std::unordered_map<Value, std::vector<size_t>, ValueHash> by_source;
      for (size_t w = 0; w < result.walks.size(); ++w) {
        by_source[result.walks[w].source].push_back(w);
      }
      for (const Traverser& t : input) {
        auto it = by_source.find(t.vertex->id);
        if (it == by_source.end()) continue;
        for (size_t w : it->second) {
          const MultiHopEmission& e = result.walks[w];
          Traverser child = Traverser::OfVertex(e.vertex);
          child.path = t.path;
          child.path.insert(child.path.end(), e.path_ids.begin(),
                            e.path_ids.end());
          out->push_back(std::move(child));
        }
      }
      return st;
    }
    if (st.code() != StatusCode::kUnsupported) return st;
  }
  // The provider declined: run the preserved step-at-a-time plan over
  // this input, carved like any other plan. The collapsed steps are all
  // block-safe transforms with no cross-pass state, so the result matches
  // the collapsed walk exactly (a folded count() is the body's last step
  // and, as a barrier, sees the whole input; an id-sourced body starts at
  // its own edge fetch).
  return Execute(step.body, std::move(input), state, out);
}

Status Interpreter::ApplyEdgeVertexStep(const Step& step,
                                        std::vector<Traverser> input,
                                        std::vector<Traverser>* out) {
  std::vector<EdgePtr> edges;
  for (const Traverser& t : input) {
    if (t.kind != Traverser::Kind::kEdge) {
      return Status::InvalidArgument(
          "Gremlin: outV/inV applied to a non-edge");
    }
    edges.push_back(t.edge);
  }
  if (edges.empty()) return Status::OK();
  std::vector<VertexPtr> vertices;
  DB2G_RETURN_NOT_OK(
      provider_->EdgeEndpoints(edges, step.direction, step.spec, &vertices));
  std::unordered_map<Value, VertexPtr, ValueHash> by_id;
  for (const VertexPtr& v : vertices) by_id[v->id] = v;
  for (const Traverser& t : input) {
    auto emit = [&](const Value& id) {
      auto it = by_id.find(id);
      if (it == by_id.end()) return;
      if (!provider_->SupportsPushdown() &&
          !MatchesSpec(*it->second, step.spec)) {
        return;
      }
      out->push_back(Derive(t, Traverser::OfVertex(it->second), id));
    };
    if (step.direction == Direction::kOut ||
        step.direction == Direction::kBoth) {
      emit(t.edge->src_id);
    }
    if (step.direction == Direction::kIn ||
        step.direction == Direction::kBoth) {
      emit(t.edge->dst_id);
    }
  }
  return Status::OK();
}

Status Interpreter::ApplyStep(const Step& step, std::vector<Traverser> input,
                              ExecState* state,
                              std::vector<Traverser>* out) {
  switch (step.kind) {
    case StepKind::kGraph:
      return ApplyGraphAggregate(step, state, out);
    case StepKind::kVertex:
      return ApplyVertexStep(step, std::move(input), out);
    case StepKind::kEdgeVertex:
      return ApplyEdgeVertexStep(step, std::move(input), out);
    case StepKind::kMultiHop:
      return ApplyMultiHopStep(step, std::move(input), state, out);

    case StepKind::kHas: {
      std::vector<Value> ids;
      if (!step.id_args.empty()) {
        Result<std::vector<Value>> resolved = ResolveIds(step.id_args, *state);
        if (!resolved.ok()) return resolved.status();
        ids = std::move(*resolved);
      }
      // Resolve bind-placeholder predicates (has(key, gt(var))) from the
      // environment; scalar comparisons need exactly one bound value.
      std::vector<PropPredicate> resolved_preds;
      const std::vector<PropPredicate>* preds = &step.predicates;
      bool any_var = false;
      for (const PropPredicate& pred : step.predicates) {
        any_var |= !pred.var.empty();
      }
      if (any_var) {
        resolved_preds = step.predicates;
        for (PropPredicate& pred : resolved_preds) {
          if (pred.var.empty()) continue;
          auto it = state->env->find(pred.var);
          if (it == state->env->end()) {
            return Status::NotFound("Gremlin: unbound variable '" + pred.var +
                                    "'");
          }
          bool scalar = pred.op != PropPredicate::Op::kWithin &&
                        pred.op != PropPredicate::Op::kWithout;
          if (scalar && it->second.size() != 1) {
            return Status::InvalidArgument(
                "Gremlin: bind variable '" + pred.var + "' supplies " +
                std::to_string(it->second.size()) +
                " values; a scalar comparison needs exactly one");
          }
          pred.values = it->second;
        }
        preds = &resolved_preds;
      }
      for (Traverser& t : input) {
        const Element* e = t.element();
        if (e == nullptr) continue;  // has() on values drops nothing? drop:
        bool keep = true;
        if (!ids.empty() &&
            std::find(ids.begin(), ids.end(), e->id) == ids.end()) {
          keep = false;
        }
        for (const PropPredicate& pred : *preds) {
          if (!pred.Matches(*e)) {
            keep = false;
            break;
          }
        }
        if (keep) out->push_back(std::move(t));
      }
      return Status::OK();
    }

    case StepKind::kValues: {
      for (const Traverser& t : input) {
        const Element* e = t.element();
        if (e == nullptr) continue;
        if (step.keys.empty()) {
          for (const auto& [k, v] : e->properties) {
            (void)k;
            out->push_back(Derive(t, Traverser::OfValue(v), v));
          }
        } else {
          for (const std::string& key : step.keys) {
            if (const Value* v = e->FindProperty(key)) {
              out->push_back(Derive(t, Traverser::OfValue(*v), *v));
            }
          }
        }
      }
      return Status::OK();
    }

    case StepKind::kValueMap: {
      for (const Traverser& t : input) {
        const Element* e = t.element();
        if (e == nullptr) continue;
        std::string repr = "{";
        bool first = true;
        for (const auto& [k, v] : e->properties) {
          if (!step.keys.empty() &&
              std::find(step.keys.begin(), step.keys.end(), k) ==
                  step.keys.end()) {
            continue;
          }
          if (!first) repr += ", ";
          first = false;
          repr += k + ": " + v.ToString();
        }
        repr += "}";
        out->push_back(Traverser::OfValue(Value(std::move(repr))));
      }
      return Status::OK();
    }

    case StepKind::kId: {
      for (const Traverser& t : input) {
        if (const Element* e = t.element()) {
          out->push_back(Derive(t, Traverser::OfValue(e->id), e->id));
        }
      }
      return Status::OK();
    }

    case StepKind::kLabel: {
      for (const Traverser& t : input) {
        if (const Element* e = t.element()) {
          out->push_back(
              Derive(t, Traverser::OfValue(Value(e->label)), Value(e->label)));
        }
      }
      return Status::OK();
    }

    case StepKind::kAggregate:
      out->push_back(Traverser::OfValue(AggregateStream(input, step.agg)));
      return Status::OK();

    case StepKind::kDedup: {
      auto& seen = state->dedup_seen[&step];
      for (Traverser& t : input) {
        if (seen.insert(t.DedupKey()).second) {
          out->push_back(std::move(t));
        }
      }
      return Status::OK();
    }

    case StepKind::kLimit: {
      for (Traverser& t : input) {
        if (static_cast<int64_t>(out->size()) >= step.high) break;
        out->push_back(std::move(t));
      }
      return Status::OK();
    }

    case StepKind::kRange: {
      for (int64_t i = step.low;
           i < static_cast<int64_t>(input.size()) && i < step.high; ++i) {
        out->push_back(std::move(input[i]));
      }
      return Status::OK();
    }

    case StepKind::kOrder: {
      auto sort_key = [&](const Traverser& t) -> Value {
        if (!step.keys.empty()) {
          if (const Element* e = t.element()) {
            for (const std::string& key : step.keys) {
              if (const Value* v = e->FindProperty(key)) return *v;
            }
            return Value::Null();  // missing property sorts first
          }
        }
        return t.DedupKey();
      };
      auto less = [&](const Traverser& a, const Traverser& b) {
        int c = sort_key(a).Compare(sort_key(b));
        return step.descending ? c > 0 : c < 0;
      };
      size_t chunks = BarrierChunks(input.size());
      if (chunks < 2) {
        std::stable_sort(input.begin(), input.end(), less);
      } else {
        // Parallel barrier drain: stable-sort contiguous chunks on pool
        // workers, then stable-merge adjacent chunks left to right — the
        // result is elementwise identical to one global stable_sort.
        const size_t per = (input.size() + chunks - 1) / chunks;
        std::vector<size_t> bounds;
        for (size_t c = 0; c < chunks; ++c) {
          bounds.push_back(std::min(input.size(), c * per));
        }
        bounds.push_back(input.size());
        governor::QueryContext* qc = governor::CurrentQueryContext();
        ThreadPool::Shared().RunBatch(chunks, [&](size_t c) {
          governor::ScopedQueryContext governed(qc);
          std::stable_sort(input.begin() + bounds[c],
                           input.begin() + bounds[c + 1], less);
        });
        for (size_t c = 1; c < chunks; ++c) {
          std::inplace_merge(input.begin(), input.begin() + bounds[c],
                             input.begin() + bounds[c + 1], less);
        }
      }
      *out = std::move(input);
      return Status::OK();
    }

    case StepKind::kRepeat: {
      std::vector<Traverser> stream = std::move(input);
      for (int64_t i = 0; i < step.times; ++i) {
        std::vector<Traverser> next;
        DB2G_RETURN_NOT_OK(Execute(step.body, std::move(stream), state,
                                   &next));
        stream = std::move(next);
        if (step.emit) {
          for (const Traverser& t : stream) out->push_back(t);
        }
      }
      if (!step.emit) *out = std::move(stream);
      return Status::OK();
    }

    case StepKind::kWhere:
    case StepKind::kNot: {
      for (Traverser& t : input) {
        std::vector<Traverser> sub_out;
        std::vector<Traverser> seed;
        seed.push_back(t);
        DB2G_RETURN_NOT_OK(Execute(step.body, std::move(seed), state,
                                   &sub_out));
        bool matched = !sub_out.empty();
        // A sub-traversal ending in an aggregate (or a multi-hop step with
        // a folded count()) always yields one value; treat count()==0 as
        // no match.
        if (matched && sub_out.size() == 1 &&
            sub_out[0].kind == Traverser::Kind::kValue &&
            sub_out[0].value.is_int() && !step.body.empty() &&
            (step.body.back().kind == StepKind::kAggregate ||
             (step.body.back().multi_hop != nullptr &&
              step.body.back().multi_hop->agg != AggOp::kNone))) {
          matched = sub_out[0].value.as_int() != 0;
        }
        if (matched == (step.kind == StepKind::kWhere)) {
          out->push_back(std::move(t));
        }
      }
      return Status::OK();
    }

    case StepKind::kStore: {
      auto& store = state->stores[step.side_effect_key];
      for (Traverser& t : input) {
        if (const Element* e = t.element()) {
          store.push_back(e->id);
        } else if (t.kind == Traverser::Kind::kList) {
          for (const Value& v : t.list) store.push_back(v);
        } else {
          store.push_back(t.value);
        }
        out->push_back(std::move(t));
      }
      return Status::OK();
    }

    case StepKind::kCap: {
      auto it = state->stores.find(step.side_effect_key);
      std::vector<Value> values =
          it != state->stores.end() ? it->second : std::vector<Value>{};
      out->push_back(Traverser::OfList(std::move(values)));
      return Status::OK();
    }

    case StepKind::kUnion: {
      for (Traverser& t : input) {
        for (const auto& branch : step.branches) {
          std::vector<Traverser> branch_out;
          std::vector<Traverser> seed;
          seed.push_back(t);
          DB2G_RETURN_NOT_OK(Execute(branch, std::move(seed), state,
                                     &branch_out));
          for (Traverser& r : branch_out) out->push_back(std::move(r));
        }
      }
      return Status::OK();
    }

    case StepKind::kCoalesce: {
      for (Traverser& t : input) {
        for (const auto& branch : step.branches) {
          std::vector<Traverser> branch_out;
          std::vector<Traverser> seed;
          seed.push_back(t);
          DB2G_RETURN_NOT_OK(Execute(branch, std::move(seed), state,
                                     &branch_out));
          if (!branch_out.empty()) {
            for (Traverser& r : branch_out) out->push_back(std::move(r));
            break;
          }
        }
      }
      return Status::OK();
    }

    case StepKind::kIs: {
      for (Traverser& t : input) {
        if (t.kind != Traverser::Kind::kValue) continue;
        bool keep = true;
        for (const PropPredicate& pred : step.predicates) {
          if (!pred.Matches(t.value)) {
            keep = false;
            break;
          }
        }
        if (keep) out->push_back(std::move(t));
      }
      return Status::OK();
    }

    case StepKind::kPath: {
      for (Traverser& t : input) {
        Traverser p = Traverser::OfList(t.path);
        p.path = t.path;
        out->push_back(std::move(p));
      }
      return Status::OK();
    }

    case StepKind::kSimplePath: {
      for (Traverser& t : input) {
        std::unordered_set<Value, ValueHash> seen;
        bool simple = true;
        for (const Value& v : t.path) {
          if (!seen.insert(v).second) {
            simple = false;
            break;
          }
        }
        if (simple) out->push_back(std::move(t));
      }
      return Status::OK();
    }

    case StepKind::kTail: {
      int64_t n = step.high;
      size_t start = input.size() > static_cast<size_t>(n)
                         ? input.size() - static_cast<size_t>(n)
                         : 0;
      for (size_t i = start; i < input.size(); ++i) {
        out->push_back(std::move(input[i]));
      }
      return Status::OK();
    }

    case StepKind::kGroupCount: {
      // Barrier: multiplicity per value/element id, emitted as one list of
      // alternating [key, count, key, count, ...] sorted by key.
      std::map<Value, int64_t> counts;
      size_t chunks = BarrierChunks(input.size());
      if (chunks < 2) {
        for (const Traverser& t : input) {
          ++counts[t.DedupKey()];
        }
      } else {
        // Parallel barrier drain: per-worker partial maps over contiguous
        // chunks, merged in chunk order. Counts are additive and the
        // output map is key-sorted, so the result is identical to serial.
        std::vector<std::map<Value, int64_t>> partials(chunks);
        const size_t per = (input.size() + chunks - 1) / chunks;
        governor::QueryContext* qc = governor::CurrentQueryContext();
        ThreadPool::Shared().RunBatch(chunks, [&](size_t c) {
          governor::ScopedQueryContext governed(qc);
          size_t lo = c * per;
          size_t hi = std::min(input.size(), lo + per);
          std::map<Value, int64_t>& local = partials[c];
          for (size_t i = lo; i < hi; ++i) {
            ++local[input[i].DedupKey()];
          }
        });
        for (std::map<Value, int64_t>& partial : partials) {
          for (auto& [key, count] : partial) counts[key] += count;
        }
      }
      std::vector<Value> flattened;
      flattened.reserve(counts.size() * 2);
      for (const auto& [key, count] : counts) {
        flattened.push_back(key);
        flattened.push_back(Value(count));
      }
      out->push_back(Traverser::OfList(std::move(flattened)));
      return Status::OK();
    }
  }
  return Status::Internal("unknown step kind");
}

Result<std::vector<Row>> TraversersToRows(const std::vector<Traverser>& ts,
                                          size_t arity) {
  std::vector<Value> flat;
  for (const Traverser& t : ts) {
    if (const Element* e = t.element()) {
      flat.push_back(e->id);
    } else if (t.kind == Traverser::Kind::kList) {
      for (const Value& v : t.list) flat.push_back(v);
    } else {
      flat.push_back(t.value);
    }
  }
  if (arity == 0) {
    return Status::InvalidArgument("row arity must be positive");
  }
  if (flat.size() % arity != 0) {
    return Status::InvalidArgument(
        "graph query produced " + std::to_string(flat.size()) +
        " values, not a multiple of the declared column count " +
        std::to_string(arity));
  }
  std::vector<Row> rows;
  rows.reserve(flat.size() / arity);
  for (size_t i = 0; i < flat.size(); i += arity) {
    Row row(flat.begin() + i, flat.begin() + i + arity);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace db2graph::gremlin
