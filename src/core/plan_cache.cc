#include "core/plan_cache.h"

#include <functional>
#include <unordered_set>

namespace db2graph::core {

namespace {

using gremlin::GremlinArg;
using gremlin::PropPredicate;
using gremlin::Step;

// Walks one step tree, adding a kId slot for every unassigned variable in
// an id position and a kPredicate slot for every has(key, var) binding.
void CollectFromSteps(const std::vector<Step>& steps,
                      const std::unordered_set<std::string>& assigned,
                      std::unordered_set<std::string>* seen,
                      std::vector<CompiledPlan::BindSlot>* out) {
  auto add_id = [&](const std::vector<GremlinArg>& args) {
    for (const GremlinArg& arg : args) {
      if (!arg.is_var() || assigned.count(arg.var) > 0) continue;
      if (!seen->insert(arg.var + "\x01id").second) continue;
      CompiledPlan::BindSlot slot;
      slot.name = arg.var;
      slot.use = CompiledPlan::BindSlot::Use::kId;
      out->push_back(std::move(slot));
    }
  };
  for (const Step& step : steps) {
    add_id(step.start_ids);
    add_id(step.src_id_args);
    add_id(step.dst_id_args);
    add_id(step.id_args);
    for (const PropPredicate& pred : step.predicates) {
      if (pred.var.empty() || assigned.count(pred.var) > 0) continue;
      if (!seen->insert(pred.var + "\x01pred").second) continue;
      CompiledPlan::BindSlot slot;
      slot.name = pred.var;
      slot.use = CompiledPlan::BindSlot::Use::kPredicate;
      slot.op = pred.op;
      out->push_back(std::move(slot));
    }
    // Strategies may fold var predicates into GSA specs only when
    // resolved; unresolved ones stay on kHas steps — but sweep the spec
    // too so a future fold cannot silently drop a slot.
    for (const PropPredicate& pred : step.spec.predicates) {
      if (pred.var.empty() || assigned.count(pred.var) > 0) continue;
      if (!seen->insert(pred.var + "\x01pred").second) continue;
      CompiledPlan::BindSlot slot;
      slot.name = pred.var;
      slot.use = CompiledPlan::BindSlot::Use::kPredicate;
      slot.op = pred.op;
      out->push_back(std::move(slot));
    }
    CollectFromSteps(step.body, assigned, seen, out);
    for (const std::vector<Step>& branch : step.branches) {
      CollectFromSteps(branch, assigned, seen, out);
    }
  }
}

// Calls fn on every id-argument list of every step, sub-plans included.
template <typename Fn>
void ForEachIdArgs(std::vector<Step>* steps, const Fn& fn) {
  for (Step& step : *steps) {
    fn(&step.start_ids);
    fn(&step.src_id_args);
    fn(&step.dst_id_args);
    fn(&step.id_args);
    ForEachIdArgs(&step.body, fn);
    for (std::vector<Step>& branch : step.branches) {
      ForEachIdArgs(&branch, fn);
    }
  }
}

// True when a compile pass moved ids into a step's LookupSpec (only the
// hasId() and where(...hasId()) folds into adjacency steps do).
bool SpecsCarryIds(const std::vector<Step>& steps) {
  for (const Step& step : steps) {
    if (!step.spec.ids.empty() || !step.spec.src_ids.empty() ||
        !step.spec.dst_ids.empty() || SpecsCarryIds(step.body)) {
      return true;
    }
    for (const std::vector<Step>& branch : step.branches) {
      if (SpecsCarryIds(branch)) return true;
    }
  }
  return false;
}

}  // namespace

bool ParameterizeIdSlots(CompiledPlan* plan,
                         const std::vector<Value>& values) {
  std::vector<bool> survived(values.size(), false);
  bool consumed = false;
  for (gremlin::ScriptStatement& stmt : plan->script.statements) {
    ForEachIdArgs(&stmt.traversal.steps, [&](std::vector<GremlinArg>* args) {
      for (const GremlinArg& arg : *args) {
        if (arg.is_slot()) survived[arg.slot] = true;
      }
    });
    consumed |= SpecsCarryIds(stmt.traversal.steps);
  }
  for (bool s : survived) consumed |= !s;
  for (gremlin::ScriptStatement& stmt : plan->script.statements) {
    ForEachIdArgs(&stmt.traversal.steps, [&](std::vector<GremlinArg>* args) {
      for (GremlinArg& arg : *args) {
        if (!arg.is_slot()) continue;
        if (consumed) {
          arg.slot = -1;
        } else {
          arg.literal = Value();
        }
      }
    });
  }
  if (consumed) {
    // Rewrites were rendered with slot names while the tags were live.
    for (StrategyRewrite& r : plan->rewrites) {
      r.before = gremlin::BindSlotText(r.before, values);
      r.after = gremlin::BindSlotText(r.after, values);
    }
    return false;
  }
  plan->slot_count = values.size();
  return true;
}

std::vector<CompiledPlan::BindSlot> CollectBindSlots(
    const gremlin::Script& script) {
  std::vector<CompiledPlan::BindSlot> out;
  std::unordered_set<std::string> assigned;
  std::unordered_set<std::string> seen;
  for (const gremlin::ScriptStatement& stmt : script.statements) {
    CollectFromSteps(stmt.traversal.steps, assigned, &seen, &out);
    if (!stmt.assign_to.empty()) assigned.insert(stmt.assign_to);
  }
  return out;
}

PlanCache::PlanCache(size_t capacity, size_t shards) {
  if (shards == 0) shards = 1;
  if (capacity < shards) capacity = shards;
  shard_capacity_ = capacity / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  registry_hits_ = registry.GetCounter(kHitsCounter);
  registry_misses_ = registry.GetCounter(kMissesCounter);
  registry_invalidations_ = registry.GetCounter(kInvalidationsCounter);
  registry_evictions_ = registry.GetCounter(kEvictionsCounter);
}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) {
  size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

std::shared_ptr<const CompiledPlan> PlanCache::Lookup(
    const std::string& key, uint64_t current_ddl_version) {
  std::shared_ptr<const CompiledPlan> plan = Find(key, current_ddl_version);
  CountLookup(plan != nullptr);
  return plan;
}

std::shared_ptr<const CompiledPlan> PlanCache::Find(
    const std::string& key, uint64_t current_ddl_version) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  if (it->second->second->ddl_version != current_ddl_version) {
    // Compiled under a different catalog: the overlay mapping (and thus
    // the plan's implied SQL) may no longer hold. Drop and recompile.
    shard.lru.erase(it->second);
    shard.map.erase(it);
    invalidations_.fetch_add(1);
    registry_invalidations_->fetch_add(1);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void PlanCache::CountLookup(bool hit) {
  if (hit) {
    hits_.fetch_add(1);
    registry_hits_->fetch_add(1);
  } else {
    misses_.fetch_add(1);
    registry_misses_->fetch_add(1);
  }
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const CompiledPlan> plan) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->second = std::move(plan);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard_capacity_ && !shard.lru.empty()) {
    shard.map.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1);
    registry_evictions_->fetch_add(1);
  }
  shard.lru.emplace_front(key, std::move(plan));
  shard.map.emplace(key, shard.lru.begin());
}

void PlanCache::Clear() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->map.clear();
  }
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->lru.size();
  }
  return n;
}

PlanCache::Counts PlanCache::Snapshot() const {
  Counts c;
  c.hits = hits_.load();
  c.misses = misses_.load();
  c.invalidations = invalidations_.load();
  c.evictions = evictions_.load();
  return c;
}

}  // namespace db2graph::core
