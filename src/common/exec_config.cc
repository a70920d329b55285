// Copyright (c) 2026 The db2graph-repro Authors.

#include "common/exec_config.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>

namespace db2graph {

namespace {

// The process-default layer. Guarded by a mutex rather than atomics: it
// is read once per query (resolution happens at admission, not per
// block), and written only by configuration calls.
std::mutex g_default_mutex;
ExecConfig* g_process_default = nullptr;
std::atomic<uint64_t> g_generation{0};

ExecConfig SeedFromEnvironment() {
  ExecConfig config;
  if (const char* env = std::getenv("DB2G_PARALLELISM")) {
    config = config.parallelism(std::atoi(env));
  }
  auto env_bool = [](const char* name, bool* out) {
    const char* env = std::getenv(name);
    if (env == nullptr) return false;
    std::string v = env;
    *out = !(v == "0" || v == "false" || v == "off");
    return true;
  };
  bool flag = false;
  if (env_bool("DB2G_VECTORIZED", &flag)) config = config.vectorized(flag);
  // Governor limits; unset or empty leaves the field unset (0).
  auto env_int = [](const char* name) -> int64_t {
    const char* env = std::getenv(name);
    return env == nullptr ? 0 : std::strtoll(env, nullptr, 10);
  };
  return config.timeout_ms(env_int("DB2G_QUERY_TIMEOUT_MS"))
      .max_result_rows(env_int("DB2G_MAX_RESULT_ROWS"))
      .max_memory_bytes(env_int("DB2G_MAX_MEMORY_BYTES"));
}

ExecConfig& ProcessDefaultLocked() {
  if (g_process_default == nullptr) {
    g_process_default = new ExecConfig(SeedFromEnvironment());
  }
  return *g_process_default;
}

// The thread's installed per-query config; nullptr outside any scope.
thread_local const ExecConfig* tls_current = nullptr;

}  // namespace

ExecConfig ExecConfig::OverlaidBy(const ExecConfig& overrides) const {
  ExecConfig out = *this;
  if (overrides.has_parallelism_) {
    out.parallelism_ = overrides.parallelism_;
    out.has_parallelism_ = true;
  }
  if (overrides.has_vectorized_) {
    out.vectorized_ = overrides.vectorized_;
    out.has_vectorized_ = true;
  }
  if (overrides.has_profile_) {
    out.profile_ = overrides.profile_;
    out.has_profile_ = true;
  }
  if (overrides.has_block_rows_) {
    out.block_rows_ = overrides.block_rows_;
    out.has_block_rows_ = true;
  }
  if (overrides.timeout_ms_ != 0) out.timeout_ms_ = overrides.timeout_ms_;
  if (overrides.max_result_rows_ != 0) {
    out.max_result_rows_ = overrides.max_result_rows_;
  }
  if (overrides.max_memory_bytes_ != 0) {
    out.max_memory_bytes_ = overrides.max_memory_bytes_;
  }
  return out;
}

ExecConfig ExecConfig::ProcessDefault() {
  std::lock_guard<std::mutex> lock(g_default_mutex);
  return ProcessDefaultLocked();
}

void ExecConfig::SetProcessDefault(const ExecConfig& config) {
  {
    std::lock_guard<std::mutex> lock(g_default_mutex);
    ProcessDefaultLocked() = config;
  }
  BumpGeneration();
}

// The bump follows the write it announces: a reader that loads the new
// generation then takes the writer's lock and sees the write.
uint64_t ExecConfig::Generation() {
  return g_generation.load(std::memory_order_acquire);
}

void ExecConfig::BumpGeneration() {
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

ExecConfig ExecConfig::Current() {
  return tls_current != nullptr ? *tls_current : ExecConfig();
}

ScopedExecConfig::ScopedExecConfig(const ExecConfig& config)
    : previous_(tls_current), config_(config) {
  tls_current = &config_;
}

ScopedExecConfig::~ScopedExecConfig() { tls_current = previous_; }

}  // namespace db2graph
