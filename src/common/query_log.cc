#include "common/query_log.h"

#include <cstdlib>

namespace db2graph {

QueryLog::QueryLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  if (const char* env = std::getenv("DB2G_SLOW_QUERY_MS")) {
    threshold_ms_.store(std::atoll(env), std::memory_order_relaxed);
  }
}

QueryLog& QueryLog::Global() {
  static QueryLog* instance = new QueryLog();
  return *instance;
}

size_t QueryLog::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void QueryLog::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (entries_.size() > capacity_) entries_.pop_front();
}

void QueryLog::Record(Entry entry) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  entry.id = next_id_++;
  while (entries_.size() >= capacity_) entries_.pop_front();
  entries_.push_back(std::move(entry));
}

std::vector<QueryLog::Entry> QueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {entries_.begin(), entries_.end()};
}

void QueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

}  // namespace db2graph
