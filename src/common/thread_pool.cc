#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace db2graph {

ThreadPool::ThreadPool(int workers) {
  int n = std::max(1, workers);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    int workers = static_cast<int>(std::thread::hardware_concurrency());
    if (const char* env = std::getenv("DB2G_POOL_WORKERS")) {
      workers = std::atoi(env);
    }
    // At least 2 so morsel and barrier-drain parallelism is exercised (and
    // testable) even on single-core hosts; capped to keep oversubscription
    // bounded.
    workers = std::clamp(workers, 2, 32);
    return new ThreadPool(workers);
  }();
  return *pool;
}

void ThreadPool::DrainBatch(const std::shared_ptr<Batch>& batch) {
  for (;;) {
    size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->total) return;
    (*batch->fn)(i);
    if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch->total) {
      // Lock pairs with the waiter's predicate check, so the final
      // notification cannot slip between its check and its wait.
      std::lock_guard<std::mutex> lock(batch->mutex);
      batch->cv.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      batch = std::move(queue_.front());
      queue_.pop_front();
    }
    DrainBatch(batch);
  }
}

void ThreadPool::RunBatch(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->total = n;
  // One queue entry per helper we could use; workers that pop an already
  // drained batch return to the queue immediately.
  size_t helpers = std::min(n - 1, workers_.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < helpers; ++i) queue_.push_back(batch);
  }
  if (helpers == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
  DrainBatch(batch);
  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->cv.wait(lock, [&] {
    return batch->done.load(std::memory_order_acquire) == batch->total;
  });
}

}  // namespace db2graph
