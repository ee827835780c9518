#include "common/thread_pool.h"

#include <algorithm>

namespace gtadoc {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(fn));
    ++in_flight_;
  }
  cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t chunks = std::min(n, threads_.size());
  if (chunks == 1) {
    // One chunk runs on the caller: waking a worker only to block on it
    // costs two context switches and buys no parallelism.
    fn(begin, end);
    return;
  }
  const size_t per_chunk = (n + chunks - 1) / chunks;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t lo = begin + c * per_chunk;
    const size_t hi = std::min(end, lo + per_chunk);
    if (lo >= hi) break;
    Submit([&fn, lo, hi] { fn(lo, hi); });
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace gtadoc
