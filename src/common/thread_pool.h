#ifndef GTADOC_COMMON_THREAD_POOL_H_
#define GTADOC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gtadoc {

/// \brief Fixed-size worker pool used by the virtual GPU and the
/// coarse-grained parallel TADOC baseline.
///
/// Tasks are plain std::function<void()>; ParallelFor partitions an index
/// range into contiguous chunks, one per worker, and blocks until all chunks
/// finish (a kernel-launch barrier in the virtual GPU).
class ThreadPool {
 public:
  /// `num_threads` == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues one task; returns immediately.
  void Submit(std::function<void()> fn);

  /// Blocks until every submitted task has completed.
  void Wait();

  /// Runs fn(begin..end) split into per-worker chunks; blocks until done.
  /// fn receives (chunk_begin, chunk_end). A range that makes one chunk (one
  /// worker, or one index) runs on the calling thread.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace gtadoc

#endif  // GTADOC_COMMON_THREAD_POOL_H_
