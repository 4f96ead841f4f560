// ThreadPool: a fixed-size worker pool with a FIFO work queue, backing
// the DB's background jobs and Env::Schedule. The destructor completes
// all queued work before joining, so callers that wait for their own
// completion signals (the DB's background-work flag) never lose a
// scheduled closure.
#ifndef LILSM_UTIL_THREAD_POOL_H_
#define LILSM_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lilsm {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads = 1);
  /// Drains the queue (every submitted closure runs), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `work` for execution on some pool thread. Closures run in
  /// FIFO order but concurrently across threads; callers needing mutual
  /// exclusion provide their own (the DB claims disjoint work units
  /// under its mutex before each closure runs).
  void Submit(std::function<void()> work) EXCLUDES(mu_);

  /// Blocks until the queue is empty and no closure is running.
  void WaitIdle() EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(threads_.size()); }
  /// Queued-but-not-started closures (diagnostic; racy by nature).
  size_t QueueDepth() EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_cv_{&mu_};  // signals workers: work or stop
  CondVar idle_cv_{&mu_};  // signals WaitIdle: pool went idle
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  int active_ GUARDED_BY(mu_) = 0;   // closures mid-run
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // immutable after construction
};

}  // namespace lilsm

#endif  // LILSM_UTIL_THREAD_POOL_H_
