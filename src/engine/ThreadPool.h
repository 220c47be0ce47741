//===- engine/ThreadPool.h - Shared-queue thread pool -----------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared worker pool of the verification engine: a fixed set of
/// threads over one FIFO task queue. submit() appends a task and the next
/// idle thread takes it from the front, so a one-thread pool runs tasks
/// in submission order. Tasks are coarse (a contiguous range of cubes,
/// see cubeRanges() in CubeRun.h), so one mutex-guarded queue is enough.
/// Completion is tracked externally with WaitGroup so one pool can
/// multiplex many concurrent solve batches (the batch verifyAll path).
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_ENGINE_THREADPOOL_H
#define VERIQEC_ENGINE_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace veriqec::engine {

/// Counts outstanding tasks of one logical batch; wait() blocks the
/// submitting thread until every task called done(). The count changes
/// only under the mutex, so the group may die as soon as wait() returns.
class WaitGroup {
public:
  void add(size_t N) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Count += N;
  }

  void done() {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (--Count == 0)
      Cv.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [this] { return Count == 0; });
  }

private:
  size_t Count = 0;
  std::mutex Mutex;
  std::condition_variable Cv;
};

class ThreadPool {
public:
  using Task = std::function<void()>;

  /// \p NumThreads = 0 picks the hardware concurrency.
  explicit ThreadPool(size_t NumThreads = 0);
  /// Runs every task still queued, then joins the threads.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  size_t numWorkers() const { return Threads.size(); }

  /// Appends a task to the queue; the next idle thread runs it.
  void submit(Task T);

  /// Index of the pool worker running the current thread, or -1 when
  /// called from outside the pool. Lets tasks address per-worker state
  /// (e.g. the reusable SAT solver slots) without locks.
  static int currentWorkerIndex();

private:
  void workerLoop(size_t Index);

  std::mutex Mutex; // guards Queue and Stopping
  std::condition_variable Cv;
  std::deque<Task> Queue;
  bool Stopping = false;
  std::vector<std::thread> Threads;
};

} // namespace veriqec::engine

#endif // VERIQEC_ENGINE_THREADPOOL_H
