//===- engine/ThreadPool.h - Work-stealing thread pool ----------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared worker pool of the verification engine. Each worker owns a
/// WorkStealingQueue; submission round-robins tasks across the queues and
/// an idle worker steals from its siblings before sleeping. Completion is
/// tracked externally with WaitGroup so one pool can multiplex many
/// concurrent solve batches (the batch verifyAll path).
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_ENGINE_THREADPOOL_H
#define VERIQEC_ENGINE_THREADPOOL_H

#include "engine/WorkStealingQueue.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
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
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  size_t numWorkers() const { return Queues.size(); }

  /// Enqueues a task on the next queue in round-robin order.
  void submit(Task T);

  /// Enqueues a task on a specific worker's queue (used to keep the cubes
  /// of one problem clustered on few workers when many problems share the
  /// pool).
  void submitTo(size_t Worker, Task T);

  /// Index of the pool worker running the current thread, or -1 when
  /// called from outside the pool. Lets tasks address per-worker state
  /// (e.g. the reusable SAT solver slots) without locks.
  static int currentWorkerIndex();

private:
  void workerLoop(size_t Index);
  bool tryGetTask(size_t Index, Task &Out);

  std::vector<std::unique_ptr<WorkStealingQueue<Task>>> Queues;
  std::vector<std::thread> Threads;
  std::atomic<size_t> RoundRobin{0};
  std::atomic<size_t> Pending{0};
  std::atomic<bool> Stopping{false};
  std::mutex IdleMutex;
  std::condition_variable IdleCv;
};

} // namespace veriqec::engine

#endif // VERIQEC_ENGINE_THREADPOOL_H
