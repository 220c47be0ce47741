//===- engine/ThreadPool.cpp - Shared-queue thread pool -------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "engine/ThreadPool.h"

#include <algorithm>

using namespace veriqec::engine;

namespace {
thread_local int CurrentWorker = -1;
} // namespace

ThreadPool::ThreadPool(size_t NumThreads) {
  if (NumThreads == 0)
    NumThreads = std::max(1u, std::thread::hardware_concurrency());
  for (size_t I = 0; I != NumThreads; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  Cv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

int ThreadPool::currentWorkerIndex() { return CurrentWorker; }

void ThreadPool::submit(Task T) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(T));
  }
  Cv.notify_one();
}

void ThreadPool::workerLoop(size_t Index) {
  CurrentWorker = static_cast<int>(Index);
  for (;;) {
    Task T;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Cv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // stopping, and every queued task has run
      T = std::move(Queue.front());
      Queue.pop_front();
    }
    T();
  }
}
