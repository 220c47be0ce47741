//===- dist/Coordinator.h - Distributed cube scheduling ---------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator half of the distributed verification layer — an
/// engine::CubeBackend whose solver slots live in other processes (or on
/// other machines). Problems are preprocessed and encoded locally, their
/// cube trees sized by the slot-targeting split heuristic over the fleet's
/// TOTAL slot count, and the leaves' batches queued at the coordinator.
/// A batch is granted only to a worker that holds none, so unstarted
/// work lives in one place and a fast worker simply asks more often:
///
///   * outside proof mode, the short learnt lemmas each worker streams
///     are relayed (not stored) to every other worker that knows the
///     problem, so remote slots share lemmas like in-process slots do;
///   * the first SAT cube cancels the whole problem fleet-wide (in-flight
///     solves abort mid-search through the cancel flag);
///   * batches assigned to a dropped or timed-out worker are requeued and
///     re-granted, so a killed worker costs duplicated work, never a
///     wrong or missing verdict.
///
/// A handle-based incremental API (openProblem/solveCubes/closeProblem)
/// ships a problem once and then solves many cube sets against the same
/// remote slot solvers — the distributed form of the distance search's
/// encode-once/assume-many loop.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_DIST_COORDINATOR_H
#define VERIQEC_DIST_COORDINATOR_H

#include "dist/Codec.h"
#include "dist/Transport.h"
#include "dist/Worker.h"
#include "engine/CubeEngine.h"

#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

namespace veriqec::dist {

struct CoordinatorOptions {
  /// Shard granularity: target this many batches per fleet slot, so a
  /// worker that finishes early is granted more of the queue than a slow
  /// one.
  size_t BatchesPerSlot = 4;
  /// Event-loop poll granularity.
  int PollMs = 2;
  /// A worker silent for this long while holding outstanding batches is
  /// declared dead: it receives an Evicted frame (so it stops grinding
  /// work whose results the epoch check would discard anyway), its link
  /// is closed, and its batches are requeued. 0 disables the timer (link
  /// closure still triggers requeue — the common crash signal on TCP).
  /// This is a SILENCE timer, but heartbeats count as activity: a worker
  /// started with WorkerOptions::HeartbeatMs well below this bound can
  /// grind one batch indefinitely without being declared dead, so the
  /// timeout only needs to clear the heartbeat interval, not the
  /// worst-case single-batch solve time.
  int WorkerTimeoutMs = 0;
};

/// Observability counters (tested by the kill-a-worker and eviction
/// paths).
struct CoordinatorStats {
  uint64_t WorkersDropped = 0;
  uint64_t BatchesRequeued = 0;
  uint64_t HeartbeatsReceived = 0;
  /// Lemmas forwarded, counted once per receiving worker.
  uint64_t LemmasRelayed = 0;
  /// Always 0: work stealing and the cross-node core broadcast are gone.
  /// The fields stay only until qecbench/qecbench.cpp stops reading them.
  uint64_t BatchesStolen = 0;
  uint64_t CoreBroadcasts = 0;

  /// The counters above but the last two, named by their metric names.
  struct Field {
    const char *Name;
    uint64_t CoordinatorStats::*Member;
  };
  static constexpr Field Fields[] = {
      {"dist.workers_dropped", &CoordinatorStats::WorkersDropped},
      {"dist.batches_requeued", &CoordinatorStats::BatchesRequeued},
      {"dist.heartbeats", &CoordinatorStats::HeartbeatsReceived},
      {"dist.lemmas_relayed", &CoordinatorStats::LemmasRelayed},
  };
};
// The two trailing always-0 counters pad to two more uint64_t.
static_assert(sizeof(CoordinatorStats) ==
                  (std::size(CoordinatorStats::Fields) + 2) * sizeof(uint64_t),
              "every CoordinatorStats counter needs a Fields entry");

class Coordinator : public engine::CubeBackend {
public:
  explicit Coordinator(CoordinatorOptions Opts = {});
  ~Coordinator() override;

  /// Hands a fresh (pre-handshake) link to the coordinator; the
  /// handshake completes inside waitForWorkers()/solve pumps.
  void addWorker(std::unique_ptr<Link> L);

  /// Accepts late-joining workers during runs.
  void attachListener(std::unique_ptr<Listener> L);

  /// Pumps accepts + handshakes until \p N workers are ready (or the
  /// deadline passes). True when the fleet reached N.
  bool waitForWorkers(size_t N, int TimeoutMs);

  size_t numWorkers() const;
  /// Total remote solver slots (drives the cube-split heuristic).
  size_t numSlots() const override;

  // engine::CubeBackend: the whole scenario pipeline runs on this.
  std::vector<smt::SolveOutcome>
  solveAll(std::span<const engine::CubeProblem> Problems) override;

  /// engine::CubeBackend's handle API. The problem ships lazily to each
  /// worker that receives one of its batches, exactly once; worker-side
  /// slot solvers persist until closeProblem(), which frees them and
  /// assembles the certificate from the streams their batches returned.
  uint32_t openProblem(std::shared_ptr<const smt::VerificationProblem> P,
                       const engine::CubeRunConfig &Config) override;
  smt::SolveOutcome solveCubes(uint32_t Handle, engine::CubeTree Tree) override;
  std::string closeProblem(uint32_t Handle) override;

  /// Sends Shutdown to every live worker (they exit their loops).
  void shutdownWorkers();

  const CoordinatorStats &stats() const { return Stats; }

private:
  struct WorkerState;
  struct ActiveProblem;
  using BatchKey = std::pair<uint32_t, uint32_t>; // (problem, batch)

  void pumpAccept();
  void pumpHandshakes();
  /// Drains every worker link; true when at least one message arrived.
  bool pumpLinks();
  void handleResult(WorkerState &W, BatchResultMsg &&R);
  /// Forwards \p Frame (which decoded to \p M) to the other workers that
  /// know its problem; drops it for unknown, finished or proof-logging
  /// problems and when a literal is out of the problem's range.
  void relayLemmas(WorkerState &From, const LemmasMsg &M,
                   std::span<const uint8_t> Frame);
  /// True while \p Key is a batch of a live problem's current cube set
  /// that has no result yet.
  bool stillOpen(const BatchKey &Key) const;
  /// Grants queued batches, one to each idle worker.
  void grantWork();
  void dropDeadWorkers();
  void requeueOutstanding(WorkerState &W);
  void cancelRemaining(ActiveProblem &AP, uint32_t ProblemId);
  void finishProblem(ActiveProblem &AP);
  /// Starts one cube set: fresh verdict state, \p Tree's leaves in
  /// batches with a FRESH wire-id epoch, queued (shared by solveAll and
  /// solveCubes so the epoch bookkeeping that rejects stragglers cannot
  /// diverge).
  void shardCubes(uint32_t ProblemId, ActiveProblem &AP,
                  engine::CubeTree &&Tree);
  /// Runs the event loop until every listed problem finished. Problems
  /// that cannot make progress (fleet died) finish as Aborted.
  void runUntilDone(const std::vector<uint32_t> &ProblemIds);
  /// The first ready, live worker (in registration order) that holds no
  /// batch; nullptr when every worker is busy.
  WorkerState *pickGrantee();
  bool sendBatch(WorkerState &W, uint32_t ProblemId, uint32_t BatchId);

  CoordinatorOptions Opts;
  CoordinatorStats Stats;
  std::vector<std::unique_ptr<Listener>> Listeners;
  std::vector<std::unique_ptr<Link>> PendingLinks;
  std::vector<std::unique_ptr<WorkerState>> Workers;
  std::unordered_map<uint32_t, std::unique_ptr<ActiveProblem>> Problems;
  /// Every batch not yet granted; the only place unstarted work waits.
  std::deque<BatchKey> Queue;
  uint32_t NextProblemId = 1;
  uint64_t NextWorkerSerial = 1;
  /// Fleet-wide cube/conflict totals reported via heartbeats (batch
  /// results fold their own deltas into the problem outcomes; these feed
  /// only the live --progress line, which wants mid-batch movement).
  uint64_t HbCubes = 0, HbConflicts = 0;
};

/// Spawns one in-process loopback worker per entry of \p PerWorker and
/// registers it with \p C (the fleet-lifecycle boilerplate shared by
/// `--dist loopback:N`, the differential harness, the benches and the
/// tests). Join the returned threads AFTER Coordinator::shutdownWorkers()
/// — shutdown is what makes the worker loops exit.
std::vector<std::thread> spawnLoopbackWorkers(Coordinator &C,
                                              std::vector<WorkerOptions>
                                                  PerWorker);

/// Convenience: \p N identical workers.
inline std::vector<std::thread>
spawnLoopbackWorkers(Coordinator &C, size_t N, WorkerOptions Opts = {}) {
  return spawnLoopbackWorkers(C, std::vector<WorkerOptions>(N, Opts));
}

} // namespace veriqec::dist

#endif // VERIQEC_DIST_COORDINATOR_H
