//===- dist/Worker.h - Remote cube-discharge worker -------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker half of the distributed verification layer: connects to a
/// coordinator, receives encoded VerificationProblems and cube batches,
/// and discharges them on a local thread pool through the exact
/// engine::CubeRun machinery the in-process scheduler uses — per-slot
/// reusable solvers, one solver call per cube, budget hardening and
/// native XOR all behave identically to a local run. Outside proof mode
/// the slots also trade short learnt lemmas with the other workers' slots
/// (shipped every poll, relayed by the coordinator). The protocol loop
/// stays responsive while a batch is in flight, so cancellations (a
/// sibling worker found SAT) abort in-flight solves mid-search.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_DIST_WORKER_H
#define VERIQEC_DIST_WORKER_H

#include "dist/Transport.h"

#include <cstdint>
#include <memory>

namespace veriqec::dist {

struct WorkerOptions {
  /// Local solver slots (threads).
  size_t Jobs = 1;
  /// Test hook: after this many batch results, drop the link abruptly
  /// and exit when the next batch arrives — simulates a worker that
  /// crashes holding a batch, for the coordinator's requeue path. 0 = run
  /// until shutdown.
  uint64_t MaxBatches = 0;
  /// Protocol poll granularity while computing.
  int PollMs = 2;
  /// Send a HeartbeatMsg (batches in flight, cube/conflict deltas) this
  /// often while work is queued or running, so the coordinator can tell
  /// a grinding worker from a dead one. 0 = no heartbeats (the
  /// coordinator then falls back to its silence timeout alone).
  int HeartbeatMs = 0;
  /// Test hook: hold the first batch's result for this long after its
  /// cubes finish — simulates a batch that grinds far past the
  /// coordinator's WorkerTimeoutMs. Heartbeats (if enabled) keep
  /// flowing, which is exactly what the grinding-vs-dead tests probe.
  /// 0 = report results immediately.
  int GrindFirstBatchMs = 0;
};

/// Runs the worker protocol on \p L until the coordinator sends Shutdown
/// or the link dies. Returns 0 on clean shutdown, 1 on handshake or link
/// failure, 2 when the MaxBatches crash hook fired, 3 when the
/// coordinator evicted this worker (its batches were requeued elsewhere;
/// continuing to grind them would be wasted work).
int runWorker(std::unique_ptr<Link> L, const WorkerOptions &Opts = {});

} // namespace veriqec::dist

#endif // VERIQEC_DIST_WORKER_H
