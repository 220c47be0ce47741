//===- dist/Coordinator.cpp - Distributed cube scheduling ------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"

#include "obs/Progress.h"
#include "proof/ProofLog.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <thread>

using namespace veriqec;
using namespace veriqec::dist;
using sat::Lit;
using Clock = std::chrono::steady_clock;

struct Coordinator::WorkerState {
  std::unique_ptr<Link> L;
  /// Stable identity for proof-stream bookkeeping: WorkerState objects
  /// are destroyed when a worker drops, but its shipped proof chunks
  /// must survive under the same key.
  uint64_t Serial = 0;
  uint32_t Slots = 0;
  bool Ready = false; ///< handshake complete
  bool Dead = false;
  /// The batch granted and not yet resulted; a worker holds at most one.
  std::optional<BatchKey> Outstanding;
  std::set<uint32_t> KnowsProblem;
  Clock::time_point LastActivity = Clock::now();
};

struct Coordinator::ActiveProblem {
  std::shared_ptr<const smt::VerificationProblem> Problem;
  engine::CubeRunConfig Config;
  /// The current cube set: its tree, and the leaves, which stay here so
  /// a requeued batch can be re-granted without asking anyone.
  /// Batch B is the leaves [B * Chunk, (B + 1) * Chunk). Wire batch ids
  /// are monotone per problem and never reused: the current cube set
  /// occupies [FirstBatchId, FirstBatchId + BatchDone.size()), so a
  /// straggler result from a persistent problem's PREVIOUS solveCubes
  /// epoch can never be attributed to the current one.
  engine::CubeTree Tree;
  std::vector<std::vector<Lit>> Cubes;
  size_t Chunk = 1;
  std::vector<uint8_t> BatchDone;
  uint32_t FirstBatchId = 0;
  uint32_t NextBatchId = 0;
  size_t DoneCount = 0;

  /// Index of a wire batch id in the CURRENT cube set; SIZE_MAX for
  /// stale or out-of-range ids.
  size_t indexOf(uint32_t BatchId) const {
    if (BatchId < FirstBatchId ||
        static_cast<size_t>(BatchId - FirstBatchId) >= BatchDone.size())
      return SIZE_MAX;
    return BatchId - FirstBatchId;
  }
  /// The cube set's verdict: the maximum over its concluded batches.
  engine::VerdictCell Verdict;
  bool Finished = false;
  /// Open-handle problems persist worker-side between solveCubes calls.
  bool Persistent = false;
  smt::SolveOutcome Outcome;
  /// With Config.LogProofs: proof text per (worker serial, slot),
  /// concatenated in arrival order. A persistent problem accumulates
  /// across solveCubes epochs — remote slot solvers persist, so later
  /// derivations resolve against clauses learnt in earlier epochs and
  /// the streams are only checkable whole.
  std::map<std::pair<uint64_t, uint32_t>, proof::ProofText> ProofStreams;
  /// The last UNSAT cube set, which the certificate stands for.
  std::optional<engine::CubeTree> Proven;
  Timer ProblemClock;

  /// The certificate of the last UNSAT cube set, with every stream
  /// released into it; empty when there is none.
  std::string certificate() {
    if (!Proven)
      return {};
    std::vector<proof::ProofText> Streams;
    for (auto &[Key, Text] : ProofStreams)
      Streams.push_back(std::move(Text));
    std::string Cert =
        engine::assembleCertificate(*Problem, Streams, *Proven);
    Proven.reset();
    return Cert;
  }
};

Coordinator::Coordinator(CoordinatorOptions Opts) : Opts(Opts) {}

Coordinator::~Coordinator() { shutdownWorkers(); }

void Coordinator::addWorker(std::unique_ptr<Link> L) {
  PendingLinks.push_back(std::move(L));
}

void Coordinator::attachListener(std::unique_ptr<Listener> L) {
  Listeners.push_back(std::move(L));
}

size_t Coordinator::numWorkers() const {
  size_t N = 0;
  for (const std::unique_ptr<WorkerState> &W : Workers)
    N += W->Ready && !W->Dead;
  return N;
}

size_t Coordinator::numSlots() const {
  size_t N = 0;
  for (const std::unique_ptr<WorkerState> &W : Workers)
    if (W->Ready && !W->Dead)
      N += W->Slots;
  return std::max<size_t>(N, 1);
}

void Coordinator::pumpAccept() {
  for (std::unique_ptr<Listener> &L : Listeners)
    while (std::unique_ptr<Link> New = L->accept(0))
      PendingLinks.push_back(std::move(New));
}

void Coordinator::pumpHandshakes() {
  for (size_t I = 0; I < PendingLinks.size();) {
    std::unique_ptr<Link> &L = PendingLinks[I];
    if (L->closed()) {
      PendingLinks.erase(PendingLinks.begin() + I);
      continue;
    }
    std::vector<uint8_t> Frame;
    if (!L->receive(Frame, 0)) {
      ++I;
      continue;
    }
    Message M;
    HelloMsg const *Hello = nullptr;
    if (decodeMessage(Frame, M))
      Hello = std::get_if<HelloMsg>(&M);
    HelloAckMsg Ack;
    if (!Hello || Hello->Magic != WireMagic) {
      Ack.Accepted = false;
      Ack.Reason = "not a veriqec worker hello";
    } else if (Hello->Version != WireVersion) {
      Ack.Accepted = false;
      Ack.Reason = "wire version mismatch (coordinator " +
                   std::to_string(WireVersion) + ", worker " +
                   std::to_string(Hello->Version) + ")";
    } else if (Hello->Slots == 0) {
      Ack.Accepted = false;
      Ack.Reason = "worker offered zero slots";
    } else {
      Ack.Accepted = true;
    }
    L->send(encodeMessage(Ack));
    if (Ack.Accepted) {
      auto W = std::make_unique<WorkerState>();
      W->L = std::move(L);
      W->Serial = NextWorkerSerial++;
      W->Slots = Hello->Slots;
      W->Ready = true;
      W->LastActivity = Clock::now();
      Workers.push_back(std::move(W));
    } else {
      L->close();
    }
    PendingLinks.erase(PendingLinks.begin() + I);
  }
}

bool Coordinator::waitForWorkers(size_t N, int TimeoutMs) {
  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (numWorkers() < N) {
    pumpAccept();
    pumpHandshakes();
    if (numWorkers() >= N)
      break;
    if (Clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(Opts.PollMs));
  }
  return true;
}

bool Coordinator::sendBatch(WorkerState &W, uint32_t ProblemId,
                            uint32_t BatchId) {
  ActiveProblem &AP = *Problems.at(ProblemId);
  if (!W.KnowsProblem.count(ProblemId)) {
    ProblemMsg PM;
    PM.ProblemId = ProblemId;
    PM.Config = AP.Config;
    PM.Persistent = AP.Persistent;
    // The codec takes a shared_ptr<non-const>; encoding only reads.
    PM.Problem = std::const_pointer_cast<smt::VerificationProblem>(
        AP.Problem);
    if (!W.L->send(encodeMessage(PM)))
      return false;
    W.KnowsProblem.insert(ProblemId);
  }
  CubeBatchMsg BM;
  BM.ProblemId = ProblemId;
  BM.BatchId = BatchId;
  size_t Begin = AP.indexOf(BatchId) * AP.Chunk;
  size_t End = std::min(AP.Cubes.size(), Begin + AP.Chunk);
  BM.Cubes.assign(AP.Cubes.begin() + Begin, AP.Cubes.begin() + End);
  if (!W.L->send(encodeMessage(BM)))
    return false;
  // An idle worker owed no frames, so its silence clock starts with this
  // grant, not with whatever it last sent before going idle.
  W.LastActivity = Clock::now();
  W.Outstanding = BatchKey{ProblemId, BatchId};
  return true;
}

Coordinator::WorkerState *Coordinator::pickGrantee() {
  for (std::unique_ptr<WorkerState> &W : Workers)
    if (W->Ready && !W->Dead && !W->Outstanding)
      return W.get();
  return nullptr;
}

bool Coordinator::stillOpen(const BatchKey &Key) const {
  auto It = Problems.find(Key.first);
  if (It == Problems.end())
    return false;
  size_t Idx = It->second->indexOf(Key.second);
  return Idx != SIZE_MAX && !It->second->BatchDone[Idx];
}

void Coordinator::grantWork() {
  while (!Queue.empty()) {
    BatchKey Key = Queue.front();
    if (!stillOpen(Key)) {
      Queue.pop_front(); // problem gone, stale epoch, or satisfied
      continue;
    }
    WorkerState *W = pickGrantee();
    if (!W)
      return;
    Queue.pop_front();
    if (!sendBatch(*W, Key.first, Key.second)) {
      // Send failure = the link died under us; requeue and let the dead
      // sweep handle the worker.
      Queue.push_front(Key);
      W->Dead = true;
      return;
    }
  }
}

void Coordinator::cancelRemaining(ActiveProblem &AP, uint32_t ProblemId) {
  // Scrub the queue and every worker's outstanding batch; mark all
  // not-yet-done batches done so the completion count converges.
  std::deque<BatchKey> Keep;
  for (const BatchKey &Key : Queue)
    if (Key.first != ProblemId)
      Keep.push_back(Key);
  Queue.swap(Keep);
  for (std::unique_ptr<WorkerState> &W : Workers) {
    if (W->Dead)
      continue;
    // A worker whose batch is cancelled is idle from here on: it may be
    // granted fresh work while the cancelled batch drains.
    bool Knew = W->Outstanding && W->Outstanding->first == ProblemId;
    if (Knew)
      W->Outstanding.reset();
    // Tell every worker that ever saw the problem to abort in-flight
    // solves and free its state. Persistent problems keep their remote
    // solvers (the next solveCubes call reuses them); their in-flight
    // work self-drains since each probe is one batch.
    if (!AP.Persistent && (Knew || W->KnowsProblem.count(ProblemId))) {
      CancelMsg CM;
      CM.ProblemId = ProblemId;
      W->L->send(encodeMessage(CM));
      W->KnowsProblem.erase(ProblemId);
    }
  }
  for (size_t B = 0; B != AP.BatchDone.size(); ++B)
    if (!AP.BatchDone[B]) {
      AP.BatchDone[B] = 1;
      ++AP.DoneCount;
    }
}

void Coordinator::shardCubes(uint32_t ProblemId, ActiveProblem &AP,
                             engine::CubeTree &&Tree) {
  // Contiguous batches — a few per fleet slot so uneven hardness evens
  // out — queued here and granted one at a time to idle workers. Each
  // cube set gets a FRESH wire-id range so stragglers from a persistent
  // problem's previous set fall outside indexOf(), and fresh verdict
  // state; worker-side solvers persist.
  AP.DoneCount = 0;
  AP.Verdict.reset();
  AP.Finished = false;
  AP.Tree = std::move(Tree);
  AP.Cubes = AP.Tree.cubes();
  AP.Outcome = smt::SolveOutcome();
  AP.Outcome.NumCubes = AP.Cubes.size();
  AP.Outcome.CubesSolved = 0;
  engine::describeProblem(*AP.Problem, AP.Outcome);
  size_t Batches = std::min(
      AP.Cubes.size(), std::max<size_t>(1, numSlots() * Opts.BatchesPerSlot));
  AP.Chunk = (AP.Cubes.size() + Batches - 1) / Batches;
  AP.BatchDone.assign((AP.Cubes.size() + AP.Chunk - 1) / AP.Chunk, 0);
  AP.FirstBatchId = AP.NextBatchId;
  AP.NextBatchId += static_cast<uint32_t>(AP.BatchDone.size());
  AP.ProblemClock = Timer();
  for (uint32_t B = 0; B != AP.BatchDone.size(); ++B)
    Queue.push_back({ProblemId, AP.FirstBatchId + B});
}

void Coordinator::finishProblem(ActiveProblem &AP) {
  if (AP.Finished)
    return;
  AP.Finished = true;
  engine::CubeVerdict Verdict = AP.Verdict.get();
  AP.Outcome.Result = engine::resultOf(Verdict);
  AP.Outcome.SolveSeconds = AP.ProblemClock.seconds();
  if (AP.Config.LogProofs && AP.Outcome.Result == sat::SolveResult::Unsat) {
    AP.Proven = engine::provenTree(std::move(AP.Tree),
                                   Verdict == engine::CubeVerdict::Refuted);
    // A one-shot problem closes with its only cube set.
    if (!AP.Persistent)
      AP.Outcome.Proof = AP.certificate();
  }
}

void Coordinator::handleResult(WorkerState &W, BatchResultMsg &&R) {
  // A cancelled batch may report after a fresh grant: only the held
  // batch's result frees the worker.
  if (W.Outstanding == BatchKey{R.ProblemId, R.BatchId})
    W.Outstanding.reset();
  auto It = Problems.find(R.ProblemId);
  if (It == Problems.end())
    return;
  ActiveProblem &AP = *It->second;
  // Proof chunks are appended before ANY early-out: a duplicate or
  // stale-epoch result still extends its (worker, slot) stream, and
  // dropping it would leave a gap the checker's deletion serials and
  // RUP replay cannot cross.
  if (AP.Config.LogProofs)
    for (auto &[Slot, Chunk] : R.ProofChunks)
      AP.ProofStreams[{W.Serial, Slot}].append(Chunk);
  size_t Idx = AP.indexOf(R.BatchId);
  if (Idx == SIZE_MAX)
    return; // corrupt id, or a straggler from an earlier cube set
  // Statistics deltas are problem-level truth regardless of batch
  // bookkeeping (a worker reports each solved cube exactly once).
  AP.Outcome.Stats += R.Stats;
  AP.Outcome.CubesSolved += R.Solved;

  if (AP.BatchDone[Idx])
    return; // duplicate (requeued-and-raced or post-cancel): counted above
  if (R.Status == engine::CubeVerdict::Cancelled) {
    // The worker was cancelled under this batch (or never knew the
    // problem). The problem is still live, so the work is NOT done:
    // requeue it.
    Queue.push_back({R.ProblemId, R.BatchId});
    ++Stats.BatchesRequeued;
    return;
  }
  AP.BatchDone[Idx] = 1;
  ++AP.DoneCount;
  AP.Verdict.raise(R.Status);
  if (R.Status >= engine::CubeVerdict::Refuted) {
    // Sat or Refuted decides the problem, once: cancelRemaining() marks
    // every other batch done, so no later result reaches this point.
    if (R.Status == engine::CubeVerdict::Sat)
      AP.Outcome.Model = std::move(R.Model);
    cancelRemaining(AP, R.ProblemId);
  }
  if (AP.DoneCount == AP.BatchDone.size())
    finishProblem(AP);
}

void Coordinator::relayLemmas(WorkerState &From, const LemmasMsg &M,
                              std::span<const uint8_t> Frame) {
  auto It = Problems.find(M.ProblemId);
  if (It == Problems.end())
    return;
  const ActiveProblem &AP = *It->second;
  if (AP.Finished || AP.Config.LogProofs)
    return;
  // The workers check literals too; checking here keeps one corrupt
  // sender from tripping every receiver.
  if (!litsInRange(*AP.Problem, M.Lemmas))
    return;
  for (std::unique_ptr<WorkerState> &Other : Workers) {
    if (Other.get() == &From || Other->Dead || !Other->Ready ||
        !Other->KnowsProblem.count(M.ProblemId))
      continue;
    // Decoding is canonical, so the received bytes are the frame.
    Other->L->send(Frame);
    Stats.LemmasRelayed += M.Lemmas.size();
  }
}

bool Coordinator::pumpLinks() {
  bool Any = false;
  for (std::unique_ptr<WorkerState> &W : Workers) {
    if (W->Dead || !W->Ready)
      continue;
    std::vector<uint8_t> Frame;
    while (W->L->receive(Frame, 0)) {
      Any = true;
      W->LastActivity = Clock::now();
      Message M;
      if (!decodeMessage(Frame, M)) {
        W->Dead = true; // unusable stream
        break;
      }
      if (const LemmasMsg *LM = std::get_if<LemmasMsg>(&M))
        relayLemmas(*W, *LM, Frame);
      else if (BatchResultMsg *R = std::get_if<BatchResultMsg>(&M))
        handleResult(*W, std::move(*R));
      else if (const HeartbeatMsg *H = std::get_if<HeartbeatMsg>(&M)) {
        // The LastActivity refresh above is the heartbeat's real job —
        // it is what keeps a grinding worker off the silence timer. The
        // payload feeds the live progress line.
        ++Stats.HeartbeatsReceived;
        HbCubes += H->CubesDelta;
        HbConflicts += H->ConflictsDelta;
      }
      // Anything else from a worker is protocol noise; ignore.
    }
    if (W->L->closed())
      W->Dead = true;
  }
  return Any;
}

void Coordinator::requeueOutstanding(WorkerState &W) {
  if (W.Outstanding && stillOpen(*W.Outstanding)) {
    Queue.push_back(*W.Outstanding);
    ++Stats.BatchesRequeued;
  }
  W.Outstanding.reset();
  W.KnowsProblem.clear();
}

void Coordinator::dropDeadWorkers() {
  Clock::time_point Now = Clock::now();
  for (std::unique_ptr<WorkerState> &W : Workers) {
    if (!W->Ready || W->Dead)
      continue;
    if (Opts.WorkerTimeoutMs > 0 && W->Outstanding &&
        Now - W->LastActivity >
            std::chrono::milliseconds(Opts.WorkerTimeoutMs)) {
      // Tell the worker it was written off before cutting the link: its
      // batches are requeued below, so anything it is still grinding
      // would be discarded by the epoch check anyway. Queued frames
      // survive close() on both transports, so this is reliable.
      EvictedMsg EM;
      EM.Reason = "silence timeout (" +
                  std::to_string(Opts.WorkerTimeoutMs) + " ms)";
      W->L->send(encodeMessage(EM));
      W->L->close();
      W->Dead = true;
    }
  }
  for (size_t I = 0; I < Workers.size();) {
    WorkerState &W = *Workers[I];
    if (W.Ready && W.Dead) {
      ++Stats.WorkersDropped;
      requeueOutstanding(W);
      Workers.erase(Workers.begin() + I);
      continue;
    }
    ++I;
  }
}

void Coordinator::runUntilDone(const std::vector<uint32_t> &ProblemIds) {
  auto allDone = [&] {
    for (uint32_t Id : ProblemIds)
      if (!Problems.at(Id)->Finished)
        return false;
    return true;
  };
  while (!allDone()) {
    pumpAccept();
    pumpHandshakes();
    bool Busy = pumpLinks();
    dropDeadWorkers();
    if (numWorkers() == 0 && PendingLinks.empty()) {
      // The whole fleet is gone: outstanding problems cannot make
      // progress. Finish them as inconclusive rather than hanging.
      for (uint32_t Id : ProblemIds) {
        ActiveProblem &AP = *Problems.at(Id);
        if (AP.Finished)
          continue;
        AP.Verdict.raise(engine::CubeVerdict::Aborted);
        cancelRemaining(AP, Id);
        finishProblem(AP);
      }
      return;
    }
    grantWork();
    if (obs::progressEnabled()) {
      size_t BatchesDone = 0, BatchesTotal = 0;
      for (uint32_t Id : ProblemIds) {
        ActiveProblem &AP = *Problems.at(Id);
        BatchesDone += AP.DoneCount;
        BatchesTotal += AP.BatchDone.size();
      }
      obs::progressLine(
          "dist: workers " + std::to_string(numWorkers()) + "  batches " +
          std::to_string(BatchesDone) + "/" + std::to_string(BatchesTotal) +
          "  queued " + std::to_string(Queue.size()) + "  hb cubes " +
          std::to_string(HbCubes) + " conflicts " +
          std::to_string(HbConflicts));
    }
    if (!Busy)
      std::this_thread::sleep_for(std::chrono::milliseconds(Opts.PollMs));
  }
  obs::progressDone();
}

std::vector<smt::SolveOutcome>
Coordinator::solveAll(std::span<const engine::CubeProblem> CubeProblems) {
  std::vector<uint32_t> Ids(CubeProblems.size(), 0);
  std::vector<smt::SolveOutcome> Local(CubeProblems.size());
  std::vector<uint32_t> LiveIds;
  size_t Slots = numSlots();
  for (size_t I = 0; I != CubeProblems.size(); ++I) {
    // The identical encode + cube tree the in-process engine builds —
    // only the slot count (the fleet's) differs.
    engine::PreparedProblem P =
        engine::prepareCubeProblem(CubeProblems[I], Slots);
    if (P.Encoded->TriviallyUnsat) {
      Local[I] =
          engine::triviallyUnsatOutcome(*P.Encoded, P.Config.LogProofs);
      continue;
    }
    uint32_t Id = openProblem(std::move(P.Encoded), P.Config);
    ActiveProblem &AP = *Problems.at(Id);
    AP.Persistent = false;
    shardCubes(Id, AP, std::move(P.Tree));
    AP.Outcome.SplitThresholdUsed = P.SplitThresholdUsed;
    Ids[I] = Id;
    LiveIds.push_back(Id);
    // Encoding is serial on this thread, but the fleet need not wait
    // for the whole batch: granting here puts idle workers on problem 1
    // while problem 2 is still encoding.
    pumpAccept();
    pumpHandshakes();
    pumpLinks();
    grantWork();
  }

  runUntilDone(LiveIds);

  std::vector<smt::SolveOutcome> Outcomes;
  Outcomes.reserve(CubeProblems.size());
  for (size_t I = 0; I != CubeProblems.size(); ++I) {
    if (Ids[I] == 0) {
      Outcomes.push_back(std::move(Local[I]));
      continue;
    }
    Outcomes.push_back(std::move(Problems.at(Ids[I])->Outcome));
    // Frees the workers' per-problem state too (decided problems already
    // sent Cancel through cancelRemaining; this covers the all-UNSAT
    // completions).
    closeProblem(Ids[I]);
  }
  return Outcomes;
}

uint32_t
Coordinator::openProblem(std::shared_ptr<const smt::VerificationProblem> P,
                         const engine::CubeRunConfig &Config) {
  uint32_t Id = NextProblemId++;
  auto AP = std::make_unique<ActiveProblem>();
  AP->Problem = std::move(P);
  AP->Config = Config;
  AP->Persistent = true;
  Problems.emplace(Id, std::move(AP));
  return Id;
}

smt::SolveOutcome
Coordinator::solveCubes(uint32_t Handle, engine::CubeTree Tree) {
  ActiveProblem &AP = *Problems.at(Handle);
  shardCubes(Handle, AP, std::move(Tree));
  runUntilDone({Handle});
  return std::move(AP.Outcome);
}

std::string Coordinator::closeProblem(uint32_t Handle) {
  auto It = Problems.find(Handle);
  if (It == Problems.end())
    return {};
  CancelMsg CM;
  CM.ProblemId = Handle;
  for (std::unique_ptr<WorkerState> &W : Workers) {
    if (W->Dead || !W->Ready)
      continue;
    if (W->KnowsProblem.erase(Handle))
      W->L->send(encodeMessage(CM));
  }
  std::string Cert = It->second->certificate();
  Problems.erase(It);
  return Cert;
}

std::vector<std::thread>
veriqec::dist::spawnLoopbackWorkers(Coordinator &C,
                                    std::vector<WorkerOptions> PerWorker) {
  std::vector<std::thread> Threads;
  Threads.reserve(PerWorker.size());
  for (const WorkerOptions &WO : PerWorker) {
    LoopbackPair Pair = makeLoopbackPair();
    C.addWorker(std::move(Pair.A));
    Threads.emplace_back([End = std::move(Pair.B), WO]() mutable {
      runWorker(std::move(End), WO);
    });
  }
  return Threads;
}

void Coordinator::shutdownWorkers() {
  for (std::unique_ptr<WorkerState> &W : Workers) {
    if (!W->Dead && W->Ready)
      W->L->send(encodeMessage(ShutdownMsg{}));
    W->L->close();
  }
  Workers.clear();
  for (std::unique_ptr<Link> &L : PendingLinks)
    L->close();
  PendingLinks.clear();
}
