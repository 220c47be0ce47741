//===- dist/Worker.cpp - Remote cube-discharge worker ----------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "dist/Worker.h"

#include "dist/Codec.h"
#include "engine/CubeRun.h"
#include "engine/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <thread>
#include <unordered_map>

using namespace veriqec;
using namespace veriqec::dist;
using sat::Lit;

namespace {

/// Worker-side state of one problem. Slot solvers (inside Run) persist
/// across batches, so learnt clauses and assumption-trail reuse work
/// across the whole problem exactly as in-process — and across the
/// incremental cube sets of a persistent problem (distance probes).
struct ProblemState {
  std::shared_ptr<smt::VerificationProblem> Problem;
  std::unique_ptr<engine::CubeRun> Run;
  bool Persistent = false;
  /// Counter totals already reported; batch results carry deltas.
  sat::SolverStats ReportedStats;
  uint64_t ReportedSolved = 0, ReportedCore = 0;
};

/// The batch currently on the pool.
struct InflightBatch {
  CubeBatchMsg Batch;
  ProblemState *State = nullptr;
  std::atomic<size_t> Remaining{0};
  std::atomic<bool> AnySat{false};
  std::atomic<bool> AnyAborted{false};
  std::atomic<bool> AnyCancelled{false};
};

class WorkerLoop {
public:
  WorkerLoop(std::unique_ptr<Link> L, const WorkerOptions &Opts)
      : L(std::move(L)), Opts(Opts),
        Pool(std::max<size_t>(1, Opts.Jobs)) {}

  int run() {
    if (!handshake())
      return 1;
    std::vector<uint8_t> Frame;
    while (true) {
      maybeStartBatch();
      if (StreamCorrupt) {
        // A well-framed but semantically invalid message (out-of-range
        // cube or lemma literal): the stream cannot be trusted, same as a
        // decode failure.
        abandonAll();
        L->close();
        return 1;
      }
      // Drain before honoring closure: a Shutdown (or Cancel) that was
      // delivered just before the peer hung up must still be seen.
      if (L->receive(Frame, Opts.PollMs)) {
        Message M;
        if (!decodeMessage(Frame, M)) {
          // A malformed frame means the stream is unusable; bail out.
          L->close();
          return 1;
        }
        if (std::holds_alternative<ShutdownMsg>(M)) {
          finishInflight(/*Block=*/true);
          return 0;
        }
        handle(M);
        if (Evicted) {
          // The coordinator already requeued everything this worker
          // holds; grinding on would be wasted work. Cancel, drain the
          // pool, and surface the eviction as a distinct exit code.
          abandonAll();
          L->close();
          return 3;
        }
      } else if (L->closed()) {
        // Abrupt closure (coordinator died): abort the in-flight batch
        // and drain it off the pool before tearing the state down.
        abandonAll();
        return 1;
      }
      shipLemmas();
      maybeHeartbeat();
      if (finishInflight(/*Block=*/false)) {
        ++BatchesDone;
        if (Opts.MaxBatches && BatchesDone >= Opts.MaxBatches) {
          // Crash hook: vanish without a goodbye, like a killed process.
          L->close();
          return 2;
        }
      }
    }
  }

private:
  bool handshake() {
    HelloMsg Hello;
    Hello.Slots = static_cast<uint32_t>(Pool.numWorkers());
    if (!L->send(encodeMessage(Hello)))
      return false;
    std::vector<uint8_t> Frame;
    // Generous deadline: the coordinator may be busy encoding problems.
    for (int Waited = 0; Waited < 10000; Waited += 50) {
      if (L->receive(Frame, 50)) {
        Message M;
        if (!decodeMessage(Frame, M))
          return false;
        const HelloAckMsg *Ack = std::get_if<HelloAckMsg>(&M);
        if (!Ack || Ack->Magic != WireMagic)
          return false;
        if (!Ack->Accepted || Ack->Version != WireVersion) {
          // The coordinator ships a human-readable cause (version skew,
          // zero slots); losing it would leave the operator with a bare
          // exit code.
          std::fprintf(stderr, "veriqec worker: coordinator refused: %s\n",
                       Ack->Reason.empty() ? "(no reason given)"
                                           : Ack->Reason.c_str());
          return false;
        }
        return true;
      }
      if (L->closed())
        return false;
    }
    return false;
  }

  void handle(const Message &M) {
    if (const ProblemMsg *P = std::get_if<ProblemMsg>(&M)) {
      ProblemState &S = Problems[P->ProblemId];
      S.Problem = P->Problem;
      S.Persistent = P->Persistent;
      S.Run = std::make_unique<engine::CubeRun>(
          *S.Problem, P->Config, Pool.numWorkers(), /*RemotePeers=*/true);
    } else if (const CubeBatchMsg *B = std::get_if<CubeBatchMsg>(&M)) {
      Pending.push_back(*B);
    } else if (const CoresMsg *C = std::get_if<CoresMsg>(&M)) {
      auto It = Problems.find(C->ProblemId);
      if (It != Problems.end())
        It->second.Run->addExternalCores(C->Cores);
    } else if (const LemmasMsg *LM = std::get_if<LemmasMsg>(&M)) {
      auto It = Problems.find(LM->ProblemId);
      if (It == Problems.end())
        return; // cancelled meanwhile: nothing to feed
      // Lemma literals, like cube literals, reach the solvers unchecked
      // by the codec.
      if (!litsInRange(*It->second.Problem, LM->Lemmas)) {
        StreamCorrupt = true;
        return;
      }
      It->second.Run->addExternalLemmas(LM->Lemmas);
    } else if (const CancelMsg *C = std::get_if<CancelMsg>(&M)) {
      auto It = Problems.find(C->ProblemId);
      if (It != Problems.end())
        It->second.Run->cancel();
      std::deque<CubeBatchMsg> Keep;
      for (CubeBatchMsg &B : Pending)
        if (B.ProblemId != C->ProblemId)
          Keep.push_back(std::move(B));
      Pending.swap(Keep);
      // Free the state now unless its batch is still on the pool (the
      // cancel flag drains it quickly); then it is freed on completion.
      if (It != Problems.end()) {
        if (Inflight && Inflight->State == &It->second)
          EraseAfterInflight = true;
        else
          Problems.erase(It);
      }
    } else if (const StealRequestMsg *S = std::get_if<StealRequestMsg>(&M)) {
      StealReplyMsg Reply;
      for (uint32_t I = 0; I != S->MaxBatches && !Pending.empty(); ++I) {
        // Give from the back: the front is next to run locally, and the
        // back shares the least assumption prefix with it.
        Reply.Batches.emplace_back(Pending.back().ProblemId,
                                   Pending.back().BatchId);
        Pending.pop_back();
      }
      L->send(encodeMessage(Reply));
    } else if (std::holds_alternative<EvictedMsg>(M)) {
      Evicted = true;
    }
    // Hello/HelloAck/BatchResult/StealReply are peer-direction messages;
    // ignore them.
  }

  /// Cancels every problem and drains the in-flight batch off the pool.
  void abandonAll() {
    for (auto &KV : Problems)
      KV.second.Run->cancel();
    finishInflight(/*Block=*/true);
  }

  /// Sends the lemmas each problem's slots learnt since the previous
  /// poll, one frame per problem, for the coordinator to relay.
  void shipLemmas() {
    for (auto &[Id, S] : Problems) {
      LemmasMsg LM;
      LM.ProblemId = Id;
      LM.Lemmas = S.Run->drainOutboundLemmas();
      if (!LM.Lemmas.empty())
        L->send(encodeMessage(LM));
    }
  }

  /// Sends a HeartbeatMsg every Opts.HeartbeatMs while work is queued or
  /// in flight. Deltas are against the last heartbeat (not the last
  /// batch result), read from CubeRun's relaxed counters — safe while
  /// slots are mid-solve.
  void maybeHeartbeat() {
    if (!Opts.HeartbeatMs || (!Inflight && Pending.empty()))
      return;
    auto Now = std::chrono::steady_clock::now();
    if (LastHeartbeat != std::chrono::steady_clock::time_point{} &&
        Now - LastHeartbeat < std::chrono::milliseconds(Opts.HeartbeatMs))
      return;
    LastHeartbeat = Now;
    uint64_t Solved = 0, Conflicts = 0;
    for (const auto &KV : Problems) {
      Solved += KV.second.Run->solved();
      Conflicts += KV.second.Run->conflictsObserved();
    }
    HeartbeatMsg Hb;
    Hb.BatchesInFlight =
        static_cast<uint32_t>((Inflight ? 1 : 0) + Pending.size());
    Hb.CubesDelta = Solved - HbSolvedReported;
    Hb.ConflictsDelta = Conflicts - HbConflictsReported;
    HbSolvedReported = Solved;
    HbConflictsReported = Conflicts;
    L->send(encodeMessage(Hb));
  }

  void maybeStartBatch() {
    if (Inflight || Pending.empty())
      return;
    CubeBatchMsg Batch = std::move(Pending.front());
    Pending.pop_front();
    auto It = Problems.find(Batch.ProblemId);
    if (It == Problems.end()) {
      // Problem already cancelled/freed: report so the coordinator's
      // bookkeeping (if it still cares) sees the batch surface again.
      BatchResultMsg R;
      R.ProblemId = Batch.ProblemId;
      R.BatchId = Batch.BatchId;
      R.Status = BatchStatus::Cancelled;
      L->send(encodeMessage(R));
      return;
    }
    ProblemState &S = It->second;
    // The codec range-checks every id INSIDE a problem, but cube
    // literals arrive in separate frames with no problem context: check
    // them here, the one choke point before they reach a solver (an
    // out-of-range var would index the solver's arrays out of bounds).
    if (!litsInRange(*S.Problem, Batch.Cubes)) {
      StreamCorrupt = true;
      return;
    }
    if (S.Run->cancelled() && S.Persistent)
      // A persistent problem's previous cube set is decided; this batch
      // belongs to a FRESH set against the same solvers. One-shot
      // problems keep the cancel latched instead: their remaining local
      // batches drain as Cancelled at no cost until the coordinator's
      // Cancel message lands.
      S.Run->reset();
    Inflight = std::make_unique<InflightBatch>();
    Inflight->Batch = std::move(Batch);
    Inflight->State = &S;
    size_t N = Inflight->Batch.Cubes.size();
    size_t Slots = Pool.numWorkers();
    size_t NumTasks = std::min(N, Slots);
    Inflight->Remaining.store(NumTasks, std::memory_order_relaxed);
    if (NumTasks == 0)
      return; // empty batch: Remaining is 0, finishInflight acks it
    size_t Chunk = (N + NumTasks - 1) / NumTasks;
    InflightBatch *B = Inflight.get();
    if (Opts.GrindFirstBatchMs && BatchesDone == 0) {
      GrindArmed = true;
      GrindDeadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(Opts.GrindFirstBatchMs);
    }
    for (size_t T = 0; T != NumTasks; ++T) {
      size_t Begin = T * Chunk, End = std::min(N, Begin + Chunk);
      Pool.submitTo(T, [B, Begin, End] {
        int Slot = engine::ThreadPool::currentWorkerIndex();
        for (size_t C = Begin; C < End; ++C) {
          switch (B->State->Run->runCube(static_cast<size_t>(Slot),
                                         B->Batch.Cubes[C], C)) {
          case engine::CubeRun::CubeOutcome::Sat:
            B->AnySat.store(true, std::memory_order_relaxed);
            break;
          case engine::CubeRun::CubeOutcome::Aborted:
            B->AnyAborted.store(true, std::memory_order_relaxed);
            break;
          case engine::CubeRun::CubeOutcome::Cancelled:
            B->AnyCancelled.store(true, std::memory_order_relaxed);
            break;
          default:
            break;
          }
        }
        B->Remaining.fetch_sub(1, std::memory_order_acq_rel);
      });
    }
  }

  /// True when a batch just completed (its result was sent).
  bool finishInflight(bool Block) {
    if (!Inflight)
      return false;
    if (Block) {
      while (Inflight->Remaining.load(std::memory_order_acquire) != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else if (Inflight->Remaining.load(std::memory_order_acquire) != 0) {
      return false;
    }
    if (GrindArmed && !Block) {
      // Grind hook: the cubes are done, but pretend they are not — the
      // protocol loop keeps polling (and heartbeating, if enabled) with
      // the batch still counted as in flight.
      if (std::chrono::steady_clock::now() < GrindDeadline)
        return false;
      GrindArmed = false;
    }
    ProblemState &S = *Inflight->State;
    engine::CubeRun &Run = *S.Run;
    BatchResultMsg R;
    R.ProblemId = Inflight->Batch.ProblemId;
    R.BatchId = Inflight->Batch.BatchId;
    if (Inflight->AnySat.load())
      R.Status = BatchStatus::Sat;
    else if (Run.globalUnsat())
      R.Status = BatchStatus::GlobalUnsat;
    else if (Inflight->AnyAborted.load())
      R.Status = BatchStatus::Aborted;
    else if (Inflight->AnyCancelled.load())
      R.Status = BatchStatus::Cancelled;
    else
      R.Status = BatchStatus::AllUnsat;
    if (R.Status == BatchStatus::Sat)
      R.Model = Run.model();
    sat::SolverStats Now;
    Run.accumulateStats(Now);
    R.Stats = Now - S.ReportedStats;
    S.ReportedStats = Now;
    R.Solved = Run.solved() - S.ReportedSolved;
    R.PrunedCore = Run.prunedCore() - S.ReportedCore;
    S.ReportedSolved = Run.solved();
    S.ReportedCore = Run.prunedCore();
    R.NewCores = Run.drainOutboundCores();
    // The batch has quiesced, so the slot logs are stable: ship whatever
    // each slot derived/concluded since the previous report. Chunk
    // boundaries are record-aligned; the coordinator concatenates.
    for (size_t Slot = 0; Slot != Run.numSlots(); ++Slot) {
      std::string Chunk = Run.drainSlotProof(Slot);
      if (!Chunk.empty())
        R.ProofChunks.emplace_back(static_cast<uint32_t>(Slot),
                                   std::move(Chunk));
    }
    L->send(encodeMessage(R));
    if (EraseAfterInflight) {
      Problems.erase(Inflight->Batch.ProblemId);
      EraseAfterInflight = false;
    }
    Inflight.reset();
    return true;
  }

  std::unique_ptr<Link> L;
  WorkerOptions Opts;
  std::unordered_map<uint32_t, ProblemState> Problems;
  std::deque<CubeBatchMsg> Pending;
  std::unique_ptr<InflightBatch> Inflight;
  bool EraseAfterInflight = false;
  bool StreamCorrupt = false;
  bool Evicted = false;
  bool GrindArmed = false;
  std::chrono::steady_clock::time_point GrindDeadline;
  std::chrono::steady_clock::time_point LastHeartbeat;
  uint64_t HbSolvedReported = 0, HbConflictsReported = 0;
  uint64_t BatchesDone = 0;
  /// Declared last: destroyed (and its threads joined) FIRST, so pool
  /// tasks can never outlive the problem/batch state they reference.
  engine::ThreadPool Pool;
};

} // namespace

int veriqec::dist::runWorker(std::unique_ptr<Link> L,
                             const WorkerOptions &Opts) {
  WorkerLoop Loop(std::move(L), Opts);
  return Loop.run();
}
