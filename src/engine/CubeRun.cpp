//===- engine/CubeRun.cpp - Shared per-problem cube discharge --------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "engine/CubeRun.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Assert.h"
#include "support/Timer.h"

#include <algorithm>

using namespace veriqec;
using namespace veriqec::engine;
using sat::Lit;
using sat::SolveResult;

CubeRun::CubeRun(const smt::VerificationProblem &Problem,
                 const CubeRunConfig &Cfg, size_t NumSlots,
                 bool RemotePeers)
    : Problem(Problem), Cfg(Cfg),
      ExchangeLemmas(!Cfg.LogProofs && (NumSlots > 1 || RemotePeers)) {
  Slots.resize(NumSlots);
  SlotConflictBase.resize(NumSlots, 0);
  if (Cfg.LogProofs) {
    SlotLogs.resize(NumSlots);
    for (std::unique_ptr<proof::SlotProofLog> &Log : SlotLogs)
      Log = std::make_unique<proof::SlotProofLog>();
  }
}

proof::ProofText CubeRun::drainSlotProof(size_t Slot) {
  if (Slot >= SlotLogs.size() || !SlotLogs[Slot])
    return {};
  return SlotLogs[Slot]->drain();
}

void CubeRun::addExternalLemmas(std::span<const std::vector<Lit>> Lemmas) {
  if (!ExchangeLemmas)
    return;
  for (const std::vector<Lit> &Lemma : Lemmas)
    LearntPool.publish(ImportedOwner, Lemma);
}

std::vector<std::vector<Lit>> CubeRun::drainOutboundLemmas() {
  std::vector<std::vector<Lit>> Out;
  // Everything not published under ImportedOwner was learnt here.
  LearntPool.fetch(ImportedOwner, OutboundLemmaCursor, Out);
  return Out;
}

CubeCounters CubeRun::takeCounters() {
  CubeCounters Now{{}, solved()};
  for (const std::unique_ptr<sat::Solver> &Slot : Slots)
    if (Slot)
      Now.Stats += Slot->stats();
  CubeCounters Delta{Now.Stats - Taken.Stats, Now.Solved - Taken.Solved};
  Taken = Now;
  return Delta;
}

CubeVerdict CubeRun::runCube(size_t Slot, const std::vector<Lit> &Cube,
                             uint64_t CubeId) {
  auto conclude = [this](CubeVerdict V) {
    Verdict.raise(V);
    return V;
  };
  if (cancelled())
    return conclude(CubeVerdict::Cancelled);
  assert(Slot < Slots.size() && "slot index out of range");

  // One span per cube; construction is a relaxed load when tracing is off.
  obs::TraceSpan Span("cube_solve", {{"slot", Slot}, {"cube", CubeId}});
  bool Observe = obs::metricsEnabled();
  Timer CubeClock;

  std::unique_ptr<sat::Solver> &Reused = Slots[Slot];
  if (!Reused) {
    Reused = std::make_unique<sat::Solver>(Problem.makeSolver());
    Reused->setAbortFlag(&Cancel);
    if (Cfg.LogProofs)
      // Proof mode forgoes cross-slot lemma exchange: a pool-imported
      // clause is justified by another slot's derivations, so it would
      // not replay as RUP inside this slot's stream.
      Reused->setProofSink(SlotLogs[Slot].get());
    else if (ExchangeLemmas)
      Reused->attachSharedPool(&LearntPool, static_cast<int>(Slot));
    if (Cfg.ConflictBudget)
      Reused->setConflictBudget(Cfg.ConflictBudget);
    if (Cfg.RandomSeed)
      Reused->setRandomSeed(Cfg.RandomSeed + static_cast<uint64_t>(Slot) + 1);
  }
  SolveResult R = Reused->solve(Cube);
  // Publish this slot's conflict total at cube granularity: the only
  // mid-run stats channel, so heartbeat senders never race a solver.
  uint64_t ConflictsNow = Reused->stats().Conflicts;
  uint64_t ConflictsDelta = ConflictsNow - SlotConflictBase[Slot];
  SlotConflictBase[Slot] = ConflictsNow;
  ConflictsObserved.fetch_add(ConflictsDelta, std::memory_order_relaxed);
  Span.arg("conflicts", ConflictsDelta);
  if (Observe) {
    static obs::Histogram &ConflictHist =
        obs::Registry::global().histogram("engine.cube_conflicts");
    static obs::Histogram &WallHist =
        obs::Registry::global().histogram("engine.cube_wall_us");
    ConflictHist.observe(ConflictsDelta);
    WallHist.observe(static_cast<uint64_t>(CubeClock.seconds() * 1e6));
  }
  if (R != SolveResult::Aborted)
    Solved.fetch_add(1, std::memory_order_relaxed);
  if (R == SolveResult::Sat) {
    std::lock_guard<std::mutex> Lock(ModelMutex);
    if (!Cancel.exchange(true)) {
      Problem.readModel(*Reused, Model);
      Verdict.raise(CubeVerdict::Sat);
    }
    return CubeVerdict::Sat;
  }
  if (R == SolveResult::Unsat) {
    const std::vector<Lit> &Core = Reused->conflictCore();
    if (Cfg.LogProofs)
      // An empty core concludes the whole problem (Refuted below): the
      // checker's table then holds the empty clause.
      SlotLogs[Slot]->logConclusion(Core, Cube, Reused->conflictCoreHints());
    if (!Core.empty())
      return conclude(CubeVerdict::Unsat);
    // The refutation used no assumptions (as every refutation of the
    // open cube): the problem is UNSAT under its root clauses alone and
    // the siblings are redundant.
    Cancel.store(true, std::memory_order_relaxed);
    return conclude(CubeVerdict::Refuted);
  }
  // Aborted: cancellation mid-search is not a budget abort.
  return conclude(cancelled() ? CubeVerdict::Cancelled : CubeVerdict::Aborted);
}

std::vector<CubeRange> veriqec::engine::cubeRanges(size_t NumCubes,
                                                   size_t Slots) {
  constexpr size_t RangesPerSlot = 8;
  size_t Count = std::min(NumCubes, RangesPerSlot * std::max<size_t>(Slots, 1));
  std::vector<CubeRange> Ranges;
  for (size_t R = 0; R != Count; ++R)
    Ranges.push_back({R * NumCubes / Count, (R + 1) * NumCubes / Count});
  return Ranges;
}
