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

namespace {

/// True iff every literal of \p Core occurs in the sorted \p CubeSorted.
bool coreSubsumesCube(const std::vector<Lit> &Core,
                      const std::vector<Lit> &CubeSorted) {
  for (Lit L : Core)
    if (!std::binary_search(CubeSorted.begin(), CubeSorted.end(), L))
      return false;
  return true;
}

} // namespace

CubeRun::CubeRun(const smt::VerificationProblem &Problem,
                 const CubeRunConfig &Cfg, size_t NumSlots,
                 bool RemotePeers)
    : Problem(Problem), Cfg(Cfg),
      ExchangeLemmas(!Cfg.LogProofs && (NumSlots > 1 || RemotePeers)) {
  Slots.resize(NumSlots);
  CoreSnapshots.resize(NumSlots);
  SlotConflictBase.resize(NumSlots, 0);
  if (Cfg.LogProofs) {
    SlotLogs.resize(NumSlots);
    for (std::unique_ptr<proof::SlotProofLog> &Log : SlotLogs)
      Log = std::make_unique<proof::SlotProofLog>();
  }
}

std::string CubeRun::drainSlotProof(size_t Slot) {
  if (Slot >= SlotLogs.size() || !SlotLogs[Slot])
    return {};
  return SlotLogs[Slot]->drain();
}

void CubeRun::storeCore(const std::vector<Lit> &Core, bool Outbound) {
  std::lock_guard<std::mutex> Lock(CoreMutex);
  if (RefutedCores.size() >= MaxRefutedCores)
    return;
  RefutedCores.push_back(Core);
  CoreCount.store(RefutedCores.size(), std::memory_order_release);
  if (Outbound)
    OutboundCores.push_back(Core);
}

void CubeRun::addExternalCores(std::span<const std::vector<Lit>> Cores) {
  for (const std::vector<Lit> &Core : Cores)
    storeCore(Core, /*Outbound=*/false);
}

std::vector<std::vector<Lit>> CubeRun::drainOutboundCores() {
  std::lock_guard<std::mutex> Lock(CoreMutex);
  std::vector<std::vector<Lit>> Out;
  Out.swap(OutboundCores);
  return Out;
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

void CubeRun::accumulateStats(sat::SolverStats &Out) const {
  for (const std::unique_ptr<sat::Solver> &Slot : Slots)
    if (Slot)
      Out += Slot->stats();
}

CubeRun::CubeOutcome CubeRun::runCube(size_t Slot,
                                      const std::vector<Lit> &Cube,
                                      uint64_t CubeId) {
  if (cancelled())
    return CubeOutcome::Cancelled;
  assert(Slot < Slots.size() && "slot index out of range");

  bool Subsumed = false;
  if (CoreCount.load(std::memory_order_acquire) != 0) {
    std::vector<std::vector<Lit>> &Snapshot = CoreSnapshots[Slot];
    if (Snapshot.size() < CoreCount.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> Lock(CoreMutex);
      Snapshot = RefutedCores;
    }
    std::vector<Lit> CubeSorted = Cube;
    std::sort(CubeSorted.begin(), CubeSorted.end());
    for (const std::vector<Lit> &Core : Snapshot)
      if (coreSubsumesCube(Core, CubeSorted)) {
        Subsumed = true;
        break;
      }
  }
  // A stored sibling core that fits inside this cube refutes it outright
  // — no solver, no conflicts. Parity contradictions need no pruner of
  // their own: the slot solver's Gauss engine (or its CNF parity chains)
  // finds them during the cube's propagation.
  if (Subsumed) {
    Solved.fetch_add(1, std::memory_order_relaxed);
    PrunedCore.fetch_add(1, std::memory_order_relaxed);
    // No record: the q record of its core (in any slot's or node's
    // stream) already put ¬core in the checker's table, which refutes
    // the cube.
    return CubeOutcome::PrunedCore;
  }

  // One span per solver-discharged cube (pruned cubes never reach
  // here); construction is a relaxed load when tracing is off.
  obs::TraceSpan Span("cube_solve", {{"slot", Slot}, {"cube", CubeId}});
  bool Observe = obs::metricsEnabled();
  Timer CubeClock;

  std::unique_ptr<sat::Solver> &Reused = Slots[Slot];
  if (!Reused) {
    Reused = std::make_unique<sat::Solver>(Problem.makeSolver());
    // One bound per problem: harden the weight layer as root-level units
    // in this slot's solver (the shared CnfFormula stays
    // bound-independent).
    if (Cfg.HardenBudget)
      Problem.assertWeightBound(*Reused, Cfg.BudgetBound);
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
      SatFlag.store(true, std::memory_order_release);
    }
    return CubeOutcome::Sat;
  }
  if (R == SolveResult::Unsat) {
    const std::vector<Lit> &Core = Reused->conflictCore();
    if (Cfg.LogProofs)
      // An empty core concludes the whole problem (GlobalUnsat below):
      // the checker's table then holds the empty clause.
      SlotLogs[Slot]->logConclusion(Core, Cube, Reused->conflictCoreHints());
    if (Core.empty()) {
      // The refutation used no assumptions (as every refutation of the
      // open cube): the problem is UNSAT under its root clauses alone
      // and the siblings are redundant.
      GlobalUnsat.store(true, std::memory_order_relaxed);
      Cancel.store(true, std::memory_order_relaxed);
    } else if (Core.size() + 1 < Cube.size()) {
      // A strict-subset core refutes every sibling cube containing it;
      // remember it so they are pruned without a solver — and queue it
      // for cross-node broadcast. (The +1 slack: a core one literal
      // short of the cube subsumes almost nothing, not worth the
      // per-cube checks.)
      storeCore(Core, /*Outbound=*/true);
    }
    return CubeOutcome::Unsat;
  }
  // Aborted: cancellation mid-search is not a budget abort.
  if (!cancelled()) {
    AnyAborted.store(true, std::memory_order_relaxed);
    return CubeOutcome::Aborted;
  }
  return CubeOutcome::Cancelled;
}
