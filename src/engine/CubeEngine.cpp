//===- engine/CubeEngine.cpp - Work-stealing cube-and-conquer --------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "engine/CubeEngine.h"

#include "engine/CubeRun.h"
#include "engine/VerificationEngine.h"
#include "obs/Progress.h"
#include "obs/Trace.h"
#include "proof/ProofLog.h"
#include "support/Assert.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

using namespace veriqec;
using namespace veriqec::engine;
using sat::Lit;
using sat::SolveResult;
using sat::Var;
using smt::SolveOutcome;

namespace {

void enumerateCubesRec(const std::vector<Var> &SplitVars, uint32_t Distance,
                       uint32_t Threshold, uint32_t MaxOnes,
                       std::vector<Lit> &Prefix, uint32_t Ones,
                       std::vector<std::vector<Lit>> &Out) {
  uint32_t Bits = static_cast<uint32_t>(Prefix.size());
  bool Exhausted = Bits >= SplitVars.size();
  if (Exhausted || 2 * Distance * Ones + Bits > Threshold) {
    Out.push_back(Prefix);
    return;
  }
  Var Next = SplitVars[Bits];
  // Zero branch first: low-weight cubes are cheap and likely decisive.
  Prefix.push_back(~sat::mkLit(Next));
  enumerateCubesRec(SplitVars, Distance, Threshold, MaxOnes, Prefix, Ones,
                    Out);
  Prefix.pop_back();
  if (Ones + 1 <= MaxOnes) {
    Prefix.push_back(sat::mkLit(Next));
    enumerateCubesRec(SplitVars, Distance, Threshold, MaxOnes, Prefix,
                      Ones + 1, Out);
    Prefix.pop_back();
  }
}

} // namespace

/// One problem's discharge across its cube sets: the CubeRun, the
/// counters already reported, and the certificate state (a persistent
/// slot solver's later derivations resolve against earlier ones, so the
/// streams only check whole).
struct veriqec::engine::Discharge {
  Discharge(std::shared_ptr<const smt::VerificationProblem> P,
            const CubeRunConfig &Cfg, size_t NumSlots)
      : Problem(std::move(P)), Run(*Problem, Cfg, NumSlots),
        Streams(NumSlots) {}

  /// Closes a quiesced cube set into \p Out, whose NumCubes the caller
  /// set: counters since the previous set, verdict, certificate.
  void finish(SolveOutcome &Out) {
    if (Problem->TriviallyUnsat) {
      Out = triviallyUnsatOutcome(*Problem, Run.config().LogProofs);
      return;
    }
    sat::SolverStats Now;
    Run.accumulateStats(Now);
    Out.Stats = Now - Reported;
    Reported = Now;
    Out.CubesSolved = Run.solved() - Solved;
    Out.CubesPrunedGf2 = Run.prunedGf2() - PrunedGf2;
    Out.CubesPrunedCore = Run.prunedCore() - PrunedCore;
    Out.CubesPruned = Out.CubesPrunedGf2 + Out.CubesPrunedCore;
    Solved = Run.solved();
    PrunedGf2 = Run.prunedGf2();
    PrunedCore = Run.prunedCore();
    describeProblem(*Problem, Out);
    if (Run.satFound()) {
      Out.Result = SolveResult::Sat;
      Out.Model = Run.model();
    } else {
      // A core-certified global refutation outranks sibling aborts: the
      // cubes cancelled mid-search were redundant, not inconclusive.
      Out.Result = Run.globalUnsat()  ? SolveResult::Unsat
                   : Run.anyAborted() ? SolveResult::Aborted
                                      : SolveResult::Unsat;
    }
    if (!Run.config().LogProofs)
      return;
    for (size_t S = 0; S != Streams.size(); ++S)
      if (Streams[S].empty()) // a move: certificates run to many MB
        Streams[S] = Run.drainSlotProof(S);
      else
        Streams[S] += Run.drainSlotProof(S);
    if (Out.Result != SolveResult::Unsat)
      return;
    if (!Run.globalUnsat())
      Concluded += Out.NumCubes;
    Out.Proof = assembleCertificate(*Problem, Run.config(), Streams,
                                    Run.globalUnsat(), Concluded);
  }

  std::shared_ptr<const smt::VerificationProblem> Problem;
  CubeRun Run;
  sat::SolverStats Reported;
  uint64_t Solved = 0, PrunedGf2 = 0, PrunedCore = 0;
  std::vector<std::string> Streams; ///< per slot, everything so far
  uint64_t Concluded = 0; ///< cubes of the UNSAT cube sets so far
};

namespace {

/// One problem of a pool batch while its cubes are in flight: the
/// per-cube discharge logic (slot solvers, pruning, cancellation) lives
/// in CubeRun — shared with the distributed worker — and this wrapper
/// adds the cube list, the outstanding-cube countdown and the outcome.
struct ProblemRun {
  const CubeProblem *Input = nullptr;
  std::vector<std::vector<Lit>> Cubes;
  std::unique_ptr<Discharge> D;

  std::atomic<uint64_t> Remaining{0};
  SolveOutcome Out;
  Timer Clock;
};

void dischargeCube(ProblemRun &P, size_t CubeIdx) {
  int Worker = ThreadPool::currentWorkerIndex();
  if (Worker < 0)
    fatalError("cube task executed off the pool");
  P.D->Run.runCube(static_cast<size_t>(Worker), P.Cubes[CubeIdx], CubeIdx);
  if (P.Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
    P.Out.SolveSeconds = P.Clock.seconds();
}

} // namespace

std::vector<std::vector<Lit>>
veriqec::engine::enumerateCubes(const std::vector<Var> &SplitVars,
                                uint32_t Distance, uint32_t Threshold,
                                uint32_t MaxOnes) {
  std::vector<std::vector<Lit>> Cubes;
  // Threshold 0 disables splitting (SolveOptions contract): one open cube.
  if (Threshold == 0 || SplitVars.empty()) {
    Cubes.emplace_back();
    return Cubes;
  }
  std::vector<Lit> Prefix;
  enumerateCubesRec(SplitVars, Distance, Threshold, MaxOnes, Prefix, 0,
                    Cubes);
  return Cubes;
}

uint64_t veriqec::engine::countCubes(size_t NumSplitVars, uint32_t Distance,
                                     uint32_t Threshold, uint32_t MaxOnes,
                                     uint64_t Cap) {
  if (Threshold == 0 || NumSplitVars == 0)
    return 1;
  Cap = std::max<uint64_t>(Cap, 1);
  // The subtree below a node depends only on (bits, ones), so the leaf
  // count is a small DP instead of a walk over the (potentially
  // enormous) enumeration tree. Ones never exceeds min(bits, MaxOnes).
  size_t OnesCap =
      static_cast<size_t>(std::min<uint64_t>(MaxOnes, NumSplitVars));
  auto saturatingAdd = [Cap](uint64_t A, uint64_t B) {
    return std::min(Cap, A + B); // both summands are <= Cap <= 2^63
  };
  std::vector<uint64_t> Next(OnesCap + 1, 1), Cur(OnesCap + 1, 1);
  // Bits == NumSplitVars: every node is an exhausted leaf (count 1).
  for (size_t Bits = NumSplitVars; Bits-- > 0;) {
    size_t MaxO = std::min(Bits, OnesCap);
    for (size_t Ones = 0; Ones <= MaxO; ++Ones) {
      if (2ull * Distance * Ones + Bits > Threshold) {
        Cur[Ones] = 1; // ET leaf
        continue;
      }
      uint64_t Zero = Next[Ones];
      uint64_t One = (Ones + 1 <= MaxOnes && Ones + 1 <= OnesCap)
                         ? Next[Ones + 1]
                         : 0;
      Cur[Ones] = saturatingAdd(Zero, One);
    }
    std::swap(Cur, Next);
  }
  return Next[0];
}

uint32_t veriqec::engine::pickSplitThreshold(size_t NumSplitVars,
                                             uint32_t Distance,
                                             uint32_t MaxThreshold,
                                             uint32_t MaxOnes,
                                             size_t TotalSlots,
                                             uint64_t *CubeCountOut) {
  // 8 cubes per slot scales the set to the fleet; the floor keeps the
  // solver-reuse machinery fed on small fleets (see the header comment
  // for the measured numbers behind both constants).
  constexpr uint64_t CubesPerSlot = 8, MinAutoCubes = 8192;
  uint64_t Target =
      std::max(CubesPerSlot * std::max<size_t>(TotalSlots, 1), MinAutoCubes);
  uint64_t Cap = 32 * Target;
  auto count = [&](uint32_t T) {
    return countCubes(NumSplitVars, Distance, T, MaxOnes, Cap);
  };
  uint32_t Chosen = MaxThreshold;
  if (MaxThreshold > 1 && count(MaxThreshold) >= Target) {
    uint32_t Lo = 1, Hi = MaxThreshold;
    while (Lo < Hi) {
      uint32_t Mid = Lo + (Hi - Lo) / 2;
      if (count(Mid) >= Target)
        Hi = Mid;
      else
        Lo = Mid + 1;
    }
    Chosen = Lo;
  }
  if (CubeCountOut)
    *CubeCountOut = count(Chosen);
  return Chosen;
}

uint32_t veriqec::engine::autoSplitThreshold(size_t NumQubits,
                                             uint32_t Distance,
                                             uint32_t MaxOnes) {
  return static_cast<uint32_t>(
      std::min<uint64_t>(NumQubits, 2ull * Distance * MaxOnes + 4));
}

void veriqec::engine::describeProblem(const smt::VerificationProblem &P,
                                      SolveOutcome &Out) {
  Out.Prep = P.Prep;
  Out.CnfVars = P.Cnf.NumVars;
  Out.CnfClauses = P.Cnf.Clauses.size();
}

SolveOutcome
veriqec::engine::triviallyUnsatOutcome(const smt::VerificationProblem &P,
                                       bool LogProofs) {
  SolveOutcome Out;
  describeProblem(P, Out);
  Out.Result = SolveResult::Unsat;
  Out.NumCubes = 0;
  Out.CubesSolved = 0;
  if (LogProofs)
    Out.Proof = proof::buildTrivialProof(P);
  return Out;
}

std::string veriqec::engine::assembleCertificate(
    const smt::VerificationProblem &P, const CubeRunConfig &Cfg,
    std::span<const std::string> Streams, bool GlobalUnsat,
    uint64_t Concluded) {
  return proof::assembleProof(
      proof::buildProofHeader(P, Cfg.HardenBudget, Cfg.BudgetBound), Streams,
      GlobalUnsat ? std::nullopt : std::optional<uint64_t>(Concluded));
}

PreparedProblem veriqec::engine::prepareCubeProblem(const CubeProblem &P,
                                                    size_t TotalSlots) {
  const smt::SolveOptions &O = P.Opts;
  PreparedProblem Out;
  Out.Encoded = std::make_shared<smt::VerificationProblem>(
      *P.Ctx, P.Root, smt::makeProblemOptions(*P.Ctx, O));
  Out.Config.HardenBudget = !O.BudgetVars.empty();
  Out.Config.BudgetBound = O.BudgetBound;
  Out.Config.ConflictBudget = O.ConflictBudget;
  Out.Config.RandomSeed = O.RandomSeed;
  Out.Config.LogProofs = O.LogProofs;
  if (Out.Encoded->TriviallyUnsat)
    return Out; // refuted during preprocessing: no cubes, no solver
  std::vector<Var> SplitVars;
  for (const std::string &Name : O.SplitVars)
    SplitVars.push_back(Out.Encoded->varOfName(Name));
  // Order the split variables by GF(2) row participation: variables
  // that sit in no kept parity row contribute nothing to the GF(2)
  // cube pruner, so assuming them early wastes shared-prefix budget —
  // push them behind every row-constrained variable. WITHIN each class
  // the declaration order is preserved deliberately: error indicators
  // are declared in lattice order, so a cube prefix fixes a contiguous
  // patch of the code, and every stronger participation sort we tried
  // (count descending, count ascending, first-row clustering) scatters
  // that patch and regressed surface9 t=4 by 4-20x in conflicts, with
  // GF(2) prunes collapsing 24 -> 0-2. The cube COUNT is
  // order-invariant (the ET cut depends only on bits/ones), so fleet
  // sizing is unaffected; the stable partition keeps the order
  // deterministic, which the local-vs-distributed verdict-equality
  // invariant needs.
  std::vector<size_t> Participation(SplitVars.size());
  for (size_t I = 0; I != SplitVars.size(); ++I)
    Participation[I] = Out.Encoded->parityParticipation(SplitVars[I]);
  std::vector<size_t> Order(SplitVars.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::stable_partition(Order.begin(), Order.end(),
                        [&](size_t I) { return Participation[I] != 0; });
  std::vector<Var> Ordered;
  Ordered.reserve(SplitVars.size());
  for (size_t I : Order)
    Ordered.push_back(SplitVars[I]);
  SplitVars = std::move(Ordered);
  uint32_t Threshold = O.SplitThreshold;
  if (O.AutoSplitThreshold && Threshold != 0 && !SplitVars.empty())
    // Size the cube set to the fleet instead of taking the flat
    // budget-exhaustion cut: ~8 cubes per slot (with the reuse floor)
    // keeps stealing able to rebalance uneven hardness without flooding
    // the queues with near-trivial cubes.
    Threshold = pickSplitThreshold(SplitVars.size(), O.DistanceHint,
                                   Threshold, O.MaxOnes, TotalSlots);
  {
    obs::TraceSpan Span("cube_enumerate",
                        {{"split_vars", SplitVars.size()},
                         {"threshold", Threshold}});
    Out.Cubes =
        enumerateCubes(SplitVars, O.DistanceHint, Threshold, O.MaxOnes);
    Span.arg("cubes", Out.Cubes.size());
  }
  Out.SplitThresholdUsed =
      (!SplitVars.empty() && Threshold != 0) ? Threshold : 0;
  return Out;
}

SolveOutcome CubeEngine::solve(const smt::BoolContext &Ctx, smt::ExprRef Root,
                               const smt::SolveOptions &Opts) {
  CubeProblem Problem{&Ctx, Root, Opts};
  return solveAll({&Problem, 1}).front();
}

ThreadPool &CubeEngine::pool() {
  std::lock_guard<std::mutex> Lock(PoolMutex);
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(Width);
  return *Pool;
}

std::vector<SolveOutcome>
CubeEngine::solveAll(std::span<const CubeProblem> Problems) {
  // A lone unsplit problem has exactly one open cube: discharge it
  // through the handle API on the calling thread, so purely sequential
  // verification never spawns the pool.
  if (Problems.size() == 1 && (Problems[0].Opts.SplitVars.empty() ||
                               Problems[0].Opts.SplitThreshold == 0)) {
    PreparedProblem P = prepareCubeProblem(Problems[0], 1);
    uint32_t Handle = openProblem(std::move(P.Encoded), P.Config);
    std::vector<SolveOutcome> Outcomes;
    Outcomes.push_back(solveCubes(Handle, std::move(P.Cubes)));
    closeProblem(Handle);
    return Outcomes;
  }

  ThreadPool &Workers = pool();
  std::vector<std::unique_ptr<ProblemRun>> Runs;
  Runs.reserve(Problems.size());
  for (const CubeProblem &P : Problems) {
    auto Run = std::make_unique<ProblemRun>();
    Run->Input = &P;
    Runs.push_back(std::move(Run));
  }

  // Phase 1: encode every problem and enumerate its cubes. Encoding is
  // itself farmed out so a large batch builds its CNFs concurrently.
  WaitGroup EncodeWg;
  EncodeWg.add(Runs.size());
  size_t NumWorkers = Workers.numWorkers();
  for (std::unique_ptr<ProblemRun> &RunPtr : Runs) {
    ProblemRun *Run = RunPtr.get();
    Workers.submit([Run, NumWorkers, &EncodeWg] {
      PreparedProblem P = prepareCubeProblem(*Run->Input, NumWorkers);
      Run->Cubes = std::move(P.Cubes);
      Run->Out.SplitThresholdUsed = P.SplitThresholdUsed;
      Run->D = std::make_unique<Discharge>(std::move(P.Encoded), P.Config,
                                           NumWorkers);
      EncodeWg.done();
    });
  }
  EncodeWg.wait();

  // Phase 2: the cubes of every problem are dispatched as *contiguous
  // range* tasks — a few per worker, not one per cube, so the ET
  // enumeration's tens of thousands of mostly-trivial cubes do not pay
  // per-task queue and allocation overhead. Contiguity also means
  // neighbouring cubes share long assumption prefixes, which both the
  // worker's reusable solver (learnt clauses) and the incremental
  // assumption-trail reuse in sat::Solver exploit. Work stealing
  // rebalances whole ranges (thieves take from the victim's far end,
  // keeping ranges contiguous).
  WaitGroup CubeWg;
  size_t ProblemIdx = 0;
  // Several ranges per worker so stealing can still balance uneven
  // hardness within one problem.
  constexpr size_t RangesPerWorker = 8;
  for (std::unique_ptr<ProblemRun> &RunPtr : Runs) {
    ProblemRun *Run = RunPtr.get();
    size_t N = Run->Cubes.size();
    Run->Out.NumCubes = N;
    Run->Remaining.store(N, std::memory_order_relaxed);
    Run->Clock = Timer();
    size_t NumRanges = std::min(N, NumWorkers * RangesPerWorker);
    size_t Chunk = NumRanges ? (N + NumRanges - 1) / NumRanges : 0;
    size_t PerWorker = (NumRanges + NumWorkers - 1) / NumWorkers;
    CubeWg.add(NumRanges);
    for (size_t G = 0; G != NumRanges; ++G) {
      size_t Begin = std::min(N, G * Chunk);
      size_t End = std::min(N, Begin + Chunk);
      // Offset successive problems' ranges so a batch of small problems
      // still spreads across all workers.
      Workers.submitTo(ProblemIdx + G / PerWorker,
                       [Run, Begin, End, &CubeWg] {
                         for (size_t C = Begin; C < End; ++C)
                           dischargeCube(*Run, C);
                         CubeWg.done();
                       });
    }
    ++ProblemIdx;
  }
  // Live progress (opt-in): poll the runs' relaxed counters from the
  // calling thread until every cube is accounted for, then fall through
  // to the real barrier. Remaining hits zero at most a task-epilogue
  // ahead of CubeWg, so the wait below returns immediately.
  if (obs::progressEnabled()) {
    uint64_t Total = 0;
    for (std::unique_ptr<ProblemRun> &RunPtr : Runs)
      Total += RunPtr->Out.NumCubes;
    while (true) {
      uint64_t Left = 0, Done = 0, Pruned = 0, Conflicts = 0;
      for (std::unique_ptr<ProblemRun> &RunPtr : Runs) {
        Left += RunPtr->Remaining.load(std::memory_order_relaxed);
        const CubeRun &R = RunPtr->D->Run;
        Done += R.solved();
        Pruned += R.prunedGf2() + R.prunedCore();
        Conflicts += R.conflictsObserved();
      }
      obs::progressLine("cubes " + std::to_string(Done) + "/" +
                            std::to_string(Total) + "  pruned " +
                            std::to_string(Pruned) + "  conflicts " +
                            std::to_string(Conflicts),
                        /*Force=*/Left == 0);
      if (Left == 0)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    obs::progressDone();
  }
  CubeWg.wait();

  std::vector<SolveOutcome> Outcomes;
  Outcomes.reserve(Runs.size());
  for (std::unique_ptr<ProblemRun> &RunPtr : Runs) {
    RunPtr->D->finish(RunPtr->Out);
    Outcomes.push_back(std::move(RunPtr->Out));
  }
  return Outcomes;
}

CubeEngine::CubeEngine(size_t NumThreads)
    : Width(NumThreads ? NumThreads
                       : std::max(1u, std::thread::hardware_concurrency())) {}

CubeEngine::~CubeEngine() = default;

uint32_t
CubeEngine::openProblem(std::shared_ptr<const smt::VerificationProblem> P,
                        const CubeRunConfig &Config) {
  auto Entry = std::make_unique<Discharge>(std::move(P), Config, 1);
  std::lock_guard<std::mutex> Lock(OpenMutex);
  uint32_t Handle = NextHandle++;
  Open.emplace(Handle, std::move(Entry));
  return Handle;
}

SolveOutcome CubeEngine::solveCubes(uint32_t Handle,
                                    std::vector<std::vector<Lit>> Cubes) {
  Discharge *D = nullptr;
  {
    std::lock_guard<std::mutex> Lock(OpenMutex);
    D = Open.at(Handle).get();
  }
  // The previous cube set's verdict flags go; the slot solver, its
  // learnt clauses and the cumulative counters stay.
  D->Run.reset();
  SolveOutcome Out;
  Out.NumCubes = Cubes.size();
  Timer Clock;
  for (size_t C = 0; C != Cubes.size() && !D->Run.cancelled(); ++C)
    D->Run.runCube(0, Cubes[C], C);
  Out.SolveSeconds = Clock.seconds();
  D->finish(Out);
  return Out;
}

void CubeEngine::closeProblem(uint32_t Handle) {
  std::lock_guard<std::mutex> Lock(OpenMutex);
  Open.erase(Handle);
}

// -- smt-layer facades --------------------------------------------------------
//
// Declared in smt/CubeSolver.h; defined here so the smt layer contains no
// threading and no second solver set-up.

smt::SolveOutcome veriqec::smt::solveExpr(const BoolContext &Ctx,
                                          ExprRef Root,
                                          const SolveOptions &Opts) {
  SolveOptions OneCube = Opts;
  OneCube.SplitThreshold = 0;
  CubeEngine OneSlot(1);
  return OneSlot.solve(Ctx, Root, OneCube);
}

smt::SolveOutcome veriqec::smt::solveExprParallel(const BoolContext &Ctx,
                                                  ExprRef Root,
                                                  const SolveOptions &Opts) {
  return onEngine(Opts.NumThreads, [&](VerificationEngine &E) {
    return E.cubes().solve(Ctx, Root, Opts);
  });
}
