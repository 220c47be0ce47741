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

/// One problem's discharge across its cube sets: the CubeRun, the
/// counters already reported, and the certificate state (a persistent
/// slot solver's later derivations resolve against earlier ones, so the
/// streams only check whole).
struct veriqec::engine::Discharge {
  Discharge(std::shared_ptr<const smt::VerificationProblem> P,
            const CubeRunConfig &Cfg, size_t NumSlots)
      : Problem(std::move(P)), Run(*Problem, Cfg, NumSlots),
        Streams(NumSlots) {}

  /// Starts the cube set \p T: fresh verdict flags, while the slot
  /// solvers, their learnt clauses and the cumulative counters stay. A
  /// problem the preprocessor refuted runs no cube.
  void start(CubeTree T) {
    Run.reset();
    Tree = std::move(T);
    Cubes.clear();
    if (!Problem->TriviallyUnsat)
      Cubes = Tree.cubes();
  }

  /// Closes the quiesced cube set into \p Out, whose NumCubes the caller
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
    Out.CubesPruned = Run.prunedCore() - PrunedCore;
    Solved = Run.solved();
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
    if (Out.Result == SolveResult::Unsat)
      Out.Proof = assembleCertificate(*Problem, Run.config(), Streams, Tree,
                                      Run.globalUnsat());
  }

  std::shared_ptr<const smt::VerificationProblem> Problem;
  CubeRun Run;
  sat::SolverStats Reported;
  uint64_t Solved = 0, PrunedCore = 0;
  std::vector<std::string> Streams;    ///< per slot, everything so far
  CubeTree Tree;                       ///< the current cube set
  std::vector<std::vector<Lit>> Cubes; ///< its leaves, in order
};

namespace {

/// One problem of a pool batch while its cubes are in flight: the
/// per-cube discharge logic (slot solvers, pruning, cancellation) lives
/// in CubeRun — shared with the distributed worker — and this wrapper
/// adds the outstanding-cube countdown and the outcome.
struct ProblemRun {
  const CubeProblem *Input = nullptr;
  std::unique_ptr<Discharge> D;

  std::atomic<uint64_t> Remaining{0};
  SolveOutcome Out;
  Timer Clock;
};

void dischargeCube(ProblemRun &P, size_t CubeIdx) {
  int Worker = ThreadPool::currentWorkerIndex();
  if (Worker < 0)
    fatalError("cube task executed off the pool");
  P.D->Run.runCube(static_cast<size_t>(Worker), P.D->Cubes[CubeIdx], CubeIdx);
  if (P.Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
    P.Out.SolveSeconds = P.Clock.seconds();
}

} // namespace

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
    std::span<const std::string> Streams, const CubeTree &Tree, bool Refuted) {
  std::vector<Lit> Units;
  if (Cfg.HardenBudget)
    P.appendWeightAssumptions(Cfg.BudgetBound, Units);
  Units.insert(Units.end(), Tree.bound().begin(), Tree.bound().end());
  return proof::assembleProof(proof::buildProofHeader(P, Units), Streams,
                              Refuted ? nullptr : &Tree);
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
    return Out; // refuted during preprocessing: no cube runs, no solver
  std::vector<Var> SplitVars;
  for (const std::string &Name : O.SplitVars)
    SplitVars.push_back(Out.Encoded->varOfName(Name));
  // Order the split variables by GF(2) row participation: variables
  // that sit in no kept parity row feed the slot solvers' parity
  // propagation nothing, so assuming them early wastes shared-prefix
  // budget — push them behind every row-constrained variable. WITHIN
  // each class the declaration order is preserved deliberately: error
  // indicators are declared in lattice order, so a cube prefix fixes a
  // contiguous patch of the code, and every stronger participation sort
  // we tried (count descending, count ascending, first-row clustering)
  // scatters that patch and regressed surface9 t=4 by 4-20x in
  // conflicts. The cube COUNT is order-invariant (the ET cut depends
  // only on bits/ones), so fleet sizing is unaffected; the stable
  // partition keeps the order deterministic, which the
  // local-vs-distributed verdict-equality invariant needs.
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
  // The sizing rule (see the header): under an auto threshold, the
  // first threshold whose tree has ~8 leaves per slot, at least 8192.
  constexpr uint64_t CubesPerSlot = 8, MinAutoCubes = 8192;
  uint64_t Target =
      std::max(CubesPerSlot * std::max<size_t>(TotalSlots, 1), MinAutoCubes);
  if (!O.AutoSplitThreshold)
    Target = UINT64_MAX; // grow straight to the explicit threshold
  obs::TraceSpan Span("cube_enumerate", {{"split_vars", SplitVars.size()}});
  Out.SplitThresholdUsed = Out.Tree.growEt(SplitVars, O.DistanceHint, O.MaxOnes,
                                           O.SplitThreshold, Target);
  Span.arg("threshold", Out.SplitThresholdUsed);
  Span.arg("cubes", Out.Tree.numLeaves());
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
    Outcomes.push_back(solveCubes(Handle, std::move(P.Tree)));
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

  // Phase 1: encode every problem and grow its cube tree. Encoding is
  // itself farmed out so a large batch builds its CNFs concurrently.
  WaitGroup EncodeWg;
  EncodeWg.add(Runs.size());
  size_t NumWorkers = Workers.numWorkers();
  for (std::unique_ptr<ProblemRun> &RunPtr : Runs) {
    ProblemRun *Run = RunPtr.get();
    Workers.submit([Run, NumWorkers, &EncodeWg] {
      PreparedProblem P = prepareCubeProblem(*Run->Input, NumWorkers);
      Run->Out.SplitThresholdUsed = P.SplitThresholdUsed;
      Run->D = std::make_unique<Discharge>(std::move(P.Encoded), P.Config,
                                           NumWorkers);
      Run->D->start(std::move(P.Tree));
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
    size_t N = Run->D->Cubes.size();
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
        Pruned += R.prunedCore();
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

SolveOutcome CubeEngine::solveCubes(uint32_t Handle, CubeTree Tree) {
  Discharge *D = nullptr;
  {
    std::lock_guard<std::mutex> Lock(OpenMutex);
    D = Open.at(Handle).get();
  }
  D->start(std::move(Tree));
  SolveOutcome Out;
  Out.NumCubes = D->Cubes.size();
  Timer Clock;
  for (size_t C = 0; C != D->Cubes.size() && !D->Run.cancelled(); ++C)
    D->Run.runCube(0, D->Cubes[C], C);
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
