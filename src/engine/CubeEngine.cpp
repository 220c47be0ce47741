//===- engine/CubeEngine.cpp - Shared-queue cube-and-conquer --------------===//
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
#include <optional>
#include <string>
#include <thread>

using namespace veriqec;
using namespace veriqec::engine;
using sat::Lit;
using sat::SolveResult;
using sat::Var;
using smt::SolveOutcome;

/// One problem's discharge across its cube sets: the CubeRun and the
/// cube set the certificate stands for. A persistent slot solver's later
/// derivations resolve against earlier ones, so its proof stream only
/// checks whole: it grows across every cube set and goes into the one
/// certificate at close.
struct veriqec::engine::Discharge {
  Discharge(std::shared_ptr<const smt::VerificationProblem> P,
            const CubeRunConfig &Cfg, size_t NumSlots)
      : Problem(std::move(P)), Run(*Problem, Cfg, NumSlots) {}

  /// Starts the cube set \p T: a fresh verdict, while the slot solvers,
  /// their learnt clauses and the counters stay. A problem the
  /// preprocessor refuted runs no cube.
  void start(CubeTree T) {
    Run.reset();
    Tree = std::move(T);
    Cubes.clear();
    if (!Problem->TriviallyUnsat)
      Cubes = Tree.cubes();
  }

  /// Closes the quiesced cube set into \p Out, whose NumCubes the caller
  /// set: counters since the previous set and verdict. An UNSAT set
  /// becomes the one certificate() stands for.
  void finish(SolveOutcome &Out) {
    if (Problem->TriviallyUnsat) {
      Out = triviallyUnsatOutcome(*Problem, /*LogProofs=*/false);
      return;
    }
    CubeCounters Spent = Run.takeCounters();
    Out.Stats = Spent.Stats;
    Out.CubesSolved = Spent.Solved;
    describeProblem(*Problem, Out);
    CubeVerdict Verdict = Run.verdict();
    Out.Result = resultOf(Verdict);
    if (Verdict == CubeVerdict::Sat)
      Out.Model = Run.model();
    if (Run.config().LogProofs && Out.Result == SolveResult::Unsat)
      Proven = provenTree(std::move(Tree), Verdict == CubeVerdict::Refuted);
  }

  /// The certificate of the last UNSAT cube set, with every stream
  /// released into it; empty without LogProofs or without such a set.
  std::string certificate() {
    if (Problem->TriviallyUnsat && Run.config().LogProofs)
      return proof::buildTrivialProof(*Problem);
    if (!Proven)
      return {};
    std::vector<proof::ProofText> Streams;
    for (size_t S = 0; S != Run.numSlots(); ++S)
      Streams.push_back(Run.drainSlotProof(S));
    return assembleCertificate(*Problem, Streams, *Proven);
  }

  std::shared_ptr<const smt::VerificationProblem> Problem;
  CubeRun Run;
  CubeTree Tree;                       ///< the current cube set
  std::vector<std::vector<Lit>> Cubes; ///< its leaves, in order
  std::optional<CubeTree> Proven;      ///< the last UNSAT cube set
};

namespace {

/// One problem of a pool batch while its cubes are in flight: the
/// per-cube discharge logic (slot solvers, cancellation) lives in
/// CubeRun — shared with the distributed worker — and this wrapper adds
/// the outstanding-cube countdown and the outcome.
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

/// Solves \p Tree's leaves on \p D's one slot, on the calling thread.
SolveOutcome solveOnCaller(Discharge &D, CubeTree Tree) {
  D.start(std::move(Tree));
  SolveOutcome Out;
  Out.NumCubes = D.Cubes.size();
  Timer Clock;
  for (size_t C = 0; C != D.Cubes.size() && !D.Run.cancelled(); ++C)
    D.Run.runCube(0, D.Cubes[C], C);
  Out.SolveSeconds = Clock.seconds();
  D.finish(Out);
  return Out;
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

std::string
veriqec::engine::assembleCertificate(const smt::VerificationProblem &P,
                                     std::span<proof::ProofText> Streams,
                                     const CubeTree &Tree) {
  return proof::assembleProof(proof::buildProofHeader(P, Tree.bound()),
                              Streams, Tree);
}

CubeTree veriqec::engine::provenTree(CubeTree Tree, bool Refuted) {
  if (!Refuted)
    return Tree;
  return CubeTree(std::vector<Lit>(Tree.bound().begin(), Tree.bound().end()));
}

PreparedProblem veriqec::engine::prepareCubeProblem(const CubeProblem &P,
                                                    size_t TotalSlots) {
  const smt::SolveOptions &O = P.Opts;
  PreparedProblem Out;
  Out.Encoded = std::make_shared<smt::VerificationProblem>(
      *P.Ctx, P.Root, smt::makeProblemOptions(*P.Ctx, O));
  Out.Config.ConflictBudget = O.ConflictBudget;
  Out.Config.RandomSeed = O.RandomSeed;
  Out.Config.LogProofs = O.LogProofs;
  if (Out.Encoded->TriviallyUnsat)
    return Out; // refuted during preprocessing: no cube runs, no solver
  // Split variables keep their declaration order: error indicators are
  // declared in lattice order, so a cube prefix fixes a contiguous patch
  // of the code (every reordering tried scattered that patch and
  // regressed surface9 t=4 by 4-20x in conflicts).
  std::vector<Var> SplitVars;
  for (const std::string &Name : O.SplitVars)
    SplitVars.push_back(Out.Encoded->varOfName(Name));
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
  // A lone unsplit problem has exactly one open cube: discharge it on
  // the calling thread, so purely sequential verification never spawns
  // the pool.
  if (Problems.size() == 1 && (Problems[0].Opts.SplitVars.empty() ||
                               Problems[0].Opts.SplitThreshold == 0)) {
    PreparedProblem P = prepareCubeProblem(Problems[0], 1);
    Discharge D(std::move(P.Encoded), P.Config, 1);
    std::vector<SolveOutcome> Outcomes;
    Outcomes.push_back(solveOnCaller(D, std::move(P.Tree)));
    Outcomes.back().Proof = D.certificate();
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

  // Phase 2: the cubes of every problem go on the queue as cubeRanges()
  // tasks, problem by problem; idle threads take the next range, so one
  // thread runs every cube in enumeration order.
  WaitGroup CubeWg;
  for (std::unique_ptr<ProblemRun> &RunPtr : Runs) {
    ProblemRun *Run = RunPtr.get();
    size_t N = Run->D->Cubes.size();
    Run->Out.NumCubes = N;
    Run->Remaining.store(N, std::memory_order_relaxed);
    Run->Clock = Timer();
    std::vector<CubeRange> Ranges = cubeRanges(N, NumWorkers);
    CubeWg.add(Ranges.size());
    for (CubeRange R : Ranges)
      Workers.submit([Run, R, &CubeWg] {
        for (size_t C = R.Begin; C != R.End; ++C)
          dischargeCube(*Run, C);
        CubeWg.done();
      });
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
      uint64_t Left = 0, Done = 0, Conflicts = 0;
      for (std::unique_ptr<ProblemRun> &RunPtr : Runs) {
        Left += RunPtr->Remaining.load(std::memory_order_relaxed);
        const CubeRun &R = RunPtr->D->Run;
        Done += R.solved();
        Conflicts += R.conflictsObserved();
      }
      obs::progressLine("cubes " + std::to_string(Done) + "/" +
                            std::to_string(Total) + "  conflicts " +
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
    RunPtr->Out.Proof = RunPtr->D->certificate();
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
  return solveOnCaller(*D, std::move(Tree));
}

std::string CubeEngine::closeProblem(uint32_t Handle) {
  std::unique_lock<std::mutex> Lock(OpenMutex);
  auto Entry = Open.extract(Handle);
  Lock.unlock(); // assembly does not hold up other handles
  return Entry ? Entry.mapped()->certificate() : std::string();
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
