//===- tests/engine_test.cpp - Verification engine tests -------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared-queue engine: pool mechanics, the cube-range rule, the ET
/// cube tree (growth, sizing, cube order, trailer, a certificate missing
/// a leaf), verdict determinism across 1/2/4/8 workers for both UNSAT
/// (verified) and SAT (counterexample) workloads, first-SAT-cube
/// cancellation, and batch verifyAll consistency with one-at-a-time
/// verification.
///
//===----------------------------------------------------------------------===//

#include "engine/CubeEngine.h"
#include "engine/CubeRun.h"
#include "engine/VerificationEngine.h"
#include "proof/ProofCheck.h"
#include "qec/Codes.h"
#include "verifier/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace veriqec;
using namespace veriqec::engine;
using smt::BoolContext;
using smt::ExprRef;
using smt::SolveOptions;
using smt::SolveOutcome;
using smt::XorMode;

TEST(ThreadPool, IdleWorkerTakesQueuedTasksInSubmissionOrder) {
  // One of two threads is held at a gate for the whole test, so the
  // other runs every queued task, and must take them in submission order.
  std::promise<void> Started[2], Release[2];
  ThreadPool Pool(2);
  for (int G = 0; G != 2; ++G) {
    Pool.submit([&Started, G, Gate = Release[G].get_future().share()] {
      Started[G].set_value();
      Gate.wait();
    });
    Started[G].get_future().wait();
  }
  std::mutex OrderMutex;
  std::vector<int> Order;
  WaitGroup Wg;
  constexpr int N = 8;
  Wg.add(N);
  for (int I = 0; I != N; ++I)
    Pool.submit([&, I] {
      std::lock_guard<std::mutex> Lock(OrderMutex);
      Order.push_back(I);
      Wg.done();
    });
  Release[0].set_value();
  Wg.wait();
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  Release[1].set_value();
}

TEST(ThreadPool, RunsEveryTaskOnAWorker) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numWorkers(), 4u);
  std::atomic<int> Count{0};
  std::atomic<bool> OffPool{false};
  WaitGroup Wg;
  constexpr int N = 200;
  Wg.add(N);
  for (int I = 0; I != N; ++I)
    Pool.submit([&] {
      if (ThreadPool::currentWorkerIndex() < 0)
        OffPool.store(true);
      Count.fetch_add(1);
      Wg.done();
    });
  Wg.wait();
  EXPECT_EQ(Count.load(), N);
  EXPECT_FALSE(OffPool.load());
  EXPECT_EQ(ThreadPool::currentWorkerIndex(), -1); // the test thread
}

TEST(ThreadPool, WaitGroupCanDieRightAfterWait) {
  // Each group is freed as soon as wait() returns, while the task that
  // called the last done() may still be inside it: done() must not touch
  // the group once wait() can see zero (ThreadSanitizer and
  // AddressSanitizer builds report the use after free otherwise).
  ThreadPool Pool(4);
  constexpr int Groups = 20000, Tasks = 2;
  std::atomic<int> Count{0};
  for (int G = 0; G != Groups; ++G) {
    auto Wg = std::make_unique<WaitGroup>();
    Wg->add(Tasks);
    for (int T = 0; T != Tasks; ++T)
      Pool.submit([&Count, Group = Wg.get()] {
        Count.fetch_add(1, std::memory_order_relaxed);
        Group->done();
      });
    Wg->wait();
  }
  EXPECT_EQ(Count.load(), Groups * Tasks);
}

// -- Cutting cubes into pool tasks -------------------------------------------

TEST(CubeRanges, CoverEveryCubeOnceInOrderAtMostEightPerSlot) {
  for (size_t Slots : {1, 2, 3, 4, 16})
    for (size_t N : {0, 1, 2, 7, 8, 9, 31, 32, 33, 1000, 9201}) {
      SCOPED_TRACE(testing::Message() << N << " cubes, " << Slots << " slots");
      std::vector<CubeRange> Ranges = cubeRanges(N, Slots);
      EXPECT_LE(Ranges.size(), 8 * Slots);
      size_t Next = 0;
      for (CubeRange R : Ranges) {
        EXPECT_EQ(R.Begin, Next);
        EXPECT_LT(R.Begin, R.End);
        Next = R.End;
      }
      EXPECT_EQ(Next, N);
    }
}

TEST(CubeRanges, NoCubesNoRangesAndFewCubesOneEach) {
  EXPECT_TRUE(cubeRanges(0, 1).empty());
  EXPECT_TRUE(cubeRanges(0, 4).empty());
  std::vector<CubeRange> Few = cubeRanges(3, 4);
  ASSERT_EQ(Few.size(), 3u);
  for (size_t I = 0; I != Few.size(); ++I) {
    EXPECT_EQ(Few[I].Begin, I);
    EXPECT_EQ(Few[I].End, I + 1);
  }
}

// -- The cube tree -----------------------------------------------------------

namespace {

std::vector<sat::Var> firstVars(sat::Var N) {
  std::vector<sat::Var> Vars;
  for (sat::Var V = 0; V != N; ++V)
    Vars.push_back(V);
  return Vars;
}

CubeTree etTree(sat::Var NumVars, uint32_t Distance, uint32_t Threshold,
                uint32_t MaxOnes) {
  CubeTree T;
  T.growEt(firstVars(NumVars), Distance, MaxOnes, Threshold);
  return T;
}

/// The ET cut written as a direct recursion: every prefix extends while
/// 2*Distance*ones + bits <= Threshold, zero branch first.
void etCubes(const std::vector<sat::Var> &Vars, uint32_t Distance,
             uint32_t Threshold, uint32_t MaxOnes, std::vector<sat::Lit> &Path,
             uint32_t Ones, std::vector<std::vector<sat::Lit>> &Out) {
  uint32_t Bits = static_cast<uint32_t>(Path.size());
  if (Bits == Vars.size() || 2 * Distance * Ones + Bits > Threshold) {
    Out.push_back(Path);
    return;
  }
  Path.push_back(~sat::mkLit(Vars[Bits]));
  etCubes(Vars, Distance, Threshold, MaxOnes, Path, Ones, Out);
  Path.back() = sat::mkLit(Vars[Bits]);
  if (Ones < MaxOnes)
    etCubes(Vars, Distance, Threshold, MaxOnes, Path, Ones + 1, Out);
  Path.pop_back();
}

} // namespace

TEST(CubeTree, EtGrowthRespectsThresholdAndMaxOnes) {
  // Distance 0 degenerates ET to the bit count: full expansion to depth 4.
  EXPECT_EQ(etTree(4, 0, 4, ~0u).numLeaves(), 16u);
  // Distance 1: ET = 2*ones + bits, so one-heavy branches terminate
  // early and the tree has 8 leaves (hand-enumerated).
  CubeTree All = etTree(4, 1, 4, ~0u);
  EXPECT_EQ(All.numLeaves(), 8u);
  // MaxOnes 1 additionally drops every second-one branch: 5 leaves.
  EXPECT_EQ(etTree(4, 1, 4, 1).numLeaves(), 5u);
  // Threshold 0 disables splitting: one empty cube.
  CubeTree Single = etTree(4, 1, 0, ~0u);
  EXPECT_EQ(Single.numNodes(), 1u);
  ASSERT_EQ(Single.cubes().size(), 1u);
  EXPECT_TRUE(Single.cubes()[0].empty());
  // A threshold past every splittable ET (2*4 + 4 here) grows the same
  // tree, and is the one reported.
  CubeTree Far;
  EXPECT_EQ(Far.growEt(firstVars(4), 1, ~0u, UINT32_MAX), UINT32_MAX);
  EXPECT_EQ(Far.cubes(), etTree(4, 1, 12, ~0u).cubes());
  // Deterministic order: the all-zero cube first.
  std::vector<std::vector<sat::Lit>> Cubes = All.cubes();
  ASSERT_EQ(Cubes.size(), All.numLeaves());
  for (sat::Lit L : Cubes.front())
    EXPECT_TRUE(L.negated());
}

TEST(CubeTree, GrowthListsTheEtCutsCubesInOrder) {
  std::vector<sat::Var> Vars = firstVars(12);
  for (uint32_t Threshold : {0u, 3u, 9u, 20u, 35u}) {
    for (uint32_t MaxOnes : {0u, 1u, 2u, ~0u}) {
      SCOPED_TRACE("T=" + std::to_string(Threshold) +
                   " MaxOnes=" + std::to_string(MaxOnes));
      std::vector<std::vector<sat::Lit>> Want;
      std::vector<sat::Lit> Path;
      if (Threshold == 0)
        Want.emplace_back();
      else
        etCubes(Vars, 5, Threshold, MaxOnes, Path, 0, Want);
      CubeTree T = etTree(12, 5, Threshold, MaxOnes);
      EXPECT_EQ(T.cubes(), Want);
      EXPECT_EQ(T.numLeaves(), Want.size());
    }
  }
}

TEST(CubeTree, SizingStopsAtTheLeastThresholdReachingTheTarget) {
  // 40 split vars, distance hint 9, budget 4: the flat cut would be
  // 2*9*4+4 = 76. Growth must stop at the least threshold whose tree
  // reaches the target (8625 leaves at 69, 7642 at 68), never past the
  // cap.
  std::vector<sat::Var> Vars = firstVars(40);
  CubeTree Sized;
  EXPECT_EQ(Sized.growEt(Vars, 9, 4, 76, 8192), 69u);
  EXPECT_EQ(Sized.numLeaves(), 8625u);
  EXPECT_EQ(etTree(40, 9, 68, 4).numLeaves(), 7642u);
  // Growing straight to that threshold gives the same tree.
  EXPECT_EQ(etTree(40, 9, 69, 4).cubes(), Sized.cubes());
  // A target beyond the cap's tree keeps the cap.
  CubeTree Capped;
  EXPECT_EQ(Capped.growEt(Vars, 9, 4, 76, 8 * 4096), 76u);
  EXPECT_EQ(Capped.numLeaves(), 19556u);
  CubeTree Tiny;
  EXPECT_EQ(Tiny.growEt(firstVars(3), 2, 1, 10, 8192), 10u);
}

TEST(CubeTree, BoundLeadsEveryCubeAndTrailerIsPostOrder) {
  // Vars 1..3, ET = 2*ones + bits <= 4, at most one one: the nodes [1],
  // [1 -2] and [-1 2] lost their one branch, so the tree has 4 leaves
  // and 6 internal nodes. The trailer text is pinned byte for byte, so
  // certificates of the same run stay identical.
  CubeTree T({sat::mkLit(7)});
  T.growEt(firstVars(3), 1, 1, 4);
  EXPECT_EQ(T.numLeaves(), 4u);
  EXPECT_EQ(T.numNodes(), 10u);
  std::vector<std::vector<sat::Lit>> Cubes = T.cubes();
  ASSERT_EQ(Cubes.size(), 4u);
  for (const std::vector<sat::Lit> &Cube : Cubes)
    EXPECT_EQ(Cube.front(), sat::mkLit(7));
  std::vector<sat::Lit> Last{sat::mkLit(7), sat::mkLit(0), ~sat::mkLit(1),
                             ~sat::mkLit(2)};
  EXPECT_EQ(Cubes[3], Last);
  auto Trailer = [](const CubeTree &Tree) {
    return proof::assembleProof({}, {}, Tree);
  };
  EXPECT_EQ(Trailer(T),
            "r\na -1 2 0\na -1 0\na 1 -2 0\na 1 2 0\na 1 0\na 0\n");
  // A one-leaf tree has no trailer, and neither has a set an empty core
  // refuted: its certificate stands for its bound alone.
  CubeTree Leaf({sat::mkLit(7)});
  EXPECT_EQ(Trailer(Leaf), "");
  EXPECT_EQ(Trailer(provenTree(T, false)), Trailer(T));
  CubeTree Refuted = provenTree(T, true);
  EXPECT_EQ(Refuted.numNodes(), 1u);
  EXPECT_TRUE(std::ranges::equal(Refuted.bound(), T.bound()));
  EXPECT_EQ(Trailer(Refuted), "");
}

TEST(CubeTree, CertificateMissingOneLeafIsRejected) {
  // a AND b has its only model in the leaf {a, b}, so no core of another
  // leaf covers it. Two slots discharge every other leaf; the
  // certificate over the full tree must fail at that leaf's parent.
  BoolContext Ctx;
  smt::ProblemOptions PO;
  PO.ProtectedVars = {"a", "b"};
  smt::VerificationProblem P(Ctx, Ctx.mkAnd(Ctx.mkVar("a"), Ctx.mkVar("b")),
                             PO);
  ASSERT_FALSE(P.TriviallyUnsat);
  std::vector<sat::Var> Vars{P.varOfName("a"), P.varOfName("b")};
  CubeTree Tree;
  Tree.growEt(Vars, 0, ~0u, 2);
  std::vector<std::vector<sat::Lit>> Cubes = Tree.cubes();
  ASSERT_EQ(Cubes.size(), 4u);
  CubeRunConfig Cfg;
  Cfg.LogProofs = true;
  CubeRun Run(P, Cfg, 2);
  for (size_t C = 0; C != 3; ++C)
    EXPECT_NE(Run.runCube(C % 2, Cubes[C], C), CubeVerdict::Sat);
  proof::ProofText Streams[] = {Run.drainSlotProof(0), Run.drainSlotProof(1)};
  std::string Cert = assembleCertificate(P, Streams, Tree);
  proof::CheckResult CR = proof::checkProof(Cert);
  EXPECT_FALSE(CR.Ok);
  // The first trailer addition is the dropped leaf's parent, [a].
  std::string Parent = "a " + std::to_string(-int(Vars[0] + 1)) + " 0";
  size_t At = Cert.find("\nr\n");
  ASSERT_NE(At, std::string::npos);
  EXPECT_EQ(Cert.substr(At + 3, Parent.size()), Parent);
  EXPECT_NE(CR.Error.find("not RUP"), std::string::npos) << CR.Error;
  EXPECT_EQ(Run.runCube(0, Cubes[3], 3), CubeVerdict::Sat);
}

namespace {

/// Exactly 3 of 10 variables set, plus a parity side condition. UNSAT
/// variant adds a contradiction.
ExprRef makeCountingFormula(BoolContext &Ctx, std::vector<std::string> &Names,
                            bool Satisfiable) {
  std::vector<ExprRef> Vars;
  for (int I = 0; I != 10; ++I) {
    Names.push_back("e" + std::to_string(I));
    Vars.push_back(Ctx.mkVar(Names.back()));
  }
  ExprRef Root = Ctx.mkAnd({Ctx.mkAtMost(Vars, 3), Ctx.mkAtLeast(Vars, 3),
                            Ctx.mkXor(Vars[0], Vars[9])});
  if (!Satisfiable)
    Root = Ctx.mkAnd(Root, Ctx.mkAtLeast(Vars, 5));
  return Root;
}

SolveOptions splitOptions(const std::vector<std::string> &Names) {
  SolveOptions Opts;
  Opts.SplitVars = Names;
  Opts.DistanceHint = 2;
  Opts.SplitThreshold = 8;
  return Opts;
}

} // namespace

TEST(CubeEngine, VerdictIsThreadCountInvariant) {
  for (bool Satisfiable : {false, true}) {
    BoolContext Ctx;
    std::vector<std::string> Names;
    ExprRef Root = makeCountingFormula(Ctx, Names, Satisfiable);
    SolveOptions Opts = splitOptions(Names);
    uint64_t BaselineCubes = 0;
    for (size_t Threads : {1u, 2u, 4u, 8u}) {
      CubeEngine Engine(Threads);
      SolveOutcome Out = Engine.solve(Ctx, Root, Opts);
      EXPECT_EQ(Out.Result, Satisfiable ? sat::SolveResult::Sat
                                        : sat::SolveResult::Unsat)
          << "threads=" << Threads;
      // The ET cube set does not depend on the pool width.
      if (!BaselineCubes)
        BaselineCubes = Out.NumCubes;
      EXPECT_EQ(Out.NumCubes, BaselineCubes) << "threads=" << Threads;
      EXPECT_GT(Out.NumCubes, 1u);
      if (Satisfiable) {
        std::vector<bool> Assignment;
        for (const std::string &Name : Names)
          Assignment.push_back(Out.Model.at(Name));
        EXPECT_TRUE(Ctx.evaluate(Root, Assignment))
            << "threads=" << Threads;
      } else {
        // All cubes are accounted for, though not necessarily all solved:
        // an UNSAT cube whose refutation used none of its own assumption
        // literals (sat::Solver::conflictCore) proves the whole problem
        // UNSAT and cancels its siblings.
        EXPECT_GE(Out.CubesSolved, 1u) << "threads=" << Threads;
        EXPECT_LE(Out.CubesSolved, Out.NumCubes) << "threads=" << Threads;
      }
    }
  }
}

TEST(CubeEngine, FirstSatCubeCancelsSiblings) {
  // Every cube of this problem is satisfiable (the aux variable is free),
  // so whichever cube finishes first must cancel all outstanding ones.
  BoolContext Ctx;
  std::vector<std::string> Names;
  for (int I = 0; I != 10; ++I) {
    Names.push_back("e" + std::to_string(I));
    Ctx.mkVar(Names.back());
  }
  ExprRef Root = Ctx.mkVar("aux");
  SolveOptions Opts = splitOptions(Names);

  CubeEngine Sequential(1);
  SolveOutcome SeqOut = Sequential.solve(Ctx, Root, Opts);
  EXPECT_EQ(SeqOut.Result, sat::SolveResult::Sat);
  EXPECT_GT(SeqOut.NumCubes, 8u);
  // One worker: the first cube answers and every sibling is skipped.
  EXPECT_EQ(SeqOut.CubesSolved, 1u);

  CubeEngine Parallel(4);
  SolveOutcome ParOut = Parallel.solve(Ctx, Root, Opts);
  EXPECT_EQ(ParOut.Result, sat::SolveResult::Sat);
  // Racing workers may each decide one cube before observing the cancel
  // flag, but the bulk of the queue must be skipped.
  EXPECT_LT(ParOut.CubesSolved, ParOut.NumCubes);
}

namespace {

struct EngineCase {
  const char *Label;
  StabilizerCode (*Make)();
  PauliKind ErrorKind;
  uint32_t MaxErrors;
  bool ExpectVerified;
};

StabilizerCode steane() { return makeSteaneCode(); }
StabilizerCode surface3() { return makeRotatedSurfaceCode(3); }
StabilizerCode repetition3() { return makeRepetitionCode(3); }

const EngineCase EngineCases[] = {
    {"repetition3_X_t1", repetition3, PauliKind::X, 1, true},
    {"steane_Y_t1", steane, PauliKind::Y, 1, true},
    {"steane_Y_t2_fails", steane, PauliKind::Y, 2, false},
    {"surface3_Y_t1", surface3, PauliKind::Y, 1, true},
};

} // namespace

TEST(VerificationEngine, ParallelVerdictMatchesSequentialAcrossWidths) {
  for (const EngineCase &C : EngineCases) {
    StabilizerCode Code = C.Make();
    Scenario S =
        makeMemoryScenario(Code, C.ErrorKind, LogicalBasis::Z, C.MaxErrors);
    VerificationResult Seq = verifyScenario(S, {});
    ASSERT_TRUE(Seq.StructuralOk) << C.Label;
    EXPECT_EQ(Seq.Verified, C.ExpectVerified) << C.Label;
    for (size_t Threads : {2u, 4u, 8u}) {
      VerificationEngine Engine(Threads);
      VerifyOptions Opts;
      Opts.Parallel = true;
      VerificationResult Par = Engine.verify(S, Opts);
      ASSERT_TRUE(Par.StructuralOk) << C.Label << " threads=" << Threads;
      EXPECT_EQ(Par.Verified, Seq.Verified)
          << C.Label << " threads=" << Threads;
      EXPECT_GT(Par.NumCubes, 1u) << C.Label;
      if (!Par.Verified) {
        EXPECT_FALSE(Par.CounterExample.empty()) << C.Label;
      }
    }
  }
}

TEST(VerificationEngine, BatchMatchesOneAtATime) {
  std::vector<Scenario> Scenarios;
  std::vector<bool> Expected;
  for (const EngineCase &C : EngineCases) {
    StabilizerCode Code = C.Make();
    Scenarios.push_back(
        makeMemoryScenario(Code, C.ErrorKind, LogicalBasis::Z, C.MaxErrors));
    Expected.push_back(C.ExpectVerified);
  }
  VerifyOptions Opts;
  Opts.Parallel = true;
  VerificationEngine Engine(4);
  std::vector<VerificationResult> Batch = Engine.verifyAll(Scenarios, Opts);
  ASSERT_EQ(Batch.size(), Scenarios.size());
  for (size_t I = 0; I != Batch.size(); ++I) {
    EXPECT_TRUE(Batch[I].StructuralOk) << Scenarios[I].Name;
    EXPECT_EQ(Batch[I].Verified, Expected[I]) << Scenarios[I].Name;
    EXPECT_GT(Batch[I].Stats.propagations(), 0u) << Scenarios[I].Name;
  }
  // A SAT scenario in the batch must not poison its neighbours: the
  // counterexample belongs to the failing scenario only.
  EXPECT_FALSE(Batch[2].CounterExample.empty());
  EXPECT_TRUE(Batch[3].CounterExample.empty());
}

TEST(VerificationEngine, FreeFunctionFacadeHonorsThreadOption) {
  StabilizerCode Code = makeRotatedSurfaceCode(3);
  Scenario S = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, 1);
  for (size_t Threads : {2u, 4u}) {
    VerifyOptions Opts;
    Opts.Parallel = true;
    Opts.Threads = Threads;
    VerificationResult R = verifyScenario(S, Opts);
    EXPECT_TRUE(R.Verified) << "threads=" << Threads;
    EXPECT_GT(R.NumCubes, 1u);
  }
  std::vector<Scenario> Batch{S, S};
  VerifyOptions Opts;
  Opts.Parallel = true;
  std::vector<VerificationResult> Rs = verifyAll(Batch, Opts);
  ASSERT_EQ(Rs.size(), 2u);
  EXPECT_TRUE(Rs[0].Verified);
  EXPECT_TRUE(Rs[1].Verified);
}

TEST(CubeEngine, SplitVariablesKeepTheirDeclaredOrder) {
  // c sits in no parity row (only in the residue c | a), while a, b and
  // e share the kept row a ^ b ^ e = 1. Declared first, c still leads
  // every cube: split variables are never reordered by row membership.
  BoolContext Ctx;
  ExprRef A = Ctx.mkVar("a"), B = Ctx.mkVar("b"), C = Ctx.mkVar("c"),
          E = Ctx.mkVar("e");
  ExprRef Root = Ctx.mkAnd(Ctx.mkXor({A, B, E}), Ctx.mkOr(C, A));
  SolveOptions Opts;
  Opts.SplitVars = {"c", "a", "b", "e"};
  Opts.DistanceHint = 0;
  Opts.SplitThreshold = 4;
  CubeProblem Problem{&Ctx, Root, Opts};
  PreparedProblem P = prepareCubeProblem(Problem, 1);
  ASSERT_FALSE(P.Encoded->TriviallyUnsat);
  ASSERT_EQ(P.Encoded->keptRows().size(), 1u);
  std::vector<std::vector<sat::Lit>> Cubes = P.Tree.cubes();
  ASSERT_EQ(Cubes.size(), 16u);
  for (const std::vector<sat::Lit> &Cube : Cubes) {
    ASSERT_EQ(Cube.size(), Opts.SplitVars.size());
    for (size_t I = 0; I != Cube.size(); ++I)
      EXPECT_EQ(Cube[I].var(), P.Encoded->varOfName(Opts.SplitVars[I]))
          << "position " << I;
  }
}

TEST(CubeEngine, XorOnAndOffAgreeOnCrossRowParityCase) {
  // The two rows imply e0 ^ e1 = 1 after their shared aux pair cancels,
  // so the cubes {e0=0,e1=0} and {e0=1,e1=1} are inconsistent — but
  // every single row still has two unknowns under either cube, so only
  // the native engine's cross-row elimination (or CNF search over the
  // parity chains) refutes them. The AtMost residue pins a and b so the
  // preprocessor cannot merge the rows at encode time.
  BoolContext Ctx;
  ExprRef E0 = Ctx.mkVar("e0"), E1 = Ctx.mkVar("e1");
  ExprRef A = Ctx.mkVar("a"), B = Ctx.mkVar("b");
  ExprRef Root = Ctx.mkAnd({
      Ctx.mkNot(Ctx.mkXor(E0, Ctx.mkXor(A, B))), // e0 ^ a ^ b = 0
      Ctx.mkXor(E1, Ctx.mkXor(A, B)),            // e1 ^ a ^ b = 1
      Ctx.mkAtMost({A, B}, 1),
  });
  SolveOptions Opts;
  Opts.SplitVars = {"e0", "e1"};
  Opts.DistanceHint = 2;
  Opts.SplitThreshold = 16;

  SolveOptions OnOpts = Opts;
  OnOpts.Xor = XorMode::On;
  CubeEngine WithXor(1);
  SolveOutcome On = WithXor.solve(Ctx, Root, OnOpts);
  SolveOptions OffOpts = Opts;
  OffOpts.Xor = XorMode::Off;
  CubeEngine WithoutXor(1);
  SolveOutcome Off = WithoutXor.solve(Ctx, Root, OffOpts);

  // Same verdict either way.
  EXPECT_EQ(On.Result, sat::SolveResult::Sat);
  EXPECT_EQ(Off.Result, sat::SolveResult::Sat);
}

TEST(CubeVerdict, CellFoldsToTheMaximumAndNeverLowers) {
  VerdictCell Cell;
  EXPECT_EQ(Cell.get(), CubeVerdict::Unsat);
  Cell.raise(CubeVerdict::Aborted);
  Cell.raise(CubeVerdict::Cancelled);
  Cell.raise(CubeVerdict::Unsat);
  EXPECT_EQ(Cell.get(), CubeVerdict::Aborted);
  // An empty core outranks budget aborts: the aborted cubes were
  // redundant.
  Cell.raise(CubeVerdict::Refuted);
  Cell.raise(CubeVerdict::Aborted);
  EXPECT_EQ(Cell.get(), CubeVerdict::Refuted);
  const CubeVerdict All[] = {CubeVerdict::Unsat, CubeVerdict::Cancelled,
                             CubeVerdict::Aborted, CubeVerdict::Refuted,
                             CubeVerdict::Sat};
  Cell.raise(CubeVerdict::Sat);
  for (CubeVerdict V : All) {
    Cell.raise(V);
    EXPECT_EQ(Cell.get(), CubeVerdict::Sat);
  }
  Cell.reset();
  EXPECT_EQ(Cell.get(), CubeVerdict::Unsat);

  // Raised from many threads at once, the cell ends at the maximum.
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != 4; ++T)
    Threads.emplace_back([&Cell, &All, T] {
      for (size_t I = 0; I != 1000; ++I)
        Cell.raise(All[(I + T) % (T == 3 ? 5 : 4)]);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Cell.get(), CubeVerdict::Sat);

  EXPECT_EQ(resultOf(CubeVerdict::Unsat), sat::SolveResult::Unsat);
  EXPECT_EQ(resultOf(CubeVerdict::Refuted), sat::SolveResult::Unsat);
  EXPECT_EQ(resultOf(CubeVerdict::Aborted), sat::SolveResult::Aborted);
  EXPECT_EQ(resultOf(CubeVerdict::Cancelled), sat::SolveResult::Aborted);
  EXPECT_EQ(resultOf(CubeVerdict::Sat), sat::SolveResult::Sat);
}

TEST(CubeRun, ExchangesLemmasOnlyWithPeersAndNeverUnderProofs) {
  // The open cube of surface5 t=2: one slot solves the whole problem.
  smt::BoolContext Ctx;
  Scenario S = makeMemoryScenario(makeRotatedSurfaceCode(5), PauliKind::Y,
                                  LogicalBasis::Z, 2);
  BuiltVc Vc = buildScenarioVc(Ctx, S);
  ASSERT_TRUE(Vc.Ok);
  smt::VerificationProblem P(Ctx, Vc.NegatedVc);
  CubeRunConfig Plain, Proofs;
  Proofs.LogProofs = true;
  struct Solved {
    std::vector<std::vector<sat::Lit>> Exported;
    uint64_t Conflicts = 0;
    std::string Proof;
  };
  auto Solve = [&P](const CubeRunConfig &Cfg, size_t Slots, bool Remote,
                    const std::vector<std::vector<sat::Lit>> &Imports = {}) {
    CubeRun Run(P, Cfg, Slots, Remote);
    Run.addExternalLemmas(Imports);
    EXPECT_EQ(Run.runCube(0, {}), CubeVerdict::Refuted);
    Solved Out;
    Out.Exported = Run.drainOutboundLemmas();
    Out.Conflicts = Run.takeCounters().Stats.Conflicts;
    Out.Proof = Run.drainSlotProof(0).take();
    return Out;
  };
  // A --dist worker's lone slot exports its short lemmas; a lone local
  // slot has no one to trade with.
  Solved Remote = Solve(Plain, 1, true);
  ASSERT_GT(Remote.Conflicts, 0u);
  ASSERT_FALSE(Remote.Exported.empty());
  for (const std::vector<sat::Lit> &Lemma : Remote.Exported)
    EXPECT_LE(Lemma.size(), sat::SharedClausePool::MaxLemmaLits);
  EXPECT_TRUE(Solve(Plain, 1, false).Exported.empty());
  EXPECT_FALSE(Solve(Plain, 2, false).Exported.empty());
  // Imported lemmas reach the slot (the same search gets shorter), and
  // are not exported again.
  EXPECT_LT(Solve(Plain, 1, true, Remote.Exported).Conflicts,
            Remote.Conflicts);
  CubeRun Relay(P, Plain, 1, true);
  Relay.addExternalLemmas(Remote.Exported);
  EXPECT_TRUE(Relay.drainOutboundLemmas().empty());
  // Proof mode exchanges nothing: no exports, and imports are ignored,
  // so the proof stream is byte-identical with and without them.
  Solved Logged = Solve(Proofs, 2, true);
  EXPECT_TRUE(Logged.Exported.empty());
  Solved LoggedPrimed = Solve(Proofs, 2, true, Remote.Exported);
  EXPECT_TRUE(LoggedPrimed.Exported.empty());
  EXPECT_EQ(LoggedPrimed.Conflicts, Logged.Conflicts);
  EXPECT_FALSE(Logged.Proof.empty());
  EXPECT_TRUE(LoggedPrimed.Proof == Logged.Proof);
}
