//===- tests/engine_test.cpp - Verification engine tests -------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work-stealing engine: pool and queue mechanics, ET cube
/// enumeration, verdict determinism across 1/2/4/8 workers for both
/// UNSAT (verified) and SAT (counterexample) workloads, first-SAT-cube
/// cancellation, and batch verifyAll consistency with one-at-a-time
/// verification.
///
//===----------------------------------------------------------------------===//

#include "engine/CubeEngine.h"
#include "engine/CubeRun.h"
#include "engine/VerificationEngine.h"
#include "qec/Codes.h"
#include "verifier/Verifier.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace veriqec;
using namespace veriqec::engine;
using smt::BoolContext;
using smt::ExprRef;
using smt::SolveOptions;
using smt::SolveOutcome;
using smt::XorMode;

TEST(WorkStealingQueue, OwnerFifoThiefLifo) {
  WorkStealingQueue<int> Q;
  for (int I = 0; I != 4; ++I)
    Q.push(I);
  int V = -1;
  ASSERT_TRUE(Q.tryPop(V));
  EXPECT_EQ(V, 0); // owner pops in submission order
  ASSERT_TRUE(Q.trySteal(V));
  EXPECT_EQ(V, 3); // thief takes the opposite end
  ASSERT_TRUE(Q.tryPop(V));
  EXPECT_EQ(V, 1);
  ASSERT_TRUE(Q.trySteal(V));
  EXPECT_EQ(V, 2);
  EXPECT_FALSE(Q.tryPop(V));
  EXPECT_FALSE(Q.trySteal(V));
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

TEST(CubeEnumeration, RespectsEtThresholdAndMaxOnes) {
  std::vector<sat::Var> Vars{0, 1, 2, 3};
  // Distance 0 degenerates ET to the bit count: full expansion to depth 4.
  auto Full = enumerateCubes(Vars, 0, 4, ~uint32_t{0});
  EXPECT_EQ(Full.size(), 16u);
  // Distance 1: ET = 2*ones + bits, so one-heavy branches terminate
  // early and the tree has 8 leaves (hand-enumerated).
  auto All = enumerateCubes(Vars, 1, 4, ~uint32_t{0});
  EXPECT_EQ(All.size(), 8u);
  // MaxOnes 1 additionally prunes every second-one branch: 5 leaves.
  auto Pruned = enumerateCubes(Vars, 1, 4, 1);
  EXPECT_EQ(Pruned.size(), 5u);
  // Threshold 0 disables splitting: one empty cube.
  auto Single = enumerateCubes(Vars, 1, 0, ~uint32_t{0});
  ASSERT_EQ(Single.size(), 1u);
  EXPECT_TRUE(Single[0].empty());
  // Deterministic order: the all-zero cube first.
  for (sat::Lit L : All.front())
    EXPECT_TRUE(L.negated());
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

TEST(CubeEngine, EliminationPruningBeatsUnitPropagationOnSeededCase) {
  // The two rows imply e0 ^ e1 = 1 after their shared aux pair cancels,
  // so the cubes {e0=0,e1=0} and {e0=1,e1=1} are inconsistent — but
  // every single row still has two unknowns under either cube, which is
  // exactly what GF(2) *unit propagation* cannot refute and Gaussian
  // *elimination* can. The AtMost residue pins a and b so the
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

  // Same verdict either way; the satellite property is the pruning rate:
  // XOR-mode (elimination) cube pruning must dominate unit propagation.
  EXPECT_EQ(On.Result, sat::SolveResult::Sat);
  EXPECT_EQ(Off.Result, sat::SolveResult::Sat);
  EXPECT_GE(On.CubesPrunedGf2, Off.CubesPrunedGf2);
  EXPECT_GT(On.CubesPrunedGf2, 0u)
      << "elimination must refute the parity-inconsistent cube";
  EXPECT_EQ(Off.CubesPrunedGf2, 0u)
      << "unit propagation alone cannot see the cross-row contradiction";
  // The split counters are what --bench-out reports; they must add up.
  EXPECT_EQ(On.CubesPruned, On.CubesPrunedGf2 + On.CubesPrunedCore);
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
    EXPECT_EQ(Run.runCube(0, {}), CubeRun::CubeOutcome::Unsat);
    Solved Out;
    Out.Exported = Run.drainOutboundLemmas();
    sat::SolverStats Stats;
    Run.accumulateStats(Stats);
    Out.Conflicts = Stats.Conflicts;
    Out.Proof = Run.drainSlotProof(0);
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
