//===- tests/fuzz_test.cpp - Differential fuzzing harness tests -----------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the testing/ subsystem itself: the reference executor against
/// hand-computed runs, the brute-force oracle against known verdicts,
/// certificate validation against real and corrupted models, a clean
/// deterministic fuzz sweep, and — the critical one — proof that a
/// re-introduced copy of the PR 1 assumption-prefix soundness bug (via a
/// test-only solver subclass) is caught by the harness.
///
//===----------------------------------------------------------------------===//

#include "engine/VerificationEngine.h"
#include "qec/Codes.h"
#include "testing/BruteForceOracle.h"
#include "testing/DifferentialHarness.h"
#include "testing/ModelChecker.h"

#include <gtest/gtest.h>

using namespace veriqec;
using namespace veriqec::testing;

namespace {

/// Inputs with every error and decoder output bit cleared.
CMem allZeroInputs(const Scenario &S) {
  CMem In;
  for (const std::string &E : S.ErrorVars)
    In[E] = 0;
  for (const WeightConstraint &W : S.Weights) {
    for (const std::string &V : W.Lhs)
      In[V] = 0;
    for (const auto &[A, B] : W.LhsPairs) {
      In[A] = 0;
      In[B] = 0;
    }
  }
  return In;
}

} // namespace

TEST(ReferenceExecutor, CleanRunPreservesPostcondition) {
  StabilizerCode Code = makeSteaneCode();
  Scenario S = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, 1);
  ReplayResult R = executeScenario(S, allZeroInputs(S));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.PostconditionHolds);
  EXPECT_TRUE(scenarioContractHolds(S, R.Mem));
  for (const auto &[Name, Value] : R.MeasureLog)
    EXPECT_FALSE(Value) << "nonzero syndrome " << Name << " without errors";
}

TEST(ReferenceExecutor, LogicalErrorViolatesPostcondition) {
  // A single Z on the repetition code is syndrome-free but logical: with
  // the zero correction the contract holds and the X-family
  // postcondition must fail.
  StabilizerCode Code = makeRepetitionCode(3);
  Scenario S = makeMemoryScenario(Code, PauliKind::Z, LogicalBasis::X, 1);
  CMem In = allZeroInputs(S);
  In[S.ErrorVars[0]] = 1;
  ReplayResult R = executeScenario(S, In);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(scenarioContractHolds(S, R.Mem));
  EXPECT_FALSE(R.PostconditionHolds);

  // The same error is invisible to the Z family.
  Scenario SZ = makeMemoryScenario(Code, PauliKind::Z, LogicalBasis::Z, 1);
  CMem InZ = allZeroInputs(SZ);
  InZ[SZ.ErrorVars[0]] = 1;
  ReplayResult RZ = executeScenario(SZ, InZ);
  ASSERT_TRUE(RZ.Ok) << RZ.Error;
  EXPECT_TRUE(RZ.PostconditionHolds);
}

TEST(ReferenceExecutor, PhaseVariablesSelectTheLogicalFamily) {
  // Replays must honour the symbolic phase bits b_j: the |1>_L member of
  // the family behaves like the |0>_L member.
  StabilizerCode Code = makeSteaneCode();
  Scenario S = makeMemoryScenario(Code, PauliKind::X, LogicalBasis::Z, 1);
  CMem In = allZeroInputs(S);
  In["b0"] = 1;
  ReplayResult R = executeScenario(S, In);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.PostconditionHolds);
}

TEST(BruteForceOracle, MatchesKnownVerdicts) {
  StabilizerCode Code = makeSteaneCode();
  Scenario Good = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, 1);
  OracleResult R1 = bruteForceVerify(Good);
  EXPECT_EQ(R1.Status, OracleStatus::Verified) << R1.Detail;
  EXPECT_GT(R1.Executions, 0u);

  Scenario Bad = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, 2);
  OracleResult R2 = bruteForceVerify(Bad);
  ASSERT_EQ(R2.Status, OracleStatus::CounterExample) << R2.Detail;
  // The counterexample must replay as genuine.
  ReplayResult Replay = executeScenario(Bad, R2.CounterExample);
  ASSERT_TRUE(Replay.Ok) << Replay.Error;
  EXPECT_TRUE(scenarioContractHolds(Bad, Replay.Mem));
  EXPECT_FALSE(Replay.PostconditionHolds);
}

TEST(BruteForceOracle, RespectsWorkBudget) {
  StabilizerCode Code = makeRotatedSurfaceCode(3);
  Scenario S = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, 2);
  OracleOptions O;
  O.WorkBudget = 10;
  OracleResult R = bruteForceVerify(S, O);
  EXPECT_EQ(R.Status, OracleStatus::Skipped);
  EXPECT_GT(bruteForceWorkEstimate(S), 10u);
}

TEST(ModelChecker, RealCounterexamplesSatisfyTheVc) {
  StabilizerCode Code = makeSteaneCode();
  Scenario S = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, 2);
  VerificationResult R = verifyScenario(S);
  ASSERT_TRUE(R.StructuralOk);
  ASSERT_FALSE(R.Verified);
  ASSERT_FALSE(R.CounterExample.empty());

  smt::BoolContext Ctx;
  BuiltVc Vc = engine::buildScenarioVc(Ctx, S);
  ASSERT_TRUE(Vc.Ok) << Vc.Error;
  ModelCheckResult MC = evaluateUnderModel(Ctx, Vc.NegatedVc,
                                           R.CounterExample);
  EXPECT_EQ(MC.MissingVars, 0u);
  EXPECT_TRUE(MC.Satisfies);

  CertificateCheck CC = replayCounterExample(S, R.CounterExample);
  EXPECT_TRUE(CC.Genuine) << CC.Why;
}

TEST(ModelChecker, FabricatedCertificatesAreRejected) {
  // A zero-error "counterexample" for a verified scenario must fail the
  // semantic replay (the postcondition holds).
  StabilizerCode Code = makeSteaneCode();
  Scenario S = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, 1);
  std::unordered_map<std::string, bool> Fake;
  for (const std::string &E : S.ErrorVars)
    Fake[E] = false;
  for (const WeightConstraint &W : S.Weights)
    for (const std::string &V : W.Lhs)
      Fake[V] = false;
  CertificateCheck CC = replayCounterExample(S, Fake);
  EXPECT_FALSE(CC.Genuine);
}

TEST(DifferentialHarness, DeterministicSweepIsClean) {
  FuzzerOptions FO;
  FO.MaxQubits = 7;
  HarnessOptions HO;
  HO.Jobs = 2;
  HO.BruteBudget = 100000;
  HO.SamplingTrials = 300;
  for (uint64_t Seed = 1; Seed <= 15; ++Seed) {
    FuzzCase C = generateFuzzCase(Seed, FO);
    HO.RandomSeed = Seed;
    CaseReport R = runDifferential(C, HO);
    EXPECT_TRUE(R.clean()) << R.Description << ": "
                           << (R.Discrepancies.empty()
                                   ? ""
                                   : R.Discrepancies.front());
  }
}

TEST(DifferentialHarness, GenerationIsDeterministic) {
  FuzzCase A = generateFuzzCase(42);
  FuzzCase B = generateFuzzCase(42);
  EXPECT_EQ(A.describe(), B.describe());
  EXPECT_EQ(A.Scn.Name, B.Scn.Name);
  EXPECT_EQ(A.Scn.ErrorVars, B.Scn.ErrorVars);
}

namespace {

/// The PR 1 soundness bug, re-introduced through the solver's test seam:
/// a conflict-driven backjump below the assumption prefix is declared
/// UNSAT instead of re-extending the prefix, silently flipping
/// satisfiable cubes under solver reuse.
class BuggyPrefixSolver : public sat::Solver {
protected:
  bool declareUnsatOnPrefixBackjump() const override { return true; }
};

/// A corrupted Gauss-in-the-loop engine, re-introduced through the
/// solver's XOR test seam: every XOR reason clause with two or more
/// dependencies is materialized with one dependency dropped. The
/// under-justified reasons resolve into over-strong learnt clauses that
/// prune satisfiable cubes — the characteristic failure of a buggy
/// Gaussian reason computation.
class BuggyXorReasonSolver : public sat::Solver {
protected:
  bool corruptXorReasonClause() const override { return true; }
};

} // namespace

TEST(DifferentialHarness, CatchesReintroducedAssumptionPrefixBug) {
  FuzzerOptions FO;
  FO.MaxQubits = 9;
  HarnessOptions HO;
  HO.Jobs = 2;
  HO.SamplingTrials = 0; // isolate the solver-level oracles
  HO.BruteBudget = 50000;
  HO.SolverFactory = [] { return std::make_unique<BuggyPrefixSolver>(); };
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 25 && !Caught; ++Seed) {
    FuzzCase C = generateFuzzCase(Seed, FO);
    HO.RandomSeed = Seed;
    CaseReport R = runDifferential(C, HO);
    Caught = !R.clean();
  }
  EXPECT_TRUE(Caught)
      << "the harness failed to expose the planted assumption-prefix bug";
}

TEST(DifferentialHarness, CatchesPlantedXorReasonCorruption) {
  // With the proof oracle on, the forgery need not even flip a verdict
  // to be caught: the under-justified XOR reason clause is logged as a
  // derivation, and the checker's GF(2) replay refuses it because the
  // dropped dependency leaves the clause outside the x-rows' span.
  FuzzerOptions FO;
  FO.MaxQubits = 9;
  HarnessOptions HO;
  HO.Jobs = 2;
  HO.SamplingTrials = 0; // isolate the solver-level oracles
  HO.BruteBudget = 50000;
  HO.CheckProofs = true;
  HO.SolverFactory = [] { return std::make_unique<BuggyXorReasonSolver>(); };
  bool Caught = false, CaughtByProof = false;
  for (uint64_t Seed = 1; Seed <= 40 && !CaughtByProof; ++Seed) {
    FuzzCase C = generateFuzzCase(Seed, FO);
    HO.RandomSeed = Seed;
    CaseReport R = runDifferential(C, HO);
    Caught |= !R.clean();
    for (const std::string &D : R.Discrepancies)
      CaughtByProof |= D.find("proof rejected") != std::string::npos;
  }
  EXPECT_TRUE(Caught)
      << "the harness failed to expose the planted XOR reason corruption";
  EXPECT_TRUE(CaughtByProof)
      << "the proof oracle never rejected an under-justified XOR reason";
}

TEST(DifferentialHarness, XorReasonCorruptionStillCaughtUnderForcedGc) {
  // Same planted bug as above, but with the arena collector forced to
  // compact at every restart of every slot solver: the corrupted XOR
  // reason clauses are locked tombstones the relocator must keep
  // readable, and the proof oracle must still reject the forged
  // derivations after their clause memory has moved.
  sat::Solver::setDefaultGarbageFraction(0.0);
  FuzzerOptions FO;
  FO.MaxQubits = 9;
  HarnessOptions HO;
  HO.Jobs = 2;
  HO.SamplingTrials = 0;
  HO.BruteBudget = 50000;
  HO.CheckProofs = true;
  HO.SolverFactory = [] { return std::make_unique<BuggyXorReasonSolver>(); };
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 40 && !Caught; ++Seed) {
    FuzzCase C = generateFuzzCase(Seed, FO);
    HO.RandomSeed = Seed;
    CaseReport R = runDifferential(C, HO);
    Caught = !R.clean();
  }
  sat::Solver::setDefaultGarbageFraction(0.2);
  EXPECT_TRUE(Caught) << "the planted XOR reason corruption went unnoticed "
                         "once compaction was forced";
}
