//===- tests/preprocessor_test.cpp - GF(2) preprocessing properties -------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for smt/Preprocessor and the preprocessed
/// pipeline: XOR extraction, Gaussian trivial-UNSAT detection, sparse
/// variable elimination with model reconstruction, cube refutation by
/// GF(2) unit propagation, the assumption-activated weight layer, and —
/// the strong property — equisatisfiability of the preprocessed and
/// legacy pipelines verified by exhaustive model counting (reusing the
/// blocking-clause harness of cnf_encoder_test) across both cardinality
/// encodings, plus verdict/certificate agreement on registry-code
/// verification conditions.
///
//===----------------------------------------------------------------------===//

#include "engine/VerificationEngine.h"
#include "qec/Codes.h"
#include "smt/CubeSolver.h"
#include "smt/Preprocessor.h"
#include "support/Rng.h"
#include "testing/ModelChecker.h"
#include "verifier/Verifier.h"

#include <gtest/gtest.h>

using namespace veriqec;
using namespace veriqec::smt;

namespace {

std::vector<ExprRef> makeVars(BoolContext &Ctx, size_t N) {
  std::vector<ExprRef> Vars;
  for (size_t I = 0; I != N; ++I)
    Vars.push_back(Ctx.mkVar("v" + std::to_string(I)));
  return Vars;
}

/// Counts models over the named variables by blocking-clause enumeration.
/// Eliminated variables are functionally determined by the rest, so the
/// count is invariant under preprocessing.
uint64_t countModels(const BoolContext &Ctx, ExprRef Root,
                     const ProblemOptions &PO) {
  VerificationProblem Problem(Ctx, Root, PO);
  if (Problem.TriviallyUnsat)
    return 0;
  sat::Solver S = Problem.makeSolver();
  uint64_t Count = 0;
  while (S.solve() == sat::SolveResult::Sat) {
    ++Count;
    EXPECT_LE(Count, 1u << 13) << "runaway model enumeration";
    // Cross-check: the total model (with reconstruction) satisfies the
    // original expression.
    std::unordered_map<std::string, bool> Model;
    Problem.readModel(S, Model);
    veriqec::testing::ModelCheckResult MC =
        veriqec::testing::evaluateUnderModel(Ctx, Root, Model);
    EXPECT_TRUE(MC.Satisfies) << "reconstructed model violates the root";
    EXPECT_EQ(MC.MissingVars, 0u);
    std::vector<sat::Lit> Blocking;
    for (const auto &[Name, V] : Problem.NamedVars)
      Blocking.push_back(sat::Lit(V, S.modelValue(V)));
    if (!S.addClause(std::move(Blocking)))
      break;
  }
  return Count;
}

/// Random expression mixing parity structure with cardinality atoms.
ExprRef randomExpr(BoolContext &Ctx, const std::vector<ExprRef> &Vars, Rng &R,
                   int Depth) {
  if (Depth == 0 || R.nextBelow(4) == 0)
    return Vars[R.nextBelow(Vars.size())];
  switch (R.nextBelow(6)) {
  case 0:
    return Ctx.mkNot(randomExpr(Ctx, Vars, R, Depth - 1));
  case 1:
    return Ctx.mkAnd(randomExpr(Ctx, Vars, R, Depth - 1),
                     randomExpr(Ctx, Vars, R, Depth - 1));
  case 2:
    return Ctx.mkOr(randomExpr(Ctx, Vars, R, Depth - 1),
                    randomExpr(Ctx, Vars, R, Depth - 1));
  case 3: {
    std::vector<ExprRef> Kids;
    size_t K = 2 + R.nextBelow(4);
    for (size_t I = 0; I != K; ++I)
      Kids.push_back(Vars[R.nextBelow(Vars.size())]);
    return Ctx.mkXor(std::move(Kids));
  }
  case 4: {
    std::vector<ExprRef> Subset;
    for (ExprRef V : Vars)
      if (R.nextBool())
        Subset.push_back(V);
    if (Subset.empty())
      Subset.push_back(Vars[0]);
    uint32_t K = static_cast<uint32_t>(R.nextBelow(Subset.size() + 1));
    return Ctx.mkAtMost(std::move(Subset), K);
  }
  default: {
    std::vector<ExprRef> A, B;
    for (ExprRef V : Vars)
      (R.nextBool() ? A : B).push_back(V);
    if (A.empty())
      A.push_back(Vars[0]);
    return Ctx.mkSumLeqSum(std::move(A), std::move(B));
  }
  }
}

} // namespace

// -- XOR extraction ----------------------------------------------------------

TEST(Preprocessor, LiftsParityConjunctsAndKeepsResidue) {
  BoolContext Ctx;
  std::vector<ExprRef> V = makeVars(Ctx, 6);
  ExprRef Root = Ctx.mkAnd({
      Ctx.mkXor({V[0], V[1], V[2]}),            // parity = 1
      Ctx.mkNot(Ctx.mkXor({V[2], V[3], V[4]})), // parity = 0
      Ctx.mkVar("v5"),                          // unit
      Ctx.mkAtMost({V[0], V[1], V[3]}, 2),      // residue
  });
  PreprocessOptions PO;
  // Pin everything so no elimination obscures the lift itself.
  for (uint32_t I = 0; I != 6; ++I)
    PO.KeepVarIds.push_back(I);
  PreprocessedFormula P = preprocess(Ctx, Root, PO);
  EXPECT_FALSE(P.TriviallyUnsat);
  EXPECT_EQ(P.Stats.LinearConjuncts, 3u);
  EXPECT_EQ(P.Rows.size(), 3u);
  EXPECT_EQ(P.Residue.size(), 1u);
  EXPECT_EQ(P.Eliminated.size(), 0u);
  EXPECT_EQ(P.Stats.UnitsFixed, 1u);
}

TEST(Preprocessor, DetectsInconsistentParitySystem) {
  BoolContext Ctx;
  std::vector<ExprRef> V = makeVars(Ctx, 8);
  // P1 ^ P2 ^ P3 ^ P4 == 0 always; demanding odd parity is UNSAT — and
  // provably so by Gaussian elimination alone.
  ExprRef P1 = Ctx.mkXor({V[0], V[1], V[2], V[3]});
  ExprRef P2 = Ctx.mkXor({V[2], V[3], V[4], V[5]});
  ExprRef P3 = Ctx.mkXor({V[4], V[5], V[6], V[7]});
  ExprRef P4 = Ctx.mkXor({V[0], V[1], V[6], V[7]});
  ExprRef Root = Ctx.mkAnd({P1, P2, P3, Ctx.mkNot(P4)});
  PreprocessedFormula P = preprocess(Ctx, Root, {});
  EXPECT_TRUE(P.TriviallyUnsat);

  // The full problem layer short-circuits without a solver.
  VerificationProblem Problem(Ctx, Root, {});
  EXPECT_TRUE(Problem.TriviallyUnsat);
  SolveOutcome Out = solveExpr(Ctx, Root);
  EXPECT_EQ(Out.Result, sat::SolveResult::Unsat);
  EXPECT_EQ(Out.Stats.Conflicts, 0u);
}

// -- Variable elimination & reconstruction -----------------------------------

TEST(Preprocessor, EliminatesDefinedVariablesAndReconstructsModels) {
  BoolContext Ctx;
  std::vector<ExprRef> V = makeVars(Ctx, 4);
  ExprRef S0 = Ctx.mkVar("s0"); // defined once, consumed once: eliminable
  ExprRef C0 = Ctx.mkVar("c0");
  ExprRef Root = Ctx.mkAnd({
      Ctx.mkIff(S0, Ctx.mkXor({V[0], V[1], V[2]})), // s0 := v0^v1^v2
      Ctx.mkIff(Ctx.mkXor(C0, S0), Ctx.mkFalse()),  // c0 == s0
      Ctx.mkAtMost({V[0], V[1], V[2], V[3]}, 1),
  });
  PreprocessedFormula P = preprocess(Ctx, Root, {});
  EXPECT_GE(P.Stats.VarsEliminated, 1u);

  // Equal model counts with and without preprocessing, and every
  // reconstructed model satisfies the original root (checked inside
  // countModels).
  ProblemOptions On, Off;
  Off.Preprocess = false;
  EXPECT_EQ(countModels(Ctx, Root, On), countModels(Ctx, Root, Off));
}

TEST(Preprocessor, ProtectedVariablesSurviveElimination) {
  BoolContext Ctx;
  std::vector<ExprRef> V = makeVars(Ctx, 3);
  Ctx.mkVar("s");
  ExprRef Root = Ctx.mkAnd({
      Ctx.mkIff(Ctx.mkVar("s"), Ctx.mkXor(V[0], V[1])),
      Ctx.mkOr(V[0], V[2]),
  });
  ProblemOptions PO;
  PO.ProtectedVars = {"s", "v0", "v1"};
  VerificationProblem Problem(Ctx, Root, PO);
  // varOfName must not throw: "s" stayed materialized.
  sat::Var SV = Problem.varOfName("s");
  sat::Solver S = Problem.makeSolver();
  // Assuming s while forcing v0 = v1 refutes: s <-> v0^v1 is in the CNF.
  ASSERT_EQ(S.solve({sat::mkLit(SV), ~sat::mkLit(Problem.varOfName("v0")),
                     ~sat::mkLit(Problem.varOfName("v1"))}),
            sat::SolveResult::Unsat);
}

// -- Equivalence-literal substitution ----------------------------------------

TEST(Preprocessor, EquivalenceRowsSubstituteThroughTheEncoder) {
  BoolContext Ctx;
  std::vector<ExprRef> V = makeVars(Ctx, 4);
  // Both 2-literal rows connect variables the residue also uses, so the
  // occurrence-based elimination must leave them alone — only the
  // equivalence substitution can remove them. v0 != v1 and v2 == v3.
  ExprRef Root = Ctx.mkAnd({
      Ctx.mkXor(V[0], V[1]),
      Ctx.mkNot(Ctx.mkXor(V[2], V[3])),
      Ctx.mkOr(V[0], V[2]),
      Ctx.mkOr(V[1], V[3]),
  });
  PreprocessedFormula P = preprocess(Ctx, Root);
  EXPECT_EQ(P.Stats.EquivAliased, 2u);
  EXPECT_EQ(P.Stats.RowsKept, 0u);
  ASSERT_EQ(P.Aliases.size(), 2u);
  for (const VarAlias &A : P.Aliases) {
    // Targets are survivors: never another aliased variable.
    for (const VarAlias &B : P.Aliases)
      EXPECT_NE(A.ToVarId, B.VarId);
    // Every alias has a matching reconstruction record.
    bool Found = false;
    for (const VarReconstruction &R : P.Eliminated)
      Found |= R.VarId == A.VarId && R.Deps.size() == 1 &&
               R.Deps[0] == A.ToVarId && R.Constant == A.Negated;
    EXPECT_TRUE(Found);
  }
  // The substituted encoding is model-count-equivalent to the legacy
  // pipeline over the named variables, with total reconstructed models.
  ProblemOptions On, Off;
  Off.Preprocess = false;
  EXPECT_EQ(countModels(Ctx, Root, On), countModels(Ctx, Root, Off));
}

TEST(Preprocessor, EquivalenceChainsResolveToSurvivingTargets) {
  BoolContext Ctx;
  std::vector<ExprRef> V = makeVars(Ctx, 3);
  // v0 != v1, v1 == v2, all three used by the residue: substitution
  // cascades (rewriting one row re-exposes a 2-literal row) and the
  // published targets must be fully resolved.
  ExprRef Root = Ctx.mkAnd({
      Ctx.mkXor(V[0], V[1]),
      Ctx.mkNot(Ctx.mkXor(V[1], V[2])),
      Ctx.mkOr({V[0], V[1], V[2]}),
  });
  PreprocessedFormula P = preprocess(Ctx, Root);
  EXPECT_EQ(P.Stats.EquivAliased, 2u);
  EXPECT_EQ(P.Stats.RowsKept, 0u);
  for (const VarAlias &A : P.Aliases)
    for (const VarAlias &B : P.Aliases)
      EXPECT_NE(A.ToVarId, B.VarId) << "alias points at an aliased var";
  ProblemOptions On, Off;
  Off.Preprocess = false;
  EXPECT_EQ(countModels(Ctx, Root, On), countModels(Ctx, Root, Off));
}

TEST(Preprocessor, PinnedVariablesAreNeverAliased) {
  BoolContext Ctx;
  std::vector<ExprRef> V = makeVars(Ctx, 3);
  ExprRef Root = Ctx.mkAnd({
      Ctx.mkXor(V[0], V[1]),
      Ctx.mkOr(V[0], V[2]),
      Ctx.mkOr(V[1], V[2]),
  });
  {
    // Both ends pinned: the row must survive as a row.
    PreprocessOptions PO;
    PO.KeepVarIds = {Ctx.varIdOf("v0"), Ctx.varIdOf("v1")};
    PreprocessedFormula P = preprocess(Ctx, Root, PO);
    EXPECT_EQ(P.Stats.EquivAliased, 0u);
    EXPECT_EQ(P.Stats.RowsKept, 1u);
  }
  {
    // One end pinned: the other is substituted away, toward the pin.
    PreprocessOptions PO;
    PO.KeepVarIds = {Ctx.varIdOf("v1")};
    PreprocessedFormula P = preprocess(Ctx, Root, PO);
    ASSERT_EQ(P.Aliases.size(), 1u);
    EXPECT_EQ(P.Aliases[0].VarId, Ctx.varIdOf("v0"));
    EXPECT_EQ(P.Aliases[0].ToVarId, Ctx.varIdOf("v1"));
    EXPECT_TRUE(P.Aliases[0].Negated);
  }
  // Through the problem layer: protected (split) variables keep plain
  // CNF variables, and assuming v0 = v1 under protection refutes.
  ProblemOptions PO;
  PO.ProtectedVars = {"v0", "v1"};
  VerificationProblem Problem(Ctx, Root, PO);
  sat::Solver S = Problem.makeSolver();
  ASSERT_EQ(S.solve({sat::mkLit(Problem.varOfName("v0")),
                     sat::mkLit(Problem.varOfName("v1"))}),
            sat::SolveResult::Unsat);
}

// -- Cube refutation ---------------------------------------------------------

TEST(Preprocessor, ProtectedRowRefutesCubeAtPropagation) {
  // v0^v1 = 1 pinned as a row (protected split vars): the solver's XOR
  // engine refutes the cube v0=v1=0 while propagating the assumptions,
  // before any search decision.
  BoolContext Ctx;
  std::vector<ExprRef> V = makeVars(Ctx, 3);
  ExprRef Root = Ctx.mkAnd({Ctx.mkXor(V[0], V[1]), Ctx.mkOr(V[1], V[2])});
  ProblemOptions PO;
  PO.ProtectedVars = {"v0", "v1"};
  VerificationProblem Problem(Ctx, Root, PO);
  std::vector<sat::Lit> Cube{~sat::mkLit(Problem.varOfName("v0")),
                             ~sat::mkLit(Problem.varOfName("v1"))};
  std::vector<sat::Lit> Sat{sat::mkLit(Problem.varOfName("v0")),
                            ~sat::mkLit(Problem.varOfName("v1"))};
  ASSERT_EQ(Problem.XorRows.size(), 1u);
  sat::Solver S = Problem.makeSolver();
  EXPECT_EQ(S.solve(Cube), sat::SolveResult::Unsat);
  EXPECT_EQ(S.stats().Decisions, 0u);
  EXPECT_GE(S.stats().XorPropagations, 1u);
  EXPECT_EQ(S.solve(Sat), sat::SolveResult::Sat);
}

// -- Weight layer ------------------------------------------------------------

TEST(Preprocessor, WeightLayerMatchesBakedCardinalityAtEveryBound) {
  // One encoding; every bound activated by assumptions must match the
  // model count of the separately-encoded AtMost formula.
  constexpr size_t N = 6;
  BoolContext Ctx;
  std::vector<ExprRef> V = makeVars(Ctx, N);
  ExprRef Root = Ctx.mkOr(V[0], V[1]); // some side constraint

  ProblemOptions PO;
  PO.BudgetTerms = V;
  VerificationProblem Problem(Ctx, Root, PO);
  sat::Solver S = Problem.makeSolver();

  for (uint32_t K = 0; K <= N; ++K) {
    // Reference count: fresh context-free formula with the baked atom.
    BoolContext Ref;
    std::vector<ExprRef> RV = makeVars(Ref, N);
    ExprRef RefRoot =
        Ref.mkAnd(Ref.mkOr(RV[0], RV[1]), Ref.mkAtMost(RV, K));
    uint64_t Expected = countModels(Ref, RefRoot, {});

    // Count under the reusable solver with assumption-activated bound.
    uint64_t Got = 0;
    std::vector<sat::Lit> Assumptions;
    Problem.appendWeightAssumptions(K, Assumptions);
    std::vector<std::vector<sat::Lit>> Blockers;
    while (S.solve(Assumptions) == sat::SolveResult::Sat) {
      ++Got;
      ASSERT_LE(Got, 1u << 10);
      std::vector<sat::Lit> Blocking;
      for (const auto &[Name, Var] : Problem.NamedVars)
        Blocking.push_back(sat::Lit(Var, S.modelValue(Var)));
      Blockers.push_back(Blocking);
      S.addClause(std::move(Blocking));
    }
    EXPECT_EQ(Got, Expected) << "bound K=" << K;
    // Un-block for the next bound by rebuilding the solver (clauses are
    // permanent); the encoding itself is reused untouched.
    S = Problem.makeSolver();
  }
}

TEST(Preprocessor, TruncatedCountersStayExactUnderTheBudget) {
  // sum(A) <= sum(B) with sum(B) <= K hardened at the root: the
  // truncated encoding (CounterCap) must agree with the full one on
  // every model, for every K.
  constexpr size_t N = 5;
  Rng R(2024);
  for (uint32_t K = 0; K <= 3; ++K) {
    BoolContext Ctx;
    std::vector<ExprRef> A, B;
    for (size_t I = 0; I != N; ++I)
      A.push_back(Ctx.mkVar("a" + std::to_string(I)));
    for (size_t I = 0; I != N; ++I)
      B.push_back(Ctx.mkVar("b" + std::to_string(I)));
    ExprRef Root =
        Ctx.mkAnd(Ctx.mkSumLeqSum(A, B), Ctx.mkOr(A[0], Ctx.mkNot(B[0])));

    ProblemOptions Full;
    Full.BudgetTerms = B;
    Full.HardBound = K;
    ProblemOptions Capped = Full;
    Capped.CounterCap = K + 1;

    auto countAtBound = [&](const ProblemOptions &PO) {
      VerificationProblem Problem(Ctx, Root, PO);
      sat::Solver S = Problem.makeSolver();
      uint64_t Count = 0;
      while (S.solve() == sat::SolveResult::Sat) {
        ++Count;
        EXPECT_LE(Count, 1u << 12);
        std::unordered_map<std::string, bool> Model;
        Problem.readModel(S, Model);
        veriqec::testing::ModelCheckResult MC =
            veriqec::testing::evaluateUnderModel(Ctx, Root, Model);
        EXPECT_TRUE(MC.Satisfies);
        std::vector<sat::Lit> Blocking;
        for (const auto &[Name, V] : Problem.NamedVars)
          Blocking.push_back(sat::Lit(V, S.modelValue(V)));
        if (!S.addClause(std::move(Blocking)))
          break;
      }
      return Count;
    };
    EXPECT_EQ(countAtBound(Capped), countAtBound(Full)) << "K=" << K;
  }
}

// -- Pipeline equisatisfiability ---------------------------------------------

TEST(Preprocessor, RandomFormulasCountModelsEquallyAcrossPipelines) {
  Rng R(90210);
  for (int Iter = 0; Iter != 40; ++Iter) {
    size_t N = 3 + R.nextBelow(7);
    BoolContext Ctx;
    std::vector<ExprRef> Vars = makeVars(Ctx, N);
    std::vector<ExprRef> Conjuncts;
    size_t Terms = 1 + R.nextBelow(4);
    for (size_t T = 0; T != Terms; ++T)
      Conjuncts.push_back(randomExpr(Ctx, Vars, R, 3));
    // Inject explicit parity conjuncts so the linear lift always has
    // something to chew on.
    std::vector<ExprRef> Par;
    size_t NumPar = 1 + R.nextBelow(3);
    for (size_t I = 0; I != NumPar; ++I)
      Par.push_back(Vars[R.nextBelow(N)]);
    Conjuncts.push_back(R.nextBool() ? Ctx.mkXor(Par)
                                     : Ctx.mkNot(Ctx.mkXor(Par)));
    ExprRef Root = Ctx.mkAnd(std::move(Conjuncts));

    ProblemOptions PrepSeq, PrepPair, PlainSeq, PlainPair;
    PrepPair.CardEnc = CardinalityEncoding::PairwiseNaive;
    PlainSeq.Preprocess = false;
    PlainPair.Preprocess = false;
    PlainPair.CardEnc = CardinalityEncoding::PairwiseNaive;

    uint64_t Baseline = countModels(Ctx, Root, PlainSeq);
    EXPECT_EQ(countModels(Ctx, Root, PrepSeq), Baseline) << "iter " << Iter;
    EXPECT_EQ(countModels(Ctx, Root, PrepPair), Baseline) << "iter " << Iter;
    EXPECT_EQ(countModels(Ctx, Root, PlainPair), Baseline) << "iter " << Iter;
  }
}

// -- Registry-code pipeline agreement ----------------------------------------

TEST(Preprocessor, ScenarioVerdictsAgreeWithLegacyPipelineOnRegistryCodes) {
  struct Case {
    StabilizerCode Code;
    uint32_t Budget;
    bool ExpectVerified;
  };
  std::vector<Case> Cases;
  Cases.push_back({makeSteaneCode(), 1, true});
  Cases.push_back({makeSteaneCode(), 2, false}); // beyond (d-1)/2
  Cases.push_back({makeFiveQubitCode(), 1, true});
  Cases.push_back({makeRotatedSurfaceCode(3), 1, true});

  for (const Case &C : Cases) {
    Scenario S = makeMemoryScenario(C.Code, PauliKind::Y, LogicalBasis::Z,
                                    C.Budget);
    for (bool Parallel : {false, true}) {
      VerifyOptions On, Off;
      On.Parallel = Off.Parallel = Parallel;
      On.Threads = Off.Threads = 1;
      Off.Preprocess = false;
      VerificationResult ROn = verifyScenario(S, On);
      VerificationResult ROff = verifyScenario(S, Off);
      ASSERT_TRUE(ROn.StructuralOk);
      ASSERT_TRUE(ROff.StructuralOk);
      EXPECT_EQ(ROn.Verified, C.ExpectVerified)
          << C.Code.Name << " budget " << C.Budget;
      EXPECT_EQ(ROn.Verified, ROff.Verified);
      // A counterexample from the preprocessed path must satisfy the
      // exact negated VC the engine solved (reconstruction check).
      if (!ROn.Verified) {
        BoolContext Ctx;
        BuiltVc Vc = engine::buildScenarioVc(Ctx, S, On);
        ASSERT_TRUE(Vc.Ok);
        veriqec::testing::ModelCheckResult MC =
            veriqec::testing::evaluateUnderModel(Ctx, Vc.NegatedVc,
                                                 ROn.CounterExample);
        EXPECT_TRUE(MC.Satisfies);
        EXPECT_EQ(MC.MissingVars, 0u);
      }
    }
  }
}
