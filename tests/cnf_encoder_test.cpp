//===- tests/cnf_encoder_test.cpp - Cardinality encoding properties -------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for smt/CnfEncoder: on random at-most-k / at-least-k
/// instances over n <= 12 variables, both cardinality encodings must be
/// equisatisfiable — verified the strong way, by enumerating *all* models
/// with blocking clauses and comparing the counts against the binomial
/// sums — and random mixed formulas must get the same verdict plus
/// self-validating models from either encoding. The counter register
/// bank is checked register by register in both polarities, and
/// SumLeqSum model counts against brute force, with and without budget
/// truncation.
///
//===----------------------------------------------------------------------===//

#include "smt/CubeSolver.h"
#include "support/Rng.h"
#include "testing/ModelChecker.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace veriqec;
using namespace veriqec::smt;

namespace {

/// Counts the models of (Ctx, Root) projected onto the named variables by
/// iterated solving with blocking clauses.
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
    std::vector<sat::Lit> Blocking;
    for (const auto &[Name, V] : Problem.NamedVars)
      Blocking.push_back(sat::Lit(V, S.modelValue(V)));
    if (!S.addClause(std::move(Blocking)))
      break;
  }
  return Count;
}

uint64_t countModels(const BoolContext &Ctx, ExprRef Root,
                     CardinalityEncoding Enc) {
  ProblemOptions PO;
  PO.CardEnc = Enc;
  return countModels(Ctx, Root, PO);
}

uint64_t binomial(uint64_t N, uint64_t K) {
  if (K > N)
    return 0;
  uint64_t R = 1;
  for (uint64_t I = 0; I != K; ++I)
    R = R * (N - I) / (I + 1);
  return R;
}

uint64_t countAtMost(uint64_t N, uint64_t K) {
  uint64_t Total = 0;
  for (uint64_t W = 0; W <= K && W <= N; ++W)
    Total += binomial(N, W);
  return Total;
}

std::vector<ExprRef> makeVars(BoolContext &Ctx, size_t N) {
  std::vector<ExprRef> Vars;
  for (size_t I = 0; I != N; ++I)
    Vars.push_back(Ctx.mkVar("v" + std::to_string(I)));
  return Vars;
}

/// Random expression over the given variables (depth-bounded).
ExprRef randomExpr(BoolContext &Ctx, const std::vector<ExprRef> &Vars,
                   Rng &R, int Depth) {
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
  case 3:
    return Ctx.mkXor(randomExpr(Ctx, Vars, R, Depth - 1),
                     randomExpr(Ctx, Vars, R, Depth - 1));
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
    std::vector<ExprRef> Subset;
    for (ExprRef V : Vars)
      if (R.nextBool())
        Subset.push_back(V);
    if (Subset.empty())
      Subset.push_back(Vars[0]);
    uint32_t K = static_cast<uint32_t>(R.nextBelow(Subset.size() + 1));
    return Ctx.mkAtLeast(std::move(Subset), K);
  }
  }
}

} // namespace

TEST(CnfEncoder, AtMostModelCountsMatchAcrossEncodings) {
  Rng R(31337);
  for (int Iter = 0; Iter != 25; ++Iter) {
    size_t N = 3 + R.nextBelow(10); // 3..12
    uint32_t K = static_cast<uint32_t>(R.nextBelow(N + 1));
    BoolContext Ctx;
    ExprRef Root = Ctx.mkAtMost(makeVars(Ctx, N), K);
    uint64_t Expected = countAtMost(N, K);
    EXPECT_EQ(countModels(Ctx, Root, CardinalityEncoding::SequentialCounter),
              Expected)
        << "seq n=" << N << " k=" << K;
    EXPECT_EQ(countModels(Ctx, Root, CardinalityEncoding::PairwiseNaive),
              Expected)
        << "pairwise n=" << N << " k=" << K;
  }
}

TEST(CnfEncoder, AtLeastModelCountsMatchAcrossEncodings) {
  Rng R(4242);
  for (int Iter = 0; Iter != 15; ++Iter) {
    size_t N = 3 + R.nextBelow(9); // 3..11
    uint32_t K = static_cast<uint32_t>(R.nextBelow(N + 1));
    BoolContext Ctx;
    ExprRef Root = Ctx.mkAtLeast(makeVars(Ctx, N), K);
    uint64_t Expected = (1ull << N) - (K ? countAtMost(N, K - 1) : 0);
    EXPECT_EQ(countModels(Ctx, Root, CardinalityEncoding::SequentialCounter),
              Expected)
        << "seq n=" << N << " k=" << K;
    EXPECT_EQ(countModels(Ctx, Root, CardinalityEncoding::PairwiseNaive),
              Expected)
        << "pairwise n=" << N << " k=" << K;
  }
}

TEST(CnfEncoder, RandomFormulasAreEquisatisfiableWithValidModels) {
  Rng R(777);
  int SatCases = 0;
  for (int Iter = 0; Iter != 60; ++Iter) {
    size_t N = 3 + R.nextBelow(8);
    BoolContext Ctx;
    std::vector<ExprRef> Vars = makeVars(Ctx, N);
    std::vector<ExprRef> Conjuncts;
    size_t Terms = 1 + R.nextBelow(3);
    for (size_t T = 0; T != Terms; ++T)
      Conjuncts.push_back(randomExpr(Ctx, Vars, R, 3));
    ExprRef Root = Ctx.mkAnd(std::move(Conjuncts));

    SolveOptions Seq, Pair;
    Pair.CardEnc = CardinalityEncoding::PairwiseNaive;
    SolveOutcome A = solveExpr(Ctx, Root, Seq);
    SolveOutcome B = solveExpr(Ctx, Root, Pair);
    ASSERT_EQ(A.Result, B.Result) << "iter " << Iter;
    for (const SolveOutcome *O : {&A, &B}) {
      if (O->Result != sat::SolveResult::Sat)
        continue;
      ++SatCases;
      veriqec::testing::ModelCheckResult MC =
          veriqec::testing::evaluateUnderModel(Ctx, Root, O->Model);
      EXPECT_TRUE(MC.Satisfies) << "iter " << Iter;
      EXPECT_EQ(MC.MissingVars, 0u);
    }
  }
  EXPECT_GT(SatCases, 0);
}

TEST(CnfEncoder, CounterRegistersAreExactlySumAtLeastJ) {
  // The distance search assumes counterOver registers in both
  // polarities, so every register must be forced both ways: under each
  // input assignment, register j is satisfiable iff sum >= j and its
  // negation iff sum < j. One input is negated. A truncated bank is
  // checked alone, and again after a full-depth request deepens it in
  // place.
  auto CheckBank = [](const CnfFormula &Cnf,
                      const std::vector<sat::Lit> &Inputs,
                      const std::vector<sat::Lit> &Regs) {
    sat::Solver S;
    for (size_t I = 0; I != Cnf.NumVars; ++I)
      S.newVar();
    for (const auto &C : Cnf.Clauses)
      S.addClause(C);
    size_t N = Inputs.size();
    for (uint32_t Mask = 0; Mask != (1u << N); ++Mask) {
      std::vector<sat::Lit> Assumptions;
      size_t Sum = 0;
      for (size_t I = 0; I != N; ++I) {
        bool One = (Mask >> I) & 1;
        Sum += One;
        Assumptions.push_back(One ? Inputs[I] : ~Inputs[I]);
      }
      for (size_t J = 1; J <= Regs.size(); ++J)
        for (bool Positive : {true, false}) {
          std::vector<sat::Lit> A = Assumptions;
          A.push_back(Positive ? Regs[J - 1] : ~Regs[J - 1]);
          bool Sat = S.solve(A) == sat::SolveResult::Sat;
          ASSERT_EQ(Sat, Positive == (Sum >= J))
              << "n=" << N << " depth=" << Regs.size() << " j=" << J
              << " mask=" << Mask << (Positive ? "" : " negated");
        }
    }
  };
  for (size_t N = 1; N <= 8; ++N) {
    BoolContext Ctx;
    std::vector<ExprRef> Vars = makeVars(Ctx, N);
    size_t Truncated = (N + 1) / 2;
    for (bool Deepen : {false, true}) {
      CnfFormula Cnf;
      CnfEncoder Encoder(Ctx, Cnf);
      std::vector<sat::Lit> Inputs;
      for (ExprRef V : Vars)
        Inputs.push_back(Encoder.encode(V));
      Inputs[N / 2] = ~Inputs[N / 2];
      std::vector<sat::Lit> Regs = Encoder.counterOver(Inputs, Truncated);
      ASSERT_EQ(Regs.size(), Truncated);
      if (Deepen) {
        std::vector<sat::Lit> Full = Encoder.counterOver(Inputs);
        ASSERT_EQ(Full.size(), N);
        EXPECT_TRUE(std::equal(Regs.begin(), Regs.end(), Full.begin()))
            << "deepening re-encoded the shallow registers, n=" << N;
        Regs = Full;
      }
      CheckBank(Cnf, Inputs, Regs);
    }
  }
}

TEST(CnfEncoder, SumLeqSumModelCountsMatchBruteForce) {
  // The verify path's decoder-minimality atom sum(A) <= sum(B), once at
  // full depth and once truncated under a hardened budget on B
  // (setBudgetTruncation: Depth = min(|A|, Cap)). A and B draw from one
  // pool, so they may share variables.
  Rng R(20240);
  auto Draw = [&R](const std::vector<ExprRef> &Pool, size_t K) {
    std::vector<size_t> Idx(Pool.size());
    for (size_t I = 0; I != Idx.size(); ++I)
      Idx[I] = I;
    for (size_t I = Idx.size(); I > 1; --I)
      std::swap(Idx[I - 1], Idx[R.nextBelow(I)]);
    Idx.resize(K);
    return Idx;
  };
  for (int Iter = 0; Iter != 30; ++Iter) {
    size_t NA = R.nextBelow(7), NB = R.nextBelow(7);
    size_t P = std::max<size_t>(1, NA + NB - R.nextBelow(std::min(NA, NB) + 1));
    BoolContext Ctx;
    std::vector<ExprRef> Pool = makeVars(Ctx, P);
    std::vector<size_t> IA = Draw(Pool, NA), IB = Draw(Pool, NB);
    std::vector<ExprRef> A, B;
    for (size_t I : IA)
      A.push_back(Pool[I]);
    for (size_t I : IB)
      B.push_back(Pool[I]);
    uint32_t H = static_cast<uint32_t>(R.nextBelow(NB + 1));
    uint64_t Expected = 0, ExpectedCapped = 0;
    for (uint32_t Mask = 0; Mask != (1u << P); ++Mask) {
      size_t SumA = 0, SumB = 0;
      for (size_t I : IA)
        SumA += (Mask >> I) & 1;
      for (size_t I : IB)
        SumB += (Mask >> I) & 1;
      Expected += SumA <= SumB;
      ExpectedCapped += SumA <= SumB && SumB <= H;
    }
    ExprRef Root = Ctx.mkSumLeqSum(A, B);
    EXPECT_EQ(countModels(Ctx, Root, ProblemOptions{}), Expected)
        << "|A|=" << NA << " |B|=" << NB << " pool=" << P;
    ProblemOptions Capped;
    Capped.BudgetTerms = B;
    Capped.HardBound = H;
    Capped.CounterCap = H + 1;
    EXPECT_EQ(countModels(Ctx, Root, Capped), ExpectedCapped)
        << "|A|=" << NA << " |B|=" << NB << " pool=" << P << " h=" << H;
  }
}
