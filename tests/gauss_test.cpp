//===- tests/gauss_test.cpp - Gauss-in-the-loop XOR engine ----------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-test battery for the native XOR subsystem (sat/GaussEngine):
/// solver-level semantics of addXorClause against exhaustive truth
/// tables, soundness under assumption reuse, and — the strong property —
/// verdict *and model count* agreement between the XOR-enabled pipeline
/// and the plain-CNF encoding on random GF(2) systems, across both
/// cardinality encodings and with preprocessing on and off. A new
/// inference engine only ships with an independent cross-check; this
/// file is that check.
///
//===----------------------------------------------------------------------===//

#include "gf2/BitMatrix.h"
#include "qec/Codes.h"
#include "sat/Solver.h"
#include "smt/CubeSolver.h"
#include "support/Rng.h"
#include "testing/ModelChecker.h"
#include "verifier/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>

using namespace veriqec;
using namespace veriqec::smt;
using sat::Lit;
using sat::SolveResult;
using sat::Var;

namespace {

/// A random XOR system at the raw solver level.
struct XorSystem {
  size_t NumVars = 0;
  std::vector<std::pair<std::vector<Lit>, bool>> Rows;
};

XorSystem randomXorSystem(Rng &R, size_t MaxVars, size_t MaxRows) {
  XorSystem S;
  S.NumVars = 3 + R.nextBelow(MaxVars - 2);
  size_t NumRows = 1 + R.nextBelow(MaxRows);
  for (size_t I = 0; I != NumRows; ++I) {
    std::vector<Lit> Row;
    size_t Len = 1 + R.nextBelow(std::min<size_t>(S.NumVars, 5));
    for (size_t J = 0; J != Len; ++J)
      Row.push_back(Lit(static_cast<Var>(R.nextBelow(S.NumVars)),
                        R.nextBool()));
    S.Rows.emplace_back(std::move(Row), R.nextBool());
  }
  return S;
}

/// Exhaustive truth-table model count of an XOR system.
uint64_t truthTableCount(const XorSystem &S) {
  uint64_t Count = 0;
  for (uint64_t M = 0; M != (uint64_t{1} << S.NumVars); ++M) {
    bool Ok = true;
    for (const auto &[Row, Odd] : S.Rows) {
      bool Parity = false;
      for (Lit L : Row)
        Parity ^= (((M >> L.var()) & 1) != 0) != L.negated();
      if (Parity != Odd) {
        Ok = false;
        break;
      }
    }
    Count += Ok;
  }
  return Count;
}

/// Solver-side model count by blocking-clause enumeration.
uint64_t solverCount(const XorSystem &S, uint64_t Seed = 0) {
  sat::Solver Solver;
  std::vector<Var> Vars;
  for (size_t I = 0; I != S.NumVars; ++I)
    Vars.push_back(Solver.newVar());
  for (const auto &[Row, Odd] : S.Rows)
    if (!Solver.addXorClause(Row, Odd))
      return 0;
  if (Seed)
    Solver.setRandomSeed(Seed);
  uint64_t Count = 0;
  while (Solver.solve() == SolveResult::Sat) {
    ++Count;
    EXPECT_LE(Count, uint64_t{1} << S.NumVars) << "runaway enumeration";
    std::vector<Lit> Blocking;
    for (Var V : Vars)
      Blocking.push_back(Lit(V, Solver.modelValue(V)));
    if (!Solver.addClause(std::move(Blocking)))
      break;
  }
  return Count;
}

std::vector<ExprRef> makeVars(BoolContext &Ctx, size_t N) {
  std::vector<ExprRef> Vars;
  for (size_t I = 0; I != N; ++I)
    Vars.push_back(Ctx.mkVar("v" + std::to_string(I)));
  return Vars;
}

/// Model count over the problem's named variables (reconstruction makes
/// eliminated variables functionally determined, so the count is
/// invariant under preprocessing AND under the XOR/CNF row choice).
uint64_t countModels(const BoolContext &Ctx, ExprRef Root,
                     const ProblemOptions &PO) {
  VerificationProblem Problem(Ctx, Root, PO);
  if (Problem.TriviallyUnsat)
    return 0;
  sat::Solver S = Problem.makeSolver();
  uint64_t Count = 0;
  while (S.solve() == SolveResult::Sat) {
    ++Count;
    EXPECT_LE(Count, 1u << 13) << "runaway model enumeration";
    std::unordered_map<std::string, bool> Model;
    Problem.readModel(S, Model);
    veriqec::testing::ModelCheckResult MC =
        veriqec::testing::evaluateUnderModel(Ctx, Root, Model);
    EXPECT_TRUE(MC.Satisfies)
        << "model from the XOR/CNF pipeline violates the root";
    EXPECT_EQ(MC.MissingVars, 0u);
    std::vector<Lit> Blocking;
    for (const auto &[Name, V] : Problem.NamedVars)
      Blocking.push_back(Lit(V, S.modelValue(V)));
    if (!S.addClause(std::move(Blocking)))
      break;
  }
  return Count;
}

/// Random conjunction dominated by parity rows, with a cardinality
/// residue — the shape of a negated QEC verification condition.
ExprRef randomParityExpr(BoolContext &Ctx, const std::vector<ExprRef> &Vars,
                         Rng &R) {
  std::vector<ExprRef> Conjuncts;
  size_t NumRows = 2 + R.nextBelow(5);
  for (size_t I = 0; I != NumRows; ++I) {
    std::vector<ExprRef> Kids;
    size_t Len = 2 + R.nextBelow(4);
    for (size_t J = 0; J != Len; ++J)
      Kids.push_back(Vars[R.nextBelow(Vars.size())]);
    ExprRef Row = Ctx.mkXor(std::move(Kids));
    Conjuncts.push_back(R.nextBool() ? Row : Ctx.mkNot(Row));
  }
  if (R.nextBool()) {
    std::vector<ExprRef> Subset;
    for (ExprRef V : Vars)
      if (R.nextBool())
        Subset.push_back(V);
    if (Subset.empty())
      Subset.push_back(Vars[0]);
    Conjuncts.push_back(
        Ctx.mkAtMost(std::move(Subset),
                     static_cast<uint32_t>(R.nextBelow(Vars.size()))));
  }
  return Ctx.mkAnd(std::move(Conjuncts));
}

} // namespace

// -- Solver-level semantics --------------------------------------------------

TEST(GaussEngine, BasicXorSemantics) {
  sat::Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  // a ^ b ^ c = 1, a ^ b = 0  =>  c = 1, a = b free.
  ASSERT_TRUE(S.addXorClause({sat::mkLit(A), sat::mkLit(B), sat::mkLit(C)},
                             true));
  ASSERT_TRUE(S.addXorClause({sat::mkLit(A), sat::mkLit(B)}, false));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(C));
  EXPECT_EQ(S.modelValue(A), S.modelValue(B));
  EXPECT_EQ(S.numXorRows(), 2u);

  // Pinning a = ~b contradicts the second row.
  ASSERT_EQ(S.solve({sat::mkLit(A), ~sat::mkLit(B)}), SolveResult::Unsat);
  // And the system is still satisfiable without the assumptions.
  ASSERT_EQ(S.solve(), SolveResult::Sat);
}

TEST(GaussEngine, NegatedLiteralsFoldIntoTheParity) {
  sat::Solver S;
  Var A = S.newVar(), B = S.newVar();
  // (~a) ^ b = 0  <=>  a ^ b = 1.
  ASSERT_TRUE(S.addXorClause({~sat::mkLit(A), sat::mkLit(B)}, false));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_NE(S.modelValue(A), S.modelValue(B));
}

TEST(GaussEngine, DuplicateVariablesCancel) {
  sat::Solver S;
  Var A = S.newVar(), B = S.newVar();
  // a ^ a ^ b = 1 reduces to b = 1.
  ASSERT_TRUE(
      S.addXorClause({sat::mkLit(A), sat::mkLit(A), sat::mkLit(B)}, true));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(B));
  // a ^ a = 1 is the empty odd XOR: trivially unsatisfiable.
  sat::Solver T;
  Var C = T.newVar();
  EXPECT_FALSE(T.addXorClause({sat::mkLit(C), sat::mkLit(C)}, true));
  EXPECT_EQ(T.solve(), SolveResult::Unsat);
}

TEST(GaussEngine, InconsistentRowsAreUnsatBeforeAnyDecision) {
  sat::Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  ASSERT_TRUE(S.addXorClause({sat::mkLit(A), sat::mkLit(B)}, false));
  ASSERT_TRUE(S.addXorClause({sat::mkLit(B), sat::mkLit(C)}, false));
  ASSERT_TRUE(S.addXorClause({sat::mkLit(A), sat::mkLit(C)}, true));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_EQ(S.stats().Decisions, 0u);
}

TEST(GaussEngine, MixesWithCnfClauses) {
  sat::Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  ASSERT_TRUE(S.addXorClause({sat::mkLit(A), sat::mkLit(B), sat::mkLit(C)},
                             true));
  ASSERT_TRUE(S.addClause(~sat::mkLit(A)));      // a = 0
  ASSERT_TRUE(S.addClause(sat::mkLit(B), sat::mkLit(C))); // b | c
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_FALSE(S.modelValue(A));
  EXPECT_NE(S.modelValue(B), S.modelValue(C));
}

TEST(GaussEngine, RandomSystemsMatchTruthTableCounts) {
  Rng R(20260729);
  for (int Case = 0; Case != 200; ++Case) {
    XorSystem S = randomXorSystem(R, 11, 8);
    uint64_t Expected = truthTableCount(S);
    EXPECT_EQ(solverCount(S), Expected) << "case " << Case;
    if (Case % 4 == 0) {
      EXPECT_EQ(solverCount(S, /*Seed=*/Case + 1), Expected)
          << "seeded case " << Case;
    }
  }
}

TEST(GaussEngine, SoundUnderAssumptionReuseAcrossCubes) {
  // One reused solver walking assumption cubes over an XOR system must
  // agree with a fresh solver on every cube — the reuse pattern the cube
  // engine runs, where the PR 1 family of prefix bugs lives.
  Rng R(987654321);
  for (int Case = 0; Case != 40; ++Case) {
    XorSystem S = randomXorSystem(R, 9, 6);
    sat::Solver Reused;
    std::vector<Var> Vars;
    for (size_t I = 0; I != S.NumVars; ++I)
      Vars.push_back(Reused.newVar());
    bool Ok = true;
    for (const auto &[Row, Odd] : S.Rows)
      Ok &= Reused.addXorClause(Row, Odd);
    for (uint64_t Cube = 0; Cube != 8 && Ok; ++Cube) {
      std::vector<Lit> Assumptions;
      for (size_t B = 0; B != 3 && B < S.NumVars; ++B)
        Assumptions.push_back(Lit(Vars[B], ((Cube >> B) & 1) == 0));
      SolveResult Got = Reused.solve(Assumptions);
      sat::Solver Fresh;
      for (size_t I = 0; I != S.NumVars; ++I)
        Fresh.newVar();
      for (const auto &[Row, Odd] : S.Rows)
        Fresh.addXorClause(Row, Odd);
      SolveResult Want = Fresh.solve(Assumptions);
      EXPECT_EQ(Got, Want) << "case " << Case << " cube " << Cube;
    }
  }
}

TEST(GaussEngine, UnsatCoreOverXorRowsIsGenuine) {
  sat::Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar(), D = S.newVar();
  ASSERT_TRUE(S.addXorClause({sat::mkLit(A), sat::mkLit(B)}, false));
  ASSERT_TRUE(S.addXorClause({sat::mkLit(B), sat::mkLit(C)}, false));
  // Assume a = 1, c = 0 (contradicts the chain), d = 1 (irrelevant).
  ASSERT_EQ(S.solve({sat::mkLit(D), sat::mkLit(A), ~sat::mkLit(C)}),
            SolveResult::Unsat);
  // The core must refute on its own in a fresh solver.
  std::vector<Lit> Core = S.conflictCore();
  ASSERT_FALSE(Core.empty());
  sat::Solver Fresh;
  for (int I = 0; I != 4; ++I)
    Fresh.newVar();
  Fresh.addXorClause({sat::mkLit(A), sat::mkLit(B)}, false);
  Fresh.addXorClause({sat::mkLit(B), sat::mkLit(C)}, false);
  EXPECT_EQ(Fresh.solve(Core), SolveResult::Unsat);
}

namespace {

/// A random LDPC-like system: every row has 3 to 8 distinct variables.
XorSystem randomLdpcSystem(Rng &R, size_t NumVars, size_t NumRows) {
  XorSystem S;
  S.NumVars = NumVars;
  for (size_t I = 0; I != NumRows; ++I) {
    size_t Weight = 3 + R.nextBelow(6);
    std::vector<Lit> Row;
    while (Row.size() != Weight) {
      Var V = static_cast<Var>(R.nextBelow(NumVars));
      if (std::none_of(Row.begin(), Row.end(),
                       [V](Lit L) { return L.var() == V; }))
        Row.push_back(sat::mkLit(V));
    }
    S.Rows.emplace_back(std::move(Row), R.nextBool());
  }
  return S;
}

/// The rows as plain CNF: one clause per wrong-parity assignment of a
/// row's variables.
void addRowsAsCnf(sat::Solver &S, const XorSystem &Sys) {
  for (const auto &[Row, Odd] : Sys.Rows)
    for (uint32_t M = 0; M != (uint32_t{1} << Row.size()); ++M) {
      if ((std::popcount(M) & 1) == Odd)
        continue; // M itself satisfies the row
      std::vector<Lit> Clause;
      for (size_t J = 0; J != Row.size(); ++J)
        Clause.push_back(((M >> J) & 1) ? ~Row[J] : Row[J]);
      ASSERT_TRUE(S.addClause(std::move(Clause)));
    }
}

bool rowHolds(const sat::Solver &S, const std::vector<Lit> &Row, bool Odd) {
  bool Parity = false;
  for (Lit L : Row)
    Parity ^= S.modelValue(L.var()) != L.negated();
  return Parity == Odd;
}

} // namespace

TEST(GaussEngine, WideLdpcSystemsMatchCnfUnderAssumptionCubes) {
  // Systems wide enough that the elimination's dense rows (>= 200
  // columns) and its occurrence bitsets (>= 130 rows) span several
  // 64-bit words. One reused XOR solver per seed walks random assumption
  // cubes; a plain-CNF solver over the same rows is the reference.
  Rng R(20261017);
  uint64_t Eliminations = 0, SatCubes = 0, UnsatCubes = 0;
  for (int Case = 0; Case != 8; ++Case) {
    XorSystem Sys =
        randomLdpcSystem(R, 200 + R.nextBelow(60), 130 + R.nextBelow(30));
    sat::Solver Cnf;
    for (size_t I = 0; I != Sys.NumVars; ++I)
      Cnf.newVar();
    addRowsAsCnf(Cnf, Sys);
    std::vector<std::vector<Lit>> Cubes;
    for (int C = 0; C != 6; ++C) {
      std::vector<Lit> Cube;
      for (size_t V = 0; V != Sys.NumVars; ++V)
        if (R.nextBelow(100) < 15 + 10 * static_cast<uint64_t>(C % 3))
          Cube.push_back(Lit(static_cast<Var>(V), R.nextBool()));
      Cubes.push_back(std::move(Cube));
    }
    std::vector<SolveResult> Want;
    for (const std::vector<Lit> &Cube : Cubes)
      Want.push_back(Cnf.solve(Cube));
    for (uint64_t Seed : {0u, 1u, 2u}) {
      sat::Solver Xor;
      for (size_t I = 0; I != Sys.NumVars; ++I)
        Xor.newVar();
      for (const auto &[Row, Odd] : Sys.Rows)
        ASSERT_TRUE(Xor.addXorClause(Row, Odd));
      Xor.setRandomSeed(Seed);
      for (size_t C = 0; C != Cubes.size(); ++C) {
        SolveResult Got = Xor.solve(Cubes[C]);
        ASSERT_EQ(Got, Want[C]) << "case " << Case << " seed " << Seed
                                << " cube " << C;
        if (Got == SolveResult::Sat) {
          ++SatCubes;
          for (Lit L : Cubes[C])
            EXPECT_NE(Xor.modelValue(L.var()), L.negated());
          for (const auto &[Row, Odd] : Sys.Rows)
            EXPECT_TRUE(rowHolds(Xor, Row, Odd));
        } else {
          ++UnsatCubes;
        }
      }
      Eliminations += Xor.stats().XorEliminations;
    }
  }
  // The battery must reach both verdicts and the cross-row eliminations.
  EXPECT_GT(SatCubes, 0u);
  EXPECT_GT(UnsatCubes, 0u);
  EXPECT_GT(Eliminations, 0u);
}

TEST(GaussEngine, OneEliminationImpliesThenDerivesALaterUnitOrConflict) {
  // Four rows that no single row decides once the padding p1..p8 is
  // assumed (each keeps >= 2 unknowns), so only the cross-row
  // elimination that the eighth assignment triggers can. Columns number
  // in order of first appearance, so it pivots on a, c, d:
  //   R1 = a ^ b ^ p1 ^ p2            = 0
  //   R2 = a ^ b ^ c ^ p3 ^ p4        = 1  ->  c ^ p1..p4      = 1
  //   R3 = c ^ d ^ e ^ p5             = 0  ->  d ^ e ^ p1..p5  = 1
  //   R4 = d ^ e [^ f] ^ p6 ^ p7 ^ p8 = 0  ->  [f ^] p1..p8    = 1
  // The inspect pass implies c from R2's combination and then, from
  // R4's, either implies f or (without f) reads 0 = 1 when p1..p8 has
  // even parity.
  for (bool WithF : {true, false}) {
    for (uint32_t Padding : {0x00u, 0x01u, 0x5au, 0xffu}) {
      sat::Solver S;
      Var A = S.newVar(), B = S.newVar(), C = S.newVar(), D = S.newVar(),
          E = S.newVar(), F = S.newVar();
      std::vector<Var> P;
      for (int I = 0; I != 8; ++I)
        P.push_back(S.newVar());
      auto L = [](Var V) { return sat::mkLit(V); };
      std::vector<std::pair<std::vector<Lit>, bool>> Rows = {
          {{L(A), L(B), L(P[0]), L(P[1])}, false},
          {{L(A), L(B), L(C), L(P[2]), L(P[3])}, true},
          {{L(C), L(D), L(E), L(P[4])}, false},
          {{L(D), L(E), L(P[5]), L(P[6]), L(P[7])}, false}};
      if (WithF)
        Rows[3].first.push_back(L(F));
      for (const auto &[Row, Odd] : Rows)
        ASSERT_TRUE(S.addXorClause(Row, Odd));
      std::vector<Lit> Cube;
      for (int I = 0; I != 8; ++I)
        Cube.push_back(Lit(P[I], ((Padding >> I) & 1) == 0));
      bool Low = std::popcount(Padding & 0x0fu) & 1;
      bool All = std::popcount(Padding) & 1;
      SolveResult Got = S.solve(Cube);
      EXPECT_GE(S.stats().XorEliminations, 1u);
      if (!WithF && !All) {
        // p1..p8 even: R4's combination reads 0 = 1.
        EXPECT_EQ(Got, SolveResult::Unsat) << "padding " << Padding;
        EXPECT_GE(S.stats().XorConflicts, 1u);
        continue;
      }
      ASSERT_EQ(Got, SolveResult::Sat) << "padding " << Padding;
      EXPECT_EQ(S.modelValue(C), !Low);
      if (WithF) {
        EXPECT_EQ(S.modelValue(F), !All);
      }
      for (const auto &[Row, Odd] : Rows)
        EXPECT_TRUE(rowHolds(S, Row, Odd));
      // c (and f) come from the elimination, not from a decision.
      EXPECT_GE(S.stats().XorPropagations, WithF ? 2u : 1u);
    }
  }
}

// -- Row provenance -----------------------------------------------------------

namespace {

/// Keeps every clause the XOR engine reports, with its row list.
class ParityRecorder final : public sat::ClauseProofSink {
public:
  void onDerive(std::span<const Lit>, std::span<const int64_t>) override {}
  void onDeriveParity(std::span<const Lit> Lits,
                      std::span<const uint32_t> Rows) override {
    Logged.emplace_back(std::vector<Lit>(Lits.begin(), Lits.end()),
                        std::vector<uint32_t>(Rows.begin(), Rows.end()));
  }
  void onRetire(uint64_t) override {}

  std::vector<std::pair<std::vector<Lit>, std::vector<uint32_t>>> Logged;
};

/// Per variable, the value every solution of \p Sys gives it (-1 when
/// free), or nothing when the system is inconsistent: a variable is fixed
/// exactly when the reduced echelon form has a row over it alone. Every
/// level-0 literal of a solver holding the rows is among these.
std::vector<int> impliedValues(const XorSystem &Sys) {
  const size_t N = Sys.NumVars;
  std::vector<BitVector> Dense;
  for (const auto &[Row, Odd] : Sys.Rows) {
    BitVector D(N + 1);
    bool Rhs = Odd;
    for (Lit L : Row) {
      D.flip(static_cast<size_t>(L.var()));
      Rhs ^= L.negated();
    }
    if (Rhs)
      D.flip(N);
    Dense.push_back(std::move(D));
  }
  BitMatrix M = BitMatrix::fromRows(std::move(Dense));
  std::vector<size_t> Pivots = M.rowReduce();
  if (!Pivots.empty() && Pivots.back() == N)
    return {};
  std::vector<int> Value(N, -1);
  for (size_t R = 0; R != Pivots.size(); ++R)
    if (M.row(R).count() - M.row(R).get(N) == 1)
      Value[Pivots[R]] = M.row(R).get(N);
  return Value;
}

/// The onDeriveParity() contract for one logged clause, folding every
/// literal the rows imply: the clause is satisfied there, or the cited
/// rows' sum keeps its unassigned support inside the clause and is
/// violated by the assignment falsifying the clause.
::testing::AssertionResult rowsImplyClause(const XorSystem &Sys,
                                         const std::vector<int> &Root,
                                         const std::vector<Lit> &Clause,
                                         const std::vector<uint32_t> &Rows) {
  for (Lit L : Clause)
    if (Root[L.var()] == (L.negated() ? 0 : 1))
      return ::testing::AssertionSuccess(); // satisfied at the root
  if (!std::is_sorted(Rows.begin(), Rows.end()) ||
      std::adjacent_find(Rows.begin(), Rows.end()) != Rows.end())
    return ::testing::AssertionFailure() << "rows not strictly ascending";
  std::vector<uint8_t> InSum(Sys.NumVars, 0);
  bool Rhs = false;
  for (uint32_t Id : Rows) {
    if (Id == 0 || Id > Sys.Rows.size())
      return ::testing::AssertionFailure() << "row " << Id << " out of range";
    const auto &[Row, Odd] = Sys.Rows[Id - 1];
    Rhs ^= Odd;
    for (Lit L : Row) {
      InSum[L.var()] ^= 1;
      Rhs ^= L.negated();
    }
  }
  bool Falsified = false;
  for (size_t V = 0; V != Sys.NumVars; ++V) {
    if (!InSum[V])
      continue;
    if (Root[V] >= 0) {
      Rhs ^= Root[V] == 1;
      continue;
    }
    auto It = std::find_if(Clause.begin(), Clause.end(),
                           [&](Lit L) { return L.var() == Var(V); });
    if (It == Clause.end())
      return ::testing::AssertionFailure()
             << "variable " << V << " of the sum is outside the clause";
    Falsified ^= It->negated();
  }
  if (Falsified == Rhs)
    return ::testing::AssertionFailure()
           << "the falsifying assignment satisfies the sum";
  return ::testing::AssertionSuccess();
}

} // namespace

TEST(GaussEngine, LoggedParityClausesFollowFromTheirRows) {
  // Small random systems (the single-row path, root units) and wide
  // LDPC-like ones (cross-row eliminations, whose clauses cite many
  // rows), each solved under random cubes by one reused solver.
  Rng R(20261018);
  uint64_t Checked = 0, Combined = 0;
  for (int Case = 0; Case != 160; ++Case) {
    bool Wide = Case % 40 == 0;
    XorSystem Sys = Wide ? randomLdpcSystem(R, 200 + R.nextBelow(60),
                                            130 + R.nextBelow(30))
                         : randomXorSystem(R, 10, 8);
    std::vector<int> Root = impliedValues(Sys);
    if (Root.empty())
      continue; // inconsistent: the engine refutes it before any clause
    sat::Solver S;
    ParityRecorder Log;
    S.setProofSink(&Log);
    for (size_t I = 0; I != Sys.NumVars; ++I)
      S.newVar();
    for (const auto &[Row, Odd] : Sys.Rows)
      ASSERT_TRUE(S.addXorClause(Row, Odd));
    for (int C = 0; C != 6; ++C) {
      std::vector<Lit> Cube;
      for (size_t V = 0; V != Sys.NumVars; ++V)
        if (R.nextBelow(100) < (Wide ? 20u : 30u))
          Cube.push_back(Lit(static_cast<Var>(V), R.nextBool()));
      S.solve(Cube);
    }
    for (const auto &[Clause, Rows] : Log.Logged) {
      ASSERT_TRUE(rowsImplyClause(Sys, Root, Clause, Rows))
          << "case " << Case;
      ++Checked;
      Combined += Rows.size() > 1;
    }
  }
  EXPECT_GT(Checked, 100u);
  EXPECT_GT(Combined, 0u) << "no eliminated row was logged";
}

// -- Pipeline equisatisfiability --------------------------------------------

TEST(GaussEngine, PipelineAgreesWithPlainCnfOnRandomParitySystems) {
  Rng R(424242);
  for (int Case = 0; Case != 60; ++Case) {
    BoolContext Ctx;
    std::vector<ExprRef> Vars = makeVars(Ctx, 6 + R.nextBelow(3));
    ExprRef Root = randomParityExpr(Ctx, Vars, R);

    ProblemOptions XorOn;
    XorOn.NativeXor = true;
    ProblemOptions XorOff;
    XorOff.NativeXor = false;
    ProblemOptions NoPrep;
    NoPrep.Preprocess = false;

    uint64_t WithXor = countModels(Ctx, Root, XorOn);
    EXPECT_EQ(WithXor, countModels(Ctx, Root, XorOff)) << "case " << Case;
    EXPECT_EQ(WithXor, countModels(Ctx, Root, NoPrep)) << "case " << Case;

    if (Case % 3 == 0) {
      ProblemOptions Pairwise = XorOn;
      Pairwise.CardEnc = CardinalityEncoding::PairwiseNaive;
      EXPECT_EQ(WithXor, countModels(Ctx, Root, Pairwise))
          << "pairwise case " << Case;
    }
  }
}

TEST(GaussEngine, ScenarioVerdictsAgreeWithXorOnAndOff) {
  StabilizerCode Code = makeSteaneCode();
  for (uint32_t Budget : {1u, 2u}) {
    Scenario S = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z,
                                    Budget);
    VerifyOptions On;
    On.Xor = XorMode::On;
    VerifyOptions Off;
    Off.Xor = XorMode::Off;
    VerificationResult A = verifyScenario(S, On);
    VerificationResult B = verifyScenario(S, Off);
    ASSERT_TRUE(A.StructuralOk && B.StructuralOk);
    EXPECT_EQ(A.Verified, B.Verified) << "budget " << Budget;
  }
}

TEST(GaussEngine, DistanceSearchAgreesWithXorOnAndOff) {
  // computeDistance resolves XorMode::Auto to On; Off is the plain-CNF
  // baseline.
  VerifyOptions Off;
  Off.Xor = XorMode::Off;
  for (const StabilizerCode &Code :
       {makeSteaneCode(), makeRotatedSurfaceCode(3), makeCube832()}) {
    DistanceResult A = computeDistance(Code);
    DistanceResult B = computeDistance(Code, Off);
    ASSERT_TRUE(A.Ok && B.Ok) << Code.Name;
    EXPECT_EQ(A.Distance, B.Distance) << Code.Name;
  }
}
