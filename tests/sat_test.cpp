//===- tests/sat_test.cpp - CDCL solver unit tests -------------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace veriqec;
using namespace veriqec::sat;

namespace {

/// Brute-force satisfiability for cross-checking (n <= 20).
bool bruteForceSat(size_t NumVars,
                   const std::vector<std::vector<Lit>> &Clauses) {
  for (uint64_t Mask = 0; Mask != (uint64_t{1} << NumVars); ++Mask) {
    bool AllSat = true;
    for (const auto &C : Clauses) {
      bool ClauseSat = false;
      for (Lit L : C) {
        bool V = (Mask >> L.var()) & 1;
        if (V != L.negated()) {
          ClauseSat = true;
          break;
        }
      }
      if (!ClauseSat) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

/// Pigeonhole PHP(Pigeons, Holes): UNSAT when Pigeons > Holes, and hard
/// enough for CDCL to restart and reduce — the workload the arena
/// battery needs. Variable P * Holes + H means "pigeon P sits in hole H".
std::vector<std::vector<Lit>> pigeonholeClauses(size_t Pigeons, size_t Holes,
                                                size_t &NumVars) {
  NumVars = Pigeons * Holes;
  auto VarOf = [Holes](size_t P, size_t H) {
    return static_cast<Var>(P * Holes + H);
  };
  std::vector<std::vector<Lit>> Clauses;
  for (size_t P = 0; P != Pigeons; ++P) {
    std::vector<Lit> C;
    for (size_t H = 0; H != Holes; ++H)
      C.push_back(mkLit(VarOf(P, H)));
    Clauses.push_back(std::move(C));
  }
  for (size_t H = 0; H != Holes; ++H)
    for (size_t P = 0; P != Pigeons; ++P)
      for (size_t Q = P + 1; Q != Pigeons; ++Q)
        Clauses.push_back({~mkLit(VarOf(P, H)), ~mkLit(VarOf(Q, H))});
  return Clauses;
}

Solver loadedSolver(size_t NumVars,
                    const std::vector<std::vector<Lit>> &Clauses) {
  Solver S;
  for (size_t V = 0; V != NumVars; ++V)
    S.newVar();
  for (const auto &C : Clauses)
    EXPECT_TRUE(S.addClause(C));
  return S;
}

bool modelSatisfies(const Solver &S,
                    const std::vector<std::vector<Lit>> &Clauses) {
  for (const auto &C : Clauses) {
    bool SatC = false;
    for (Lit L : C)
      SatC |= S.modelValue(L.var()) != L.negated();
    if (!SatC)
      return false;
  }
  return true;
}

} // namespace

TEST(LubySequence, FirstValues) {
  // 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  const uint64_t Expected[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (size_t I = 0; I != std::size(Expected); ++I)
    EXPECT_EQ(lubySequence(I + 1), Expected[I]) << "index " << I + 1;
}

TEST(SolverStats, FieldTableDrivesSumAndDelta) {
  // The table's names are the --bench-out keys, in wire order.
  std::string Names;
  for (const auto &F : SolverStats::Fields)
    Names += std::string(F.Name) + " ";
  EXPECT_EQ(Names, "decisions bin_propagations long_propagations conflicts "
                   "learned restarts xor_propagations xor_conflicts "
                   "xor_eliminations arena_bytes wasted_bytes compactions ");

  // Distinct large values per field, so a loop that reads or writes the
  // wrong member shows up in exactly that field.
  SolverStats A, B;
  uint64_t I = 0;
  for (const auto &F : SolverStats::Fields) {
    ++I;
    A.*F.Member = 0x0102030405060708ull * I;
    B.*F.Member = I;
  }
  SolverStats Sum = A;
  Sum += B;
  SolverStats Delta = A - B;
  I = 0;
  for (const auto &F : SolverStats::Fields) {
    ++I;
    EXPECT_EQ(Sum.*F.Member, 0x0102030405060708ull * I + I) << F.Name;
    EXPECT_EQ(Delta.*F.Member, 0x0102030405060708ull * I - I) << F.Name;
  }
  EXPECT_EQ(B.propagations(),
            B.BinPropagations + B.LongPropagations + B.XorPropagations);
}

TEST(Solver, EmptyFormulaIsSat) {
  Solver S;
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(Solver, UnitPropagationChain) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause(mkLit(A));
  S.addClause(~mkLit(A), mkLit(B));
  S.addClause(~mkLit(B), mkLit(C));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  EXPECT_TRUE(S.modelValue(C));
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
  Solver S;
  Var A = S.newVar();
  S.addClause(mkLit(A));
  EXPECT_FALSE(S.addClause(~mkLit(A)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, SimpleBacktrackingInstance) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(mkLit(A), mkLit(B));
  S.addClause(mkLit(A), ~mkLit(B));
  S.addClause(~mkLit(A), mkLit(B));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
}

TEST(Solver, XorChainUnsat) {
  // a^b=1, b^c=1, a^c=1 is unsatisfiable (sum of all three is 1 = 0).
  Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  auto addXorEq1 = [&](Var X, Var Y) {
    S.addClause(mkLit(X), mkLit(Y));
    S.addClause(~mkLit(X), ~mkLit(Y));
  };
  addXorEq1(A, B);
  addXorEq1(B, C);
  addXorEq1(A, C);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, PigeonholePrinciple) {
  // 5 pigeons into 4 holes: UNSAT and requires real conflict analysis.
  const int Pigeons = 5, Holes = 4;
  Solver S;
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (int I = 0; I != Pigeons; ++I)
    for (int J = 0; J != Holes; ++J)
      P[I][J] = S.newVar();
  for (int I = 0; I != Pigeons; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J != Holes; ++J)
      C.push_back(mkLit(P[I][J]));
    S.addClause(C);
  }
  for (int J = 0; J != Holes; ++J)
    for (int I1 = 0; I1 != Pigeons; ++I1)
      for (int I2 = I1 + 1; I2 != Pigeons; ++I2)
        S.addClause(~mkLit(P[I1][J]), ~mkLit(P[I2][J]));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0u);
}

TEST(Solver, AssumptionsRestrictAndRelease) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(mkLit(A), mkLit(B));
  EXPECT_EQ(S.solve({~mkLit(A), ~mkLit(B)}), SolveResult::Unsat);
  // The formula itself stays satisfiable afterwards.
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.solve({~mkLit(A)}), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(B));
}

TEST(Solver, ConflictBudgetAborts) {
  // A hard pigeonhole instance with a tiny budget must abort.
  const int Pigeons = 9, Holes = 8;
  Solver S;
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (int I = 0; I != Pigeons; ++I)
    for (int J = 0; J != Holes; ++J)
      P[I][J] = S.newVar();
  for (int I = 0; I != Pigeons; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J != Holes; ++J)
      C.push_back(mkLit(P[I][J]));
    S.addClause(C);
  }
  for (int J = 0; J != Holes; ++J)
    for (int I1 = 0; I1 != Pigeons; ++I1)
      for (int I2 = I1 + 1; I2 != Pigeons; ++I2)
        S.addClause(~mkLit(P[I1][J]), ~mkLit(P[I2][J]));
  S.setConflictBudget(10);
  EXPECT_EQ(S.solve(), SolveResult::Aborted);
}

TEST(Solver, RandomInstancesMatchBruteForce) {
  Rng R(99);
  for (int Trial = 0; Trial != 200; ++Trial) {
    size_t NumVars = 4 + R.nextBelow(9); // 4..12
    size_t NumClauses = 2 + R.nextBelow(5 * NumVars);
    std::vector<std::vector<Lit>> Clauses;
    for (size_t C = 0; C != NumClauses; ++C) {
      size_t Len = 1 + R.nextBelow(3);
      std::vector<Lit> Clause;
      for (size_t L = 0; L != Len; ++L)
        Clause.push_back(
            Lit(static_cast<Var>(R.nextBelow(NumVars)), R.nextBool()));
      Clauses.push_back(std::move(Clause));
    }

    Solver S;
    for (size_t V = 0; V != NumVars; ++V)
      S.newVar();
    bool AddOk = true;
    for (const auto &C : Clauses)
      AddOk = S.addClause(C) && AddOk;
    SolveResult Res = AddOk ? S.solve() : SolveResult::Unsat;
    bool Expected = bruteForceSat(NumVars, Clauses);
    ASSERT_EQ(Res == SolveResult::Sat, Expected) << "trial " << Trial;

    // Any reported model must satisfy every clause.
    if (Res == SolveResult::Sat) {
      for (const auto &C : Clauses) {
        bool Sat = false;
        for (Lit L : C)
          Sat |= S.modelValue(L.var()) != L.negated();
        EXPECT_TRUE(Sat);
      }
    }
  }
}

TEST(Solver, RepeatedSolvesAreConsistent) {
  Rng R(123);
  Solver S;
  const size_t NumVars = 30;
  for (size_t V = 0; V != NumVars; ++V)
    S.newVar();
  for (size_t C = 0; C != 80; ++C) {
    std::vector<Lit> Clause;
    for (size_t L = 0; L != 3; ++L)
      Clause.push_back(
          Lit(static_cast<Var>(R.nextBelow(NumVars)), R.nextBool()));
    S.addClause(Clause);
  }
  SolveResult First = S.solve();
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(S.solve(), First);
}

TEST(Solver, ReuseAcrossAssumptionSetsStaysSound) {
  // Regression test: a learnt clause that backjumps below the assumption
  // prefix must not be reported as UNSAT-under-assumptions, and solver
  // state carried across solve() calls (learnt clauses, saved phases,
  // level-0 units) must never flip a verdict. A reused solver is checked
  // against a fresh one on every assumption cube of many random formulas.
  Rng R(2025);
  for (int Trial = 0; Trial != 20; ++Trial) {
    const size_t NumVars = 14;
    std::vector<std::vector<Lit>> Clauses;
    for (size_t C = 0; C != 50; ++C) {
      std::vector<Lit> Clause;
      for (size_t L = 0; L != 3; ++L)
        Clause.push_back(
            Lit(static_cast<Var>(R.nextBelow(NumVars)), R.nextBool()));
      Clauses.push_back(Clause);
    }
    Solver Reused;
    for (size_t V = 0; V != NumVars; ++V)
      Reused.newVar();
    bool Ok = true;
    for (const auto &C : Clauses)
      Ok = Reused.addClause(C) && Ok;
    if (!Ok)
      continue;

    for (int Cube = 0; Cube != 16; ++Cube) {
      std::vector<Lit> Assumptions;
      for (int B = 0; B != 4; ++B)
        Assumptions.push_back(
            Lit(static_cast<Var>(B), (Cube >> B) & 1));
      Solver Fresh;
      for (size_t V = 0; V != NumVars; ++V)
        Fresh.newVar();
      for (const auto &C : Clauses)
        Fresh.addClause(C);
      SolveResult A = Reused.solve(Assumptions);
      SolveResult B = Fresh.solve(Assumptions);
      ASSERT_EQ(A, B) << "trial " << Trial << " cube " << Cube;
      if (A == SolveResult::Sat) {
        EXPECT_TRUE(modelSatisfies(Reused, Clauses))
            << "trial " << Trial << " cube " << Cube;
      }
    }
  }

  // The cube engine's reuse pattern on a conflict-dense instance: one
  // solver walks every hole pair of the first two pigeons of PHP(7, 6),
  // where backjumps cross the assumption prefix under almost any cube.
  // Each verdict must match a fresh solver and each failed-assumption
  // core must stay inside its cube.
  size_t NumVars = 0;
  std::vector<std::vector<Lit>> Php = pigeonholeClauses(7, 6, NumVars);
  Solver Walker = loadedSolver(NumVars, Php);
  for (size_t H0 = 0; H0 != 6; ++H0)
    for (size_t H1 = 0; H1 != 6; ++H1) {
      std::vector<Lit> Cube = {mkLit(static_cast<Var>(H0)),
                               mkLit(static_cast<Var>(6 + H1))};
      SolveResult Verdict = Walker.solve(Cube);
      EXPECT_EQ(Verdict, SolveResult::Unsat) << "cube " << H0 << "," << H1;
      for (Lit L : Walker.conflictCore())
        EXPECT_TRUE(L == Cube[0] || L == Cube[1]);
      Solver Fresh = loadedSolver(NumVars, Php);
      EXPECT_EQ(Fresh.solve(Cube), Verdict) << "cube " << H0 << "," << H1;
    }
  // Satisfiable side: PHP(6, 6) stays SAT under reuse on every cube, with
  // a model that satisfies every clause and honours the assumption.
  std::vector<std::vector<Lit>> SatPhp = pigeonholeClauses(6, 6, NumVars);
  Solver SatWalker = loadedSolver(NumVars, SatPhp);
  for (size_t H0 = 0; H0 != 6; ++H0) {
    ASSERT_EQ(SatWalker.solve({mkLit(static_cast<Var>(H0))}),
              SolveResult::Sat)
        << "hole " << H0;
    EXPECT_TRUE(modelSatisfies(SatWalker, SatPhp)) << "hole " << H0;
    EXPECT_TRUE(SatWalker.modelValue(static_cast<Var>(H0)));
  }
}

// ---- Clause-arena and reduceDB battery -------------------------------------

#include "proof/ProofCheck.h"
#include "proof/ProofLog.h"
#include "smt/CubeSolver.h"

TEST(ReduceDB, LearntDbStaysPinnedAndArenaIsCompacted) {
  // Regression test for the reduceDB accounting bug: the trigger used to
  // count only unlocked candidates, so the learnt DB (and the memory
  // behind it) could grow far past MaxLearned, and deleted clauses were
  // tombstoned but never reclaimed. With the live-learnt trigger and the
  // arena collector the DB stays pinned near the cap and the arena
  // shrinks back after compaction.
  size_t NumVars = 0;
  std::vector<std::vector<Lit>> Clauses = pigeonholeClauses(9, 8, NumVars);
  Solver S;
  for (size_t V = 0; V != NumVars; ++V)
    S.newVar();
  for (const auto &C : Clauses)
    ASSERT_TRUE(S.addClause(C));
  S.setMaxLearned(64);
  S.setGarbageFraction(0.2);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  // Enough work to have cycled the DB many times over.
  EXPECT_GT(S.stats().Conflicts, 1000u);
  EXPECT_GT(S.stats().LearnedClauses, S.liveLearnts());
  // The pin: reductions happen on restarts, so the DB can overshoot the
  // cap by at most one restart interval of fresh lemmas.
  EXPECT_LE(S.liveLearnts(), 1024u);
  // Deleted clauses were really reclaimed, not just tombstoned.
  EXPECT_GE(S.stats().Compactions, 1u);
  EXPECT_GT(S.stats().WastedBytes, 0u);
  EXPECT_LT(S.arenaBytes(), S.stats().ArenaBytes);
  // Exact search counters: reduceDB's retention and the watch order it
  // leaves behind drive the whole search, so any drift in either moves
  // these. Release builds compile asserts out; the counters still bite.
  EXPECT_EQ(S.stats().Conflicts, 33848u);
  EXPECT_EQ(S.stats().propagations(), 468354u);
  EXPECT_EQ(S.stats().Compactions, 124u);
  EXPECT_EQ(S.stats().WastedBytes, 3181808u);
}

TEST(ClauseArena, RelocationPreservesVerdictsAndModelCounts) {
  // Verdict + model-count equality with compaction forced after every
  // solver call vs. disabled, across both cardinality encodings and
  // xor on/off. The forced collector relocates every live clause each
  // round (watchers, reasons, proof-id words and all), so any stale
  // ClauseRef shows up as a wrong verdict, a corrupted model, or a
  // crash.
  using smt::BoolContext;
  using smt::CardinalityEncoding;
  using smt::ExprRef;
  constexpr size_t N = 8;
  BoolContext Ctx;
  std::vector<std::string> Names;
  std::vector<ExprRef> Vars;
  for (size_t I = 0; I != N; ++I) {
    Names.push_back("e" + std::to_string(I));
    Vars.push_back(Ctx.mkVar(Names.back()));
  }
  ExprRef Root = Ctx.mkAnd({Ctx.mkAtMost(Vars, 3), Ctx.mkAtLeast(Vars, 2),
                            Ctx.mkXor(Vars[0], Vars[N - 1])});
  // Ground truth over the named variables by exhaustive evaluation.
  size_t Expected = 0;
  for (uint64_t Mask = 0; Mask != (uint64_t{1} << N); ++Mask) {
    std::vector<bool> A;
    for (size_t I = 0; I != N; ++I)
      A.push_back((Mask >> I) & 1);
    Expected += Ctx.evaluate(Root, A);
  }
  ASSERT_GT(Expected, 0u);

  for (CardinalityEncoding Enc : {CardinalityEncoding::SequentialCounter,
                                  CardinalityEncoding::PairwiseNaive}) {
    for (bool NativeXor : {false, true}) {
      smt::SolveOptions Opts;
      Opts.CardEnc = Enc;
      Opts.Xor = NativeXor ? smt::XorMode::On : smt::XorMode::Off;
      Opts.SplitVars = Names; // protect every named var from elimination
      smt::VerificationProblem Problem(
          Ctx, Root, smt::makeProblemOptions(Ctx, Opts));
      ASSERT_FALSE(Problem.TriviallyUnsat);
      for (bool ForceGc : {false, true}) {
        Solver S = Problem.makeSolver();
        S.setGarbageFraction(ForceGc ? 0.0 : 1e9);
        size_t Models = 0;
        while (S.solve() == SolveResult::Sat) {
          ++Models;
          ASSERT_LE(Models, Expected) << "enc " << int(Enc) << " xor "
                                      << NativeXor << " gc " << ForceGc;
          std::vector<Lit> Block;
          for (const auto &[Name, V] : Problem.NamedVars)
            Block.push_back(S.modelValue(V) ? ~mkLit(V) : mkLit(V));
          if (!S.addClause(Block))
            break; // blocking clause empty at root: no models left
          if (ForceGc)
            S.forceGarbageCollect();
        }
        EXPECT_EQ(Models, Expected) << "enc " << int(Enc) << " xor "
                                    << NativeXor << " gc " << ForceGc;
        if (ForceGc) {
          // The final blocking clause can close the formula at the root,
          // skipping that round's collection.
          EXPECT_GE(S.stats().Compactions + 1, Models);
        }
      }
    }
  }
}

namespace {

/// A proof sink that keeps only an FNV-1a hash of the derivation stream:
/// every derived clause's literals and hints (or XOR rows), every
/// retired serial. Two
/// solvers that learn the same clauses with the same hints in the same
/// order, and retire the same ones, hash the same.
class HashingProofSink : public ClauseProofSink {
public:
  void onDerive(std::span<const Lit> Lits,
                std::span<const int64_t> Hints) override {
    mix('d');
    for (Lit L : Lits)
      mix(static_cast<uint64_t>(L.Code));
    mix('h');
    for (int64_t H : Hints)
      mix(static_cast<uint64_t>(H));
    ++Derived;
  }
  void onDeriveParity(std::span<const Lit> Lits,
                      std::span<const uint32_t> Rows) override {
    mix('g');
    for (Lit L : Lits)
      mix(static_cast<uint64_t>(L.Code));
    mix('x');
    for (uint32_t R : Rows)
      mix(R);
    ++Derived;
  }
  void onRetire(uint64_t Serial) override {
    mix('r');
    mix(Serial);
  }

  uint64_t Hash = 14695981039346656037ull;
  uint64_t Derived = 0;

private:
  void mix(uint64_t Word) {
    for (int B = 0; B != 8; ++B) {
      Hash ^= (Word >> (8 * B)) & 0xff;
      Hash *= 1099511628211ull;
    }
  }
};

} // namespace

TEST(Minimization, LearntStreamIsPinned) {
  // The learnt clauses, their proof hints and the retirements of a
  // reused-solver cube walk, hashed and pinned. Clause minimization
  // removes literals here, so this pins what it removes and the hints it
  // records for them (each removed literal's reason cone): a memoization
  // that marks a literal removable when it is not, or that loses part of
  // a cone, changes the stream; a faster kernel with the same decisions
  // does not. Random 3-SAT near the threshold, cubes over four variables.
  Rng R(14);
  const size_t NumVars = 120;
  std::vector<std::vector<Lit>> Clauses;
  for (size_t C = 0; C != 500; ++C) {
    std::vector<Lit> Clause;
    for (size_t L = 0; L != 3; ++L)
      Clause.push_back(
          Lit(static_cast<Var>(R.nextBelow(NumVars)), R.nextBool()));
    Clauses.push_back(std::move(Clause));
  }
  Solver S;
  HashingProofSink Sink;
  S.setProofSink(&Sink);
  S.setMaxLearned(200);
  for (size_t V = 0; V != NumVars; ++V)
    S.newVar();
  for (const auto &C : Clauses)
    S.addClause(C);
  std::string Verdicts;
  for (int Cube = 0; Cube != 16; ++Cube) {
    std::vector<Lit> Assumptions;
    for (int B = 0; B != 4; ++B)
      Assumptions.push_back(Lit(static_cast<Var>(B), (Cube >> B) & 1));
    SolveResult Res = S.solve(Assumptions);
    ASSERT_NE(Res, SolveResult::Aborted);
    Verdicts += Res == SolveResult::Sat ? 'S' : 'U';
  }
  EXPECT_EQ(Verdicts, "UUSSUUSSSUSSSUSS");
  EXPECT_EQ(S.stats().Conflicts, 737u);
  EXPECT_EQ(S.stats().propagations(), 26425u);
  EXPECT_EQ(Sink.Derived, 737u);
  EXPECT_EQ(Sink.Hash, 5136668534207010062ull);
}

TEST(ProofRoundTrip, CertificateSurvivesRepeatedCompaction) {
  // Proof identities live inside clause memory now; this drives enough
  // reductions and compactions through an UNSAT run that any proof-id
  // word lost or scrambled by relocation produces a certificate the
  // checker rejects (dangling d-record, wrong a-record serial). The run
  // is made twice: as one assumption-free solve, and as a cube walk over
  // one reused solver whose every conclusion carries the LRAT-style
  // conflictCoreHints — hints ordered by trail position, which the
  // checker replays across prefix-reusing solve() calls.
  size_t NumVars = 0;
  std::vector<std::vector<Lit>> Clauses = pigeonholeClauses(8, 7, NumVars);
  for (bool CubeWalk : {false, true}) {
    Solver S;
    proof::SlotProofLog Log;
    S.setProofSink(&Log);
    S.setMaxLearned(32);
    S.setGarbageFraction(0.0);
    for (size_t V = 0; V != NumVars; ++V)
      S.newVar();
    for (const auto &C : Clauses)
      ASSERT_TRUE(S.addClause(C));
    if (CubeWalk) {
      bool GlobalUnsat = false;
      for (size_t H0 = 0; H0 != 7 && !GlobalUnsat; ++H0)
        for (size_t H1 = 0; H1 != 7 && !GlobalUnsat; ++H1) {
          std::vector<Lit> Cube = {mkLit(static_cast<Var>(H0)),
                                   mkLit(static_cast<Var>(7 + H1))};
          ASSERT_EQ(S.solve(Cube), SolveResult::Unsat);
          Log.logConclusion(S.conflictCore(), Cube, S.conflictCoreHints());
          // Once the empty clause is derived, later cubes add nothing.
          GlobalUnsat = S.conflictCore().empty();
        }
    } else {
      EXPECT_EQ(S.solve(), SolveResult::Unsat);
      Log.logConclusion({}, {});
    }
    ASSERT_GE(S.stats().Compactions, 3u)
        << "battery must exercise at least three relocation passes";
    if (CubeWalk) {
      // Exact counters of the prefix-reusing walk: reduceDB runs with
      // live assumption-level reasons here, so a wrong locked() verdict
      // or a changed watch order shows up as drift.
      EXPECT_EQ(S.stats().Conflicts, 4355u);
      EXPECT_EQ(S.stats().propagations(), 62447u);
      EXPECT_EQ(S.stats().Compactions, 25u);
      EXPECT_EQ(S.stats().WastedBytes, 303276u);
    }

    std::string Proof =
        "p veriqec proof 1\nv " + std::to_string(NumVars) + "\n";
    for (const auto &C : Clauses) {
      Proof += 'o';
      for (Lit L : C) {
        Proof += ' ';
        Proof += std::to_string(L.negated() ? -(L.var() + 1) : (L.var() + 1));
      }
      Proof += " 0\n";
    }
    Proof += "s 0\n";
    Proof += Log.drain().take();
    proof::CheckResult CR = proof::checkProof(Proof);
    // Both runs end in an empty-core conclusion: the certificate derives
    // the empty clause without a cube-tree trailer.
    EXPECT_TRUE(CR.Ok) << "cube walk " << CubeWalk << ": " << CR.Error;
    EXPECT_GT(CR.Deletions, 0u) << "cube walk " << CubeWalk;
    // The certificate itself, pinned: its size moves with every learnt
    // literal and every minimization hint, and a lost hint does not
    // change the checker's verdict (hints only accelerate it; it falls
    // back to full propagation).
    EXPECT_EQ(CR.Additions, CubeWalk ? 4354u : 6859u);
    EXPECT_EQ(CR.Deletions, CubeWalk ? 4093u : 5860u);
    EXPECT_EQ(CR.Conclusions, CubeWalk ? 48u : 1u);
    EXPECT_EQ(Proof.size(), CubeWalk ? 442600u : 754253u);
  }
}

// -- SharedClausePool ring --------------------------------------------------

namespace {

/// The I-th test lemma: one literal whose variable is I, so a fetched
/// lemma names its publish index.
std::vector<Lit> lemmaNo(size_t I) { return {mkLit(static_cast<Var>(I))}; }

} // namespace

TEST(SharedClausePool, ReaderKeepingUpSeesEveryPublishPastCapacity) {
  // Sharing never stops: a reader that fetches between publishes gets
  // every lemma, well past the ring's capacity.
  const size_t N = 5000;
  static_assert(5000 > SharedClausePool::Capacity);
  SharedClausePool Pool;
  uint64_t Cursor = 0;
  std::vector<std::vector<Lit>> Seen;
  for (size_t I = 0; I != N; ++I) {
    Pool.publish(0, lemmaNo(I));
    EXPECT_TRUE(Pool.hasNewsFor(1, Cursor)) << "publish " << I;
    Pool.fetch(1, Cursor, Seen);
    EXPECT_FALSE(Pool.hasNewsFor(1, Cursor)) << "publish " << I;
  }
  ASSERT_EQ(Seen.size(), N);
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Seen[I], lemmaNo(I)) << "lemma " << I;
  EXPECT_EQ(Cursor, N);
}

TEST(SharedClausePool, StaleCursorResumesAtTheOldestLiveEntry) {
  const size_t Cap = SharedClausePool::Capacity;
  const size_t N = Cap + 1000;
  SharedClausePool Pool;
  for (size_t I = 0; I != N; ++I)
    Pool.publish(0, lemmaNo(I));
  // A cursor N entries behind: the first 1000 lemmas were evicted.
  uint64_t Cursor = 0;
  std::vector<std::vector<Lit>> Seen;
  Pool.fetch(1, Cursor, Seen);
  ASSERT_EQ(Seen.size(), Cap);
  for (size_t I = 0; I != Cap; ++I)
    EXPECT_EQ(Seen[I], lemmaNo(N - Cap + I)) << "entry " << I;
  EXPECT_EQ(Cursor, N);
  // hasNewsFor resumes the same way.
  uint64_t Stale = 10;
  EXPECT_TRUE(Pool.hasNewsFor(1, Stale));
  EXPECT_EQ(Stale, N - Cap);
  // A cursor exactly at the oldest live entry loses nothing.
  Cursor = N - Cap;
  Seen.clear();
  Pool.fetch(1, Cursor, Seen);
  EXPECT_EQ(Seen.size(), Cap);
}

TEST(SharedClausePool, FetchNeverReturnsTheCallersOwnEntries) {
  // Three owners interleaved past the ring's capacity; each reader gets
  // exactly the live entries of the other two, in publish order.
  const size_t N = SharedClausePool::Capacity + 777;
  auto OwnerOf = [](size_t I) { return static_cast<int>(I % 3); };
  SharedClausePool Pool;
  for (size_t I = 0; I != N; ++I)
    Pool.publish(OwnerOf(I), lemmaNo(I));
  for (int Reader = 0; Reader != 3; ++Reader) {
    uint64_t Cursor = 0;
    std::vector<std::vector<Lit>> Seen;
    Pool.fetch(Reader, Cursor, Seen);
    std::vector<std::vector<Lit>> Want;
    for (size_t I = N - SharedClausePool::Capacity; I != N; ++I)
      if (OwnerOf(I) != Reader)
        Want.push_back(lemmaNo(I));
    EXPECT_EQ(Seen, Want) << "reader " << Reader;
  }
  // Only the caller's own entries are new: no news, nothing fetched.
  uint64_t Cursor = N;
  Pool.publish(1, lemmaNo(N));
  Pool.publish(1, lemmaNo(N + 1));
  EXPECT_FALSE(Pool.hasNewsFor(1, Cursor));
  std::vector<std::vector<Lit>> Seen;
  Pool.fetch(1, Cursor, Seen);
  EXPECT_TRUE(Seen.empty());
  EXPECT_EQ(Cursor, N + 2);
}
