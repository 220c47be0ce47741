//===- tests/qec_codes_test.cpp - Code construction validation ------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every code construction is structurally validated (commuting
/// independent generators, correctly paired logicals) and its distance is
/// pinned by the SAT-based estimator where affordable.
///
//===----------------------------------------------------------------------===//

#include "decoder/Decoder.h"
#include "qec/Codes.h"

#include <gtest/gtest.h>

using namespace veriqec;

namespace {

struct CodeCase {
  std::string Label;
  StabilizerCode (*Make)();
  size_t N, K;
  size_t ExpectDistance; ///< 0 = skip the distance check
};

StabilizerCode makeSurface3() { return makeRotatedSurfaceCode(3); }
StabilizerCode makeSurface5() { return makeRotatedSurfaceCode(5); }
StabilizerCode makeXzzx35() { return makeXzzxSurfaceCode(3, 5); }
StabilizerCode makeRm4() { return makeReedMullerCode(4); }
StabilizerCode makeRm5() { return makeReedMullerCode(5); }
StabilizerCode makeGottesman3() { return makeGottesmanCode(3); }
StabilizerCode makeGottesman4() { return makeGottesmanCode(4); }
StabilizerCode makeRep5() { return makeRepetitionCode(5); }
StabilizerCode makeTriSub8() { return makeTriorthogonalSubstitute(8); }
StabilizerCode makeCh2() { return makeCampbellHowardSubstitute(2); }

} // namespace

class CodeConstruction : public ::testing::TestWithParam<CodeCase> {};

TEST_P(CodeConstruction, ValidatesAndHasExpectedParameters) {
  const CodeCase &C = GetParam();
  StabilizerCode Code = C.Make();
  EXPECT_EQ(Code.NumQubits, C.N) << C.Label;
  EXPECT_EQ(Code.NumLogical, C.K) << C.Label;
  std::optional<std::string> Err = Code.validate();
  EXPECT_FALSE(Err.has_value()) << C.Label << ": " << Err.value_or("");
}

TEST_P(CodeConstruction, DistanceMatchesDeclaration) {
  const CodeCase &C = GetParam();
  if (C.ExpectDistance == 0)
    return;
  StabilizerCode Code = C.Make();
  EXPECT_EQ(estimateDistance(Code, C.ExpectDistance + 1), C.ExpectDistance)
      << C.Label;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, CodeConstruction,
    ::testing::Values(
        CodeCase{"steane", makeSteaneCode, 7, 1, 3},
        CodeCase{"five-qubit", makeFiveQubitCode, 5, 1, 3},
        CodeCase{"six-qubit", makeSixQubitCode, 6, 1, 3},
        CodeCase{"surface-3", makeSurface3, 9, 1, 3},
        CodeCase{"surface-5", makeSurface5, 25, 1, 5},
        CodeCase{"xzzx-3x5", makeXzzx35, 15, 1, 3},
        CodeCase{"reed-muller-4", makeRm4, 15, 1, 3},
        CodeCase{"reed-muller-5", makeRm5, 31, 1, 3},
        CodeCase{"gottesman-3", makeGottesman3, 8, 3, 3},
        CodeCase{"gottesman-4", makeGottesman4, 16, 10, 3},
        CodeCase{"cube-832", makeCube832, 8, 3, 2},
        CodeCase{"carbon-sub", makeCarbonSubstitute, 16, 6, 4},
        CodeCase{"dodeca-sub", makeDodecacodeSubstitute, 11, 1, 0},
        CodeCase{"honeycomb-sub", makeHoneycombSubstitute, 19, 1, 0},
        CodeCase{"hgp-98", makeHgp98, 98, 18, 0},
        CodeCase{"tanner-i-sub", makeTannerISubstitute, 210, 24, 0},
        CodeCase{"tanner-ii-sub", makeTannerIISubstitute, 80, 16, 0},
        CodeCase{"repetition-5", makeRep5, 5, 1, 0},
        CodeCase{"triorthogonal-sub", makeTriSub8, 32, 8, 2},
        CodeCase{"campbell-howard-sub", makeCh2, 14, 6, 2}),
    [](const ::testing::TestParamInfo<CodeCase> &Info) {
      std::string Name = Info.param.Label;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(CyclicCodes, MeasuredDistances) {
  // Pin the tool-measured distances of the cyclic substitutes.
  StabilizerCode Dodeca = makeDodecacodeSubstitute();
  EXPECT_EQ(estimateDistance(Dodeca, 6), 3u) << "dodecacode substitute";
  StabilizerCode Honey = makeHoneycombSubstitute();
  EXPECT_EQ(estimateDistance(Honey, 6), 5u) << "honeycomb substitute";
}

TEST(RepetitionCode, DistanceProfile) {
  StabilizerCode Rep = makeRepetitionCode(5);
  // Overall distance 1 (a single Z is logical), X-type distance 5.
  EXPECT_EQ(estimateDistance(Rep, 2), 1u);
  EXPECT_EQ(estimateDistanceOfType(Rep, /*XType=*/true, 6), 5u);
}

TEST(SurfaceCode, CssStructureAndLogicals) {
  StabilizerCode Code = makeRotatedSurfaceCode(5);
  EXPECT_TRUE(Code.isCss());
  EXPECT_EQ(Code.xCheckMatrix().numRows() + Code.zCheckMatrix().numRows(),
            Code.Generators.size());
  // Logical X and Z have weight d.
  ASSERT_EQ(Code.LogicalX.size(), 1u);
  EXPECT_EQ(estimateDistanceOfType(Code, true, 6), 5u);
  EXPECT_EQ(estimateDistanceOfType(Code, false, 6), 5u);
}

TEST(XzzxCode, ChecksAreMixedType) {
  StabilizerCode Code = makeXzzxSurfaceCode(3, 3);
  EXPECT_FALSE(Code.isCss());
  EXPECT_FALSE(Code.validate().has_value());
  EXPECT_EQ(estimateDistance(Code, 4), 3u);
}

TEST(SteaneCode, SyndromesSeparateSingleErrors) {
  StabilizerCode Code = makeSteaneCode();
  // All 21 single-qubit Pauli errors have distinct nonzero syndromes.
  std::vector<BitVector> Seen;
  for (size_t Q = 0; Q != 7; ++Q)
    for (PauliKind K : {PauliKind::X, PauliKind::Y, PauliKind::Z}) {
      BitVector Syn = Code.syndromeOf(Pauli::single(7, Q, K));
      EXPECT_TRUE(Syn.any());
      for (const BitVector &Prev : Seen)
        EXPECT_NE(Syn, Prev);
      Seen.push_back(Syn);
    }
}

TEST(GottesmanCode, IsPerfectSingleErrorCorrecting) {
  StabilizerCode Code = makeGottesmanCode(3);
  // [[8,3,3]]: 24 single-qubit errors + identity = 25 <= 2^5 = 32, and
  // all syndromes distinct (the code nearly saturates the Hamming bound).
  std::vector<BitVector> Seen;
  for (size_t Q = 0; Q != 8; ++Q)
    for (PauliKind K : {PauliKind::X, PauliKind::Y, PauliKind::Z}) {
      BitVector Syn = Code.syndromeOf(Pauli::single(8, Q, K));
      EXPECT_TRUE(Syn.any());
      for (const BitVector &Prev : Seen)
        EXPECT_NE(Syn, Prev);
      Seen.push_back(Syn);
    }
}

TEST(StabilizerCode, InStabilizerGroupAndLogicalQueries) {
  StabilizerCode Code = makeSteaneCode();
  // Product of two generators is in the group.
  Pauli Product = Code.Generators[0] * Code.Generators[1];
  EXPECT_TRUE(Code.inStabilizerGroup(Product));
  EXPECT_FALSE(Code.isLogicalOperator(Product));
  // The logical X is a logical operator, not a stabilizer.
  EXPECT_FALSE(Code.inStabilizerGroup(Code.LogicalX[0]));
  EXPECT_TRUE(Code.isLogicalOperator(Code.LogicalX[0]));
  // A single X error is neither (it has a syndrome).
  EXPECT_FALSE(Code.isLogicalOperator(Pauli::single(7, 0, PauliKind::X)));
}

namespace {

BitVector symplecticRowOf(const Pauli &P, bool SwapHalves = false) {
  size_t N = P.numQubits();
  BitVector Row(2 * N);
  for (size_t Q = 0; Q != N; ++Q) {
    if (P.xBits().get(Q))
      Row.set(SwapHalves ? N + Q : Q);
    if (P.zBits().get(Q))
      Row.set(SwapHalves ? Q : N + Q);
  }
  return Row;
}

Pauli pauliOfRow(const BitVector &Row) {
  size_t N = Row.size() / 2;
  Pauli P(N);
  for (size_t Q = 0; Q != N; ++Q) {
    bool X = Row.get(Q), Z = Row.get(N + Q);
    if (X || Z)
      P.setKind(Q, X && Z ? PauliKind::Y : X ? PauliKind::X : PauliKind::Z);
  }
  return P.abs();
}

/// Indices of the candidates a full rank() test keeps: each one that
/// raises the rank of \p Span grown by the ones kept before it (at most
/// \p Limit of them).
std::vector<size_t> rankSelection(BitMatrix Span,
                                  const std::vector<BitVector> &Candidates,
                                  size_t Limit) {
  std::vector<size_t> Kept;
  for (size_t I = 0; I != Candidates.size() && Kept.size() != Limit; ++I) {
    BitMatrix Test = Span;
    Test.appendRow(Candidates[I]);
    if (Test.rank() == Test.numRows()) {
      Span = std::move(Test);
      Kept.push_back(I);
    }
  }
  return Kept;
}

/// The logicals StabilizerCode derives from \p Gens, with the quotient
/// basis chosen by rank(): the normalizer's nullspace basis filtered by
/// rankSelection, paired by symplectic Gram-Schmidt, pure-type pairs
/// oriented X-first.
void referenceLogicals(const std::vector<Pauli> &Gens, size_t K,
                       std::vector<Pauli> &LogicalX,
                       std::vector<Pauli> &LogicalZ) {
  size_t N = Gens.front().numQubits();
  BitMatrix Swapped(0, 2 * N), Span(0, 2 * N);
  for (const Pauli &G : Gens) {
    Swapped.appendRow(symplecticRowOf(G, /*SwapHalves=*/true));
    Span.appendRow(symplecticRowOf(G));
  }
  std::vector<BitVector> Normalizer = Swapped.nullspaceBasis();
  std::vector<BitVector> Pool;
  for (size_t I : rankSelection(Span, Normalizer, 2 * K))
    Pool.push_back(Normalizer[I]);
  auto Anticommute = [](const BitVector &A, const BitVector &B) {
    return !pauliOfRow(A).commutesWith(pauliOfRow(B));
  };
  while (!Pool.empty()) {
    BitVector U = Pool.front();
    Pool.erase(Pool.begin());
    size_t Partner = 0;
    while (Partner != Pool.size() && !Anticommute(U, Pool[Partner]))
      ++Partner;
    if (Partner == Pool.size())
      return; // unpaired: the caller's comparison fails
    BitVector V = Pool[Partner];
    Pool.erase(Pool.begin() + Partner);
    for (BitVector &W : Pool) {
      if (Anticommute(W, V))
        W ^= U;
      if (Anticommute(W, U))
        W ^= V;
    }
    LogicalX.push_back(pauliOfRow(U));
    LogicalZ.push_back(pauliOfRow(V));
  }
  for (size_t I = 0; I != K; ++I)
    if (LogicalX[I].xBits().none() && LogicalZ[I].zBits().none())
      std::swap(LogicalX[I], LogicalZ[I]);
}

} // namespace

TEST(StabilizerCode, IndependenceTestsMatchRankSelection) {
  // Code build keeps a generator, and a normalizer vector for the
  // logicals, iff it is independent of the rows kept before it; it
  // decides that on an incremental echelon basis. For every code the CLI
  // registry lists, fed with dependent rows mixed in, the kept generators
  // and the derived logicals must be those of a full rank() test on the
  // grown matrix.
  std::vector<StabilizerCode> Registry = {
      makeRepetitionCode(3),        makeRepetitionCode(5),
      makeSteaneCode(),             makeFiveQubitCode(),
      makeSixQubitCode(),           makeRotatedSurfaceCode(3),
      makeRotatedSurfaceCode(5),    makeXzzxSurfaceCode(3, 3),
      makeReedMullerCode(3),        makeGottesmanCode(3),
      makeDodecacodeSubstitute(),   makeHoneycombSubstitute(),
      makeHgp98(),                  makeTannerISubstitute(),
      makeTannerIFull(),            makeTannerIISubstitute(),
      makeCube832(),                makeCarbonSubstitute(),
      makeTriorthogonalSubstitute(2), makeCampbellHowardSubstitute(2)};
  for (const StabilizerCode &Code : Registry) {
    // Each generator followed by its product with the previous one (a
    // dependent row), and the first generator once more at the end.
    std::vector<Pauli> Raw;
    for (size_t I = 0; I != Code.Generators.size(); ++I) {
      Raw.push_back(Code.Generators[I]);
      if (I != 0)
        Raw.push_back((Code.Generators[I] * Code.Generators[I - 1]).abs());
    }
    Raw.push_back(Code.Generators.front());
    std::vector<BitVector> RawRows;
    for (const Pauli &P : Raw)
      RawRows.push_back(symplecticRowOf(P));
    std::vector<Pauli> WantGens;
    for (size_t I :
         rankSelection(BitMatrix(0, 2 * Code.NumQubits), RawRows, Raw.size()))
      WantGens.push_back(Raw[I]);

    StabilizerCode Built =
        StabilizerCode::fromGenerators(Code.Name, Raw, Code.Distance);
    EXPECT_EQ(Built.Generators, WantGens) << Code.Name;
    EXPECT_EQ(Built.Generators, Code.Generators) << Code.Name;
    std::vector<Pauli> WantX, WantZ;
    referenceLogicals(WantGens, Code.NumLogical, WantX, WantZ);
    EXPECT_EQ(Built.LogicalX, WantX) << Code.Name;
    EXPECT_EQ(Built.LogicalZ, WantZ) << Code.Name;
  }
}

TEST(BenchmarkSuite, AllEntriesValidate) {
  for (const BenchmarkCodeEntry &Entry : makeBenchmarkSuite(true)) {
    std::optional<std::string> Err = Entry.Code.validate();
    EXPECT_FALSE(Err.has_value())
        << Entry.Code.Name << ": " << Err.value_or("");
  }
}

TEST(LookupDecoder, CorrectsAllSingleErrorsOnSteane) {
  StabilizerCode Code = makeSteaneCode();
  LookupDecoder Dec(Code, 1);
  for (size_t Q = 0; Q != 7; ++Q)
    for (PauliKind K : {PauliKind::X, PauliKind::Y, PauliKind::Z}) {
      Pauli Error = Pauli::single(7, Q, K);
      auto Corr = Dec.decode(Code.syndromeOf(Error));
      ASSERT_TRUE(Corr.has_value());
      // Correction * error must be a stabilizer (not a logical).
      Pauli Residual = Corr->abs() * Error.abs();
      EXPECT_TRUE(Code.syndromeOf(Residual).none());
      EXPECT_FALSE(Code.isLogicalOperator(Residual));
    }
}

TEST(SatDecoder, AgreesWithLookupOnSurface3) {
  StabilizerCode Code = makeRotatedSurfaceCode(3);
  LookupDecoder Lookup(Code, 1);
  SatDecoder Sat(Code);
  for (size_t Q = 0; Q != 9; ++Q)
    for (PauliKind K : {PauliKind::X, PauliKind::Y, PauliKind::Z}) {
      Pauli Error = Pauli::single(9, Q, K);
      BitVector Syn = Code.syndromeOf(Error);
      auto A = Lookup.decode(Syn);
      auto B = Sat.decode(Syn);
      ASSERT_TRUE(A.has_value());
      ASSERT_TRUE(B.has_value());
      // Same weight (both minimum weight) and both valid corrections.
      EXPECT_EQ(A->weight(), B->weight());
      EXPECT_EQ(Code.syndromeOf(*B), Syn);
    }
}

TEST(SatDecoder, HandlesWeightTwoSyndromes) {
  StabilizerCode Code = makeRotatedSurfaceCode(5);
  SatDecoder Sat(Code);
  Pauli Error =
      Pauli::single(25, 3, PauliKind::X) * Pauli::single(25, 17, PauliKind::Z);
  auto Corr = Sat.decode(Code.syndromeOf(Error));
  ASSERT_TRUE(Corr.has_value());
  EXPECT_LE(Corr->weight(), 2u);
  Pauli Residual = Corr->abs() * Error.abs();
  EXPECT_TRUE(Code.syndromeOf(Residual).none());
  EXPECT_FALSE(Code.isLogicalOperator(Residual));
}
