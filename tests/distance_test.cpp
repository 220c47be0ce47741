//===- tests/distance_test.cpp - Incremental distance search --------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `veriqec distance` workload: computeDistance() must return the
/// documented distance for every registry code up to surface7 (the
/// bit-flip codes document their X-family distance), the witness must be
/// a genuine minimal undetectable logical operator, the whole search must
/// run on one incremental solver (O(log n) calls), and the verdict must
/// agree with the legacy per-weight estimator.
///
//===----------------------------------------------------------------------===//

#include "qec/Codes.h"
#include "verifier/Verifier.h"

#include <gtest/gtest.h>

using namespace veriqec;

namespace {

size_t weightOf(const Pauli &P) {
  size_t W = 0;
  for (size_t Q = 0; Q != P.numQubits(); ++Q)
    W += P.kindAt(Q) != PauliKind::I;
  return W;
}

void expectDistance(const StabilizerCode &Code, size_t Documented,
                    PauliFamily Family = PauliFamily::Any) {
  DistanceResult R = computeDistance(Code, {}, Family);
  ASSERT_TRUE(R.Ok) << Code.Name << ": " << R.Error;
  EXPECT_EQ(R.Distance, Documented) << Code.Name;
  ASSERT_TRUE(R.Witness.has_value()) << Code.Name;
  EXPECT_EQ(weightOf(*R.Witness), R.Distance) << Code.Name;
  if (Family == PauliFamily::Any) {
    EXPECT_TRUE(Code.isLogicalOperator(*R.Witness))
        << Code.Name << ": witness " << R.Witness->toString()
        << " is not an undetectable logical operator";
  }
  // Binary search over an incremental solver: a handful of calls, not
  // one per weight.
  EXPECT_LE(R.SolverCalls, 12u) << Code.Name;
}

} // namespace

TEST(Distance, MatchesDocumentedDistanceForRegistryCodesUpToSurface7) {
  expectDistance(makeSteaneCode(), 3);
  expectDistance(makeFiveQubitCode(), 3);
  expectDistance(makeSixQubitCode(), makeSixQubitCode().Distance);
  expectDistance(makeRotatedSurfaceCode(3), 3);
  expectDistance(makeRotatedSurfaceCode(5), 5);
  expectDistance(makeRotatedSurfaceCode(7), 7);
  expectDistance(makeXzzxSurfaceCode(3, 3), 3);
  expectDistance(makeReedMullerCode(3), makeReedMullerCode(3).Distance);
  expectDistance(makeDodecacodeSubstitute(),
                 makeDodecacodeSubstitute().Distance);
  expectDistance(makeHoneycombSubstitute(),
                 makeHoneycombSubstitute().Distance);
}

TEST(Distance, RepetitionCodesDocumentTheBitFlipFamily) {
  // The repetition code corrects bit flips only: its true stabilizer
  // distance is 1 (a single Z is an undetectable logical), while the
  // documented distance N is attained by the pure-X family.
  for (size_t N : {3u, 5u}) {
    StabilizerCode Rep = makeRepetitionCode(N);
    DistanceResult Any = computeDistance(Rep);
    ASSERT_TRUE(Any.Ok);
    EXPECT_EQ(Any.Distance, 1u);
    expectDistance(Rep, N, PauliFamily::XOnly);
  }
}

TEST(Distance, LdpcRegistryRowsMatchDocumentedDistances) {
  // The Table 3 LDPC rows (hypergraph products). These are the rows the
  // native XOR engine exists for: without Gauss-in-the-loop the larger
  // members run minutes-to-hours (tanner1 ~41 s, tanner1-full >> 60 s on
  // the reference box; see BENCH_table3.json), which is why this test is
  // guarded by a ctest TIMEOUT rather than trimmed down. Documented
  // distances: every hypergraph product here inherits d = 4 from the
  // [7,3,4] simplex kernel (resp. [8,4,4] for tanner2).
  expectDistance(makeHgp98(), 4);
  expectDistance(makeTannerIISubstitute(), 4);
  expectDistance(makeTannerISubstitute(), 4);
  expectDistance(makeTannerIFull(), 4);
}

TEST(Distance, Tanner1SeedZeroCountersArePinned) {
  // tanner1 at solver seed 0 runs a dozen learnt-clause reductions and
  // three arena compactions on one incremental solver in about a second.
  // The exact counters pin the search: a reduceDB that keeps different
  // clauses, or leaves a different watch order behind, moves them.
  DistanceResult R = computeDistance(makeTannerISubstitute());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Distance, 4u);
  EXPECT_EQ(R.Stats.Conflicts, 4315u);
  EXPECT_EQ(R.Stats.propagations(), 2782282u);
  EXPECT_EQ(R.SolverCalls, 4u);
  EXPECT_EQ(R.Stats.Compactions, 3u);
}

TEST(Distance, AgreesWithTheLegacyPerWeightEstimator) {
  for (const StabilizerCode &Code :
       {makeSteaneCode(), makeGottesmanCode(3), makeCube832()}) {
    DistanceResult R = computeDistance(Code);
    ASSERT_TRUE(R.Ok) << Code.Name;
    EXPECT_EQ(R.Distance, estimateDistance(Code, Code.NumQubits))
        << Code.Name;
  }
}

TEST(Distance, PreprocessingToggleDoesNotChangeTheAnswer) {
  VerifyOptions Off;
  Off.Preprocess = false;
  for (const StabilizerCode &Code :
       {makeSteaneCode(), makeRotatedSurfaceCode(5)}) {
    DistanceResult A = computeDistance(Code);
    DistanceResult B = computeDistance(Code, Off);
    ASSERT_TRUE(A.Ok && B.Ok) << Code.Name;
    EXPECT_EQ(A.Distance, B.Distance) << Code.Name;
  }
}

TEST(Distance, ExhaustedConflictBudgetReportsAborted) {
  VerifyOptions VO;
  VO.ConflictBudget = 1;
  DistanceResult R = computeDistance(makeRotatedSurfaceCode(5), VO);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Aborted);
}
