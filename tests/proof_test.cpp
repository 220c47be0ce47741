//===- tests/proof_test.cpp - Clause-proof emission and checking ----------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The proof pipeline end to end: verified scenarios (sequential,
/// parallel, and the distance search) emit certificates the independent
/// checker accepts, and the checker rejects every class of forgery it is
/// trusted to catch — non-RUP additions, uses of deleted clauses,
/// replay records outside the preprocessor's row span, corrupted record
/// tags, and conclusion counts that do not cover the cube space.
///
//===----------------------------------------------------------------------===//

#include "proof/ProofCheck.h"
#include "qec/Codes.h"
#include "verifier/Verifier.h"

#include <gtest/gtest.h>

using namespace veriqec;
using proof::CheckResult;
using proof::checkProof;

namespace {

/// One real certificate, produced once: Steane memory-X at budget 1
/// (verified, so the negated VC is UNSAT and a proof exists).
const std::string &steaneProof() {
  static const std::string Proof = [] {
    Scenario S = makeMemoryScenario(makeSteaneCode(), PauliKind::X,
                                    LogicalBasis::Z, 1);
    VerifyOptions O;
    O.LogProofs = true;
    VerificationResult R = verifyScenario(S, O);
    EXPECT_TRUE(R.StructuralOk) << R.Error;
    EXPECT_TRUE(R.Verified);
    return R.Proof;
  }();
  return Proof;
}

} // namespace

TEST(ProofEmission, VerifiedScenarioEmitsCheckingProof) {
  const std::string &Proof = steaneProof();
  ASSERT_FALSE(Proof.empty());
  CheckResult CR = checkProof(Proof);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  EXPECT_TRUE(CR.GlobalUnsat);
  EXPECT_GT(CR.HeaderClauses, 0u);
  EXPECT_GE(CR.Streams, 1u);
}

TEST(ProofEmission, ParallelRunEmitsCheckingProof) {
  Scenario S = makeMemoryScenario(makeSteaneCode(), PauliKind::X,
                                  LogicalBasis::Z, 1);
  VerifyOptions O;
  O.LogProofs = true;
  O.Parallel = true;
  O.Threads = 2;
  VerificationResult R = verifyScenario(S, O);
  ASSERT_TRUE(R.StructuralOk) << R.Error;
  ASSERT_TRUE(R.Verified);
  ASSERT_FALSE(R.Proof.empty());
  CheckResult CR = checkProof(R.Proof);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  // How the run ends depends on thread scheduling: a slot may refute a
  // cube with an empty core (the whole problem, cancelling its sibling)
  // or every cube may conclude on its own. Either way the accepted
  // certificate must cover the whole cube space.
  EXPECT_TRUE(CR.GlobalUnsat || CR.Conclusions == R.NumCubes)
      << CR.Conclusions << " of " << R.NumCubes << " cubes concluded";
}

TEST(ProofEmission, DistanceSearchEmitsCheckingProof) {
  // The distance path exercises assumptions-as-cubes: every UNSAT probe
  // of the binary search is one concluded cube of the same certificate.
  VerifyOptions O;
  O.LogProofs = true;
  DistanceResult R = computeDistance(makeSteaneCode(), O);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Distance, 3u);
  ASSERT_FALSE(R.Proof.empty());
  CheckResult CR = checkProof(R.Proof);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  EXPECT_GE(CR.Conclusions, 1u);
}

TEST(ProofEmission, SizedDistanceSearchCertificateDescribesTheSizedProblem) {
  // tanner1's search runs on the problem re-encoded with a weight layer
  // as deep as the existence probe's witness; the certificate's header
  // must be that problem, clause for clause.
  VerifyOptions O;
  O.LogProofs = true;
  DistanceResult R = computeDistance(makeTannerISubstitute(), O);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Distance, 4u);
  EXPECT_LT(R.LayerDepth, makeTannerISubstitute().NumQubits);
  ASSERT_FALSE(R.Proof.empty());
  CheckResult CR = checkProof(R.Proof);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  EXPECT_GE(CR.Conclusions, 2u); // the UNSAT probes at bounds 2 and 3
  size_t Vars = R.Proof.find("\nv ");
  ASSERT_NE(Vars, std::string::npos);
  EXPECT_EQ(std::stoull(R.Proof.substr(Vars + 3)), R.CnfVars);
  size_t Originals = 0;
  for (size_t At = R.Proof.find("\no "); At != std::string::npos;
       At = R.Proof.find("\no ", At + 1))
    ++Originals;
  EXPECT_EQ(Originals, R.CnfClauses);
}

TEST(ProofCheck, HandCraftedGlobalUnsatAccepted) {
  CheckResult CR = checkProof("p veriqec proof 1\n"
                              "v 2\n"
                              "o 1 2 0\no -1 2 0\no 1 -2 0\no -1 -2 0\n"
                              "s 0\n"
                              "a 1 0\n"
                              "a 2 0\n"
                              "q 0 0\n");
  EXPECT_TRUE(CR.Ok) << CR.Error;
  EXPECT_TRUE(CR.GlobalUnsat);
  EXPECT_EQ(CR.Additions, 2u);
}

TEST(ProofCheck, NonRupAdditionRejected) {
  // Variable 3 is unconstrained: no unit propagation can refute it.
  CheckResult CR = checkProof("p veriqec proof 1\n"
                              "v 3\n"
                              "o 1 2 0\no -1 2 0\no 1 -2 0\no -1 -2 0\n"
                              "s 0\n"
                              "a 3 0\n");
  EXPECT_FALSE(CR.Ok);
  EXPECT_NE(CR.Error.find("not RUP"), std::string::npos) << CR.Error;
}

TEST(ProofCheck, DeletedClauseCannotJustifyLaterAddition) {
  // (1 2) is needed to derive the unit 1; deleting it first must sink
  // the proof, and the identical proof without the deletion must check.
  const char *Header = "p veriqec proof 1\n"
                       "v 3\n"
                       "o 1 2 3 0\no 1 2 -3 0\no 1 -2 3 0\no 1 -2 -3 0\n"
                       "o -1 2 3 0\no -1 2 -3 0\no -1 -2 3 0\no -1 -2 -3 0\n"
                       "s 0\n"
                       "a 1 2 0\n";
  CheckResult Deleted =
      checkProof(std::string(Header) + "d 1\na 1 0\n");
  EXPECT_FALSE(Deleted.Ok);
  EXPECT_NE(Deleted.Error.find("not RUP"), std::string::npos)
      << Deleted.Error;
  CheckResult Kept = checkProof(std::string(Header) + "a 1 0\na 2 0\nq 0 0\n");
  EXPECT_TRUE(Kept.Ok) << Kept.Error;
}

TEST(ProofCheck, DuplicateLiteralHeaderClausesStillPropagate) {
  // A parity chain over an aliased variable emits clauses with repeated
  // literals ((x1 x1 x2) is logically (x1 x2)) and tautologies. The
  // checker must normalize at install: raw watched-literal propagation
  // would treat the two copies as distinct non-false literals and
  // reject this valid derivation.
  CheckResult CR = checkProof("p veriqec proof 1\n"
                              "v 3\n"
                              "o 1 1 2 0\n"
                              "o -1 -1 2 0\n"
                              "o 3 -3 0\n"
                              "s 0\n"
                              "a 2 0\n"
                              "q -2 0 -2 0\n");
  EXPECT_TRUE(CR.Ok) << CR.Error;
  EXPECT_EQ(CR.Additions, 1u);
}

TEST(ProofCheck, TamperedEliminationRecordRejected) {
  // Flip one elimination record's parity: the row leaves the span of
  // the original system (a consistent system spans each row under at
  // most one right-hand side).
  std::string Proof = steaneProof();
  size_t Pe = Proof.find("\npe ");
  ASSERT_NE(Pe, std::string::npos) << "expected an elimination record";
  size_t Rhs = Proof.find(' ', Pe + 4); // skip "pe <var>"
  ASSERT_NE(Rhs, std::string::npos);
  ++Rhs;
  ASSERT_TRUE(Proof[Rhs] == '0' || Proof[Rhs] == '1');
  Proof[Rhs] = Proof[Rhs] == '0' ? '1' : '0';
  CheckResult CR = checkProof(Proof);
  EXPECT_FALSE(CR.Ok);
  EXPECT_NE(CR.Error.find("span"), std::string::npos) << CR.Error;
}

TEST(ProofCheck, CorruptedRecordTagRejected) {
  // The CI mutation smoke in binary form: damage one addition's tag.
  std::string Proof = steaneProof();
  size_t A = Proof.find("\na ");
  ASSERT_NE(A, std::string::npos);
  Proof[A + 1] = 'z';
  CheckResult CR = checkProof(Proof);
  EXPECT_FALSE(CR.Ok);
  EXPECT_NE(CR.Error.find("unknown record"), std::string::npos) << CR.Error;
}

TEST(ProofCheck, ConclusionCountMismatchRejected) {
  // A non-global conclusion set must cover exactly the declared number
  // of cubes; claiming two while proving one is a coverage hole.
  const char *Body = "p veriqec proof 1\n"
                     "v 2\n"
                     "o 1 2 0\no 1 -2 0\n"
                     "s 0\n"
                     "q -1 0 -1 0\n";
  CheckResult Mismatch = checkProof(std::string(Body) + "n 2\n");
  EXPECT_FALSE(Mismatch.Ok);
  EXPECT_NE(Mismatch.Error.find("distinct cubes"), std::string::npos)
      << Mismatch.Error;
  CheckResult Exact = checkProof(std::string(Body) + "n 1\n");
  EXPECT_TRUE(Exact.Ok) << Exact.Error;
}
