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
/// trusted to catch — additions their hints or rows do not imply, uses
/// of deleted clauses, replay records outside the preprocessor's row
/// span, corrupted record tags, hostile integers, and conclusions that
/// do not refute the header.
///
//===----------------------------------------------------------------------===//

#include "engine/CubeTree.h"
#include "proof/ProofCheck.h"
#include "proof/ProofLog.h"
#include "qec/Codes.h"
#include "verifier/Verifier.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace veriqec;
using proof::CheckResult;
using proof::checkProof;

namespace {

/// The fields after the tag of every \p Tag record of \p Proof, with the
/// b records' " 0" terminator dropped.
std::vector<std::string> recordFields(const std::string &Proof,
                                      const std::string &Tag) {
  std::vector<std::string> Out;
  std::string Lead = "\n" + Tag + " ";
  for (size_t At = Proof.find(Lead); At != std::string::npos;
       At = Proof.find(Lead, At + 1)) {
    size_t Start = At + Lead.size();
    std::string Line = Proof.substr(Start, Proof.find('\n', Start) - Start);
    if (Tag == "b")
      Line = Line.substr(0, Line.size() - 2);
    Out.push_back(Line);
  }
  return Out;
}

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
  // How the run ends depends on thread scheduling: a slot may refute a
  // cube with an empty core (the whole problem, cancelling its sibling)
  // or every cube may conclude on its own and the cube-tree trailer
  // closes the refutation. Either way the certificate derives the empty
  // clause.
  CheckResult CR = checkProof(R.Proof);
  EXPECT_TRUE(CR.Ok) << CR.Error;
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
  // The header asserts the last UNSAT probe's bound (1 <= weight <= 3)
  // as its b units: exactly the cube that probe solved, which differs
  // from the earlier probe's at bound 2.
  size_t LastUnsat = 0;
  for (const DistanceResult::Probe &P : R.Probes)
    if (P.Result == sat::SolveResult::Unsat)
      LastUnsat = P.MaxWeight;
  EXPECT_EQ(LastUnsat, 3u);
  std::vector<std::string> Bound = recordFields(R.Proof, "b");
  std::vector<std::string> Cubes = recordFields(R.Proof, "q");
  ASSERT_EQ(Bound.size(), 2u);
  ASSERT_GE(Cubes.size(), 2u);
  std::string BoundCube = Bound[0] + " " + Bound[1];
  auto cubeOf = [](const std::string &Q) { // "<core> 0 <cube> 0 [hints]"
    std::istringstream In(Q);
    std::string Tok, Cube;
    while (In >> Tok && Tok != "0")
      ;
    while (In >> Tok && Tok != "0")
      Cube += (Cube.empty() ? "" : " ") + Tok;
    return Cube;
  };
  EXPECT_EQ(cubeOf(Cubes.back()), BoundCube);
  EXPECT_NE(cubeOf(Cubes.front()), BoundCube);
  EXPECT_EQ(R.Proof.find("\nr\n"), std::string::npos)
      << "a bound-only cube set needs no trailer";
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
                              "a 1 0 -1 -3 0\n"
                              "a 2 0 -2 0\n"
                              "q 0 0\n");
  EXPECT_TRUE(CR.Ok) << CR.Error;
  EXPECT_EQ(CR.Additions, 2u);
  EXPECT_EQ(CR.Conclusions, 1u);
}

TEST(ProofCheck, NonRupAdditionRejected) {
  // Variable 3 is unconstrained: no unit propagation can refute it.
  CheckResult CR = checkProof("p veriqec proof 1\n"
                              "v 3\n"
                              "o 1 2 0\no -1 2 0\no 1 -2 0\no -1 -2 0\n"
                              "s 0\n"
                              "a 3 0 -1 -2 -3 -4 0\n");
  EXPECT_FALSE(CR.Ok);
  EXPECT_NE(CR.Error.find("not implied by its hints"), std::string::npos)
      << CR.Error;
}

TEST(ProofCheck, DeletedClauseCannotJustifyLaterAddition) {
  // (1 2) is needed to derive the unit 1; deleting it first must sink
  // the proof, and the identical proof without the deletion must check.
  const char *Header = "p veriqec proof 1\n"
                       "v 3\n"
                       "o 1 2 3 0\no 1 2 -3 0\no 1 -2 3 0\no 1 -2 -3 0\n"
                       "o -1 2 3 0\no -1 2 -3 0\no -1 -2 3 0\no -1 -2 -3 0\n"
                       "s 0\n"
                       "a 1 2 0 -1 -2 0\n";
  CheckResult Deleted =
      checkProof(std::string(Header) + "d 1\na 1 0 1 -3 -4 0\n");
  EXPECT_FALSE(Deleted.Ok);
  EXPECT_NE(Deleted.Error.find("not implied by its hints"), std::string::npos)
      << Deleted.Error;
  CheckResult Kept = checkProof(std::string(Header) +
                                "a 1 0 1 -3 -4 0\na 2 0 -5 -6 0\nq 0 0\n");
  EXPECT_TRUE(Kept.Ok) << Kept.Error;
}

TEST(ProofCheck, HintWithATrueLiteralAfterTwoUnassignedIsSatisfied) {
  // Under the negated addition (4 false), header record 2 implies 3,
  // which satisfies record 1 although its first two literals are still
  // unassigned: the hint asserts nothing, and record 3 conflicts.
  CheckResult CR = checkProof("p veriqec proof 1\n"
                              "v 5\n"
                              "o 1 2 3 0\no 4 3 0\no 4 -3 0\n"
                              "o -4 5 0\no -4 -5 0\n"
                              "s 0\n"
                              "a 4 0 -2 -1 -3 0\n"
                              "q 0 0\n");
  EXPECT_TRUE(CR.Ok) << CR.Error;
}

TEST(ProofCheck, StreamAdditionMissingItsLastHintIsRejected) {
  // Hints are the only justification a stream addition has: without the
  // conflicting last one, the first hinted addition no longer checks.
  std::string Proof = steaneProof();
  size_t At = 0;
  std::string Line;
  for (At = Proof.find("\na "); At != std::string::npos;
       At = Proof.find("\na ", At + 1)) {
    size_t End = Proof.find('\n', At + 1);
    Line = Proof.substr(At + 1, End - At - 1);
    if (Line.find(" 0 ") != std::string::npos)
      break; // a literal list followed by a hint list
  }
  ASSERT_NE(At, std::string::npos) << "expected a hinted addition";
  ASSERT_EQ(Line.substr(Line.size() - 2), " 0");
  std::string Cut = Line.substr(0, Line.size() - 2);
  Cut = Cut.substr(0, Cut.rfind(' ')) + " 0"; // drop the last hint
  Proof.replace(At + 1, Line.size(), Cut);
  CheckResult CR = checkProof(Proof);
  EXPECT_FALSE(CR.Ok);
  EXPECT_NE(CR.Error.find("not implied by its hints"), std::string::npos)
      << CR.Error;
}

TEST(ProofCheck, ParityAdditionIsCheckedByItsRows) {
  // x1 ^ x2 = 1 and x2 ^ x3 = 0 sum to x1 ^ x3 = 1, which the root units
  // 1 and 3 violate: rows 1 and 2 imply the empty clause.
  const std::string Header = "p veriqec proof 1\n"
                             "v 3\n"
                             "o 1 0\no 3 0\n"
                             "x 1 1 2 0\nx 0 2 3 0\n"
                             "s 0\n";
  CheckResult Right = checkProof(Header + "g 0 1 2 0\nq 0 0\n");
  EXPECT_TRUE(Right.Ok) << Right.Error;
  EXPECT_EQ(Right.Additions, 1u);
  struct Case {
    const char *Record;
    const char *Error;
  } Cases[] = {
      // Row 2 missing: x2 is unassigned and outside the clause.
      {"g 0 1 0\n", "line 8: parity clause is not implied by its rows"},
      {"g 0 1 3 0\n", "line 8: parity row out of range"},
      // Clause hints in place of rows, or after them.
      {"g 0 -1 -2 0\n", "line 8: parity row out of range"},
      {"g 0 1 2 0 -1 0\n", "line 8: trailing tokens after the hint list"},
      {"g 0\n", "line 8: parity clause is not implied by its rows"},
  };
  for (const Case &C : Cases) {
    CheckResult CR = checkProof(Header + C.Record + "q 0 0\n");
    EXPECT_FALSE(CR.Ok) << C.Record;
    EXPECT_EQ(CR.Error, C.Error) << C.Record;
  }
  // Over free variables the clause must hold the sum's whole support:
  // x1 ^ x3 = 1 implies (x1 | x3) and (-x1 | -x3), not (x1 | -x3).
  const std::string Free = "p veriqec proof 1\nv 3\n"
                           "x 1 1 2 0\nx 0 2 3 0\ns 0\n";
  EXPECT_EQ(checkProof(Free + "g 1 3 0 1 2 0\ng -1 -3 0 1 2 0\n").Error,
            "line 0: no record derives the empty clause");
  EXPECT_EQ(checkProof(Free + "g 1 -3 0 1 2 0\n").Error,
            "line 6: parity clause is not implied by its rows");
  EXPECT_EQ(checkProof(Free + "g 1 0 1 2 0\n").Error,
            "line 6: parity clause is not implied by its rows");
}

TEST(ProofEmission, DistanceCertificateRowListsAreLoadBearing) {
  // The distance search runs the native XOR engine, so its certificate
  // justifies engine clauses by g records; the first one without its
  // row list must be rejected.
  VerifyOptions O;
  O.LogProofs = true;
  DistanceResult R = computeDistance(makeSteaneCode(), O);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string Proof = R.Proof;
  size_t At = Proof.find("\ng ");
  ASSERT_NE(At, std::string::npos) << "expected a parity addition";
  size_t Lits = Proof.find(" 0 ", At); // end of the literal list
  size_t End = Proof.find('\n', At + 1);
  ASSERT_LT(Lits, End);
  Proof.replace(Lits + 3, End - Lits - 3, "0");
  CheckResult CR = checkProof(Proof);
  EXPECT_FALSE(CR.Ok);
  EXPECT_NE(CR.Error.find("not implied by its rows"), std::string::npos)
      << CR.Error;
}

TEST(ProofCheck, DuplicateLiteralHeaderClausesStillPropagate) {
  // A parity chain over an aliased variable emits clauses with repeated
  // literals ((x1 x1 x2) is logically (x1 x2)) and tautologies. The
  // checker must normalize at install: raw watched-literal propagation
  // would treat the two copies as distinct non-false literals and
  // reject this valid derivation, which the empty-core conclusion
  // needs (2 is the only derivation that propagates to a conflict).
  CheckResult CR = checkProof("p veriqec proof 1\n"
                              "v 3\n"
                              "o 1 1 2 0\n"
                              "o -1 -1 2 0\n"
                              "o 3 -3 0\n"
                              "o -2 3 0\no -2 -3 0\n"
                              "s 0\n"
                              "a 2 0 -1 -2 0\n"
                              "q 0 0\n");
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

namespace {

/// Every clause over variables 1..3: unsatisfiable, yet no unit or
/// two-literal assumption set short of a full cube of 1 and 2 propagates
/// to a conflict.
const char *AllClausesOfThree = "p veriqec proof 1\n"
                                "v 3\n"
                                "o 1 2 3 0\no 1 2 -3 0\no 1 -2 3 0\n"
                                "o 1 -2 -3 0\no -1 2 3 0\no -1 2 -3 0\n"
                                "o -1 -2 3 0\no -1 -2 -3 0\n";

} // namespace

TEST(ProofCheck, TwoCubeCertificateNeedsBothConclusions) {
  // Cubes [1] and [-1], one per stream: each stream learns the lemma
  // that makes its cube propagate to a conflict. Together the two
  // conclusions refute the header; with either one removed the trailer's
  // empty clause is not RUP.
  const std::string QPos = "s 0\na -1 2 0 -5 -6 0\nq 1 0 1 0 1 -7 -8 0\n";
  const std::string QNeg = "s 1\na 1 2 0 -1 -2 0\nq -1 0 -1 0 1 -3 -4 0\n";
  const std::string Trailer = "r\na 0\n";
  CheckResult Both = checkProof(AllClausesOfThree + QPos + QNeg + Trailer);
  EXPECT_TRUE(Both.Ok) << Both.Error;
  EXPECT_EQ(Both.Conclusions, 2u);
  for (const std::string &Kept : {QPos, QNeg}) {
    CheckResult One = checkProof(AllClausesOfThree + Kept + Trailer);
    EXPECT_FALSE(One.Ok) << "kept only: " << Kept;
    EXPECT_NE(One.Error.find("not RUP"), std::string::npos) << One.Error;
  }
}

TEST(ProofCheck, CubeTreeTrailerDerivesTheEmptyClause) {
  // Four two-literal cubes over 1 and 2: their conclusions leave four
  // binary clauses, which propagate nothing. Only the trailer — the
  // internal nodes [1] and [-1], then the root — derives the empty
  // clause.
  const std::string Streams = "s 0\n"
                              "q 1 2 0 1 2 0 -7 -8 0\n"
                              "q 1 -2 0 1 -2 0 -5 -6 0\n"
                              "q -1 2 0 -1 2 0 -3 -4 0\n"
                              "q -1 -2 0 -1 -2 0 -1 -2 0\n";
  CheckResult Tree =
      checkProof(AllClausesOfThree + Streams + "r\na -1 0\na 1 0\na 0\n");
  EXPECT_TRUE(Tree.Ok) << Tree.Error;
  EXPECT_EQ(Tree.Additions, 3u);
  CheckResult NoTrailer = checkProof(AllClausesOfThree + Streams);
  EXPECT_FALSE(NoTrailer.Ok);
  EXPECT_NE(NoTrailer.Error.find("empty clause"), std::string::npos)
      << NoTrailer.Error;
}

TEST(ProofEmission, CubeTreeTrailerComesChildrenFirst) {
  // The eight full cubes over 1..3, each refuted by the header clause
  // that is its negation: the trailer assembleProof() emits has seven
  // internal nodes, and it only checks when every node follows its
  // children (a root first is not RUP against eight ternary clauses).
  engine::CubeTree Tree;
  Tree.growEt(std::vector<sat::Var>{0, 1, 2}, 0, ~0u, 3);
  proof::SlotProofLog Log;
  for (const std::vector<sat::Lit> &Cube : Tree.cubes()) {
    // Header record k + 1 negates the cube whose positive literals spell
    // k in binary, variable 1 the high bit.
    int64_t K = 0;
    for (sat::Lit L : Cube)
      K = 2 * K + !L.negated();
    const int64_t Hint[] = {-(K + 1)};
    Log.logConclusion(Cube, Cube, Hint);
  }
  const std::string Streams[] = {Log.drain()};
  std::string Proof = proof::assembleProof(AllClausesOfThree, Streams, &Tree);
  CheckResult CR = checkProof(Proof);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  EXPECT_EQ(CR.Additions, 7u);
  EXPECT_EQ(Proof.substr(Proof.size() - 4), "a 0\n");
}

TEST(ProofCheck, ProofWithoutRefutationRejected) {
  // A header and an empty stream derive nothing.
  CheckResult CR = checkProof("p veriqec proof 1\nv 1\ns 0\n");
  EXPECT_FALSE(CR.Ok);
  EXPECT_NE(CR.Error.find("empty clause"), std::string::npos) << CR.Error;
}

TEST(ProofCheck, HostileIntegersRejectedWithLineDiagnostics) {
  // Each input negates or narrows an integer the text controls: the
  // checker must reject it on its line, never overflow or alias.
  const std::string Min = "-9223372036854775808";
  struct Case {
    std::string Text;
    const char *Error;
  } Cases[] = {
      {"p veriqec proof 1\nv 1\no " + Min + " 0\n",
       "line 3: literal over undeclared variable"},
      {"p veriqec proof 1\nv 1\no 1 0\ns 0\na 1 0 " + Min + " 0\n",
       "line 5: hint out of range"},
      {"p veriqec proof 1\nv 1\no 1 0\ns 0\nq -1 0 -1 0 " + Min + " 0\n",
       "line 5: hint out of range"},
      {"p veriqec proof 1\nv 0\npr 0 1 0\npk 0 4294967297 0\n",
       "line 4: parity variable out of range"},
      {"p veriqec proof 1\nv 0\npr 0 1 0\npe 4294967297 0 0\n",
       "line 4: bad elimination record"},
      {"p veriqec proof 1\nv 4294967296\n",
       "line 2: bad variable-count record"},
      // x and g index the variable count: rows may not precede it, nor a
      // later count shrink it under rows already read.
      {"p veriqec proof 1\nx 0 5 0\n", "line 2: parity variable out of range"},
      {"p veriqec proof 1\nv 5\nx 0 5 0\nv 1\n",
       "line 4: bad variable-count record"},
  };
  for (const Case &C : Cases) {
    CheckResult CR = checkProof(C.Text);
    EXPECT_FALSE(CR.Ok) << C.Text;
    EXPECT_EQ(CR.Error, C.Error) << C.Text;
  }
}
