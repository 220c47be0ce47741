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

#include <random>
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
  proof::ProofText Streams[] = {Log.drain()};
  std::string Proof =
      proof::assembleProof(proof::ProofText(AllClausesOfThree), Streams, Tree);
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

namespace {

/// FNV-1a, 64-bit: the certificate pins below.
uint64_t fnv1a(std::string_view S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

TEST(ProofText, RecordsAcrossBlockBoundariesMatchAPlainStringReference) {
  // Random a/g/d/q records over a few blocks, the widest integers
  // included, plus one record wider than a block: drained and
  // assembled, the slot log holds exactly what a plain string built
  // field by field holds. The reference is also re-appended in chunks
  // of random length, as the coordinator appends a worker's, so that
  // text straddles every block boundary.
  std::mt19937_64 Rng(24);
  constexpr sat::Var MaxVar = INT32_MAX / 2 - 1; // the largest a Lit holds
  proof::SlotProofLog Log;
  std::string Ref;
  auto Int = [&](int64_t V) { Ref += ' ' + std::to_string(V); };
  auto Lits = [&](const std::vector<sat::Lit> &Ls) {
    for (sat::Lit L : Ls)
      Int(L.negated() ? -int64_t{L.var() + 1} : L.var() + 1);
    Ref += " 0";
  };
  auto RandomLits = [&](size_t N) {
    std::vector<sat::Lit> Out;
    for (size_t I = 0; I != N; ++I)
      Out.push_back(sat::Lit(
          Rng() % 2 ? MaxVar : static_cast<sat::Var>(Rng() % 5000),
          Rng() % 2));
    return Out;
  };
  auto RandomHints = [&](size_t N) {
    // One in eight is an extreme: the widest an int64 field can be.
    std::vector<int64_t> Out;
    for (size_t I = 0; I != N; ++I)
      Out.push_back(int64_t(Rng() % 20000) - 10000);
    for (int64_t &H : Out)
      if (Rng() % 8 == 0)
        H = Rng() % 2 ? INT64_MAX : INT64_MIN;
    return Out;
  };
  while (Ref.size() < 3 * proof::ProofText::BlockBytes + 4321) {
    switch (Rng() % 4) {
    case 0: {
      std::vector<sat::Lit> L = RandomLits(Rng() % 60);
      std::vector<int64_t> H = RandomHints(Rng() % 3 ? Rng() % 120 : 0);
      Log.onDerive(L, H);
      Ref += 'a';
      Lits(L);
      if (!H.empty()) {
        for (int64_t V : H)
          Int(V);
        Ref += " 0";
      }
      break;
    }
    case 1: {
      std::vector<sat::Lit> L = RandomLits(Rng() % 20);
      std::vector<uint32_t> Rows;
      for (size_t I = Rng() % 30; I != 0; --I)
        Rows.push_back(Rng() % 2 ? UINT32_MAX : uint32_t(Rng() % 900 + 1));
      Log.onDeriveParity(L, Rows);
      Ref += 'g';
      Lits(L);
      for (uint32_t R : Rows)
        Ref += ' ' + std::to_string(R);
      Ref += " 0";
      break;
    }
    case 2: {
      uint64_t Serial = Rng() % 2 ? UINT64_MAX : Rng() % 70000 + 1;
      Log.onRetire(Serial);
      Ref += "d " + std::to_string(Serial);
      break;
    }
    default: {
      std::vector<sat::Lit> Cube = RandomLits(Rng() % 40);
      std::vector<sat::Lit> Core(Cube.begin(),
                                 Cube.begin() + Rng() % (Cube.size() + 1));
      std::vector<int64_t> H = RandomHints(Rng() % 200);
      Log.logConclusion(Core, Cube, H);
      Ref += 'q';
      Lits(Core);
      Lits(Cube);
      if (!H.empty()) {
        for (int64_t V : H)
          Int(V);
        Ref += " 0";
      }
      break;
    }
    }
    Ref += '\n';
  }
  // 100000 widest literals: more than a block, so a block of its own.
  std::vector<sat::Lit> Wide(100000, sat::Lit(MaxVar, true));
  Log.onDerive(Wide);
  Ref += 'a';
  Lits(Wide);
  Ref += "\nd 1\n";
  Log.onRetire(1);

  proof::ProofText Streams[] = {Log.drain()};
  EXPECT_TRUE(Log.empty());
  EXPECT_EQ(Streams[0].size(), Ref.size());
  std::string Cert =
      proof::assembleProof(proof::ProofText("h\n"), Streams,
                           engine::CubeTree());
  EXPECT_TRUE(Cert == "h\ns 0\n" + Ref) << "assembled stream differs";

  proof::ProofText Chunked;
  for (size_t At = 0; At < Ref.size();) {
    size_t N = std::min<size_t>(Rng() % 300000, Ref.size() - At);
    Chunked.append(std::string_view(Ref).substr(At, N));
    At += N;
  }
  proof::ProofText Spliced("h\n");
  Spliced.append(std::move(Chunked));
  EXPECT_TRUE(Chunked.empty());
  EXPECT_TRUE(Spliced.take() == "h\n" + Ref) << "chunked text differs";
}

TEST(ProofText, ReleasedStreamsAssembleInSlotOrderAndEndEmpty) {
  // Three slots, the middle one silent (it gets no `s` record), and a
  // cube-tree trailer: the streams are released into the certificate in
  // slot order, each behind its `s` record, and are left empty.
  engine::CubeTree Tree;
  Tree.growEt(std::vector<sat::Var>{0, 1}, 0, ~0u, 2);
  std::vector<proof::ProofText> Streams(3);
  proof::SlotProofLog Log;
  const sat::Lit Lits[] = {sat::mkLit(0), ~sat::mkLit(2)};
  const int64_t Hints[] = {-1, -2};
  Log.onDerive(Lits, Hints);
  Log.onRetire(1);
  Streams[0] = Log.drain();
  Streams[2].append("q -1 0 -1 0 -3 0\n");
  std::string Cert =
      proof::assembleProof(proof::ProofText(AllClausesOfThree), Streams, Tree);
  EXPECT_EQ(Cert, std::string(AllClausesOfThree) +
                      "s 0\na 1 -3 0 -1 -2 0\nd 1\n"
                      "s 2\nq -1 0 -1 0 -3 0\n"
                      "r\na -1 0\na 1 0\na 0\n");
  for (const proof::ProofText &S : Streams)
    EXPECT_TRUE(S.empty());
}

TEST(ProofCheck, ReclaimedClausesCannotBeCited) {
  // Forty copies of (1 3) are derived and deleted, so their words
  // outnumber the live ones and the replay reclaims them; the survivors
  // (1 2), serial 41, and (-1 2), serial 42, slide down over them. A
  // hint to a survivor still works, and so does root propagation over
  // the re-watched survivors: unit 1 then 2 falsify header clause 8.
  // A hint to a reclaimed serial names nothing, although fresh additions
  // have taken its words over.
  std::string Proof = std::string(AllClausesOfThree) + "s 0\n";
  for (int I = 0; I != 40; ++I)
    Proof += "a 1 3 0 -1 -3 0\n";
  Proof += "a 1 2 0 -1 -2 0\na -1 2 0 -5 -6 0\n";
  for (int I = 1; I <= 40; ++I)
    Proof += "d " + std::to_string(I) + "\n";
  // Fresh additions reuse the reclaimed words.
  for (int I = 0; I != 50; ++I)
    Proof += "a 1 3 0 -1 -3 0\n";
  CheckResult Survivor = checkProof(Proof + "a 1 0 41 -3 -4 0\nq 0 0\n");
  EXPECT_TRUE(Survivor.Ok) << Survivor.Error;
  EXPECT_EQ(Survivor.Deletions, 40u);
  CheckResult Reclaimed = checkProof(Proof + "a 1 0 40 -3 -4 0\nq 0 0\n");
  EXPECT_FALSE(Reclaimed.Ok);
  EXPECT_EQ(Reclaimed.Error,
            "line 144: derived clause is not implied by its hints");
}

TEST(ProofEmission, DistanceCertificatesArePinned) {
  // The certificates of the parent revision, byte for byte (FNV-1a):
  // how the text is held must not change what it says. The CLI's
  // `distance --check-proofs --proof-dir` writes the same files, locally
  // and over --dist loopback:2.
  struct Pin {
    StabilizerCode Code;
    size_t Bytes;
    uint64_t Hash;
  } Pins[] = {
      {makeSteaneCode(), 3380, 16757025413654076353ull},
      {makeRotatedSurfaceCode(3), 3890, 2665927263284998418ull},
      {makeTannerISubstitute(), 7139619, 1141955264382930822ull},
  };
  VerifyOptions O;
  O.LogProofs = true;
  for (const Pin &P : Pins) {
    DistanceResult R = computeDistance(P.Code, O);
    ASSERT_TRUE(R.Ok) << P.Code.Name << ": " << R.Error;
    EXPECT_EQ(R.Proof.size(), P.Bytes) << P.Code.Name;
    EXPECT_EQ(fnv1a(R.Proof), P.Hash) << P.Code.Name;
  }
}

TEST(ProofEmission, SurfaceSevenCertificatesArePinned) {
  // surface7 memory-Z at budget 3. One slot is deterministic: the whole
  // certificate is pinned (its stream ends in an empty-core conclusion,
  // so it has no trailer). Two slots split the cubes by timing, so only
  // what does not depend on the split is pinned: the header, and the
  // cube-tree trailer whenever no slot refuted the problem outright.
  Scenario S = makeMemoryScenario(makeRotatedSurfaceCode(7), PauliKind::Y,
                                  LogicalBasis::Z, 3);
  for (size_t Threads : {1, 2}) {
    VerifyOptions O;
    O.LogProofs = true;
    O.Parallel = true;
    O.Threads = Threads;
    VerificationResult R = verifyScenario(S, O);
    ASSERT_TRUE(R.Verified) << R.Error;
    std::string_view Proof = R.Proof;
    EXPECT_TRUE(checkProof(Proof).Ok) << Threads;
    if (Threads == 1) {
      EXPECT_EQ(Proof.size(), 8846264u);
      EXPECT_EQ(fnv1a(Proof), 3866251409872805366ull);
      continue;
    }
    size_t Streams = Proof.find("\ns ") + 1;
    EXPECT_EQ(Streams, 77503u);
    EXPECT_EQ(fnv1a(Proof.substr(0, Streams)), 12110644667386715015ull);
    size_t Trailer = Proof.find("\nr\n");
    if (Trailer != std::string_view::npos) {
      EXPECT_EQ(Proof.size() - Trailer - 1, 73457u);
      EXPECT_EQ(fnv1a(Proof.substr(Trailer + 1)), 6230768366095691253ull);
    }
  }
}

TEST(ProofEmission, EveryCubeThatRunsConcludesInItsOwnRecord) {
  // One slot, deterministic: each solved cube is one solver call with one
  // q record, so the checked conclusions count the solved cubes exactly.
  // surface5 holds two cubes the stream's empty-core conclusion cancels;
  // xzzx5 solves every cube. The counters pin the search itself.
  auto Check = [](const StabilizerCode &Code, uint64_t Conflicts,
                  uint64_t Propagations) {
    Scenario S = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, 2);
    VerifyOptions O;
    O.LogProofs = true;
    O.Parallel = true;
    O.Threads = 1;
    VerificationResult R = verifyScenario(S, O);
    ASSERT_TRUE(R.Verified) << Code.Name << ": " << R.Error;
    EXPECT_EQ(R.Stats.Conflicts, Conflicts) << Code.Name;
    EXPECT_EQ(R.Stats.propagations(), Propagations) << Code.Name;
    CheckResult C = checkProof(R.Proof);
    ASSERT_TRUE(C.Ok) << Code.Name << ": " << C.Error;
    EXPECT_EQ(C.Conclusions, R.CubesSolved) << Code.Name;
  };
  Check(makeRotatedSurfaceCode(5), 1738, 168518);
  Check(makeXzzxSurfaceCode(5, 5), 669, 96859);
}
