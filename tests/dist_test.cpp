//===- tests/dist_test.cpp - Distributed verification layer ----------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
//
// The dist/ subsystem: codec round trips over fuzzer-generated
// verification problems, strict rejection of truncated/corrupted frames,
// the version handshake, loopback and TCP end-to-end verification
// equality with the in-process engine, worker-drop recovery, cross-node
// pruning plumbing, the incremental distance handle API, and the
// rejection of a certificate whose worker skipped one cube.
//
//===----------------------------------------------------------------------===//

#include "dist/Codec.h"
#include "dist/Coordinator.h"
#include "dist/Transport.h"
#include "dist/Worker.h"
#include "engine/CubeEngine.h"
#include "engine/VerificationEngine.h"
#include "proof/ProofCheck.h"
#include "qec/Codes.h"
#include "testing/ModelChecker.h"
#include "testing/ScenarioFuzzer.h"
#include "verifier/Verifier.h"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <variant>

using namespace veriqec;
using namespace veriqec::dist;
using sat::Lit;
namespace vt = veriqec::testing;

namespace {

/// Canonical bytes of a problem message (the codec sorts map entries, so
/// byte equality is exact structural equality, private fields included).
std::vector<uint8_t> problemFrame(const smt::VerificationProblem &P) {
  ProblemMsg M;
  M.ProblemId = 7;
  M.Config.HardenBudget = true;
  M.Config.BudgetBound = 2;
  M.Config.ConflictBudget = 123;
  M.Config.RandomSeed = 99;
  M.Problem = std::const_pointer_cast<smt::VerificationProblem>(
      std::shared_ptr<const smt::VerificationProblem>(
          &P, [](const smt::VerificationProblem *) {}));
  return encodeMessage(M);
}

/// An in-process fleet: a coordinator with N loopback workers.
struct Fleet {
  Coordinator Coord;
  std::vector<std::thread> Threads;

  explicit Fleet(size_t NumWorkers, size_t JobsPerWorker = 1,
                 uint64_t MaxBatches = 0, CoordinatorOptions CO = {})
      : Coord(CO) {
    std::vector<WorkerOptions> PerWorker(NumWorkers);
    for (size_t I = 0; I != NumWorkers; ++I) {
      PerWorker[I].Jobs = JobsPerWorker;
      // Only the first worker gets the crash hook.
      PerWorker[I].MaxBatches = I == 0 ? MaxBatches : 0;
    }
    Threads = spawnLoopbackWorkers(Coord, std::move(PerWorker));
    EXPECT_TRUE(Coord.waitForWorkers(NumWorkers, 10000));
  }

  ~Fleet() {
    Coord.shutdownWorkers();
    for (std::thread &T : Threads)
      T.join();
  }
};

} // namespace

// -- Codec -------------------------------------------------------------------

TEST(DistCodec, RoundTripsFuzzerGeneratedProblems) {
  vt::FuzzerOptions FO;
  FO.MaxQubits = 8;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    vt::FuzzCase C = vt::generateFuzzCase(Seed, FO);
    smt::BoolContext Ctx;
    BuiltVc Vc = engine::buildScenarioVc(Ctx, C.Scn);
    ASSERT_TRUE(Vc.Ok) << "seed " << Seed;
    smt::ProblemOptions PO;
    PO.NativeXor = Seed % 2 == 0;
    PO.ProtectedVars = C.Scn.ErrorVars;
    smt::VerificationProblem P(Ctx, Vc.NegatedVc, PO);

    std::vector<uint8_t> Frame = problemFrame(P);
    Message M;
    ASSERT_TRUE(decodeMessage(Frame, M)) << "seed " << Seed;
    ProblemMsg *PM = std::get_if<ProblemMsg>(&M);
    ASSERT_NE(PM, nullptr);
    EXPECT_EQ(PM->ProblemId, 7u);
    EXPECT_TRUE(PM->Config.HardenBudget);
    EXPECT_EQ(PM->Config.BudgetBound, 2u);
    EXPECT_EQ(PM->Config.ConflictBudget, 123u);
    EXPECT_EQ(PM->Config.RandomSeed, 99u);

    // Exact structural equality: the canonical re-encoding is identical
    // byte-for-byte (covers every private field too).
    EXPECT_EQ(problemFrame(*PM->Problem), Frame) << "seed " << Seed;

    // Behavioral equality: the decoded problem solves and reads back
    // models exactly like the original.
    sat::Solver A = P.makeSolver(), B = PM->Problem->makeSolver();
    sat::SolveResult RA = A.solve(), RB = B.solve();
    EXPECT_EQ(RA, RB) << "seed " << Seed;
    if (RA == sat::SolveResult::Sat && RB == sat::SolveResult::Sat) {
      std::unordered_map<std::string, bool> MB;
      PM->Problem->readModel(B, MB);
      // The decoded problem's model (reconstruction included) satisfies
      // the original negated VC.
      vt::ModelCheckResult MC =
          vt::evaluateUnderModel(Ctx, Vc.NegatedVc, MB);
      EXPECT_EQ(MC.MissingVars, 0u) << "seed " << Seed;
      EXPECT_TRUE(MC.Satisfies) << "seed " << Seed;
    }
  }
}

TEST(DistCodec, RoundTripsBatchResultsModelsAndCores) {
  BatchResultMsg R;
  R.ProblemId = 3;
  R.BatchId = 11;
  R.Status = BatchStatus::Sat;
  R.Model = {{"e0", true}, {"e1", false}, {"m__3", true}};
  // Every counter gets a distinct large value through the field table.
  uint64_t I = 0;
  for (const auto &F : sat::SolverStats::Fields)
    R.Stats.*F.Member = 0x0102030405060708ull * ++I;
  R.Solved = 41;
  R.PrunedCore = 2;
  R.NewCores = {{sat::mkLit(3), ~sat::mkLit(7)}, {~sat::mkLit(1)}};
  std::vector<uint8_t> Frame = encodeMessage(R);
  Message M;
  ASSERT_TRUE(decodeMessage(Frame, M));
  BatchResultMsg *D = std::get_if<BatchResultMsg>(&M);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->ProblemId, 3u);
  EXPECT_EQ(D->BatchId, 11u);
  EXPECT_EQ(D->Status, BatchStatus::Sat);
  EXPECT_EQ(D->Model, R.Model);
  for (const auto &F : sat::SolverStats::Fields)
    EXPECT_EQ(D->Stats.*F.Member, R.Stats.*F.Member) << F.Name;
  EXPECT_EQ(D->Solved, 41u);
  EXPECT_EQ(D->PrunedCore, 2u);
  EXPECT_EQ(D->NewCores, R.NewCores);
}

TEST(DistCodec, BatchResultFrameBytesArePinned) {
  // The counters are set by member name, not through the field table,
  // so a reordered table changes these bytes. The FNV-1a hash is of the
  // frame wire version 8 encodes (the by-name stats codec of version 6,
  // without the GF(2) prune counter).
  const uint64_t K = 0x0102030405060708ull;
  BatchResultMsg R;
  R.ProblemId = 3;
  R.BatchId = 11;
  R.Status = BatchStatus::Sat;
  R.Model = {{"e0", true}, {"e1", false}, {"m__3", true}};
  R.Stats.Decisions = K * 1;
  R.Stats.BinPropagations = K * 2;
  R.Stats.LongPropagations = K * 3;
  R.Stats.Conflicts = K * 4;
  R.Stats.LearnedClauses = K * 5;
  R.Stats.Restarts = K * 6;
  R.Stats.XorPropagations = K * 7;
  R.Stats.XorConflicts = K * 8;
  R.Stats.XorEliminations = K * 9;
  R.Stats.ArenaBytes = K * 10;
  R.Stats.WastedBytes = K * 11;
  R.Stats.Compactions = K * 12;
  R.Solved = 41;
  R.PrunedCore = 2;
  R.NewCores = {{sat::mkLit(3), ~sat::mkLit(7)}, {~sat::mkLit(1)}};
  std::vector<uint8_t> Frame = encodeMessage(R);
  uint64_t Hash = 14695981039346656037ull;
  for (uint8_t Byte : Frame) {
    Hash ^= Byte;
    Hash *= 1099511628211ull;
  }
  EXPECT_EQ(Frame.size(), 177u);
  EXPECT_EQ(Hash, 12842910468742980075ull);
}

TEST(DistCodec, RoundTripsEveryPreprocessStatsField) {
  vt::FuzzCase C = vt::generateFuzzCase(1, vt::FuzzerOptions{});
  smt::BoolContext Ctx;
  BuiltVc Vc = engine::buildScenarioVc(Ctx, C.Scn);
  ASSERT_TRUE(Vc.Ok);
  smt::VerificationProblem P(Ctx, Vc.NegatedVc);
  // The table order is the wire order.
  std::string Names;
  for (const auto &F : smt::PreprocessStats::Fields)
    Names += std::string(F.Name) + " ";
  EXPECT_EQ(Names, "linear_conjuncts linear_vars rows_kept units_fixed "
                   "vars_eliminated equiv_aliased residue_conjuncts ");
  size_t I = 0;
  for (const auto &F : smt::PreprocessStats::Fields)
    P.Prep.*F.Member = 0x0102030405060708ull * ++I;
  P.Prep.TriviallyUnsat = true;

  Message M;
  ASSERT_TRUE(decodeMessage(problemFrame(P), M));
  ProblemMsg *PM = std::get_if<ProblemMsg>(&M);
  ASSERT_NE(PM, nullptr);
  for (const auto &F : smt::PreprocessStats::Fields)
    EXPECT_EQ(PM->Problem->Prep.*F.Member, P.Prep.*F.Member) << F.Name;
  EXPECT_TRUE(PM->Problem->Prep.TriviallyUnsat);
}

TEST(DistCodec, RoundTripsHeartbeatAndEvictedFrames) {
  HeartbeatMsg H;
  H.BatchesInFlight = 3;
  H.CubesDelta = 123456789ull;
  H.ConflictsDelta = 9876543210123ull;
  std::vector<uint8_t> HF = encodeMessage(H);
  Message M;
  ASSERT_TRUE(decodeMessage(HF, M));
  HeartbeatMsg *DH = std::get_if<HeartbeatMsg>(&M);
  ASSERT_NE(DH, nullptr);
  EXPECT_EQ(DH->BatchesInFlight, 3u);
  EXPECT_EQ(DH->CubesDelta, 123456789ull);
  EXPECT_EQ(DH->ConflictsDelta, 9876543210123ull);

  EvictedMsg E;
  E.Reason = "silence timeout (600 ms)";
  std::vector<uint8_t> EF = encodeMessage(E);
  ASSERT_TRUE(decodeMessage(EF, M));
  EvictedMsg *DE = std::get_if<EvictedMsg>(&M);
  ASSERT_NE(DE, nullptr);
  EXPECT_EQ(DE->Reason, E.Reason);

  // Strict decoding extends to the v5 frames: every proper prefix (and
  // trailing garbage) must be rejected.
  for (size_t Len = 0; Len != HF.size(); ++Len)
    EXPECT_FALSE(decodeMessage({HF.data(), Len}, M)) << "prefix " << Len;
  for (size_t Len = 0; Len != EF.size(); ++Len)
    EXPECT_FALSE(decodeMessage({EF.data(), Len}, M)) << "prefix " << Len;
  HF.push_back(0);
  EXPECT_FALSE(decodeMessage(HF, M));
}

TEST(DistCodec, LemmasFramesRoundTripAndFailClosed) {
  LemmasMsg L;
  L.ProblemId = 9;
  L.Lemmas = {{sat::mkLit(3), ~sat::mkLit(7)}, {~sat::mkLit(1)}};
  std::vector<uint8_t> Frame = encodeMessage(L);
  Message M;
  ASSERT_TRUE(decodeMessage(Frame, M));
  LemmasMsg *D = std::get_if<LemmasMsg>(&M);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->ProblemId, 9u);
  EXPECT_EQ(D->Lemmas, L.Lemmas);

  // Truncated at every length, or one trailing byte: rejected.
  for (size_t Len = 0; Len != Frame.size(); ++Len)
    EXPECT_FALSE(decodeMessage({Frame.data(), Len}, M)) << "prefix " << Len;
  std::vector<uint8_t> Longer = Frame;
  Longer.push_back(0);
  EXPECT_FALSE(decodeMessage(Longer, M));

  // A lemma count (after the kind byte and problem id) larger than the
  // remaining bytes, though within the pool's capacity.
  std::vector<uint8_t> Overcount = Frame;
  Overcount[5] = 100;
  EXPECT_FALSE(decodeMessage(Overcount, M));

  auto Decodes = [&M](const LemmasMsg &Msg) {
    return decodeMessage(encodeMessage(Msg), M);
  };
  // The pool's lemma length limit, and one literal past it.
  const size_t MaxLits = sat::SharedClausePool::MaxLemmaLits;
  LemmasMsg Long;
  Long.Lemmas.emplace_back();
  for (size_t I = 0; I != MaxLits; ++I)
    Long.Lemmas.back().push_back(sat::mkLit(static_cast<sat::Var>(I)));
  EXPECT_TRUE(Decodes(Long));
  Long.Lemmas.back().push_back(sat::mkLit(static_cast<sat::Var>(MaxLits)));
  EXPECT_FALSE(Decodes(Long));
  // The pool's capacity in lemmas, and one lemma past it.
  LemmasMsg Many;
  Many.Lemmas.assign(sat::SharedClausePool::Capacity, {sat::mkLit(0)});
  EXPECT_TRUE(Decodes(Many));
  Many.Lemmas.push_back({sat::mkLit(0)});
  EXPECT_FALSE(Decodes(Many));
  // The empty clause is no lemma: it would refute the problem outright.
  LemmasMsg Empty;
  Empty.Lemmas = {{sat::mkLit(0)}, {}};
  EXPECT_FALSE(Decodes(Empty));
}

TEST(DistCodec, RejectsTruncatedFrames) {
  // Every proper prefix of a small message must be rejected.
  CubeBatchMsg B;
  B.ProblemId = 1;
  B.BatchId = 2;
  B.Cubes = {{sat::mkLit(0), ~sat::mkLit(1)}, {sat::mkLit(2)}};
  std::vector<uint8_t> Frame = encodeMessage(B);
  for (size_t Len = 0; Len != Frame.size(); ++Len) {
    Message M;
    EXPECT_FALSE(decodeMessage({Frame.data(), Len}, M))
        << "prefix of length " << Len << " decoded";
  }
  // Ditto for a sampled set of prefixes of a whole problem frame.
  StabilizerCode Steane = makeSteaneCode();
  Scenario S = makeMemoryScenario(Steane, PauliKind::Y, LogicalBasis::Z, 1);
  smt::BoolContext Ctx;
  BuiltVc Vc = engine::buildScenarioVc(Ctx, S);
  ASSERT_TRUE(Vc.Ok);
  smt::VerificationProblem P(Ctx, Vc.NegatedVc, {});
  std::vector<uint8_t> PF = problemFrame(P);
  for (size_t Len = 0; Len < PF.size(); Len += 97) {
    Message M;
    EXPECT_FALSE(decodeMessage({PF.data(), Len}, M));
  }
  // Trailing garbage is rejected too.
  Frame.push_back(0);
  Message M;
  EXPECT_FALSE(decodeMessage(Frame, M));
}

TEST(DistCodec, DecoderFailureIsStickyAndClosed) {
  // A corrupt bool (2) followed by a count claiming ~2 GB: once the bool
  // fails, the decoder sits at end-of-input and every count reads 0, so
  // no later field can announce an allocation.
  std::vector<uint8_t> Bytes = {2, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3};
  Decoder D(Bytes);
  (void)D.boolean();
  EXPECT_FALSE(D.ok());
  EXPECT_TRUE(D.atEnd());
  EXPECT_EQ(D.count(1), 0u);
  EXPECT_EQ(D.u32(), 0u);
  EXPECT_TRUE(D.str().empty());
  EXPECT_TRUE(D.litVecs().empty());
  EXPECT_FALSE(D.ok());

  // An explicit fail() (the problem codec's range checks) is closed too.
  Decoder E(Bytes);
  E.fail();
  EXPECT_TRUE(E.atEnd());
  EXPECT_EQ(E.count(1), 0u);
}

namespace {

/// One well-formed frame of every message kind, the problem frame built
/// over \p P.
std::vector<std::vector<uint8_t>>
oneFramePerKind(const smt::VerificationProblem &P) {
  BatchResultMsg R;
  R.ProblemId = 3;
  R.BatchId = 4;
  R.Status = BatchStatus::Sat;
  R.Model = {{"e0", true}, {"e1", false}};
  R.Stats.Conflicts = 17;
  R.NewCores = {{sat::mkLit(3), ~sat::mkLit(7)}};
  R.ProofChunks = {{0, "a 1 -2 0\n"}};
  StealReplyMsg SR;
  SR.Batches = {{1, 2}, {3, 4}};
  HeartbeatMsg HB;
  HB.BatchesInFlight = 2;
  HB.CubesDelta = 5;
  HB.ConflictsDelta = 6;
  CoresMsg Cores;
  Cores.ProblemId = 1;
  Cores.Cores = {{sat::mkLit(1)}, {~sat::mkLit(2), sat::mkLit(5)}};
  CubeBatchMsg B;
  B.ProblemId = 1;
  B.BatchId = 2;
  B.Cubes = {{sat::mkLit(0), ~sat::mkLit(1)}, {sat::mkLit(2)}};
  HelloAckMsg Ack;
  Ack.Accepted = false;
  Ack.Reason = "version skew";
  std::vector<Message> All;
  All.push_back(HelloMsg{});
  All.push_back(Ack);
  All.push_back(ProblemMsg{}); // encoded by problemFrame() below
  All.push_back(B);
  All.push_back(R);
  All.push_back(Cores);
  All.push_back(CancelMsg{7});
  All.push_back(StealRequestMsg{3});
  All.push_back(SR);
  All.push_back(ShutdownMsg{});
  All.push_back(HB);
  All.push_back(EvictedMsg{"silence timeout"});
  All.push_back(LemmasMsg{1, {{sat::mkLit(4), ~sat::mkLit(6)}}});
  EXPECT_EQ(All.size(), std::variant_size_v<Message>)
      << "one sample per message kind";
  std::vector<std::vector<uint8_t>> Frames;
  for (size_t I = 0; I != All.size(); ++I) {
    EXPECT_EQ(All[I].index(), I) << "samples follow MsgKind order";
    Frames.push_back(std::holds_alternative<ProblemMsg>(All[I])
                         ? problemFrame(P)
                         : encodeMessage(All[I]));
  }
  return Frames;
}

} // namespace

TEST(DistCodec, SurvivesCorruptedFramesWithoutCrashing) {
  StabilizerCode Code = makeFiveQubitCode();
  Scenario S = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, 1);
  smt::BoolContext Ctx;
  BuiltVc Vc = engine::buildScenarioVc(Ctx, S);
  ASSERT_TRUE(Vc.Ok);
  smt::VerificationProblem P(Ctx, Vc.NegatedVc, {});
  // One frame of every message kind is truncated at every length and
  // bit-flipped at every offset (sampled for the problem frame — a dense
  // sweep of full problem decodes is minutes under ASan). No mutation
  // may crash, hang or throw (the ASan CI job gives this teeth), every
  // truncation and trailing byte is rejected, and most flips are too.
  std::vector<std::vector<uint8_t>> Frames = oneFramePerKind(P);
  for (const std::vector<uint8_t> &Frame : Frames) {
    Message M;
    ASSERT_TRUE(decodeMessage(Frame, M)) << "kind " << int(Frame[0]);
    size_t Stride = Frame.size() > 256 ? Frame.size() / 64 : 1;
    for (size_t Len = 0; Len < Frame.size(); Len += Stride)
      EXPECT_FALSE(decodeMessage({Frame.data(), Len}, M))
          << "kind " << int(Frame[0]) << " prefix " << Len;
    std::vector<uint8_t> Longer = Frame;
    Longer.push_back(0);
    EXPECT_FALSE(decodeMessage(Longer, M)) << "kind " << int(Frame[0]);
    for (size_t Pos = 0; Pos < Frame.size(); Pos += Stride)
      for (uint8_t Flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
        std::vector<uint8_t> Bad = Frame;
        Bad[Pos] ^= Flip;
        (void)decodeMessage(Bad, M);
      }
  }
  // Splices: a mutated frame either fails closed or is a canonical
  // encoding of what it decoded to (re-encoding gives the same bytes).
  auto FailsClosedOrRoundTrips = [](const std::vector<uint8_t> &Bytes) {
    Message M;
    return !decodeMessage(Bytes, M) || encodeMessage(M) == Bytes;
  };
  // About 16 splice points per frame keeps the problem frame's share of
  // full decodes small.
  auto Stride = [](const std::vector<uint8_t> &F) {
    return std::max<size_t>(1, F.size() / 16);
  };
  // The head of one kind's frame joined to the tail of another's.
  for (const std::vector<uint8_t> &Head : Frames)
    for (const std::vector<uint8_t> &Tail : Frames)
      for (size_t Cut = 1; Cut < Head.size(); Cut += Stride(Head))
        for (size_t From = 1; From < Tail.size(); From += Stride(Tail)) {
          std::vector<uint8_t> Spliced(Head.begin(), Head.begin() + Cut);
          Spliced.insert(Spliced.end(), Tail.begin() + From, Tail.end());
          EXPECT_TRUE(FailsClosedOrRoundTrips(Spliced))
              << "head kind " << int(Head[0]) << " cut " << Cut
              << ", tail kind " << int(Tail[0]) << " from " << From;
        }
  // An interior byte range deleted, or duplicated in place.
  for (const std::vector<uint8_t> &Frame : Frames)
    for (size_t Pos = 1; Pos < Frame.size(); Pos += Stride(Frame))
      for (size_t Len : {1u, 2u, 4u, 8u}) {
        if (Pos + Len > Frame.size())
          break;
        std::vector<uint8_t> Deleted = Frame;
        Deleted.erase(Deleted.begin() + Pos, Deleted.begin() + Pos + Len);
        EXPECT_TRUE(FailsClosedOrRoundTrips(Deleted))
            << "kind " << int(Frame[0]) << " deleted " << Len << " at " << Pos;
        std::vector<uint8_t> Duplicated = Frame;
        Duplicated.insert(Duplicated.begin() + Pos + Len, Frame.begin() + Pos,
                          Frame.begin() + Pos + Len);
        EXPECT_TRUE(FailsClosedOrRoundTrips(Duplicated))
            << "kind " << int(Frame[0]) << " duplicated " << Len << " at "
            << Pos;
      }
  // A count field blown up to claim gigabytes must be rejected, not
  // allocated: the kind byte, problem id, config (HardenBudget,
  // BudgetBound, ConflictBudget, RandomSeed, LogProofs), the Persistent
  // flag and the u64 NumVars precede the clause count.
  std::vector<uint8_t> Bad = problemFrame(P);
  size_t ClauseCountAt = 1 + 4 + (1 + 4 + 8 + 8 + 1) + 1 + 8;
  uint32_t ClauseCount = 0;
  for (int I = 0; I != 4; ++I) {
    ClauseCount |= uint32_t{Bad[ClauseCountAt + I]} << (8 * I);
    Bad[ClauseCountAt + I] = 0xff;
  }
  ASSERT_EQ(ClauseCount, P.Cnf.Clauses.size()) << "offset drifted";
  Message M;
  EXPECT_FALSE(decodeMessage(Bad, M));
}

// -- Handshake ---------------------------------------------------------------

TEST(DistHandshake, WorkerRejectsVersionMismatchedCoordinator) {
  LoopbackPair Pair = makeLoopbackPair();
  std::thread T([End = std::move(Pair.B)]() mutable {
    EXPECT_EQ(runWorker(std::move(End)), 1);
  });
  std::vector<uint8_t> Frame;
  ASSERT_TRUE(Pair.A->receive(Frame, 5000));
  Message M;
  ASSERT_TRUE(decodeMessage(Frame, M));
  HelloMsg *Hello = std::get_if<HelloMsg>(&M);
  ASSERT_NE(Hello, nullptr);
  EXPECT_EQ(Hello->Version, WireVersion);
  HelloAckMsg Ack;
  Ack.Version = WireVersion + 1;
  Ack.Accepted = false;
  Ack.Reason = "version skew";
  Pair.A->send(encodeMessage(Ack));
  T.join();
}

TEST(DistHandshake, CoordinatorRejectsVersionMismatchedWorker) {
  Coordinator Coord;
  LoopbackPair Pair = makeLoopbackPair();
  Coord.addWorker(std::move(Pair.A));
  HelloMsg Hello;
  Hello.Version = WireVersion + 1;
  Hello.Slots = 4;
  Pair.B->send(encodeMessage(Hello));
  EXPECT_FALSE(Coord.waitForWorkers(1, 300));
  std::vector<uint8_t> Frame;
  ASSERT_TRUE(Pair.B->receive(Frame, 5000));
  Message M;
  ASSERT_TRUE(decodeMessage(Frame, M));
  HelloAckMsg *Ack = std::get_if<HelloAckMsg>(&M);
  ASSERT_NE(Ack, nullptr);
  EXPECT_FALSE(Ack->Accepted);
  EXPECT_NE(Ack->Reason.find("version"), std::string::npos);
  EXPECT_EQ(Coord.numWorkers(), 0u);
}

namespace {

/// The coordinator end of a scripted session with one loopback worker:
/// the handshake is done and \p Problem shipped as problem 1.
struct ScriptedWorker {
  LoopbackPair Pair = makeLoopbackPair();
  std::thread T;
  int Exit = -1;

  explicit ScriptedWorker(std::shared_ptr<smt::VerificationProblem> Problem) {
    T = std::thread([this, End = std::move(Pair.B)]() mutable {
      Exit = runWorker(std::move(End));
    });
    std::vector<uint8_t> Frame;
    EXPECT_TRUE(Pair.A->receive(Frame, 5000)); // the Hello
    HelloAckMsg Ack;
    Ack.Accepted = true;
    send(Ack);
    ProblemMsg PM;
    PM.ProblemId = 1;
    PM.Problem = std::move(Problem);
    send(PM);
  }
  ~ScriptedWorker() {
    if (T.joinable()) {
      send(ShutdownMsg{});
      T.join();
    }
  }

  /// Waits for the worker loop to end on its own; its exit code.
  int exitCode() {
    T.join();
    return Exit;
  }

  void send(const Message &M) { Pair.A->send(encodeMessage(M)); }

  /// The next frame of kind \p T (others, like streamed lemmas, are
  /// skipped); nullopt when the worker hung up first.
  template <typename Msg>
  std::optional<Msg> next() {
    std::vector<uint8_t> Frame;
    while (Pair.A->receive(Frame, 5000)) {
      Message M;
      EXPECT_TRUE(decodeMessage(Frame, M));
      if (Msg *Found = std::get_if<Msg>(&M))
        return std::move(*Found);
    }
    return std::nullopt;
  }
};

std::shared_ptr<smt::VerificationProblem>
steaneProblem(smt::BoolContext &Ctx) {
  Scenario S = makeMemoryScenario(makeSteaneCode(), PauliKind::Y,
                                  LogicalBasis::Z, 1);
  BuiltVc Vc = engine::buildScenarioVc(Ctx, S);
  EXPECT_TRUE(Vc.Ok);
  return std::make_shared<smt::VerificationProblem>(Ctx, Vc.NegatedVc);
}

} // namespace

TEST(DistWorker, OutOfRangeLemmaLiteralCorruptsTheStream) {
  // Lemma literals reach the slot solvers through the same choke point
  // as cube literals: in range they are imported and the worker keeps
  // serving; one variable past the problem's range closes the stream.
  smt::BoolContext Ctx;
  std::shared_ptr<smt::VerificationProblem> P = steaneProblem(Ctx);
  sat::Var Past = static_cast<sat::Var>(P->Cnf.NumVars);
  for (bool InCube : {false, true}) {
    SCOPED_TRACE(InCube ? "cube literal" : "lemma literal");
    ScriptedWorker W(P);
    W.send(LemmasMsg{1, {{sat::mkLit(0), ~sat::mkLit(Past - 1)}}});
    W.send(CubeBatchMsg{1, 0, {{sat::mkLit(1)}}});
    ASSERT_TRUE(W.next<BatchResultMsg>().has_value());
    if (InCube)
      W.send(CubeBatchMsg{1, 1, {{sat::mkLit(Past)}}});
    else
      W.send(LemmasMsg{1, {{~sat::mkLit(Past)}}});
    EXPECT_FALSE(W.next<BatchResultMsg>().has_value());
    EXPECT_EQ(W.exitCode(), 1);
  }
}

// -- End-to-end --------------------------------------------------------------

TEST(DistLoopback, VerdictsMatchInProcessEngine) {
  StabilizerCode Steane = makeSteaneCode();
  std::vector<Scenario> Scenarios;
  // A verified case, a counterexample case (budget beyond correctable),
  // and a multi-cycle case.
  Scenarios.push_back(
      makeMemoryScenario(Steane, PauliKind::Y, LogicalBasis::Z, 1));
  Scenarios.push_back(
      makeMemoryScenario(Steane, PauliKind::Y, LogicalBasis::Z, 3));
  Scenarios.push_back(makeMultiCycleScenario(Steane, PauliKind::X,
                                             LogicalBasis::Z, 2, 1));

  VerifyOptions VO;
  VO.Parallel = true;
  engine::VerificationEngine Engine(2);
  std::vector<VerificationResult> Local = Engine.verifyAll(Scenarios, VO);

  Fleet F(2, 2);
  std::vector<VerificationResult> Remote =
      Engine.verifyAll(Scenarios, VO, F.Coord);

  ASSERT_EQ(Local.size(), Remote.size());
  for (size_t I = 0; I != Scenarios.size(); ++I) {
    EXPECT_EQ(Local[I].Verified, Remote[I].Verified) << Scenarios[I].Name;
    EXPECT_EQ(Local[I].Aborted, Remote[I].Aborted) << Scenarios[I].Name;
    if (!Remote[I].Verified) {
      // The remote counterexample is a genuine model of the negated VC.
      ASSERT_FALSE(Remote[I].CounterExample.empty());
      smt::BoolContext Ctx;
      BuiltVc Vc = engine::buildScenarioVc(Ctx, Scenarios[I], VO);
      ASSERT_TRUE(Vc.Ok);
      vt::ModelCheckResult MC = vt::evaluateUnderModel(
          Ctx, Vc.NegatedVc, Remote[I].CounterExample);
      EXPECT_TRUE(MC.Satisfies) << Scenarios[I].Name;
      EXPECT_EQ(MC.MissingVars, 0u) << Scenarios[I].Name;
    }
  }
}

TEST(DistLoopback, WorkerDropMidRunRecoversToTheCorrectVerdict) {
  std::vector<Scenario> Scenarios;
  Scenarios.push_back(makeMemoryScenario(makeRotatedSurfaceCode(3),
                                         PauliKind::Y, LogicalBasis::Z, 1));
  // A heavier second scenario keeps the surviving worker busy long past
  // the crash, so the drop is always observed mid-run.
  Scenarios.push_back(makeMemoryScenario(makeRotatedSurfaceCode(5),
                                         PauliKind::X, LogicalBasis::X, 2));

  VerifyOptions VO;
  VO.Parallel = true;
  // First worker vanishes after one batch; the second finishes the run.
  Fleet F(2, 1, /*MaxBatches=*/1);
  engine::VerificationEngine Engine(1);
  std::vector<VerificationResult> Remote =
      Engine.verifyAll(Scenarios, VO, F.Coord);
  for (const VerificationResult &R : Remote) {
    EXPECT_TRUE(R.StructuralOk);
    EXPECT_TRUE(R.Verified);
    EXPECT_FALSE(R.Aborted);
  }
  EXPECT_EQ(F.Coord.stats().WorkersDropped, 1u);
  EXPECT_GE(F.Coord.stats().BatchesRequeued, 1u);
}

TEST(DistLoopback, TimedOutWorkerIsDroppedAndItsBatchesRequeued) {
  CoordinatorOptions CO;
  // Wide enough that a briefly descheduled LIVE worker is never dropped
  // on a loaded CI box (its batches take ~1 ms each); the mute worker
  // stays silent forever, so it always trips the timer.
  CO.WorkerTimeoutMs = 600;
  Coordinator Coord(CO);
  // A mute worker: completes the handshake by hand, then never answers.
  LoopbackPair Mute = makeLoopbackPair();
  Coord.addWorker(std::move(Mute.A));
  HelloMsg Hello;
  Hello.Slots = 1;
  Mute.B->send(encodeMessage(Hello));
  ASSERT_TRUE(Coord.waitForWorkers(1, 2000));
  // And one real worker that joins late, after the mute one times out.
  LoopbackPair Live = makeLoopbackPair();
  Coord.addWorker(std::move(Live.A));
  std::thread T([End = std::move(Live.B)]() mutable {
    runWorker(std::move(End));
  });
  StabilizerCode Steane = makeSteaneCode();
  Scenario S = makeMemoryScenario(Steane, PauliKind::Y, LogicalBasis::Z, 1);
  VerifyOptions VO;
  VO.Parallel = true;
  engine::VerificationEngine Engine(1);
  std::vector<VerificationResult> R = Engine.verifyAll({&S, 1}, VO, Coord);
  EXPECT_TRUE(R[0].Verified);
  EXPECT_EQ(Coord.stats().WorkersDropped, 1u);
  EXPECT_GE(Coord.stats().BatchesRequeued, 1u);
  Coord.shutdownWorkers();
  T.join();
  Mute.B->close();
}

TEST(DistLoopback, HeartbeatingGrinderOutlivesTheSilenceTimeout) {
  CoordinatorOptions CO;
  CO.WorkerTimeoutMs = 600;
  Coordinator Coord(CO);
  // The fleet's only worker sits on its first batch for >3x the silence
  // timeout. With heartbeats flowing well inside the timeout, the
  // coordinator must treat it as grinding, not dead — evicting it would
  // strand the whole run (there is nobody else to requeue to).
  WorkerOptions WO;
  WO.HeartbeatMs = 25;
  WO.GrindFirstBatchMs = 2000;
  std::vector<std::thread> Threads =
      spawnLoopbackWorkers(Coord, std::vector<WorkerOptions>{WO});
  ASSERT_TRUE(Coord.waitForWorkers(1, 10000));

  StabilizerCode Steane = makeSteaneCode();
  Scenario S = makeMemoryScenario(Steane, PauliKind::Y, LogicalBasis::Z, 1);
  VerifyOptions VO;
  VO.Parallel = true;
  engine::VerificationEngine Engine(1);
  std::vector<VerificationResult> R = Engine.verifyAll({&S, 1}, VO, Coord);
  EXPECT_TRUE(R[0].Verified);
  EXPECT_FALSE(R[0].Aborted);
  EXPECT_EQ(Coord.stats().WorkersDropped, 0u);
  EXPECT_EQ(Coord.stats().BatchesRequeued, 0u);
  EXPECT_GT(Coord.stats().HeartbeatsReceived, 0u);
  Coord.shutdownWorkers();
  for (std::thread &T : Threads)
    T.join();
}

TEST(DistLoopback, SilentGrinderIsEvictedAndItsBatchesRequeued) {
  CoordinatorOptions CO;
  CO.WorkerTimeoutMs = 600;
  Coordinator Coord(CO);
  // The grinder: heartbeats off, and its first batch "runs" far past
  // the timeout — by silence alone it is indistinguishable from a dead
  // worker, so the coordinator must evict it and requeue its batches.
  LoopbackPair Grinder = makeLoopbackPair();
  Coord.addWorker(std::move(Grinder.A));
  int GrinderExit = -1;
  std::thread GT([&GrinderExit, End = std::move(Grinder.B)]() mutable {
    WorkerOptions WO;
    WO.GrindFirstBatchMs = 60000;
    GrinderExit = runWorker(std::move(End), WO);
  });
  // The grinder must be the whole fleet when batches shard, so its
  // first grant arrives (and starts grinding) before anyone else can
  // absorb the work; the healthy worker joins during the run — its
  // handshake completes inside the solve pumps — steals the grinder's
  // queued batches, and finishes the requeued in-flight one after the
  // eviction.
  ASSERT_TRUE(Coord.waitForWorkers(1, 10000));
  LoopbackPair Live = makeLoopbackPair();
  Coord.addWorker(std::move(Live.A));
  std::thread LT(
      [End = std::move(Live.B)]() mutable { runWorker(std::move(End)); });

  StabilizerCode Steane = makeSteaneCode();
  Scenario S = makeMemoryScenario(Steane, PauliKind::Y, LogicalBasis::Z, 1);
  VerifyOptions VO;
  VO.Parallel = true;
  engine::VerificationEngine Engine(1);
  std::vector<VerificationResult> R = Engine.verifyAll({&S, 1}, VO, Coord);
  EXPECT_TRUE(R[0].Verified);
  EXPECT_FALSE(R[0].Aborted);
  EXPECT_EQ(Coord.stats().WorkersDropped, 1u);
  EXPECT_GE(Coord.stats().BatchesRequeued, 1u);
  Coord.shutdownWorkers();
  GT.join();
  LT.join();
  // The Evicted frame reached the grinder before its link closed: it
  // exited through the eviction path, not a bare link error.
  EXPECT_EQ(GrinderExit, 3);
}

TEST(DistLoopback, DistanceHandleApiMatchesLocalSearch) {
  // The existence probe runs locally; the fleet receives the problem
  // re-encoded with a weight layer as deep as its witness, so both runs
  // search the same CNF (tanner1: a depth-8 layer over 210 supports).
  // Both searches run one slot solver under the same seed stream and
  // certificate rule, so seeded runs agree conflict for conflict and
  // certificates byte for byte.
  Fleet F(2, 1);
  VerifyOptions Plain, Proofs, Seeded;
  Proofs.LogProofs = true;
  Seeded.RandomSeed = 2;
  for (const StabilizerCode &Code :
       {makeSteaneCode(), makeFiveQubitCode(), makeRotatedSurfaceCode(3),
        makeTannerISubstitute()}) {
    for (const VerifyOptions &VO : {Plain, Proofs, Seeded}) {
      SCOPED_TRACE(Code.Name + (VO.LogProofs     ? " proofs"
                                : VO.RandomSeed ? " seed 2"
                                                : ""));
      DistanceResult Local = computeDistance(Code, VO);
      DistanceResult Remote =
          computeDistance(Code, VO, PauliFamily::Any, &F.Coord);
      ASSERT_TRUE(Local.Ok);
      ASSERT_TRUE(Remote.Ok);
      EXPECT_EQ(Local.Distance, Remote.Distance);
      EXPECT_EQ(Local.SolverCalls, Remote.SolverCalls);
      EXPECT_EQ(Local.Stats.Conflicts, Remote.Stats.Conflicts);
      EXPECT_EQ(Local.LayerDepth, Remote.LayerDepth);
      EXPECT_EQ(Local.CnfVars, Remote.CnfVars);
      EXPECT_EQ(Local.CnfClauses, Remote.CnfClauses);
      ASSERT_EQ(Remote.Probes.size(), Remote.SolverCalls);
      uint64_t Conflicts = 0;
      for (const DistanceResult::Probe &P : Remote.Probes)
        Conflicts += P.Conflicts;
      EXPECT_EQ(Conflicts, Remote.Stats.Conflicts);
      ASSERT_TRUE(Remote.Witness.has_value());
      EXPECT_EQ(Remote.Witness->weight(), Remote.Distance);
      if (!VO.LogProofs)
        continue;
      ASSERT_FALSE(Local.Proof.empty());
      // Compared as a bool: a failure would otherwise print megabytes.
      EXPECT_TRUE(Local.Proof == Remote.Proof)
          << Local.Proof.size() << " vs " << Remote.Proof.size() << " bytes";
      proof::CheckResult LocalCheck = proof::checkProof(Local.Proof);
      EXPECT_TRUE(LocalCheck.Ok) << LocalCheck.Error;
      proof::CheckResult RemoteCheck = proof::checkProof(Remote.Proof);
      EXPECT_TRUE(RemoteCheck.Ok) << RemoteCheck.Error;
      // Every UNSAT probe is a counted cube: a certificate missing its
      // last conclusion no longer covers the search.
      size_t LastQ = Remote.Proof.rfind("\nq ");
      ASSERT_NE(LastQ, std::string::npos);
      std::string Dropped = Remote.Proof;
      Dropped.erase(LastQ + 1, Dropped.find('\n', LastQ + 1) - LastQ);
      EXPECT_FALSE(proof::checkProof(Dropped).Ok);
    }
  }
}

TEST(DistLoopback, CoordinatorRelaysLemmasAndDropsOutOfRangeOnes) {
  // Two scripted workers of one slot each, one batch apiece. A streams a
  // frame with an out-of-range literal and then a valid one; B must see
  // only the valid frame, and A never gets its own lemmas back.
  smt::BoolContext Ctx;
  std::shared_ptr<smt::VerificationProblem> P = steaneProblem(Ctx);
  sat::Var Past = static_cast<sat::Var>(P->Cnf.NumVars);
  Coordinator Coord;
  LoopbackPair A = makeLoopbackPair(), B = makeLoopbackPair();
  Coord.addWorker(std::move(A.A));
  Coord.addWorker(std::move(B.A));
  for (Link *W : {A.B.get(), B.B.get()})
    W->send(encodeMessage(HelloMsg{}));
  ASSERT_TRUE(Coord.waitForWorkers(2, 5000));
  uint32_t Handle = Coord.openProblem(P, engine::CubeRunConfig{});
  smt::SolveOutcome Out;
  engine::CubeTree Tree;
  Tree.split(0, 0);
  std::thread Solve([&] { Out = Coord.solveCubes(Handle, std::move(Tree)); });
  // Reads \p W up to its cube batch; false when none arrives.
  auto NextBatch = [](Link &W, CubeBatchMsg &Batch) {
    std::vector<uint8_t> Frame;
    while (W.receive(Frame, 5000)) {
      Message M;
      EXPECT_TRUE(decodeMessage(Frame, M));
      if (CubeBatchMsg *CB = std::get_if<CubeBatchMsg>(&M)) {
        Batch = std::move(*CB);
        return true;
      }
    }
    return false;
  };
  auto Result = [](const CubeBatchMsg &Batch) {
    BatchResultMsg R;
    R.ProblemId = Batch.ProblemId;
    R.BatchId = Batch.BatchId;
    R.Status = BatchStatus::AllUnsat;
    R.Solved = Batch.Cubes.size();
    return encodeMessage(R);
  };
  CubeBatchMsg BatchA, BatchB;
  ASSERT_TRUE(NextBatch(*A.B, BatchA));
  ASSERT_TRUE(NextBatch(*B.B, BatchB));
  LemmasMsg Bad{Handle, {{sat::mkLit(2)}, {sat::mkLit(Past)}}};
  LemmasMsg Good{Handle, {{sat::mkLit(1), ~sat::mkLit(2)}, {sat::mkLit(3)}}};
  A.B->send(encodeMessage(Bad));
  A.B->send(encodeMessage(Good));
  A.B->send(Result(BatchA));
  // B's first Lemmas frame is the valid one, byte for byte.
  std::vector<uint8_t> Frame;
  Message M;
  do {
    ASSERT_TRUE(B.B->receive(Frame, 5000));
    ASSERT_TRUE(decodeMessage(Frame, M));
  } while (!std::holds_alternative<LemmasMsg>(M));
  EXPECT_EQ(Frame, encodeMessage(Good));
  B.B->send(Result(BatchB));
  Solve.join();
  EXPECT_EQ(Out.Result, sat::SolveResult::Unsat);
  EXPECT_EQ(Coord.stats().LemmasRelayed, Good.Lemmas.size());
  while (A.B->receive(Frame, 0)) {
    ASSERT_TRUE(decodeMessage(Frame, M));
    EXPECT_FALSE(std::holds_alternative<LemmasMsg>(M));
  }
  Coord.closeProblem(Handle);
}

TEST(DistLoopback, ProofRunsExchangeNoLemmas) {
  // Over two one-slot workers a plain run streams lemmas between them;
  // a proof-logging run relays none (no worker exports any, and the
  // coordinator would drop them), and its certificate checks.
  Scenario S = makeMemoryScenario(makeRotatedSurfaceCode(5), PauliKind::Y,
                                  LogicalBasis::Z, 2);
  engine::VerificationEngine Engine(1);
  for (bool Proofs : {false, true}) {
    SCOPED_TRACE(Proofs ? "proofs" : "plain");
    Fleet F(2, 1);
    VerifyOptions VO;
    VO.Parallel = true;
    VO.LogProofs = Proofs;
    std::vector<VerificationResult> R = Engine.verifyAll({&S, 1}, VO, F.Coord);
    ASSERT_EQ(R.size(), 1u);
    EXPECT_TRUE(R[0].Verified);
    if (!Proofs) {
      EXPECT_GT(F.Coord.stats().LemmasRelayed, 0u);
      continue;
    }
    EXPECT_EQ(F.Coord.stats().LemmasRelayed, 0u);
    proof::CheckResult CR = proof::checkProof(R[0].Proof);
    EXPECT_TRUE(CR.Ok) << CR.Error;
  }
}

TEST(DistTcp, TwoWorkersOverRealSocketsMatchLocalVerdicts) {
  std::string Err;
  std::unique_ptr<Listener> L = listenTcp("127.0.0.1:0", Err);
  if (!L)
    GTEST_SKIP() << "cannot bind a local TCP socket: " << Err;
  uint16_t Port = L->port();
  Coordinator Coord;
  Coord.attachListener(std::move(L));
  std::vector<std::thread> Threads;
  for (int I = 0; I != 2; ++I)
    Threads.emplace_back([Port] {
      std::string ConnectErr;
      std::unique_ptr<Link> W =
          connectTcp("127.0.0.1:" + std::to_string(Port), ConnectErr);
      ASSERT_NE(W, nullptr) << ConnectErr;
      WorkerOptions WO;
      WO.Jobs = 2;
      runWorker(std::move(W), WO);
    });
  ASSERT_TRUE(Coord.waitForWorkers(2, 10000));
  EXPECT_EQ(Coord.numSlots(), 4u);

  StabilizerCode Steane = makeSteaneCode();
  std::vector<Scenario> Scenarios;
  Scenarios.push_back(
      makeMemoryScenario(Steane, PauliKind::Y, LogicalBasis::Z, 1));
  Scenarios.push_back(
      makeMemoryScenario(Steane, PauliKind::Z, LogicalBasis::X, 3));
  VerifyOptions VO;
  VO.Parallel = true;
  engine::VerificationEngine Engine(1);
  std::vector<VerificationResult> Remote =
      Engine.verifyAll(Scenarios, VO, Coord);
  std::vector<VerificationResult> Local = Engine.verifyAll(Scenarios, VO);
  for (size_t I = 0; I != Scenarios.size(); ++I) {
    EXPECT_EQ(Local[I].Verified, Remote[I].Verified) << I;
    EXPECT_EQ(Local[I].Aborted, Remote[I].Aborted) << I;
  }
  Coord.shutdownWorkers();
  for (std::thread &T : Threads)
    T.join();
}

TEST(DistLoopback, CertificateMissingOneCubeIsRejected) {
  // a AND b has its only model in the leaf {a, b}. A scripted worker
  // reports its one batch UNSAT with a real slot's stream over every
  // other leaf; the coordinator's certificate must not check.
  smt::BoolContext Ctx;
  smt::ProblemOptions PO;
  PO.ProtectedVars = {"a", "b"};
  PO.CaptureProofData = true;
  auto P = std::make_shared<smt::VerificationProblem>(
      Ctx, Ctx.mkAnd(Ctx.mkVar("a"), Ctx.mkVar("b")), PO);
  ASSERT_FALSE(P->TriviallyUnsat);
  std::vector<sat::Var> Vars{P->varOfName("a"), P->varOfName("b")};
  std::vector<Lit> Model{sat::mkLit(Vars[0]), sat::mkLit(Vars[1])};
  CoordinatorOptions CO;
  CO.BatchesPerSlot = 1;
  Coordinator Coord(CO);
  LoopbackPair W = makeLoopbackPair();
  Coord.addWorker(std::move(W.A));
  W.B->send(encodeMessage(HelloMsg{}));
  ASSERT_TRUE(Coord.waitForWorkers(1, 5000));
  engine::CubeRunConfig Cfg;
  Cfg.LogProofs = true;
  uint32_t Handle = Coord.openProblem(P, Cfg);
  engine::CubeTree Tree;
  Tree.growEt(Vars, 0, ~0u, 2);
  smt::SolveOutcome Out;
  std::thread Solve([&] { Out = Coord.solveCubes(Handle, std::move(Tree)); });
  std::optional<CubeBatchMsg> Batch;
  std::vector<uint8_t> Frame;
  while (!Batch && W.B->receive(Frame, 5000)) {
    Message M;
    ASSERT_TRUE(decodeMessage(Frame, M));
    if (CubeBatchMsg *CB = std::get_if<CubeBatchMsg>(&M))
      Batch = std::move(*CB);
  }
  ASSERT_TRUE(Batch.has_value());
  ASSERT_EQ(Batch->Cubes.size(), 4u);
  engine::CubeRun Run(*P, Cfg, 1);
  for (size_t C = 0; C != Batch->Cubes.size(); ++C) {
    if (Batch->Cubes[C] != Model) {
      EXPECT_NE(Run.runCube(0, Batch->Cubes[C], C),
                engine::CubeRun::CubeOutcome::Sat);
    }
  }
  BatchResultMsg R;
  R.ProblemId = Batch->ProblemId;
  R.BatchId = Batch->BatchId;
  R.Status = BatchStatus::AllUnsat;
  R.Solved = Batch->Cubes.size();
  R.ProofChunks = {{0, Run.drainSlotProof(0)}};
  W.B->send(encodeMessage(R));
  Solve.join();
  EXPECT_EQ(Out.Result, sat::SolveResult::Unsat);
  ASSERT_FALSE(Out.Proof.empty());
  proof::CheckResult CR = proof::checkProof(Out.Proof);
  EXPECT_FALSE(CR.Ok);
  EXPECT_NE(CR.Error.find("not RUP"), std::string::npos) << CR.Error;
  Coord.closeProblem(Handle);
  Coord.shutdownWorkers();
}
