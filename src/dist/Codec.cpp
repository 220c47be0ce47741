//===- dist/Codec.cpp - Versioned binary wire format -----------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "dist/Codec.h"

#include "obs/Trace.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <unordered_set>

using namespace veriqec;
using namespace veriqec::dist;
using sat::Lit;
using sat::Var;

namespace {

// -- Shared sub-codecs -------------------------------------------------------

void encodeStats(Encoder &E, const sat::SolverStats &S) {
  for (const auto &F : sat::SolverStats::Fields)
    E.u64(S.*F.Member);
}

sat::SolverStats decodeStats(Decoder &D) {
  sat::SolverStats S;
  for (const auto &F : sat::SolverStats::Fields)
    S.*F.Member = D.u64();
  return S;
}

void encodeModel(Encoder &E,
                 const std::unordered_map<std::string, bool> &Model) {
  // Sorted for a canonical byte stream (maps have no iteration order).
  std::vector<std::pair<std::string, bool>> Entries(Model.begin(),
                                                    Model.end());
  std::sort(Entries.begin(), Entries.end());
  E.u32(static_cast<uint32_t>(Entries.size()));
  for (const auto &[Name, Value] : Entries) {
    E.str(Name);
    E.boolean(Value);
  }
}

std::unordered_map<std::string, bool> decodeModel(Decoder &D) {
  std::unordered_map<std::string, bool> Model;
  uint32_t N = D.count(5); // 4-byte length + >= 0 chars + 1 bool
  for (uint32_t I = 0; I != N && D.ok(); ++I) {
    std::string Name = D.str();
    bool Value = D.boolean();
    Model.emplace(std::move(Name), Value);
  }
  return Model;
}

void encodeConfig(Encoder &E, const engine::CubeRunConfig &C) {
  E.u64(C.ConflictBudget);
  E.u64(C.RandomSeed);
  E.boolean(C.LogProofs);
}

engine::CubeRunConfig decodeConfig(Decoder &D) {
  engine::CubeRunConfig C;
  C.ConflictBudget = D.u64();
  C.RandomSeed = D.u64();
  C.LogProofs = D.boolean();
  return C;
}

// -- Per-message bodies ------------------------------------------------------

void encodeBody(Encoder &E, const HelloMsg &M) {
  E.u32(M.Magic);
  E.u32(M.Version);
  E.u32(M.Slots);
}

void encodeBody(Encoder &E, const HelloAckMsg &M) {
  E.u32(M.Magic);
  E.u32(M.Version);
  E.boolean(M.Accepted);
  E.str(M.Reason);
}

void encodeBody(Encoder &E, const ProblemMsg &M) {
  E.u32(M.ProblemId);
  encodeConfig(E, M.Config);
  E.boolean(M.Persistent);
  ProblemCodec::encode(E, *M.Problem);
}

void encodeBody(Encoder &E, const CubeBatchMsg &M) {
  E.u32(M.ProblemId);
  E.u32(M.BatchId);
  E.litVecs(M.Cubes);
}

void encodeBody(Encoder &E, const BatchResultMsg &M) {
  E.u32(M.ProblemId);
  E.u32(M.BatchId);
  E.u8(static_cast<uint8_t>(M.Status));
  encodeModel(E, M.Model);
  encodeStats(E, M.Stats);
  E.u64(M.Solved);
  E.u32(static_cast<uint32_t>(M.ProofChunks.size()));
  for (const auto &[Slot, Chunk] : M.ProofChunks) {
    E.u32(Slot);
    E.str(Chunk);
  }
}

void encodeBody(Encoder &E, const CancelMsg &M) { E.u32(M.ProblemId); }

void encodeBody(Encoder &, const ShutdownMsg &) {}

void encodeBody(Encoder &E, const HeartbeatMsg &M) {
  E.u32(M.BatchesInFlight);
  E.u64(M.CubesDelta);
  E.u64(M.ConflictsDelta);
}

void encodeBody(Encoder &E, const EvictedMsg &M) { E.str(M.Reason); }

void encodeBody(Encoder &E, const LemmasMsg &M) {
  E.u32(M.ProblemId);
  E.litVecs(M.Lemmas);
}

} // namespace

// -- ProblemCodec ------------------------------------------------------------

void ProblemCodec::encode(Encoder &E, const smt::VerificationProblem &P) {
  E.u64(P.Cnf.NumVars);
  E.u32(static_cast<uint32_t>(P.Cnf.Clauses.size()));
  for (const std::vector<Lit> &C : P.Cnf.Clauses)
    E.lits(C);
  {
    std::vector<std::pair<uint32_t, Var>> Entries(P.Cnf.VarOfBoolVar.begin(),
                                                  P.Cnf.VarOfBoolVar.end());
    std::sort(Entries.begin(), Entries.end());
    E.u32(static_cast<uint32_t>(Entries.size()));
    for (const auto &[BoolId, V] : Entries) {
      E.u32(BoolId);
      E.i32(V);
    }
  }
  E.u32(static_cast<uint32_t>(P.NamedVars.size()));
  for (const auto &[Name, V] : P.NamedVars) {
    E.str(Name);
    E.i32(V);
  }
  E.u32(static_cast<uint32_t>(P.XorRows.size()));
  for (const auto &[Vars, Rhs] : P.XorRows) {
    E.u32(static_cast<uint32_t>(Vars.size()));
    for (Var V : Vars)
      E.i32(V);
    E.boolean(Rhs);
  }
  E.boolean(P.TriviallyUnsat);
  for (const auto &F : smt::PreprocessStats::Fields)
    E.u64(P.Prep.*F.Member);
  E.boolean(P.Prep.TriviallyUnsat);
  E.u32(static_cast<uint32_t>(P.VarNames.size()));
  for (const std::string &Name : P.VarNames)
    E.str(Name);
  E.u32(static_cast<uint32_t>(P.Eliminated.size()));
  for (const smt::VarReconstruction &R : P.Eliminated) {
    E.u32(R.VarId);
    E.u32(static_cast<uint32_t>(R.Deps.size()));
    for (uint32_t Dep : R.Deps)
      E.u32(Dep);
    E.boolean(R.Constant);
  }
  E.lits(P.BudgetCounter);
  E.u64(P.NumBudgetTerms);
  E.lits(P.RootUnits);
}

std::shared_ptr<smt::VerificationProblem> ProblemCodec::decode(Decoder &D) {
  // Private constructor: the codec is a friend of the struct.
  std::shared_ptr<smt::VerificationProblem> P(new smt::VerificationProblem());
  P->Cnf.NumVars = D.u64();
  // Everything downstream indexes by CNF variable (solver loading) or
  // BoolContext id (reconstruction), so both universes are
  // range-checked against their declared sizes as they are read — a
  // corrupted id must fail the frame, not balloon an index vector or
  // walk a solver off its arrays.
  if (P->Cnf.NumVars >
      static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    D.fail();
    return nullptr;
  }
  auto cnfVar = [&](int32_t V) {
    if (V < 0 || static_cast<uint64_t>(V) >= P->Cnf.NumVars)
      D.fail();
    return V;
  };
  auto cnfLit = [&](Lit L) {
    cnfVar(L.var());
    return L;
  };
  uint32_t NumClauses = D.count(4);
  P->Cnf.Clauses.reserve(NumClauses);
  for (uint32_t I = 0; I != NumClauses && D.ok(); ++I) {
    std::vector<Lit> Clause = D.lits();
    for (Lit L : Clause)
      cnfLit(L);
    P->Cnf.Clauses.push_back(std::move(Clause));
  }
  uint32_t NumMapped = D.count(8);
  for (uint32_t I = 0; I != NumMapped && D.ok(); ++I) {
    uint32_t BoolId = D.u32();
    P->Cnf.VarOfBoolVar.emplace(BoolId, cnfVar(D.i32()));
  }
  uint32_t NumNamed = D.count(8);
  P->NamedVars.reserve(NumNamed);
  for (uint32_t I = 0; I != NumNamed && D.ok(); ++I) {
    std::string Name = D.str();
    P->NamedVars.emplace_back(std::move(Name), cnfVar(D.i32()));
  }
  uint32_t NumXor = D.count(5);
  P->XorRows.reserve(NumXor);
  for (uint32_t I = 0; I != NumXor && D.ok(); ++I) {
    uint32_t M = D.count(4);
    std::vector<Var> Vars;
    Vars.reserve(M);
    for (uint32_t J = 0; J != M && D.ok(); ++J)
      Vars.push_back(cnfVar(D.i32()));
    bool Rhs = D.boolean();
    P->XorRows.emplace_back(std::move(Vars), Rhs);
  }
  P->TriviallyUnsat = D.boolean();
  for (const auto &F : smt::PreprocessStats::Fields)
    P->Prep.*F.Member = D.u64();
  P->Prep.TriviallyUnsat = D.boolean();
  uint32_t NumNames = D.count(4);
  P->VarNames.reserve(NumNames);
  for (uint32_t I = 0; I != NumNames && D.ok(); ++I)
    P->VarNames.push_back(D.str());
  auto boolId = [&](uint32_t V) {
    if (V >= P->VarNames.size())
      D.fail();
    return V;
  };
  uint32_t NumElim = D.count(9);
  P->Eliminated.reserve(NumElim);
  for (uint32_t I = 0; I != NumElim && D.ok(); ++I) {
    smt::VarReconstruction R;
    R.VarId = boolId(D.u32());
    uint32_t M = D.count(4);
    R.Deps.reserve(M);
    for (uint32_t J = 0; J != M && D.ok(); ++J)
      R.Deps.push_back(boolId(D.u32()));
    R.Constant = D.boolean();
    P->Eliminated.push_back(std::move(R));
  }
  // A record's dependencies must be in the model when readModel replays
  // it: named variables, or variables a LATER record reconstructs (the
  // replay runs in reverse). Anything else would fail the look-up on the
  // worker's first SAT cube.
  std::unordered_set<std::string_view> InModel;
  for (const auto &[Name, V] : P->NamedVars)
    InModel.insert(Name);
  for (auto It = P->Eliminated.rbegin(); It != P->Eliminated.rend() && D.ok();
       ++It) {
    for (uint32_t Dep : It->Deps)
      if (!InModel.count(P->VarNames[Dep]))
        D.fail();
    InModel.insert(P->VarNames[It->VarId]);
  }
  P->BudgetCounter = D.lits();
  for (Lit L : P->BudgetCounter)
    cnfLit(L);
  P->NumBudgetTerms = D.u64();
  P->RootUnits = D.lits();
  for (Lit L : P->RootUnits)
    cnfLit(L);
  if (!D.ok())
    return nullptr;
  return P;
}

// -- Top-level message codec -------------------------------------------------

bool veriqec::dist::litsInRange(const smt::VerificationProblem &P,
                                std::span<const std::vector<Lit>> Lits) {
  for (const std::vector<Lit> &C : Lits)
    for (Lit L : C)
      if (L.var() < 0 || static_cast<uint64_t>(L.var()) >= P.Cnf.NumVars)
        return false;
  return true;
}

std::vector<uint8_t> veriqec::dist::encodeMessage(const Message &M) {
  obs::TraceSpan Span("wire_encode", {{"kind", M.index()}});
  Encoder E;
  E.u8(static_cast<uint8_t>(MsgKind::Hello) +
       static_cast<uint8_t>(M.index()));
  std::visit([&E](const auto &Body) { encodeBody(E, Body); }, M);
  std::vector<uint8_t> Out = E.take();
  Span.arg("bytes", Out.size());
  return Out;
}

bool veriqec::dist::decodeMessage(std::span<const uint8_t> Payload,
                                  Message &Out) {
  obs::TraceSpan Span("wire_decode", {{"bytes", Payload.size()}});
  Decoder D(Payload);
  switch (static_cast<MsgKind>(D.u8())) {
  case MsgKind::Hello: {
    HelloMsg M;
    M.Magic = D.u32();
    M.Version = D.u32();
    M.Slots = D.u32();
    Out = M;
    break;
  }
  case MsgKind::HelloAck: {
    HelloAckMsg M;
    M.Magic = D.u32();
    M.Version = D.u32();
    M.Accepted = D.boolean();
    M.Reason = D.str();
    Out = std::move(M);
    break;
  }
  case MsgKind::Problem: {
    ProblemMsg M;
    M.ProblemId = D.u32();
    M.Config = decodeConfig(D);
    M.Persistent = D.boolean();
    M.Problem = ProblemCodec::decode(D);
    if (!M.Problem)
      return false;
    Out = std::move(M);
    break;
  }
  case MsgKind::CubeBatch: {
    CubeBatchMsg M;
    M.ProblemId = D.u32();
    M.BatchId = D.u32();
    M.Cubes = D.litVecs();
    Out = std::move(M);
    break;
  }
  case MsgKind::BatchResult: {
    BatchResultMsg M;
    M.ProblemId = D.u32();
    M.BatchId = D.u32();
    uint8_t S = D.u8();
    if (S > static_cast<uint8_t>(engine::CubeVerdict::Sat))
      return false;
    M.Status = static_cast<engine::CubeVerdict>(S);
    M.Model = decodeModel(D);
    M.Stats = decodeStats(D);
    M.Solved = D.u64();
    uint32_t NumChunks = D.count(8); // 4-byte slot + 4-byte length each
    M.ProofChunks.reserve(NumChunks);
    for (uint32_t I = 0; I != NumChunks && D.ok(); ++I) {
      uint32_t Slot = D.u32();
      M.ProofChunks.emplace_back(Slot, D.str());
    }
    Out = std::move(M);
    break;
  }
  case MsgKind::Cancel: {
    CancelMsg M;
    M.ProblemId = D.u32();
    Out = M;
    break;
  }
  case MsgKind::Shutdown:
    Out = ShutdownMsg{};
    break;
  case MsgKind::Heartbeat: {
    HeartbeatMsg M;
    M.BatchesInFlight = D.u32();
    M.CubesDelta = D.u64();
    M.ConflictsDelta = D.u64();
    Out = M;
    break;
  }
  case MsgKind::Evicted: {
    EvictedMsg M;
    M.Reason = D.str();
    Out = std::move(M);
    break;
  }
  case MsgKind::Lemmas: {
    LemmasMsg M;
    M.ProblemId = D.u32();
    uint32_t N = D.count(4);
    if (N > sat::SharedClausePool::Capacity)
      return false;
    M.Lemmas.reserve(N);
    for (uint32_t I = 0; I != N && D.ok(); ++I) {
      std::vector<Lit> Lemma = D.lits();
      // A learnt clause is never empty: an empty one would refute the
      // problem outright, so it is a forgery, not a lemma.
      if (Lemma.empty() || Lemma.size() > sat::SharedClausePool::MaxLemmaLits)
        return false;
      M.Lemmas.push_back(std::move(Lemma));
    }
    Out = std::move(M);
    break;
  }
  default:
    return false;
  }
  return D.ok() && D.atEnd();
}
