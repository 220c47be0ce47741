//===- proof/ProofLog.cpp - Proof emission --------------------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "proof/ProofLog.h"

#include "obs/Trace.h"

#include <charconv>

using namespace veriqec;
using namespace veriqec::proof;

namespace {

/// Streams append millions of small integers (a surface-code proof is
/// tens of MB of them); formatting through std::to_string's temporary
/// strings is measurable against the <25% certification-overhead budget.
void appendInt(std::string &Out, int64_t V) {
  char Buf[24];
  Buf[0] = ' ';
  char *End = std::to_chars(Buf + 1, Buf + sizeof(Buf), V).ptr;
  Out.append(Buf, static_cast<size_t>(End - Buf));
}

void appendDimacs(std::string &Out, sat::Lit L) {
  appendInt(Out, (L.var() + 1) * (L.negated() ? -1 : 1));
}

void appendRow(std::string &Out, const char *Tag, bool Rhs,
               std::span<const uint32_t> Vars) {
  Out += Tag;
  Out += Rhs ? " 1" : " 0";
  for (uint32_t V : Vars) {
    Out += ' ';
    Out += std::to_string(V + 1);
  }
  Out += " 0\n";
}

void appendReplayRecords(std::string &Out, const smt::VerificationProblem &P) {
  for (const smt::ParityRow &R : P.OriginalRows)
    appendRow(Out, "pr", R.Rhs, R.Vars);
  for (const smt::ParityRow &R : P.keptRows())
    appendRow(Out, "pk", R.Rhs, R.Vars);
  for (const smt::VarReconstruction &E : P.reconstructions()) {
    Out += "pe ";
    Out += std::to_string(E.VarId + 1);
    Out += E.Constant ? " 1" : " 0";
    for (uint32_t D : E.Deps) {
      Out += ' ';
      Out += std::to_string(D + 1);
    }
    Out += " 0\n";
  }
}

} // namespace

void SlotProofLog::appendLits(std::span<const sat::Lit> Lits) {
  for (sat::Lit L : Lits)
    appendDimacs(Buf, L);
  Buf += " 0";
}

void SlotProofLog::onDerive(std::span<const sat::Lit> Lits,
                            std::span<const int64_t> Hints) {
  Buf += 'a';
  appendLits(Lits);
  if (!Hints.empty()) {
    for (int64_t H : Hints)
      appendInt(Buf, H);
    Buf += " 0";
  }
  Buf += '\n';
}

void SlotProofLog::onDeriveParity(std::span<const sat::Lit> Lits,
                                  std::span<const uint32_t> Rows) {
  Buf += 'g';
  appendLits(Lits);
  for (uint32_t R : Rows)
    appendInt(Buf, R);
  Buf += " 0\n";
}

void SlotProofLog::onRetire(uint64_t Serial) {
  Buf += "d ";
  Buf += std::to_string(Serial);
  Buf += '\n';
}

void SlotProofLog::logConclusion(std::span<const sat::Lit> Core,
                                 std::span<const sat::Lit> Cube,
                                 std::span<const int64_t> Hints) {
  Buf += 'q';
  appendLits(Core);
  appendLits(Cube);
  if (!Hints.empty()) {
    for (int64_t H : Hints)
      appendInt(Buf, H);
    Buf += " 0";
  }
  Buf += '\n';
}

std::string veriqec::proof::buildProofHeader(const smt::VerificationProblem &P,
                                             std::span<const sat::Lit> Bound) {
  std::string Out = "p veriqec proof 1\nv ";
  Out += std::to_string(P.Cnf.NumVars);
  Out += '\n';
  for (const std::vector<sat::Lit> &C : P.Cnf.Clauses) {
    Out += 'o';
    for (sat::Lit L : C)
      appendDimacs(Out, L);
    Out += " 0\n";
  }
  for (sat::Lit L : Bound) {
    Out += 'b';
    appendDimacs(Out, L);
    Out += " 0\n";
  }
  for (const auto &[Vars, Rhs] : P.XorRows) {
    Out += 'x';
    Out += Rhs ? " 1" : " 0";
    for (sat::Var V : Vars) {
      Out += ' ';
      Out += std::to_string(V + 1);
    }
    Out += " 0\n";
  }
  appendReplayRecords(Out, P);
  return Out;
}

std::string veriqec::proof::buildTrivialProof(
    const smt::VerificationProblem &P) {
  std::string Out = "p veriqec proof 1\nv 0\n";
  appendReplayRecords(Out, P);
  Out += "t\n";
  return Out;
}

std::string veriqec::proof::assembleProof(std::string Header,
                                          std::span<const std::string> Streams,
                                          const engine::CubeTree *Trailer) {
  obs::TraceSpan Span("proof_assemble", {{"streams", Streams.size()}});
  size_t Slot = 0;
  for (const std::string &S : Streams) {
    size_t Idx = Slot++;
    if (S.empty())
      continue;
    Header += "s ";
    Header += std::to_string(Idx);
    Header += '\n';
    Header += S;
  }
  if (!Trailer || Trailer->numNodes() == Trailer->numLeaves())
    return Header; // no internal node
  Header += "r\n";
  Trailer->forEachInternalPostOrder([&](std::span<const sat::Lit> Path) {
    Header += 'a';
    for (sat::Lit L : Path)
      appendDimacs(Header, ~L);
    Header += " 0\n";
  });
  return Header;
}
