//===- proof/ProofLog.cpp - Proof emission --------------------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "proof/ProofLog.h"

#include "obs/Trace.h"

#include <sys/mman.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <new>

using namespace veriqec;
using namespace veriqec::proof;

// -- ProofText ----------------------------------------------------------------

ProofText::Block::Block(size_t Cap) : Cap(Cap) {
  void *P = mmap(nullptr, Cap, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  Data = static_cast<char *>(P);
}

void ProofText::Block::free() {
  if (Data)
    munmap(Data, Cap);
  Data = nullptr;
}

char *ProofText::reserve(size_t Max) {
  if (Blocks.empty() || Blocks.back().Cap - Blocks.back().Used < Max)
    Blocks.emplace_back(std::max(BlockBytes, Max));
  Block &B = Blocks.back();
  return B.Data + B.Used;
}

void ProofText::commit(const char *End) {
  Block &B = Blocks.back();
  size_t N = static_cast<size_t>(End - (B.Data + B.Used));
  B.Used += N;
  Size += N;
}

void ProofText::append(std::string_view Text) {
  while (!Text.empty()) {
    if (Blocks.empty() || Blocks.back().Used == Blocks.back().Cap)
      Blocks.emplace_back(BlockBytes);
    Block &B = Blocks.back();
    size_t N = std::min(Text.size(), B.Cap - B.Used);
    std::memcpy(B.Data + B.Used, Text.data(), N);
    B.Used += N;
    Size += N;
    Text.remove_prefix(N);
  }
}

void ProofText::append(ProofText &&Other) {
  Blocks.insert(Blocks.end(), std::make_move_iterator(Other.Blocks.begin()),
                std::make_move_iterator(Other.Blocks.end()));
  Size += std::exchange(Other.Size, 0);
  Other.Blocks.clear();
}

void ProofText::moveTo(std::string &Out) {
  for (Block &B : Blocks) {
    Out.append(B.Data, B.Used);
    B.free(); // its pages go now, not when the text dies
  }
  Blocks.clear();
  Size = 0;
}

std::string ProofText::take() {
  std::string Out;
  Out.reserve(Size);
  moveTo(Out);
  return Out;
}

// -- Record formatting --------------------------------------------------------

namespace {

/// The widest integer field: a space, a sign and 19 digits.
constexpr size_t FieldBytes = 21;

/// The one integer writer of the producer: formats a record straight into
/// its ProofText, in room reserved up front for \p Fields integer fields
/// (a list's closing 0 counts as one) plus the tag and the newline.
class RecordWriter {
public:
  RecordWriter(ProofText &Text, std::string_view Tag, size_t Fields)
      : Text(Text), P(Text.reserve(Tag.size() + Fields * FieldBytes + 1)) {
    put(Tag);
  }

  template <class Int>
  RecordWriter &num(Int V) {
    *P++ = ' ';
    P = std::to_chars(P, P + FieldBytes - 1, V).ptr;
    return *this;
  }
  RecordWriter &lit(sat::Lit L) {
    return num(L.negated() ? -(L.var() + 1) : L.var() + 1);
  }
  /// A literal list with its closing 0.
  RecordWriter &lits(std::span<const sat::Lit> Lits) {
    for (sat::Lit L : Lits)
      lit(L);
    return zero();
  }
  /// An integer list with its closing 0.
  template <class Int>
  RecordWriter &nums(std::span<const Int> Nums) {
    for (Int V : Nums)
      num(V);
    return zero();
  }
  RecordWriter &zero() { return put(" 0"); }
  void end() {
    *P++ = '\n';
    Text.commit(P);
  }

private:
  RecordWriter &put(std::string_view S) {
    std::memcpy(P, S.data(), S.size());
    P += S.size();
    return *this;
  }

  ProofText &Text;
  char *P;
};

/// `<tag> <rhs> <var+1>.. 0`: one parity row over 0-based variables.
template <class VarT>
void writeRow(ProofText &Out, std::string_view Tag, bool Rhs,
              std::span<const VarT> Vars) {
  RecordWriter W(Out, Tag, Vars.size() + 2);
  W.num(int{Rhs});
  for (VarT V : Vars)
    W.num(V + 1);
  W.zero().end();
}

void writeReplayRecords(ProofText &Out, const smt::VerificationProblem &P) {
  for (const smt::ParityRow &R : P.OriginalRows)
    writeRow<uint32_t>(Out, "pr", R.Rhs, R.Vars);
  for (const smt::ParityRow &R : P.keptRows())
    writeRow<uint32_t>(Out, "pk", R.Rhs, R.Vars);
  for (const smt::VarReconstruction &E : P.reconstructions()) {
    RecordWriter W(Out, "pe", E.Deps.size() + 3);
    W.num(E.VarId + 1).num(int{E.Constant});
    for (uint32_t D : E.Deps)
      W.num(D + 1);
    W.zero().end();
  }
}

} // namespace

void SlotProofLog::onDerive(std::span<const sat::Lit> Lits,
                            std::span<const int64_t> Hints) {
  RecordWriter W(Text, "a", Lits.size() + Hints.size() + 2);
  W.lits(Lits);
  if (!Hints.empty())
    W.nums(Hints);
  W.end();
}

void SlotProofLog::onDeriveParity(std::span<const sat::Lit> Lits,
                                  std::span<const uint32_t> Rows) {
  RecordWriter(Text, "g", Lits.size() + Rows.size() + 2)
      .lits(Lits)
      .nums(Rows)
      .end();
}

void SlotProofLog::onRetire(uint64_t Serial) {
  RecordWriter(Text, "d", 1).num(Serial).end();
}

void SlotProofLog::logConclusion(std::span<const sat::Lit> Core,
                                 std::span<const sat::Lit> Cube,
                                 std::span<const int64_t> Hints) {
  RecordWriter W(Text, "q", Core.size() + Cube.size() + Hints.size() + 3);
  W.lits(Core).lits(Cube);
  if (!Hints.empty())
    W.nums(Hints);
  W.end();
}

ProofText veriqec::proof::buildProofHeader(const smt::VerificationProblem &P,
                                           std::span<const sat::Lit> Bound) {
  ProofText Out("p veriqec proof 1\n");
  RecordWriter(Out, "v", 1).num(P.Cnf.NumVars).end();
  for (const std::vector<sat::Lit> &C : P.Cnf.Clauses)
    RecordWriter(Out, "o", C.size() + 1).lits(C).end();
  for (std::span<const sat::Lit> Units : {std::span(P.RootUnits), Bound})
    for (sat::Lit L : Units)
      RecordWriter(Out, "b", 2).lit(L).zero().end();
  for (const auto &[Vars, Rhs] : P.XorRows)
    writeRow<sat::Var>(Out, "x", Rhs, Vars);
  writeReplayRecords(Out, P);
  return Out;
}

std::string veriqec::proof::buildTrivialProof(
    const smt::VerificationProblem &P) {
  ProofText Out("p veriqec proof 1\nv 0\n");
  writeReplayRecords(Out, P);
  Out.append("t\n");
  return Out.take();
}

std::string veriqec::proof::assembleProof(ProofText Header,
                                          std::span<ProofText> Streams,
                                          const engine::CubeTree &Tree) {
  obs::TraceSpan Span("proof_assemble", {{"streams", Streams.size()}});
  ProofText Tail;
  if (Tree.numNodes() != Tree.numLeaves()) {
    Tail.append("r\n");
    Tree.forEachInternalPostOrder([&](std::span<const sat::Lit> Path) {
      RecordWriter W(Tail, "a", Path.size() + 1);
      for (sat::Lit L : Path)
        W.lit(~L);
      W.zero().end();
    });
  }
  auto Opening = [](size_t Slot) { return "s " + std::to_string(Slot) + '\n'; };
  size_t Bytes = Header.size() + Tail.size();
  for (size_t S = 0; S != Streams.size(); ++S)
    if (!Streams[S].empty())
      Bytes += Opening(S).size() + Streams[S].size();
  std::string Out;
  Out.reserve(Bytes);
  Header.moveTo(Out);
  for (size_t S = 0; S != Streams.size(); ++S) {
    if (Streams[S].empty())
      continue;
    Out += Opening(S);
    Streams[S].moveTo(Out);
  }
  Tail.moveTo(Out);
  return Out;
}
