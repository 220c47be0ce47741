//===- qec/StabilizerCode.cpp - Stabilizer code representation ------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "qec/StabilizerCode.h"

#include "smt/BoolExpr.h"
#include "smt/CubeSolver.h"
#include "support/Assert.h"

using namespace veriqec;

namespace {

/// Symplectic row of a Pauli: [x bits | z bits].
BitVector symplecticRow(const Pauli &P) {
  size_t N = P.numQubits();
  BitVector Row(2 * N);
  for (size_t Q = P.xBits().findFirst(); Q < N; Q = P.xBits().findNext(Q + 1))
    Row.set(Q);
  for (size_t Q = P.zBits().findFirst(); Q < N; Q = P.zBits().findNext(Q + 1))
    Row.set(N + Q);
  return Row;
}

/// Pauli (with + sign) from a symplectic row.
Pauli pauliFromRow(const BitVector &Row) {
  size_t N = Row.size() / 2;
  Pauli P(N);
  for (size_t Q = 0; Q != N; ++Q) {
    bool X = Row.get(Q), Z = Row.get(N + Q);
    if (X && Z)
      P.setKind(Q, PauliKind::Y);
    else if (X)
      P.setKind(Q, PauliKind::X);
    else if (Z)
      P.setKind(Q, PauliKind::Z);
  }
  return P.abs();
}

/// Swaps the X and Z halves: commuting-with tests become plain GF(2) dot
/// products against swapped rows.
BitVector swapHalves(const BitVector &Row) {
  size_t N = Row.size() / 2;
  BitVector Out(2 * N);
  for (size_t I = Row.findFirst(); I < Row.size(); I = Row.findNext(I + 1))
    Out.set(I < N ? I + N : I - N);
  return Out;
}

bool symplecticProduct(const BitVector &A, const BitVector &B) {
  return A.dotParity(swapHalves(B));
}

/// Incremental GF(2) independence test: the rows kept so far, each
/// reduced against the ones before it and keyed by its lowest set bit (a
/// column no earlier kept row has set). A candidate reduced against them
/// in order is zero iff it lies in their span — the verdict of a full
/// rank() on the grown matrix, at the cost of one pass over the basis.
class EchelonBasis {
public:
  /// Keeps \p Row iff it is independent of every row kept so far.
  bool addIfIndependent(BitVector Row) {
    for (const auto &[Pivot, Kept] : Rows)
      if (Row.get(Pivot))
        Row ^= Kept;
    size_t Pivot = Row.findFirst();
    if (Pivot == Row.size())
      return false;
    Rows.emplace_back(Pivot, std::move(Row));
    return true;
  }

private:
  std::vector<std::pair<size_t, BitVector>> Rows;
};

} // namespace

StabilizerCode StabilizerCode::fromGenerators(std::string Name,
                                              std::vector<Pauli> Generators,
                                              size_t Distance) {
  assert(!Generators.empty() && "a code needs at least one generator");
  StabilizerCode Code;
  Code.Name = std::move(Name);
  Code.NumQubits = Generators.front().numQubits();
  Code.Distance = Distance;

  // Drop dependent generators (keep each one independent of those kept
  // before it).
  EchelonBasis Kept;
  for (Pauli &G : Generators) {
    assert(G.numQubits() == Code.NumQubits && "generator size mismatch");
    assert(G.isHermitian() && "generators must be Hermitian");
    if (Kept.addIfIndependent(symplecticRow(G)))
      Code.Generators.push_back(G.abs());
  }
  assert(Code.Generators.size() <= Code.NumQubits &&
         "too many independent generators");
  Code.NumLogical = Code.NumQubits - Code.Generators.size();
  Code.deriveLogicals();
  return Code;
}

StabilizerCode StabilizerCode::fromCss(std::string Name, const BitMatrix &Hx,
                                       const BitMatrix &Hz, size_t Distance) {
  assert(Hx.numCols() == Hz.numCols() && "check matrices width mismatch");
  size_t N = Hx.numCols();
  std::vector<Pauli> Gens;
  auto addRows = [&](const BitMatrix &H, PauliKind Kind) {
    for (size_t R = 0; R != H.numRows(); ++R) {
      Pauli P(N);
      for (size_t Q = H.row(R).findFirst(); Q < N;
           Q = H.row(R).findNext(Q + 1))
        P.setKind(Q, Kind);
      Gens.push_back(P);
    }
  };
  addRows(Hx, PauliKind::X);
  addRows(Hz, PauliKind::Z);
  return fromGenerators(std::move(Name), std::move(Gens), Distance);
}

bool StabilizerCode::isCss() const {
  for (const Pauli &G : Generators)
    if (G.xBits().any() && G.zBits().any())
      return false;
  return true;
}

BitMatrix StabilizerCode::xCheckMatrix() const {
  BitMatrix H(0, NumQubits);
  for (const Pauli &G : Generators)
    if (G.xBits().any() && G.zBits().none())
      H.appendRow(G.xBits());
  return H;
}

BitMatrix StabilizerCode::zCheckMatrix() const {
  BitMatrix H(0, NumQubits);
  for (const Pauli &G : Generators)
    if (G.zBits().any() && G.xBits().none())
      H.appendRow(G.zBits());
  return H;
}

BitMatrix StabilizerCode::symplecticMatrix() const {
  BitMatrix M(0, 2 * NumQubits);
  for (const Pauli &G : Generators)
    M.appendRow(symplecticRow(G));
  return M;
}

BitVector StabilizerCode::syndromeOf(const Pauli &Error) const {
  BitVector S(Generators.size());
  for (size_t I = 0; I != Generators.size(); ++I)
    if (!Generators[I].commutesWith(Error))
      S.set(I);
  return S;
}

bool StabilizerCode::inStabilizerGroup(const Pauli &P) const {
  return symplecticMatrix().rowSpaceContains(symplecticRow(P));
}

bool StabilizerCode::isLogicalOperator(const Pauli &P) const {
  if (syndromeOf(P).any())
    return false;
  for (size_t I = 0; I != NumLogical; ++I)
    if (!P.commutesWith(LogicalX[I]) || !P.commutesWith(LogicalZ[I]))
      return true;
  return false;
}

void StabilizerCode::deriveLogicals() {
  size_t K = NumLogical;
  LogicalX.clear();
  LogicalZ.clear();
  if (K == 0)
    return;

  // Normalizer: rows v with symplectic product 0 against every generator,
  // i.e. kernel of the generator matrix with swapped halves.
  BitMatrix Swapped(0, 2 * NumQubits);
  for (const Pauli &G : Generators)
    Swapped.appendRow(swapHalves(symplecticRow(G)));
  std::vector<BitVector> Normalizer = Swapped.nullspaceBasis();

  // Quotient by the stabilizer row space: keep vectors independent of the
  // generators and of previously kept vectors.
  EchelonBasis Span;
  for (const Pauli &G : Generators) {
    [[maybe_unused]] bool Independent = Span.addIfIndependent(symplecticRow(G));
    assert(Independent && "generators are dependent");
  }
  std::vector<BitVector> Quotient;
  for (const BitVector &V : Normalizer) {
    if (Span.addIfIndependent(V)) {
      Quotient.push_back(V);
      if (Quotient.size() == 2 * K)
        break;
    }
  }
  assert(Quotient.size() == 2 * K && "quotient dimension mismatch");

  // Symplectic Gram-Schmidt: pair the quotient basis into (X_i, Z_i) with
  // the canonical anticommutation pattern.
  std::vector<BitVector> Pool = std::move(Quotient);
  while (!Pool.empty()) {
    BitVector U = Pool.front();
    Pool.erase(Pool.begin());
    size_t Partner = Pool.size();
    for (size_t I = 0; I != Pool.size(); ++I)
      if (symplecticProduct(U, Pool[I])) {
        Partner = I;
        break;
      }
    assert(Partner != Pool.size() && "non-degenerate form must pair up");
    BitVector V = Pool[Partner];
    Pool.erase(Pool.begin() + Partner);
    for (BitVector &W : Pool) {
      if (symplecticProduct(W, V))
        W ^= U;
      if (symplecticProduct(W, U))
        W ^= V;
    }
    LogicalX.push_back(pauliFromRow(U));
    LogicalZ.push_back(pauliFromRow(V));
  }

  // For CSS codes prefer pure-type logicals: if X_i is pure Z and Z_i is
  // pure X, swap the pair.
  for (size_t I = 0; I != K; ++I) {
    bool XiPureZ = LogicalX[I].xBits().none();
    bool ZiPureX = LogicalZ[I].zBits().none();
    if (XiPureZ && ZiPureX)
      std::swap(LogicalX[I], LogicalZ[I]);
  }
}

std::optional<std::string> StabilizerCode::validate() const {
  if (Generators.size() + NumLogical != NumQubits)
    return "generator count does not match n - k";
  for (size_t I = 0; I != Generators.size(); ++I) {
    if (!Generators[I].isHermitian() || Generators[I].signBit())
      return "generator " + std::to_string(I) + " is not a +1 Hermitian";
    for (size_t J = I + 1; J != Generators.size(); ++J)
      if (!Generators[I].commutesWith(Generators[J]))
        return "generators " + std::to_string(I) + " and " +
               std::to_string(J) + " anticommute";
  }
  if (symplecticMatrix().rank() != Generators.size())
    return "generators are dependent";
  if (LogicalX.size() != NumLogical || LogicalZ.size() != NumLogical)
    return "wrong number of logical operators";
  for (size_t I = 0; I != NumLogical; ++I) {
    for (size_t G = 0; G != Generators.size(); ++G) {
      if (!LogicalX[I].commutesWith(Generators[G]))
        return "logical X" + std::to_string(I) + " anticommutes with g" +
               std::to_string(G);
      if (!LogicalZ[I].commutesWith(Generators[G]))
        return "logical Z" + std::to_string(I) + " anticommutes with g" +
               std::to_string(G);
    }
    for (size_t J = 0; J != NumLogical; ++J) {
      bool ExpectAnti = I == J;
      if (LogicalX[I].commutesWith(LogicalZ[J]) == ExpectAnti)
        return "logical pairing violated at (" + std::to_string(I) + "," +
               std::to_string(J) + ")";
      if (I != J && (!LogicalX[I].commutesWith(LogicalX[J]) ||
                     !LogicalZ[I].commutesWith(LogicalZ[J])))
        return "logicals of equal type must commute";
    }
    if (inStabilizerGroup(LogicalX[I]) || inStabilizerGroup(LogicalZ[I]))
      return "logical operator lies in the stabilizer group";
  }
  return std::nullopt;
}

void StabilizerCode::conjugateBy(GateKind Kind, size_t Q0, size_t Q1) {
  for (Pauli &G : Generators) {
    G.conjugate(Kind, Q0, Q1);
    if (G.signBit())
      G.negate(); // generators are defined up to sign; keep +.
  }
  for (Pauli &L : LogicalX) {
    L.conjugate(Kind, Q0, Q1);
    if (L.signBit())
      L.negate();
  }
  for (Pauli &L : LogicalZ) {
    L.conjugate(Kind, Q0, Q1);
    if (L.signBit())
      L.negate();
  }
}

namespace {

/// Builds "P anticommutes with G" as a parity over the per-qubit error
/// variables Xq/Zq: sum over qubits of (x_q * Gz_q + z_q * Gx_q).
smt::ExprRef commutationParity(smt::BoolContext &Ctx, const Pauli &G,
                               const std::vector<smt::ExprRef> &XVars,
                               const std::vector<smt::ExprRef> &ZVars) {
  std::vector<smt::ExprRef> Terms;
  size_t N = G.numQubits();
  for (size_t Q = 0; Q != N; ++Q) {
    if (G.zBits().get(Q))
      Terms.push_back(XVars[Q]);
    if (G.xBits().get(Q))
      Terms.push_back(ZVars[Q]);
  }
  if (Terms.empty())
    return Ctx.mkFalse();
  return Ctx.mkXor(std::move(Terms));
}

size_t estimateDistanceImpl(const StabilizerCode &Code, size_t MaxWeight,
                            int TypeFilter /* -1 any, 0 X-type, 1 Z-type */) {
  using namespace smt;
  size_t N = Code.NumQubits;
  BoolContext Ctx;
  std::vector<ExprRef> XVars, ZVars, Support;
  for (size_t Q = 0; Q != N; ++Q) {
    XVars.push_back(TypeFilter == 1 ? Ctx.mkFalse()
                                    : Ctx.mkVar("x" + std::to_string(Q)));
    ZVars.push_back(TypeFilter == 0 ? Ctx.mkFalse()
                                    : Ctx.mkVar("z" + std::to_string(Q)));
    Support.push_back(Ctx.mkOr(XVars[Q], ZVars[Q]));
  }

  std::vector<ExprRef> Constraints;
  // Undetectable: commutes with every generator.
  for (const Pauli &G : Code.Generators)
    Constraints.push_back(
        Ctx.mkNot(commutationParity(Ctx, G, XVars, ZVars)));
  // Logical: anticommutes with at least one logical operator.
  std::vector<ExprRef> AntiAny;
  for (size_t I = 0; I != Code.NumLogical; ++I) {
    AntiAny.push_back(commutationParity(Ctx, Code.LogicalX[I], XVars, ZVars));
    AntiAny.push_back(commutationParity(Ctx, Code.LogicalZ[I], XVars, ZVars));
  }
  Constraints.push_back(Ctx.mkOr(std::move(AntiAny)));

  for (size_t W = 1; W <= MaxWeight; ++W) {
    std::vector<ExprRef> All = Constraints;
    All.push_back(Ctx.mkAtMost(Support, static_cast<uint32_t>(W)));
    SolveOutcome Out = solveExpr(Ctx, Ctx.mkAnd(std::move(All)));
    if (Out.Result == sat::SolveResult::Sat)
      return W;
  }
  return 0;
}

} // namespace

size_t veriqec::estimateDistance(const StabilizerCode &Code,
                                 size_t MaxWeight) {
  return estimateDistanceImpl(Code, MaxWeight, -1);
}

size_t veriqec::estimateDistanceOfType(const StabilizerCode &Code, bool XType,
                                       size_t MaxWeight) {
  return estimateDistanceImpl(Code, MaxWeight, XType ? 0 : 1);
}
