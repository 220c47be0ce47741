//===- smt/CnfEncoder.cpp - Tseitin CNF encoding ---------------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "smt/CnfEncoder.h"

#include "support/Assert.h"

#include <algorithm>

using namespace veriqec;
using namespace veriqec::smt;
using sat::Lit;
using sat::Var;

Lit CnfEncoder::trueLit() {
  if (CachedTrue.isUndef()) {
    Var V = Out.newVar();
    CachedTrue = sat::mkLit(V);
    Out.add({CachedTrue});
  }
  return CachedTrue;
}

Var CnfEncoder::satVarOf(uint32_t BoolVarId) {
  auto It = Out.VarOfBoolVar.find(BoolVarId);
  if (It != Out.VarOfBoolVar.end())
    return It->second;
  Var V = Out.newVar();
  Out.VarOfBoolVar.emplace(BoolVarId, V);
  return V;
}

Lit CnfEncoder::mkAndLits(const std::vector<Lit> &Lits) {
  assert(!Lits.empty());
  if (Lits.size() == 1)
    return Lits[0];
  Lit Y = sat::mkLit(Out.newVar());
  std::vector<Lit> Long{Y};
  for (Lit L : Lits) {
    Out.add({~Y, L});
    Long.push_back(~L);
  }
  Out.add(std::move(Long));
  return Y;
}

Lit CnfEncoder::mkOrLits(const std::vector<Lit> &Lits) {
  assert(!Lits.empty());
  if (Lits.size() == 1)
    return Lits[0];
  Lit Y = sat::mkLit(Out.newVar());
  std::vector<Lit> Long{~Y};
  for (Lit L : Lits) {
    Out.add({Y, ~L});
    Long.push_back(L);
  }
  Out.add(std::move(Long));
  return Y;
}

Lit CnfEncoder::mkXorLits(Lit A, Lit B) {
  Lit Y = sat::mkLit(Out.newVar());
  Out.add({~Y, A, B});
  Out.add({~Y, ~A, ~B});
  Out.add({Y, ~A, B});
  Out.add({Y, A, ~B});
  return Y;
}

Lit CnfEncoder::parityLit(const std::vector<Lit> &Lits, size_t Begin,
                          size_t End) {
  if (End - Begin == 1)
    return Lits[Begin];
  size_t Mid = Begin + (End - Begin) / 2;
  return mkXorLits(parityLit(Lits, Begin, Mid), parityLit(Lits, Mid, End));
}

void CnfEncoder::assertParity(const std::vector<Lit> &Lits, bool Odd) {
  size_t N = Lits.size();
  if (N == 0) {
    if (Odd)
      Out.add({}); // 0 == 1: unsatisfiable
    return;
  }
  if (N == 1) {
    Out.add({Odd ? Lits[0] : ~Lits[0]});
    return;
  }
  if (N == 3) {
    // Direct aux-free ternary parity; flipping one literal flips parity.
    Lit A = Odd ? Lits[0] : ~Lits[0], B = Lits[1], C = Lits[2];
    Out.add({A, B, C});
    Out.add({A, ~B, ~C});
    Out.add({~A, B, ~C});
    Out.add({~A, ~B, C});
    return;
  }
  // Balanced split; equating the two halves' parity literals with two
  // binary clauses saves the topmost auxiliary variable.
  Lit A = parityLit(Lits, 0, N / 2);
  Lit B = parityLit(Lits, N / 2, N);
  if (Odd) {
    Out.add({A, B});
    Out.add({~A, ~B});
  } else {
    Out.add({A, ~B});
    Out.add({~A, B});
  }
}

const std::vector<Lit> &
CnfEncoder::unaryCounter(const std::vector<Lit> &Inputs, size_t MaxJ) {
  MaxJ = std::min(MaxJ, Inputs.size());
  std::vector<int32_t> Key;
  Key.reserve(Inputs.size());
  for (Lit L : Inputs)
    Key.push_back(L.Code);

  // Registers: Cols[i][j-1] <=> (first i+1 inputs have >= j ones). The
  // whole register bank is cached, and a deeper request EXTENDS it in
  // place — row j only reads rows j and j-1 of the previous column —
  // so request order never matters and nothing is re-encoded. Counters
  // are built only to the deepest depth ever requested: a truncated
  // counter is O(n*MaxJ) registers, and the weight-budget caps keep
  // MaxJ tiny on the verification hot path.
  std::vector<std::vector<Lit>> &Cols = CounterCache[Key];
  size_t Have = Cols.empty() ? 0 : Cols.back().size();
  if (!Cols.empty() && Have >= MaxJ)
    return Cols.back();
  Cols.resize(Inputs.size());

  Lit True = trueLit();
  Lit False = ~True;
  for (size_t I = 0; I != Inputs.size(); ++I) {
    std::vector<Lit> &Cur = Cols[I];
    Lit X = Inputs[I];
    size_t Cap = std::min(MaxJ, I + 1);
    for (size_t J = Cur.size() + 1; J <= Cap; ++J) {
      // Prev = Cols[I-1]: counts over the first I inputs (J <= I + 1,
      // so row J-1 of it exists whenever J >= 2).
      Lit PrevJ = (I > 0 && J <= I) ? Cols[I - 1][J - 1] : False;
      Lit PrevJm1 = (J == 1) ? True : Cols[I - 1][J - 2];
      // Cur[j] <=> PrevJ | (x_i & PrevJm1): an alias where a constant
      // decides it, else one register variable with the (up to) four
      // clauses of its equivalence (Sinz, CP'05).
      if (PrevJm1 == False) {
        Cur.push_back(PrevJ);
        continue;
      }
      if (PrevJ == False && PrevJm1 == True) {
        Cur.push_back(X);
        continue;
      }
      Lit R = sat::mkLit(Out.newVar());
      // Upward: PrevJ -> R and x_i & PrevJm1 -> R.
      if (PrevJ != False)
        Out.add({~PrevJ, R});
      if (PrevJm1 == True)
        Out.add({~X, R});
      else
        Out.add({~X, ~PrevJm1, R});
      // Downward: R -> PrevJ | x_i and R -> PrevJ | PrevJm1.
      if (PrevJ == False) {
        Out.add({~R, X});
        Out.add({~R, PrevJm1});
      } else {
        Out.add({~R, PrevJ, X});
        if (PrevJm1 != True)
          Out.add({~R, PrevJ, PrevJm1});
      }
      Cur.push_back(R);
    }
  }
  return Cols.back();
}

Lit CnfEncoder::encodeCardinalityGE(const std::vector<Lit> &Inputs,
                                    uint32_t K) {
  if (K == 0)
    return trueLit();
  if (K > Inputs.size())
    return ~trueLit();

  if (CardEnc == CardinalityEncoding::PairwiseNaive) {
    // sum >= K  <=>  OR over all K-subsets of (AND of the subset).
    // Exponential; used only in the ablation benchmark for tiny K.
    std::vector<Lit> Disjuncts;
    std::vector<size_t> Idx(K);
    for (size_t I = 0; I != K; ++I)
      Idx[I] = I;
    while (true) {
      std::vector<Lit> Conj;
      for (size_t I : Idx)
        Conj.push_back(Inputs[I]);
      Disjuncts.push_back(mkAndLits(Conj));
      // Next combination.
      size_t P = K;
      while (P > 0 && Idx[P - 1] == Inputs.size() - (K - P) - 1)
        --P;
      if (P == 0)
        break;
      ++Idx[P - 1];
      for (size_t I = P; I != K; ++I)
        Idx[I] = Idx[I - 1] + 1;
    }
    return mkOrLits(Disjuncts);
  }

  const std::vector<Lit> &Counter = unaryCounter(Inputs, K);
  return Counter[K - 1];
}

Lit CnfEncoder::encode(ExprRef R) {
  auto It = Memo.find(R);
  if (It != Memo.end())
    return It->second;

  const BoolNode &N = Ctx.node(R);
  Lit Result;
  switch (N.Kind) {
  case BoolKind::Const:
    Result = N.ConstVal ? trueLit() : ~trueLit();
    break;
  case BoolKind::Var: {
    auto AIt = Alias.find(N.VarId);
    if (AIt == Alias.end()) {
      Result = sat::mkLit(satVarOf(N.VarId));
    } else {
      Result = sat::mkLit(satVarOf(AIt->second.first));
      if (AIt->second.second)
        Result = ~Result;
    }
    break;
  }
  case BoolKind::Not:
    Result = ~encode(N.Kids[0]);
    break;
  case BoolKind::And: {
    std::vector<Lit> Lits;
    Lits.reserve(N.Kids.size());
    for (ExprRef K : N.Kids)
      Lits.push_back(encode(K));
    Result = mkAndLits(Lits);
    break;
  }
  case BoolKind::Or: {
    std::vector<Lit> Lits;
    Lits.reserve(N.Kids.size());
    for (ExprRef K : N.Kids)
      Lits.push_back(encode(K));
    Result = mkOrLits(Lits);
    break;
  }
  case BoolKind::Xor: {
    Lit Acc = encode(N.Kids[0]);
    for (size_t I = 1; I != N.Kids.size(); ++I)
      Acc = mkXorLits(Acc, encode(N.Kids[I]));
    Result = Acc;
    break;
  }
  case BoolKind::AtMost: {
    std::vector<Lit> Lits;
    for (ExprRef K : N.Kids)
      Lits.push_back(encode(K));
    Result = ~encodeCardinalityGE(Lits, N.K + 1);
    break;
  }
  case BoolKind::AtLeast: {
    std::vector<Lit> Lits;
    for (ExprRef K : N.Kids)
      Lits.push_back(encode(K));
    Result = encodeCardinalityGE(Lits, N.K);
    break;
  }
  case BoolKind::SumLeqSum: {
    std::vector<Lit> A, B;
    for (size_t I = 0; I != N.K; ++I)
      A.push_back(encode(N.Kids[I]));
    for (size_t I = N.K; I != N.Kids.size(); ++I)
      B.push_back(encode(N.Kids[I]));
    // sum(A) <= sum(B)  <=>  for every threshold j: sum(A) >= j implies
    // sum(B) >= j. When the right-hand side consists solely of budget
    // terms whose sum is pinned below CounterCap (setBudgetTruncation),
    // thresholds above the cap are implied by the threshold-Cap
    // implication (it forces sum(A) < Cap) and are not encoded — this
    // keeps the counters shallow.
    size_t Depth = A.size();
    if (CounterCap) {
      // Truncation is valid only when sum(RHS) provably stays below the
      // cap: every RHS term must be a budget term AND distinct — a
      // repeated term is counted with multiplicity by the sum, so a
      // duplicate could push sum(RHS) past the budget bound.
      std::unordered_set<ExprRef> SeenRhs;
      bool RhsIsBudget = true;
      for (size_t I = N.K; I != N.Kids.size(); ++I)
        if (!BudgetSet.count(N.Kids[I]) ||
            !SeenRhs.insert(N.Kids[I]).second) {
          RhsIsBudget = false;
          break;
        }
      if (RhsIsBudget)
        Depth = std::min(Depth, CounterCap);
    }
    const std::vector<Lit> &CA = unaryCounter(A, Depth);
    std::vector<Lit> Imps;
    for (size_t J = 1; J <= Depth; ++J) {
      Lit GeA = CA[J - 1];
      Lit GeB;
      if (J > B.size())
        GeB = ~trueLit();
      else
        GeB = unaryCounter(B, std::min(B.size(), Depth))[J - 1];
      Imps.push_back(mkOrLits({~GeA, GeB}));
    }
    Result = mkAndLits(Imps);
    break;
  }
  }
  Memo.emplace(R, Result);
  return Result;
}
