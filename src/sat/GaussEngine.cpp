//===- sat/GaussEngine.cpp - Gauss-in-the-loop XOR reasoning --------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "sat/GaussEngine.h"

#include "gf2/BitMatrix.h"
#include "obs/Trace.h"
#include "sat/Solver.h"
#include "support/Assert.h"
#include "support/BitVector.h"

#include <algorithm>
#include <bit>

using namespace veriqec;
using namespace veriqec::sat;

void GaussEngine::addRow(std::vector<Var> Vars, bool Rhs, uint32_t Id) {
  Original.push_back({std::move(Vars), Rhs, Id});
  Dirty = true;
}

bool GaussEngine::finalize() {
  Dirty = false;

  // Column space: every variable any registered row mentions.
  Var MaxVar = -1;
  for (const OriginalRow &R : Original)
    for (Var V : R.Vars)
      MaxVar = std::max(MaxVar, V);
  ColOfVar.assign(static_cast<size_t>(MaxVar) + 1, -1);
  VarOfCol.clear();
  for (const OriginalRow &R : Original)
    for (Var V : R.Vars)
      if (ColOfVar[V] < 0) {
        ColOfVar[V] = static_cast<int32_t>(VarOfCol.size());
        VarOfCol.push_back(V);
      }
  size_t NC = VarOfCol.size();

  // The basis keeps the rows AS REGISTERED — sparse. A one-time full
  // reduction would be tempting (echelon rows expose more single-row
  // units), but reduced rows are globally entangled: every assignment
  // would then touch half the matrix through the occurrence lists, and
  // every reason clause would carry the dense row's whole assigned
  // support. That densification is exactly the structure this engine
  // exists to avoid; cross-row strength comes from the on-demand
  // eliminations of deepCheck() instead, whose dense rows are transient
  // scratch. The basis never mutates, so backtracking needs no matrix
  // undo at all — only the trail mirrors roll back.
  std::vector<BitVector> Dense;
  for (const OriginalRow &R : Original) {
    BitVector Row(NC + 1);
    for (Var V : R.Vars)
      Row.flip(static_cast<size_t>(ColOfVar[V]));
    if (R.Rhs)
      Row.flip(NC);
    Dense.push_back(std::move(Row));
  }
  RowBegin.assign(1, 0);
  RowCols.clear();
  RowRhs.clear();
  RowsOfCol.assign(NC, {});
  Unknowns.clear();
  PendingRows.clear();
  for (const BitVector &Row : Dense) {
    uint32_t R = static_cast<uint32_t>(RowRhs.size());
    for (size_t C = Row.findFirst(); C < NC; C = Row.findNext(C + 1)) {
      RowCols.push_back(static_cast<uint32_t>(C));
      RowsOfCol[C].push_back(R);
    }
    RowBegin.push_back(static_cast<uint32_t>(RowCols.size()));
    RowRhs.push_back(Row.get(NC));
    Unknowns.push_back(RowBegin[R + 1] - RowBegin[R]);
    if (Unknowns[R] <= 1)
      PendingRows.push_back(R);
  }

  // Consistency verdict on a scratch elimination: a pivot landing in
  // the right-hand-side column is the contradiction 0 == 1.
  {
    BitMatrix M = BitMatrix::fromRows(std::move(Dense));
    std::vector<size_t> Pivots = M.rowReduce();
    if (!Pivots.empty() && Pivots.back() == NC)
      return false;
  }

  RowWords = (NC + 63) / 64;
  ColFree.assign(RowWords, 0);
  for (size_t C = 0; C != NC; ++C)
    ColFree[C / 64] |= uint64_t{1} << (C % 64);
  ColTrue.assign(RowWords, 0);
  FreeSlot.assign(NC, 0);
  Applied.clear();
  TrailSeen = 0;
  AppliedSinceDeep = 0;
  return true;
}

void GaussEngine::syncTrail(Solver &S) {
  while (TrailSeen < S.Trail.size()) {
    Lit L = S.Trail[TrailSeen];
    Var V = L.var();
    if (static_cast<size_t>(V) < ColOfVar.size() && ColOfVar[V] >= 0) {
      uint32_t Col = static_cast<uint32_t>(ColOfVar[V]);
      Applied.push_back({static_cast<uint32_t>(TrailSeen), Col});
      ++AppliedSinceDeep;
      ColFree[Col / 64] &= ~(uint64_t{1} << (Col % 64));
      ColTrue[Col / 64] |= uint64_t{!L.negated()} << (Col % 64);
      for (uint32_t R : RowsOfCol[Col]) {
        --Unknowns[R];
        if (Unknowns[R] <= 1)
          PendingRows.push_back(R);
      }
    }
    ++TrailSeen;
  }
}

void GaussEngine::onBacktrack(size_t NewTrailSize) {
  while (!Applied.empty() && Applied.back().TrailPos >= NewTrailSize) {
    const AppliedEntry &E = Applied.back();
    ColFree[E.Col / 64] |= uint64_t{1} << (E.Col % 64);
    ColTrue[E.Col / 64] &= ~(uint64_t{1} << (E.Col % 64));
    for (uint32_t R : RowsOfCol[E.Col])
      ++Unknowns[R];
    Applied.pop_back();
  }
  // PendingRows deliberately survives: a stale entry re-derives its row's
  // status live and no-ops if the row regained unknowns, while an entry
  // queued just before a conflict return must not be lost.
  TrailSeen = std::min(TrailSeen, NewTrailSize);
}

int32_t GaussEngine::processRow(Solver &S, std::span<const uint32_t> Cols,
                                bool Rhs, std::span<const uint32_t> Rows) {
  uint32_t UnknownCol = 0;
  bool Parity = Rhs;
  size_t NumUnknown = 0;
  for (uint32_t C : Cols) {
    LBool A = S.varValue(VarOfCol[C]);
    if (A == LBool::Undef) {
      if (++NumUnknown > 1)
        return Solver::NoReason; // nothing to learn from this row yet
      UnknownCol = C;
    } else {
      Parity ^= A == LBool::True;
    }
  }
  if (NumUnknown > 1 || (NumUnknown == 0 && !Parity))
    return Solver::NoReason;

  // The reason/conflict clause: the implied literal (if any) plus the
  // negation of every assigned variable's current value. Root facts are
  // permanent in this solver, so level-0 dependencies are dropped.
  std::vector<Lit> &Lits = ReasonLits;
  Lits.clear();
  if (NumUnknown == 1)
    Lits.push_back(Lit(VarOfCol[UnknownCol], !Parity));
  for (uint32_t C : Cols) {
    if (NumUnknown == 1 && C == UnknownCol)
      continue;
    Var V = VarOfCol[C];
    if (S.Level[V] > 0)
      Lits.push_back(Lit(V, S.varValue(V) == LBool::True));
  }

  if (NumUnknown == 0) {
    ++S.Stats.XorConflicts;
    if (S.corruptXorReasonClause() && Lits.size() > 1)
      Lits.pop_back(); // planted-bug seam: an under-justified conflict
    return S.materializeXorClause(Lits, Rows);
  }

  ++S.Stats.XorPropagations;
  Lit Implied = Lits.front();
  if (S.decisionLevel() == 0) {
    // Root facts need no justification: analysis skips level 0. A proof
    // checker does need one, though — at the root every dependency sits
    // at level 0, so Lits is exactly the unit {Implied}, logged with the
    // rows that imply it.
    if (S.ProofSink) {
      S.ProofSink->onDeriveParity(Lits, Rows);
      ++S.DeriveCount;
    }
    S.enqueue(Implied, Solver::NoReason);
    return Solver::NoReason;
  }
  // Above the root EVERY implication carries a reason clause — even a
  // dependency-free one (all deps at level 0) gets its unit clause.
  // Enqueueing with NoReason instead would plant a pseudo-decision in
  // the middle of a trail segment, which first-UIP resolution cannot
  // expand.
  if (S.corruptXorReasonClause() && Lits.size() > 2)
    Lits.pop_back(); // planted-bug seam: an under-justified reason
  S.enqueue(Implied, S.materializeXorClause(Lits, Rows));
  return Solver::NoReason;
}

namespace {

/// Calls \p F(I) for every set bit I of the \p N words at \p Words,
/// ascending.
template <typename Fn>
void forEachBit(const uint64_t *Words, size_t N, Fn F) {
  for (size_t W = 0; W != N; ++W)
    for (uint64_t M = Words[W]; M; M &= M - 1)
      F(W * 64 + static_cast<size_t>(std::countr_zero(M)));
}

} // namespace

int32_t GaussEngine::deepCheck(Solver &S) {
  obs::TraceSpan Span("gauss_elim");
  AppliedSinceDeep = 0;
  const size_t NC = VarOfCol.size();
  const size_t RW = RowWords;

  // The residual system: the rows that still have >= 2 unknowns.
  size_t NumElim = 0;
  for (uint32_t U : Unknowns)
    NumElim += U >= 2;
  Span.arg("rows", NumElim);
  if (NumElim < 2)
    return Solver::NoReason;
  ++S.Stats.XorEliminations;

  // The live assignment as column masks: the mirror is in step with the
  // trail here (propagate() just synced it), and nothing is assigned
  // until the inspect pass below, which keeps the copies in step.
  // Unassigned columns get occurrence slots from 1; slot 0 is a sink for
  // the assigned ones, so the occurrence build below needs no branch.
  assert(TrailSeen == S.Trail.size() && "column mirror out of step");
  FreeMask = ColFree;
  TrueMask = ColTrue;
  std::fill(FreeSlot.begin(), FreeSlot.end(), 0);
  uint32_t NumSlots = 1;
  forEachBit(FreeMask.data(), RW, [&](size_t C) { FreeSlot[C] = NumSlots++; });

  // Dense copies of the residual rows, and per unassigned column the
  // bitset of residual rows holding it. Rows keep their full width, so a
  // combined row's assigned support — the reason for whatever it
  // implies — comes out for free.
  const size_t OW = (NumElim + 63) / 64;
  Elim.assign(NumElim * RW, 0);
  ElimRows.resize(NumElim);
  Occ.assign(size_t{NumSlots} * OW, 0);
  Targets.resize(OW);
  // With a proof sink, each residual row also records which registered
  // rows it sums (PW words), XORed beside every row operation below.
  const size_t PW = S.ProofSink ? (Unknowns.size() + 63) / 64 : 0;
  Prov.assign(NumElim * PW, 0);
  for (size_t R = 0, K = 0; R != Unknowns.size(); ++R) {
    if (Unknowns[R] < 2)
      continue;
    uint64_t *Row = &Elim[K * RW];
    uint64_t KBit = uint64_t{1} << (K % 64);
    if (PW)
      Prov[K * PW + R / 64] |= uint64_t{1} << (R % 64);
    for (uint32_t I = RowBegin[R]; I != RowBegin[R + 1]; ++I) {
      uint32_t C = RowCols[I];
      Row[C / 64] |= uint64_t{1} << (C % 64);
      Occ[FreeSlot[C] * OW + K / 64] |= KBit;
    }
    ElimRows[K] = {RowCols[RowBegin[R]] / 64,
                   RowCols[RowBegin[R + 1] - 1] / 64 + 1, RowRhs[R] != 0};
    ++K;
  }

  // Forward elimination, pivoting only on unassigned columns: row I's
  // pivot is its first unassigned column P, and every later row holding
  // P — read off P's occurrence bitset — absorbs row I. Those rows then
  // flip their membership in the occurrence bitset of each other
  // unassigned column of row I (P's own bitset is never read again).
  for (size_t I = 0; I != NumElim; ++I) {
    const uint64_t *Pivot = &Elim[I * RW];
    const ElimRow PivotRow = ElimRows[I];
    size_t P = NC;
    for (size_t W = PivotRow.Lo; W != PivotRow.Hi; ++W)
      if (uint64_t M = Pivot[W] & FreeMask[W]) {
        P = W * 64 + static_cast<size_t>(std::countr_zero(M));
        break;
      }
    if (P == NC)
      continue; // fully assigned combination; judged below
    const uint64_t *OccP = &Occ[FreeSlot[P] * OW];
    const size_t First = I / 64;
    std::copy(OccP + First, OccP + OW, &Targets[First]);
    Targets[First] &= (~uint64_t{0} << (I % 64)) << 1; // rows J > I only
    uint64_t Any = 0;
    for (size_t W = First; W != OW; ++W)
      Any |= Targets[W];
    if (!Any)
      continue;
    forEachBit(&Targets[First], OW - First, [&](size_t J) {
      J += First * 64;
      uint64_t *Row = &Elim[J * RW];
      for (size_t W = PivotRow.Lo; W != PivotRow.Hi; ++W)
        Row[W] ^= Pivot[W];
      ElimRow &E = ElimRows[J];
      E.Lo = std::min(E.Lo, PivotRow.Lo);
      E.Hi = std::max(E.Hi, PivotRow.Hi);
      E.Rhs ^= PivotRow.Rhs;
      for (size_t W = 0; W != PW; ++W)
        Prov[J * PW + W] ^= Prov[I * PW + W];
    });
    for (size_t W = PivotRow.Lo; W != PivotRow.Hi; ++W)
      for (uint64_t M = Pivot[W] & FreeMask[W]; M; M &= M - 1) {
        size_t C = W * 64 + static_cast<size_t>(std::countr_zero(M));
        if (C == P)
          continue;
        uint64_t *OccC = &Occ[FreeSlot[C] * OW];
        for (size_t X = First; X != OW; ++X)
          OccC[X] ^= Targets[X];
      }
  }

  // Inspect every eliminated row live: implied units enqueue right here,
  // a violated combination returns its conflict. A row with two
  // unassigned columns, or a fully assigned one of even parity, has
  // nothing to say and is skipped on its masks; the rest go through
  // processRow(). An implied column leaves FreeMask (and joins TrueMask
  // if true) before the next row, so the masks stay equal to the trail;
  // being its row's pivot, it is held by no later row.
  size_t Before = S.Trail.size();
  for (size_t I = 0; I != NumElim; ++I) {
    const uint64_t *Row = &Elim[I * RW];
    const ElimRow E = ElimRows[I];
    size_t NumUnknown = 0, UnknownCol = NC;
    uint64_t Parity = E.Rhs;
    for (size_t W = E.Lo; W != E.Hi && NumUnknown < 2; ++W) {
      if (uint64_t M = Row[W] & FreeMask[W]) {
        NumUnknown += (M & (M - 1)) ? 2 : 1;
        UnknownCol = W * 64 + static_cast<size_t>(std::countr_zero(M));
      }
      Parity ^= Row[W] & TrueMask[W];
    }
    if (NumUnknown >= 2 || (NumUnknown == 0 && !(std::popcount(Parity) & 1)))
      continue;
    ComboCols.clear();
    forEachBit(Row + E.Lo, E.Hi - E.Lo, [&](size_t C) {
      ComboCols.push_back(static_cast<uint32_t>(E.Lo * 64 + C));
    });
    ComboRows.clear();
    forEachBit(Prov.data() + I * PW, PW,
               [&](size_t R) { ComboRows.push_back(Original[R].Id); });
    int32_t Confl = processRow(S, ComboCols, E.Rhs, ComboRows);
    if (Confl != Solver::NoReason) {
      DeepInterval = MinDeepInterval;
      return Confl;
    }
    if (NumUnknown == 1) {
      uint64_t Bit = uint64_t{1} << (UnknownCol % 64);
      FreeMask[UnknownCol / 64] &= ~Bit;
      if (S.varValue(VarOfCol[UnknownCol]) == LBool::True)
        TrueMask[UnknownCol / 64] |= Bit;
    }
  }
  DeepInterval = S.Trail.size() != Before
                     ? MinDeepInterval
                     : std::min(DeepInterval * 2, MaxDeepInterval);
  return Solver::NoReason;
}

int32_t GaussEngine::propagate(Solver &S) {
  size_t Before = S.Trail.size();
  while (true) {
    syncTrail(S);
    if (PendingRows.empty())
      break;
    uint32_t R = PendingRows.back();
    PendingRows.pop_back();
    if (Unknowns[R] > 1)
      continue; // stale trigger (a backtrack regrew the row)
    int32_t Confl = processRow(
        S, {RowCols.data() + RowBegin[R], RowCols.data() + RowBegin[R + 1]},
        RowRhs[R], {&Original[R].Id, 1});
    if (Confl != Solver::NoReason)
      return Confl;
  }
  if (S.Trail.size() != Before)
    return Solver::NoReason; // let CNF propagation consume the news first
  if (AppliedSinceDeep >= DeepInterval)
    return deepCheck(S);
  return Solver::NoReason;
}
