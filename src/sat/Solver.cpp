//===- sat/Solver.cpp - CDCL SAT solver -----------------------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Assert.h"

#include <algorithm>

using namespace veriqec;
using namespace veriqec::sat;

uint64_t veriqec::sat::lubySequence(uint64_t I) {
  assert(I >= 1 && "luby sequence is 1-based");
  // MiniSat's formulation over the 0-based index X.
  uint64_t X = I - 1;
  uint64_t Size = 1, Seq = 0;
  while (Size < X + 1) {
    Size = 2 * Size + 1;
    ++Seq;
  }
  while (Size - 1 != X) {
    Size = (Size - 1) / 2;
    --Seq;
    X %= Size;
  }
  return 1ull << Seq;
}

namespace {
// Test knob (setDefaultGarbageFraction): the smt/engine layers construct
// slot solvers internally, so per-instance setGarbageFraction cannot
// reach them. Written only while no solver is running.
double DefaultGarbageFrac = 0.2;
} // namespace

void Solver::setDefaultGarbageFraction(double Frac) {
  DefaultGarbageFrac = Frac;
}

Solver::Solver() : GarbageFrac(DefaultGarbageFrac) {}

Var Solver::newVar() {
  Var V = static_cast<Var>(numVars());
  LitValue.push_back(LBool::Undef);
  LitValue.push_back(LBool::Undef);
  Model.push_back(LBool::Undef);
  SavedPhase.push_back(false);
  Reason.push_back(NoReason);
  Level.push_back(0);
  TrailPosOf.push_back(0);
  Activity.push_back(0.0);
  Seen.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  Smudged.push_back(0);
  Smudged.push_back(0);
  HeapPos.push_back(-1);
  heapInsert(V);
  return V;
}

bool Solver::addClause(std::vector<Lit> Lits) {
  // Solving leaves the assumption-prefix trail alive between calls;
  // adding a clause is a root-level operation, so drop back first.
  if (decisionLevel() != 0)
    backtrack(0);
  ++AddClauseSeq;
  if (!OkState)
    return false;

  std::sort(Lits.begin(), Lits.end());
  std::vector<Lit> Out;
  Lit Prev = Lit::undef();
  for (Lit L : Lits) {
    assert(L.var() >= 0 && static_cast<size_t>(L.var()) < numVars() &&
           "literal over unknown variable");
    if (L == Prev)
      continue; // duplicate
    if (!Prev.isUndef() && L == ~Prev)
      return true; // tautology
    LBool V = valueOf(L);
    if (V == LBool::True)
      return true; // already satisfied at root
    if (V == LBool::False)
      continue; // dead literal
    Out.push_back(L);
    Prev = L;
  }

  if (Out.empty()) {
    OkState = false;
    return false;
  }
  if (Out.size() == 1) {
    enqueue(Out[0], NoReason);
    if (propagate() != NoReason)
      OkState = false;
    return OkState;
  }

  ClauseRef Ref = allocClause(Out, /*Learned=*/false);
  // The proof-id word carries the header record index (negated): what a
  // negative proof hint names.
  Arena[Ref].setProofId(-static_cast<int32_t>(AddClauseSeq));
  ProblemClauses.push_back(Ref);
  attachClause(Ref);
  return true;
}

bool Solver::addXorClause(const std::vector<Lit> &Lits, bool Odd) {
  // Numbered even when dropped: the proof header has a record for every
  // call.
  uint32_t Id = ++AddXorSeq;
  if (decisionLevel() != 0)
    backtrack(0);
  if (!OkState)
    return false;
  bool Rhs = Odd;
  std::vector<Var> Vars;
  Vars.reserve(Lits.size());
  for (Lit L : Lits) {
    assert(L.var() >= 0 && static_cast<size_t>(L.var()) < numVars() &&
           "XOR literal over unknown variable");
    Rhs ^= L.negated();
    Vars.push_back(L.var());
  }
  std::sort(Vars.begin(), Vars.end());
  std::vector<Var> Kept;
  for (size_t I = 0; I != Vars.size();) {
    size_t J = I;
    while (J != Vars.size() && Vars[J] == Vars[I])
      ++J;
    if ((J - I) & 1)
      Kept.push_back(Vars[I]);
    I = J;
  }
  if (Kept.empty()) {
    if (Rhs)
      OkState = false;
    return OkState;
  }
  Gauss.addRow(std::move(Kept), Rhs, Id);
  return true;
}

ClauseRef Solver::materializeXorClause(std::span<const Lit> Lits,
                                       std::span<const uint32_t> Rows) {
  ClauseRef Ref = allocClause(Lits, /*Learned=*/true);
  Arena[Ref].setActivity(static_cast<float>(ClauseInc));
  if (Lits.size() < 2)
    // Empty/unit justifications cannot carry watches; tombstone them at
    // birth. Their literals stay readable for conflict analysis (a
    // tombstone locked as a trail reason survives compaction), and the
    // arena reclaims them once nothing references them.
    Arena.markDeleted(Ref);
  else
    // Never watched (the XOR engine re-implies them as needed), but they
    // are learned clauses all the same: reduceDB candidates.
    {
      LearntClauses.push_back(Ref);
      ++NumLiveLearnts;
    }
  // XOR-materialized clauses are derivations, justified by the sum of
  // the header x-rows they came from.
  if (ProofSink) {
    ProofSink->onDeriveParity(Arena[Ref].lits(), Rows);
    bindSerial(Ref);
  }
  return Ref;
}

ClauseRef Solver::propagateFixpoint() {
  while (true) {
    ClauseRef Confl = propagate();
    if (Confl != NoReason || !Gauss.hasRows())
      return Confl;
    size_t Before = Trail.size();
    Confl = Gauss.propagate(*this);
    if (Confl != NoReason)
      return Confl;
    if (Trail.size() == Before)
      return NoReason;
    // The XOR engine enqueued implications: give CNF propagation
    // another pass, then return to the engine, until neither moves.
  }
}

void Solver::attachClause(ClauseRef Ref) {
  const Clause C = Arena[Ref];
  assert(C.size() >= 2 && "attaching a short clause");
  if (C.size() == 2) {
    // Binary clauses live entirely in their watchers (the blocker IS the
    // other literal; the ~Ref encoding marks the watcher as binary):
    // propagation never touches the clause memory, which is most of the
    // watch traffic — Tseitin gate and counter encodings are dominated
    // by 2-literal clauses.
    Watches[(~C[0]).Code].push_back({binaryMark(Ref), C[1]});
    Watches[(~C[1]).Code].push_back({binaryMark(Ref), C[0]});
    return;
  }
  Watches[(~C[0]).Code].push_back({Ref, C[1]});
  Watches[(~C[1]).Code].push_back({Ref, C[0]});
}

void Solver::enqueue(Lit L, ClauseRef From) {
  assert(valueOf(L) == LBool::Undef && "enqueueing an assigned literal");
  LitValue[L.Code] = LBool::True;
  LitValue[(~L).Code] = LBool::False;
  Reason[L.var()] = From;
  Level[L.var()] = decisionLevel();
  TrailPosOf[L.var()] = static_cast<uint32_t>(Trail.size());
  Trail.push_back(L);
}

ClauseRef Solver::propagate() {
  // MiniSat's pointer walk: I reads the watch list, J writes back the
  // watchers that stay. No watcher is ever appended to the list being
  // walked (see the new-watch search), so its storage never moves.
  while (PropagateHead < Trail.size()) {
    Lit P = Trail[PropagateHead++];
    Lit NotP = ~P;
    std::vector<Watcher> &WatchList = Watches[P.Code];
    Watcher *I = WatchList.data();
    Watcher *J = I;
    Watcher *const End = I + WatchList.size();
    ClauseRef Confl = NoReason;
    while (I != End) {
      Watcher W = *I++;
      // Fast path: the blocker literal already satisfies the clause.
      if (valueOf(W.Blocker) == LBool::True) {
        *J++ = W;
        continue;
      }
      if (isBinaryMark(W.Ref)) {
        // Binary clause, resolved from the watcher alone (the clause
        // memory is only touched when it actually implies something).
        *J++ = W;
        ClauseRef Real = fromBinaryMark(W.Ref);
        if (valueOf(W.Blocker) == LBool::False) {
          Confl = Real;
          break;
        }
        // Reason clauses keep their implied literal at position 0
        // (analyze() and litRedundant() rely on it).
        Lit *Lits = Arena[Real].lits().data();
        if (Lits[0] != W.Blocker)
          std::swap(Lits[0], Lits[1]);
        ++Stats.BinPropagations;
        enqueue(W.Blocker, Real);
        continue;
      }
      Clause C = Arena[W.Ref];
      assert(!C.deleted() && "deleted clause left in a watch list");
      Lit *Lits = C.lits().data();
      const uint32_t Size = C.size();
      // Normalize so that the false literal ~P is at position 1.
      if (Lits[0] == NotP)
        std::swap(Lits[0], Lits[1]);
      assert(Lits[1] == NotP && "watch invariant broken");
      // If the other watched literal is true, keep watching.
      if (valueOf(Lits[0]) == LBool::True) {
        *J++ = {W.Ref, Lits[0]};
        continue;
      }
      // Look for a new literal to watch. It is not false, so it is never
      // ~P (and clauses hold no duplicates): the watcher goes to another
      // list than the one being walked.
      bool FoundWatch = false;
      for (uint32_t K = 2; K != Size; ++K) {
        if (valueOf(Lits[K]) != LBool::False) {
          std::swap(Lits[1], Lits[K]);
          assert(Lits[1] != NotP && "new watch on the list being walked");
          Watches[(~Lits[1]).Code].push_back({W.Ref, Lits[0]});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;
      // Clause is unit or conflicting.
      *J++ = W;
      if (valueOf(Lits[0]) == LBool::False) {
        Confl = W.Ref;
        break;
      }
      ++Stats.LongPropagations;
      enqueue(Lits[0], W.Ref);
    }
    if (Confl != NoReason) {
      // Conflict: keep the unvisited watchers and report.
      while (I != End)
        *J++ = *I++;
      WatchList.resize(static_cast<size_t>(J - WatchList.data()));
      PropagateHead = Trail.size();
      return Confl;
    }
    WatchList.resize(static_cast<size_t>(J - WatchList.data()));
  }
  return NoReason;
}

void Solver::bumpVar(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapPos[V] >= 0)
    heapUpdate(V);
}

void Solver::bumpClause(Clause C) {
  C.setActivity(C.activity() + static_cast<float>(ClauseInc));
  if (C.activity() > 1e20f) {
    for (ClauseRef R : LearntClauses) {
      Clause L = Arena[R];
      L.setActivity(L.activity() * 1e-20f);
    }
    ClauseInc *= 1e-20;
  }
}

void Solver::decayActivities() {
  VarInc /= VarDecay;
  ClauseInc /= ClauseDecay;
}

void Solver::analyze(ClauseRef Confl, int32_t &BtLevel) {
  Learnt.clear();
  Learnt.push_back(Lit::undef()); // slot for the asserting literal
  HintSteps.clear();
  int PathCount = 0;
  Lit P = Lit::undef();
  size_t TrailIdx = Trail.size();

  do {
    assert(Confl != NoReason && "analysis needs a reason");
    if (ProofSink)
      // Antecedent for the proof: the reason of P (keyed by P's trail
      // position), or the conflicting clause itself on the first round
      // (implying nothing, it sorts after every reason).
      HintSteps.emplace_back(P.isUndef() ? UINT32_MAX : TrailPosOf[P.var()],
                             Confl);
    Clause C = Arena[Confl];
    if (C.learned())
      bumpClause(C);
    for (size_t I = (P.isUndef() ? 0 : 1); I != C.size(); ++I) {
      Lit Q = C[I];
      if (Seen[Q.var()] || Level[Q.var()] == 0)
        continue;
      Seen[Q.var()] = SeenSource;
      bumpVar(Q.var());
      if (Level[Q.var()] >= decisionLevel())
        ++PathCount;
      else
        Learnt.push_back(Q);
    }
    // Walk back to the most recent seen literal on the trail.
    while (!Seen[Trail[TrailIdx - 1].var()])
      --TrailIdx;
    P = Trail[--TrailIdx];
    Confl = Reason[P.var()];
    Seen[P.var()] = 0;
    --PathCount;
  } while (PathCount > 0);
  Learnt[0] = ~P;

  // Clause minimization: drop literals implied by the rest of the clause.
  // Remember every marked literal so the marks can be cleared even for
  // literals that minimization removes from the clause. The removed ones
  // seed the hint post-pass.
  Marked.assign(Learnt.begin() + 1, Learnt.end());
  uint32_t AbstractLevels = 0;
  for (size_t I = 1; I != Learnt.size(); ++I)
    AbstractLevels |= 1u << (Level[Learnt[I].var()] & 31);
  ConeStack.clear();
  size_t KeepIdx = 1;
  for (size_t I = 1; I != Learnt.size(); ++I)
    if (Reason[Learnt[I].var()] == NoReason ||
        !litRedundant(Learnt[I], AbstractLevels))
      Learnt[KeepIdx++] = Learnt[I];
    else if (ProofSink)
      ConeStack.push_back(Learnt[I]);
  Learnt.resize(KeepIdx);
  if (ProofSink)
    collectRemovedCones();

  // Finalize the proof hints: antecedents ordered by the trail position
  // of the literal they implied make every hint unit (then conflicting)
  // in turn — each reason only cites literals assigned earlier on the
  // trail, so by its turn all are either negated clause literals or
  // already re-derived. An antecedent with no proof identity (an
  // imported lemma) poisons the list, and the checker rejects the
  // addition: proofs and clause pools do not combine.
  if (ProofSink)
    finalizeHintIds(HintIds);

  // Find the backtrack level: the second-highest level in the clause.
  BtLevel = 0;
  if (Learnt.size() > 1) {
    size_t MaxIdx = 1;
    for (size_t I = 2; I != Learnt.size(); ++I)
      if (Level[Learnt[I].var()] > Level[Learnt[MaxIdx].var()])
        MaxIdx = I;
    std::swap(Learnt[1], Learnt[MaxIdx]);
    BtLevel = Level[Learnt[1].var()];
  }

  // Clear the seen marks we still own (including minimized-away ones)
  // and minimization's memo.
  Seen[Learnt[0].var()] = 0;
  for (Lit L : Marked)
    Seen[L.var()] = 0;
  for (Var V : RedundantToClear)
    Seen[V] = 0;
  RedundantToClear.clear();
}

bool Solver::litRedundant(Lit L, uint32_t AbstractLevels) {
  // Path DFS over the implication graph (MiniSat's, after Sorensson and
  // Biere, "Minimizing Learned Clauses"): L is redundant iff every path
  // from it to a decision passes through a source literal (one of the
  // clause) or the root level. Redundancy is a property of the literal
  // alone — the sources stay fixed during minimization, removed ones
  // included — so verdicts are memoized for the rest of this conflict:
  // a literal whose reason cone checks out becomes SeenRemovable, and a
  // failure poisons the failing literal and the whole path above it
  // with SeenFailed. Each cone is walked at most once per conflict.
  assert(Seen[L.var()] == SeenSource && Reason[L.var()] != NoReason);
  RedundantStack.clear();
  Lit Cur = L;
  Clause C = Arena[Reason[Cur.var()]];
  for (uint32_t I = 1;; ++I) {
    if (I < C.size()) {
      Lit Q = C[I];
      Var QV = Q.var();
      uint8_t Mark = Seen[QV];
      if (Level[QV] == 0 || Mark == SeenSource || Mark == SeenRemovable)
        continue;
      // A decision, a literal of a level no clause literal has (the
      // abstract-level filter), or a literal already proven irremovable.
      if (Mark == SeenFailed || Reason[QV] == NoReason ||
          ((1u << (Level[QV] & 31)) & AbstractLevels) == 0) {
        if (Mark == 0) {
          Seen[QV] = SeenFailed;
          RedundantToClear.push_back(QV);
        }
        RedundantStack.push_back({0, Cur});
        for (const RedundantFrame &F : RedundantStack)
          if (Seen[F.L.var()] == 0) {
            Seen[F.L.var()] = SeenFailed;
            RedundantToClear.push_back(F.L.var());
          }
        return false;
      }
      // Descend into Q's reason.
      RedundantStack.push_back({I, Cur});
      I = 0;
      Cur = Q;
      C = Arena[Reason[QV]];
    } else {
      // Every antecedent of Cur checked out.
      if (Seen[Cur.var()] == 0) {
        Seen[Cur.var()] = SeenRemovable;
        RedundantToClear.push_back(Cur.var());
      }
      if (RedundantStack.empty())
        return true;
      I = RedundantStack.back().Next;
      Cur = RedundantStack.back().L;
      C = Arena[Reason[Cur.var()]];
      RedundantStack.pop_back();
    }
  }
}

void Solver::collectRemovedCones() {
  // A checker replaying the learnt clause never assigns a removed
  // literal, so it must re-derive it: the removed literal's whole
  // justification cone joins the antecedents. That is its reason and,
  // below it, every literal of its cone short of the sources and the
  // root level — all memoized removable by the redundancy check, which
  // stopped exactly there. A visited literal's memo mark is consumed so
  // shared sub-cones are walked once; finalizeHintIds() sorts and dedups
  // the steps.
  while (!ConeStack.empty()) {
    Var V = ConeStack.back().var();
    ConeStack.pop_back();
    HintSteps.emplace_back(TrailPosOf[V], Reason[V]);
    const Clause C = Arena[Reason[V]];
    for (size_t I = 1; I != C.size(); ++I)
      if (Seen[C[I].var()] == SeenRemovable) {
        Seen[C[I].var()] = 0;
        ConeStack.push_back(C[I]);
      }
  }
}

void Solver::backtrack(int32_t ToLevel) {
  if (decisionLevel() <= ToLevel)
    return;
  size_t Bound = static_cast<size_t>(TrailLim[ToLevel]);
  for (size_t I = Trail.size(); I-- > Bound;) {
    Lit L = Trail[I];
    Var V = L.var();
    SavedPhase[V] = varValue(V) == LBool::True;
    LitValue[L.Code] = LBool::Undef;
    LitValue[(~L).Code] = LBool::Undef;
    Reason[V] = NoReason;
    if (HeapPos[V] < 0)
      heapInsert(V);
  }
  Trail.resize(Bound);
  TrailLim.resize(ToLevel);
  Gauss.onBacktrack(Bound);
  PropagateHead = Bound;
}

Lit Solver::pickBranchLit() {
  // Seeded tie-break: ~2% of decisions branch on a random unassigned
  // variable with a random polarity. The variable stays in the heap; a
  // later pop sees it assigned and skips it.
  if (RandomizeBranching && !Heap.empty() && TieRng.nextBelow(50) == 0) {
    Var V = Heap[TieRng.nextBelow(Heap.size())];
    if (varValue(V) == LBool::Undef)
      return Lit(V, TieRng.nextBool());
  }
  while (!Heap.empty()) {
    Var V = heapPop();
    if (varValue(V) == LBool::Undef)
      return Lit(V, !SavedPhase[V]);
  }
  return Lit::undef();
}

ClauseRef Solver::learnClause(std::span<const Lit> Lits) {
  if (Lits.size() == 1)
    return NoReason; // handled by caller via enqueue at level 0
  ClauseRef Ref = allocClause(Lits, /*Learned=*/true);
  Arena[Ref].setActivity(static_cast<float>(ClauseInc));
  LearntClauses.push_back(Ref);
  ++NumLiveLearnts;
  // Only ever called right after analyze(), whose antecedent hints
  // justify exactly this clause.
  proofDerive(Ref, HintIds);
  attachClause(Ref);
  ++Stats.LearnedClauses;
  return Ref;
}

bool Solver::locked(ClauseRef Ref) const {
  // Every reason clause keeps its implied literal at index 0 (binary
  // propagation swaps it there, long propagation normalizes it there,
  // the XOR engine and learnClause build it there), so a clause is a
  // reason iff it is the reason of its own first literal.
  Lit First = Arena[Ref][0];
  return Reason[First.var()] == Ref && valueOf(First) == LBool::True;
}

void Solver::reduceDB() {
  obs::TraceSpan Span("reduce_db", {{"learnts", LearntClauses.size()}});
  // Collect learned, non-reason clauses and drop the less retained half.
  // The caller has already checked the live-learnt trigger (locked
  // clauses included — see NumLiveLearnts). Retention order: VSIDS
  // clause activity, least active first.
  struct Cand {
    float Act;
    ClauseRef Ref;
    bool operator<(const Cand &O) const { return Act < O.Act; }
  };
  std::vector<Cand> Candidates;
  Candidates.reserve(LearntClauses.size());
  for (ClauseRef R : LearntClauses) {
    Clause C = Arena[R];
    if (C.deleted() || locked(R))
      continue;
    Candidates.push_back({C.activity(), R});
  }

  size_t NumVictims = Candidates.size() / 2;
  if (NumVictims == 0)
    return;
  std::sort(Candidates.begin(), Candidates.end());
  for (size_t I = 0; I != NumVictims; ++I) {
    ClauseRef Victim = Candidates[I].Ref;
    Clause C = Arena[Victim];
    if (ProofSink && C.proofId() > 0)
      ProofSink->onRetire(static_cast<uint64_t>(C.proofId()));
    // A watched clause sits on the lists of its first two literals only
    // (never-watched XOR justifications smudge two lists harmlessly).
    Smudged[(~C[0]).Code] = 1;
    Smudged[(~C[1]).Code] = 1;
    Arena.markDeleted(Victim);
    --NumLiveLearnts;
  }

  // Drop the victims from the learnt list...
  LearntClauses.erase(
      std::remove_if(LearntClauses.begin(), LearntClauses.end(),
                     [&](ClauseRef R) { return Arena[R].deleted(); }),
      LearntClauses.end());

  // ... and unlink only them from the watch lists, keeping every
  // survivor's watch positions and blockers. Only a smudged list can
  // hold a deleted clause: reduceDB is the one place that deletes a
  // watched clause, and it leaves no stale watcher behind.
  auto WatchOrder = [](Watcher A, Watcher B) {
    bool BinA = isBinaryMark(A.Ref), BinB = isBinaryMark(B.Ref);
    if (BinA != BinB)
      return BinA;
    ClauseRef RA = BinA ? fromBinaryMark(A.Ref) : A.Ref;
    ClauseRef RB = BinB ? fromBinaryMark(B.Ref) : B.Ref;
    return RA < RB;
  };
  for (size_t Code = 0; Code != Watches.size(); ++Code) {
    std::vector<Watcher> &WL = Watches[Code];
    if (Smudged[Code]) {
      Smudged[Code] = 0;
      std::erase_if(WL, [&](Watcher W) {
        ClauseRef R = isBinaryMark(W.Ref) ? fromBinaryMark(W.Ref) : W.Ref;
        return Arena[R].deleted();
      });
    }
    // Re-normalize every list's watcher order: binary watchers first
    // (they resolve without touching clause memory), then arena-offset
    // order, so problem clauses and older lemmas are tried as reasons
    // before younger ones. Drifted insertion order costs ~30% extra
    // conflicts on surface9 t=4. No clause is watched twice on one
    // list, so the keys are unique and an in-place sort yields the
    // order a stable one would.
    if (!std::is_sorted(WL.begin(), WL.end(), WatchOrder))
      std::sort(WL.begin(), WL.end(), WatchOrder);
  }
}

void Solver::checkGarbage() {
  size_t Wasted = Arena.wastedWords();
  if (Wasted == 0 ||
      static_cast<double>(Wasted) <
          GarbageFrac * static_cast<double>(Arena.sizeWords()))
    return;
  garbageCollect();
}

void Solver::garbageCollect() {
  obs::TraceSpan Span(
      "arena_gc", {{"wasted_bytes", Arena.wastedWords() * sizeof(uint32_t)}});
  if (obs::metricsEnabled()) {
    static obs::Histogram &WasteHist =
        obs::Registry::global().histogram("sat.arena_waste_bytes");
    WasteHist.observe(Arena.wastedWords() * sizeof(uint32_t));
  }
  ClauseArena To;
  To.reserveWords(Arena.sizeWords() - Arena.wastedWords());
  relocAll(To);
  Stats.WastedBytes +=
      (Arena.sizeWords() - To.sizeWords()) * sizeof(uint32_t);
  ++Stats.Compactions;
  Arena = std::move(To);
}

void Solver::relocAll(ClauseArena &To) {
  // Watchers (the binary mark round-trips through the relocation).
  for (auto &WL : Watches)
    for (Watcher &W : WL) {
      if (isBinaryMark(W.Ref)) {
        ClauseRef R = fromBinaryMark(W.Ref);
        Arena.reloc(R, To);
        W.Ref = binaryMark(R);
      } else {
        Arena.reloc(W.Ref, To);
      }
    }
  // Reasons of assigned variables. This keeps deleted-but-locked
  // tombstones alive (an XOR unit justification of a prefix literal,
  // say) — their literals must stay readable for conflict analysis.
  for (Lit L : Trail)
    if (Reason[L.var()] != NoReason)
      Arena.reloc(Reason[L.var()], To);
  // Clause lists. Problem clauses are never deleted; learnt tombstones
  // nothing relocated above are garbage and fall out of the list (and
  // the arena) here.
  for (ClauseRef &R : ProblemClauses)
    Arena.reloc(R, To);
  size_t Keep = 0;
  for (ClauseRef R : LearntClauses) {
    Clause C = Arena[R];
    if (C.deleted() && !C.reloced())
      continue;
    Arena.reloc(R, To);
    LearntClauses[Keep++] = R;
  }
  LearntClauses.resize(Keep);
}

void Solver::importSharedClauses() {
  if (!SharedPool)
    return;
  std::vector<std::vector<Lit>> Incoming;
  SharedPool->fetch(PoolOwnerId, PoolCursor, Incoming);
  for (std::vector<Lit> &C : Incoming) {
    if (!OkState)
      return;
    // Mark imported lemmas as learned so reduceDB can reclaim cold ones;
    // addClause may simplify a lemma away entirely (satisfied at root).
    size_t Before = ProblemClauses.size();
    addClause(std::move(C));
    while (ProblemClauses.size() > Before) {
      ClauseRef R = ProblemClauses.back();
      ProblemClauses.pop_back();
      Clause Cl = Arena[R];
      // A fresh import can never carry a derivation serial: addClause
      // only ever writes header-record (negative) ids. The pre-arena
      // bookkeeping violated this — a recycled clause slot could alias a
      // stale serial and retire someone else's derivation.
      assert(Cl.proofId() <= 0 &&
             "imported clause carries a derivation serial");
      // An import is not a header record either; as a hint antecedent it
      // has no proof identity (proofs and pools do not combine anyway).
      Cl.setProofId(0);
      Cl.setLearned(true);
      Cl.setActivity(static_cast<float>(ClauseInc));
      LearntClauses.push_back(R);
      ++NumLiveLearnts;
    }
  }
}

void Solver::analyzeFinal(Lit Failed) {
  ConflictCore.clear();
  ConflictCoreHints.clear();
  ConflictCore.push_back(Failed);
  if (decisionLevel() == 0 || Level[Failed.var()] == 0)
    return; // ~Failed is root-implied: the core is the assumption alone
  // Walk the reason cone of ~Failed down the trail; decisions reached
  // below the current (all-assumption) prefix are the used assumptions.
  // The reasons crossed are the conclusion's proof hints: asserting the
  // core, each becomes unit in trail order until the reason of ~Failed
  // itself — whose head literal contradicts the asserted assumption —
  // closes the replay with a conflict.
  HintSteps.clear();
  Seen[Failed.var()] = 1;
  for (size_t I = Trail.size(); I-- > static_cast<size_t>(TrailLim[0]);) {
    Var V = Trail[I].var();
    if (!Seen[V])
      continue;
    Seen[V] = 0;
    if (Reason[V] == NoReason) {
      ConflictCore.push_back(Trail[I]);
      continue;
    }
    if (ProofSink)
      HintSteps.emplace_back(TrailPosOf[V], Reason[V]);
    const Clause C = Arena[Reason[V]];
    for (size_t J = 0; J != C.size(); ++J)
      if (C[J].var() != V && Level[C[J].var()] > 0)
        Seen[C[J].var()] = 1;
  }
  if (ProofSink)
    finalizeHintIds(ConflictCoreHints);
}

SolveResult Solver::solve(const std::vector<Lit> &Assumptions) {
  ConflictCore.clear();
  ConflictCoreHints.clear();
  if (!OkState)
    return SolveResult::Unsat;
  // Clause import must happen at the root; only pay the full backtrack
  // when a sibling actually published something.
  if (SharedPool && SharedPool->hasNewsFor(PoolOwnerId, PoolCursor)) {
    backtrack(0);
    importSharedClauses();
    if (!OkState)
      return SolveResult::Unsat;
  }
  if (Gauss.hasRows() && Gauss.needsFinalize()) {
    // XOR rows were (re)registered since the last basis build: rebuild
    // it (and its consistency verdict) at the root. The engine re-syncs
    // against the whole trail afterwards, so root units added before
    // the rows are folded in on the first propagation.
    backtrack(0);
    if (!Gauss.finalize()) {
      OkState = false;
      return SolveResult::Unsat;
    }
  }
  if (PropagateHead != Trail.size()) {
    // A budget-aborted call left propagation pending; restart from the
    // root and re-scan rather than reason about a half-propagated trail.
    backtrack(0);
    PropagateHead = 0;
  }
  // Incremental assumption-prefix reuse: keep the trail levels of the
  // longest common prefix with the previous call's assumptions (level
  // i+1 is PrevAssumptions[i]'s decision level — search decisions only
  // ever sit above the full assumption prefix).
  size_t Keep = 0;
  size_t MaxKeep =
      std::min({Assumptions.size(), PrevAssumptions.size(),
                static_cast<size_t>(decisionLevel())});
  while (Keep < MaxKeep && Assumptions[Keep] == PrevAssumptions[Keep])
    ++Keep;
  backtrack(static_cast<int32_t>(Keep));
  PrevAssumptions = Assumptions;

  uint64_t RestartIdx = 1;
  uint64_t ConflictsUntilRestart = 100 * lubySequence(RestartIdx);
  uint64_t ConflictsAtStart = Stats.Conflicts;

  while (true) {
    if (AbortFlag && AbortFlag->load(std::memory_order_relaxed))
      return SolveResult::Aborted;

    ClauseRef Confl = propagateFixpoint();
    if (Confl != NoReason) {
      ++Stats.Conflicts;
      {
        // The conflict clause may contain no literal of the current
        // decision level — which analyze() requires. XOR conflicts can
        // surface lazily (cross-row eliminations run intermittently), so
        // drop to the clause's highest level first; for eagerly-detected
        // CNF conflicts this is a no-op.
        int32_t MaxLvl = 0;
        for (Lit L : Arena[Confl].lits())
          MaxLvl = std::max(MaxLvl, Level[L.var()]);
        if (MaxLvl < decisionLevel())
          backtrack(MaxLvl);
      }
      if (decisionLevel() == 0) {
        // Conflict with no decisions (assumptions included): the formula
        // itself is unsatisfiable, for this and every future call.
        OkState = false;
        return SolveResult::Unsat;
      }
      int32_t BtLevel = 0;
      analyze(Confl, BtLevel);
      if (SharedPool && Learnt.size() <= SharedClausePool::MaxLemmaLits)
        SharedPool->publish(PoolOwnerId, Learnt);
      // Classic backjump to BtLevel, uncapped by the assumption prefix:
      // the deep jump lets the learnt clause assert early, and the
      // search loop re-extends the prefix afterwards.
      backtrack(BtLevel);
      if (static_cast<size_t>(decisionLevel()) <= Assumptions.size() &&
          declareUnsatOnPrefixBackjump())
        return SolveResult::Unsat; // the re-introducible PR 1 bug (seam)
      if (Learnt.size() == 1) {
        // Unit learnts bypass learnClause (no clause object), but they
        // are derivations all the same — and the checker needs them as
        // root facts for every later clause's unit-propagation replay.
        if (ProofSink) {
          ProofSink->onDerive(Learnt, HintIds);
          ++DeriveCount;
        }
        if (valueOf(Learnt[0]) == LBool::False) {
          OkState = false;
          return SolveResult::Unsat;
        }
        if (valueOf(Learnt[0]) == LBool::Undef)
          enqueue(Learnt[0], NoReason);
      } else {
        ClauseRef Ref = learnClause(Learnt);
        enqueue(Arena[Ref][0], Ref);
      }
      decayActivities();

      if (ConflictBudget &&
          Stats.Conflicts - ConflictsAtStart >= ConflictBudget)
        return SolveResult::Aborted;
      if (Stats.Conflicts - ConflictsAtStart >= ConflictsUntilRestart) {
        ++Stats.Restarts;
        ++RestartIdx;
        ConflictsUntilRestart =
            Stats.Conflicts - ConflictsAtStart + 100 * lubySequence(RestartIdx);
        backtrack(static_cast<int32_t>(
            std::min<size_t>(Assumptions.size(), TrailLim.size())));
        // Hoisted trigger: restarts below the cap skip reduceDB's
        // O(trail + learnts) scan entirely.
        if (NumLiveLearnts >= MaxLearned)
          reduceDB();
        checkGarbage();
      }
      continue;
    }

    // No conflict: extend with assumptions first, then decisions.
    if (static_cast<size_t>(decisionLevel()) < Assumptions.size()) {
      Lit A = Assumptions[decisionLevel()];
      LBool V = valueOf(A);
      if (V == LBool::False) {
        analyzeFinal(A);
        return SolveResult::Unsat;
      }
      TrailLim.push_back(static_cast<int32_t>(Trail.size()));
      if (V == LBool::Undef)
        enqueue(A, NoReason);
      continue;
    }

    Lit Next = pickBranchLit();
    if (Next.isUndef()) {
      // Full model found.
      Model.resize(numVars());
      for (size_t V = 0; V != Model.size(); ++V)
        Model[V] = varValue(static_cast<Var>(V));
      backtrack(0);
      return SolveResult::Sat;
    }
    ++Stats.Decisions;
    TrailLim.push_back(static_cast<int32_t>(Trail.size()));
    enqueue(Next, NoReason);
  }
}

// -- Binary max-heap keyed by VSIDS activity --------------------------------

void Solver::heapInsert(Var V) {
  HeapPos[V] = static_cast<int32_t>(Heap.size());
  Heap.push_back(V);
  heapSiftUp(Heap.size() - 1);
}

void Solver::heapUpdate(Var V) {
  heapSiftUp(static_cast<size_t>(HeapPos[V]));
}

Var Solver::heapPop() {
  Var Top = Heap[0];
  HeapPos[Top] = -1;
  Heap[0] = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    HeapPos[Heap[0]] = 0;
    heapSiftDown(0);
  }
  return Top;
}

void Solver::heapSiftUp(size_t Idx) {
  Var V = Heap[Idx];
  while (Idx > 0) {
    size_t Parent = (Idx - 1) / 2;
    if (!heapLess(V, Heap[Parent]))
      break;
    Heap[Idx] = Heap[Parent];
    HeapPos[Heap[Idx]] = static_cast<int32_t>(Idx);
    Idx = Parent;
  }
  Heap[Idx] = V;
  HeapPos[V] = static_cast<int32_t>(Idx);
}

void Solver::heapSiftDown(size_t Idx) {
  Var V = Heap[Idx];
  while (true) {
    size_t Child = 2 * Idx + 1;
    if (Child >= Heap.size())
      break;
    if (Child + 1 < Heap.size() && heapLess(Heap[Child + 1], Heap[Child]))
      ++Child;
    if (!heapLess(Heap[Child], V))
      break;
    Heap[Idx] = Heap[Child];
    HeapPos[Heap[Idx]] = static_cast<int32_t>(Idx);
    Idx = Child;
  }
  Heap[Idx] = V;
  HeapPos[V] = static_cast<int32_t>(Idx);
}
