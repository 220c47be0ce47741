//===- smt/Preprocessor.cpp - GF(2)/XOR-aware preprocessing ----------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "smt/Preprocessor.h"

#include "gf2/BitMatrix.h"
#include "support/Assert.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

using namespace veriqec;
using namespace veriqec::smt;

namespace {

/// Interprets a conjunct as a parity equation over variables, if it is
/// one. After BoolContext folding a parity conjunct has one of four
/// shapes: Var (v = 1), Not(Var) (v = 0), Xor of Vars (parity = 1) or
/// Not(Xor of Vars) (parity = 0); Xor kids are never Not/Const/Xor (the
/// folder lifts those out).
bool asParityRow(const BoolContext &Ctx, ExprRef R, ParityRow &Out) {
  const BoolNode *N = &Ctx.node(R);
  Out.Rhs = true;
  if (N->Kind == BoolKind::Not) {
    Out.Rhs = false;
    N = &Ctx.node(N->Kids[0]);
  }
  if (N->Kind == BoolKind::Var) {
    Out.Vars = {N->VarId};
    return true;
  }
  if (N->Kind != BoolKind::Xor)
    return false;
  Out.Vars.clear();
  for (ExprRef K : N->Kids) {
    const BoolNode &Kid = Ctx.node(K);
    if (Kid.Kind != BoolKind::Var)
      return false;
    Out.Vars.push_back(Kid.VarId);
  }
  return true;
}

/// Collects every variable id reachable from \p Roots (shared subgraphs
/// visited once).
void collectVars(const BoolContext &Ctx, const std::vector<ExprRef> &Roots,
                 std::unordered_set<uint32_t> &Out) {
  std::unordered_set<ExprRef> Visited;
  std::vector<ExprRef> Stack(Roots.begin(), Roots.end());
  while (!Stack.empty()) {
    ExprRef R = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(R).second)
      continue;
    const BoolNode &N = Ctx.node(R);
    if (N.Kind == BoolKind::Var)
      Out.insert(N.VarId);
    for (ExprRef K : N.Kids)
      Stack.push_back(K);
  }
}

} // namespace

PreprocessedFormula veriqec::smt::preprocess(const BoolContext &Ctx,
                                             ExprRef Root,
                                             const PreprocessOptions &Opts) {
  PreprocessedFormula Out;

  const BoolNode &RootNode = Ctx.node(Root);
  if (RootNode.Kind == BoolKind::Const) {
    if (!RootNode.ConstVal) {
      Out.TriviallyUnsat = true;
      Out.Stats.TriviallyUnsat = true;
      Out.OriginalRows.push_back({{}, true}); // the lift of "false"
    }
    return Out; // true: empty conjunction
  }
  if (!Opts.Enable) {
    Out.Residue = {Root};
    Out.Stats.ResidueConjuncts = 1;
    return Out;
  }

  std::vector<ExprRef> Conjuncts;
  if (RootNode.Kind == BoolKind::And)
    Conjuncts = RootNode.Kids;
  else
    Conjuncts = {Root};

  // -- Lift the parity subsystem --------------------------------------------
  std::vector<ParityRow> Linear;
  ParityRow Row;
  for (ExprRef C : Conjuncts) {
    if (asParityRow(Ctx, C, Row))
      Linear.push_back(std::move(Row));
    else
      Out.Residue.push_back(C);
  }
  Out.Stats.LinearConjuncts = Linear.size();
  Out.Stats.ResidueConjuncts = Out.Residue.size();
  Out.OriginalRows = Linear;
  if (Linear.empty())
    return Out;

  // Dense column map over the subsystem's variables; the last column is
  // the right-hand side.
  std::vector<uint32_t> VarOfCol;
  std::unordered_map<uint32_t, size_t> ColOfVar;
  for (const ParityRow &L : Linear)
    for (uint32_t V : L.Vars)
      if (ColOfVar.emplace(V, VarOfCol.size()).second)
        VarOfCol.push_back(V);
  Out.Stats.LinearVars = VarOfCol.size();
  size_t RhsCol = VarOfCol.size();

  // Exact (un)satisfiability of the subsystem by dense Gaussian
  // elimination on a scratch copy. Only the verdict is taken from the
  // dense pass: reduced-echelon rows are globally entangled, and trading
  // the sparse local syndrome equations for dense rows is exactly the
  // structure the solver chokes on.
  {
    BitMatrix M(Linear.size(), RhsCol + 1);
    for (size_t R = 0; R != Linear.size(); ++R) {
      for (uint32_t V : Linear[R].Vars)
        // A variable repeated inside one equation cancels over GF(2); the
        // BoolContext folder already cancels pairs, so flipping is exact.
        M.row(R).flip(ColOfVar.at(V));
      if (Linear[R].Rhs)
        M.row(R).flip(RhsCol);
    }
    std::vector<size_t> Pivots = M.rowReduce();
    if (!Pivots.empty() && Pivots.back() == RhsCol) {
      // 0 = 1 after elimination: the conjunction is unsatisfiable before
      // any CNF is built.
      Out.TriviallyUnsat = true;
      Out.Stats.TriviallyUnsat = true;
      return Out;
    }
  }

  // -- Sparsity-preserving variable elimination ------------------------------
  // A variable that occurs in no residue conjunct, is not pinned, and
  // occurs in at most two rows of the subsystem is eliminated the sparse
  // way: one occurrence — its row *defines* it, so the row is dropped;
  // two occurrences — the rows are summed (the variable cancels), which
  // keeps rows local instead of the dense fill-in a full row reduction
  // causes. Syndrome variables (defined once, consumed once by the
  // decoder contract) fall to the two-occurrence rule, which is where
  // the bulk of the win comes from. Each elimination records how to
  // rebuild the variable; records are emitted in elimination order and
  // replayed in reverse, so dependencies on later-eliminated variables
  // resolve.
  std::unordered_set<uint32_t> Pinned(Opts.KeepVarIds.begin(),
                                      Opts.KeepVarIds.end());
  std::unordered_set<uint32_t> UsedOutside;
  collectVars(Ctx, Out.Residue, UsedOutside);
  collectVars(Ctx, Opts.KeepUsedExprs, UsedOutside);
  auto eligible = [&](uint32_t V) {
    return !Pinned.count(V) && !UsedOutside.count(V);
  };

  // Canonicalize rows: sorted variable lists (XOR-cancelling duplicates
  // is already done by the folder within one conjunct).
  std::vector<ParityRow> Rows = std::move(Linear);
  std::vector<bool> Alive(Rows.size(), true);
  for (ParityRow &R : Rows)
    std::sort(R.Vars.begin(), R.Vars.end());
  std::unordered_map<uint32_t, std::vector<uint32_t>> RowsOf;
  for (size_t R = 0; R != Rows.size(); ++R)
    for (uint32_t V : Rows[R].Vars)
      RowsOf[V].push_back(static_cast<uint32_t>(R));

  // Live occurrence positions of a variable (compacts the lazy list).
  auto liveRows = [&](uint32_t V) {
    std::vector<uint32_t> &Slots = RowsOf[V];
    std::vector<uint32_t> Live;
    for (uint32_t R : Slots) {
      const ParityRow &Row = Rows[R];
      if (Alive[R] &&
          std::binary_search(Row.Vars.begin(), Row.Vars.end(), V))
        Live.push_back(R);
    }
    std::sort(Live.begin(), Live.end());
    Live.erase(std::unique(Live.begin(), Live.end()), Live.end());
    Slots = Live;
    return Live;
  };

  std::vector<uint32_t> Work;
  for (const auto &[V, Slots] : RowsOf)
    if (eligible(V))
      Work.push_back(V);
  std::sort(Work.begin(), Work.end()); // deterministic order

  while (!Work.empty()) {
    uint32_t V = Work.back();
    Work.pop_back();
    std::vector<uint32_t> Occ = liveRows(V);
    if (Occ.empty() || Occ.size() > 2)
      continue;

    VarReconstruction Rec;
    Rec.VarId = V;
    const ParityRow &Def = Rows[Occ[0]];
    Rec.Constant = Def.Rhs;
    for (uint32_t U : Def.Vars)
      if (U != V)
        Rec.Deps.push_back(U);

    if (Occ.size() == 1) {
      Alive[Occ[0]] = false;
      for (uint32_t U : Rec.Deps)
        if (eligible(U))
          Work.push_back(U);
    } else {
      // Sum the two rows: V cancels, everything else stays local.
      const ParityRow &A = Rows[Occ[0]], &B = Rows[Occ[1]];
      ParityRow Sum;
      Sum.Rhs = A.Rhs != B.Rhs;
      std::set_symmetric_difference(A.Vars.begin(), A.Vars.end(),
                                    B.Vars.begin(), B.Vars.end(),
                                    std::back_inserter(Sum.Vars));
      // Fill-in guard: a single merge grows a row by at most
      // |A|+|B|-2, which is fine (syndrome-definition + decoder-parity
      // pairs merge into rows of ~2x the stabilizer weight), but
      // repeated merging must not snowball short local equations into
      // the long global rows a full row reduction produces — that
      // dense structure is exactly what the solver chokes on.
      if (Sum.Vars.size() >
          std::max({A.Vars.size(), B.Vars.size(), size_t(12)}))
        continue;
      Alive[Occ[0]] = Alive[Occ[1]] = false;
      if (!Sum.Vars.empty()) {
        // (An empty sum has Rhs 0 — the dense pass proved consistency.)
        uint32_t NewIdx = static_cast<uint32_t>(Rows.size());
        for (uint32_t U : Sum.Vars) {
          RowsOf[U].push_back(NewIdx);
          if (eligible(U))
            Work.push_back(U);
        }
        Rows.push_back(std::move(Sum));
        Alive.push_back(true);
      }
    }
    Out.Eliminated.push_back(std::move(Rec));
  }

  Out.Stats.VarsEliminated = Out.Eliminated.size();

  // -- Equivalence-literal substitution --------------------------------------
  // A surviving 2-variable row u ^ v = c says v = u ^ c: instead of
  // keeping the row (a binary XOR the solver re-derives over and over),
  // substitute v away entirely. The encoder will route every occurrence
  // of v — residue conjuncts included, which the elimination loop above
  // must not touch — through u's literal (negated when c = 1), and model
  // read-back rebuilds v through a reconstruction record. Substituting v
  // out of the remaining rows (XOR the equivalence in) can cascade new
  // 2-variable rows, so run to fixpoint. Pinned variables (cube split
  // variables, whose assumption literals must stay plain CNF variables)
  // are never substituted away.
  std::unordered_map<uint32_t, std::pair<uint32_t, bool>> AliasOf;
  std::vector<uint32_t> AliasOrder;
  std::vector<uint32_t> EquivWork;
  for (size_t R = 0; R != Rows.size(); ++R)
    if (Alive[R] && Rows[R].Vars.size() == 2)
      EquivWork.push_back(static_cast<uint32_t>(R));
  while (!EquivWork.empty()) {
    uint32_t R = EquivWork.back();
    EquivWork.pop_back();
    if (!Alive[R] || Rows[R].Vars.size() != 2)
      continue;
    uint32_t U = Rows[R].Vars[0], V = Rows[R].Vars[1];
    bool C = Rows[R].Rhs;
    uint32_t Victim, Target;
    if (!Pinned.count(V)) {
      Victim = V;
      Target = U;
    } else if (!Pinned.count(U)) {
      Victim = U;
      Target = V;
    } else {
      continue; // both ends pinned: the row must survive
    }
    Alive[R] = false;
    AliasOf.emplace(Victim, std::make_pair(Target, C));
    AliasOrder.push_back(Victim);
    // XOR the equivalence into every other live row containing the
    // victim: the victim cancels, the target (possibly) appears.
    for (uint32_t O : liveRows(Victim)) {
      if (O == R)
        continue;
      ParityRow &Other = Rows[O];
      ParityRow Sum;
      Sum.Rhs = Other.Rhs != C;
      std::set_symmetric_difference(Other.Vars.begin(), Other.Vars.end(),
                                    Rows[R].Vars.begin(), Rows[R].Vars.end(),
                                    std::back_inserter(Sum.Vars));
      Other = std::move(Sum);
      if (Other.Vars.empty()) {
        // Row operations preserve the solution space and the dense pass
        // proved the system consistent, so an empty row is 0 = 0.
        assert(!Other.Rhs && "inconsistent row surfaced after substitution");
        Alive[O] = false;
        continue;
      }
      for (uint32_t W : Other.Vars)
        RowsOf[W].push_back(O);
      if (Other.Vars.size() == 2)
        EquivWork.push_back(O);
    }
  }
  // Resolve alias chains (v -> u recorded before u -> w was found): every
  // published target must be a surviving variable.
  auto resolveAlias = [&](uint32_t V0, bool Neg0) {
    uint32_t V = V0;
    bool Neg = Neg0;
    for (auto It = AliasOf.find(V); It != AliasOf.end();
         It = AliasOf.find(V)) {
      Neg ^= It->second.second;
      V = It->second.first;
    }
    return std::make_pair(V, Neg);
  };
  for (uint32_t V : AliasOrder) {
    auto [Target, Neg] = resolveAlias(AliasOf.at(V).first,
                                      AliasOf.at(V).second);
    Out.Aliases.push_back({V, Target, Neg});
    VarReconstruction Rec;
    Rec.VarId = V;
    Rec.Deps = {Target};
    Rec.Constant = Neg;
    // Appended after the elimination records: reverse replay rebuilds
    // aliases first, so earlier elimination records may depend on them.
    Out.Eliminated.push_back(std::move(Rec));
  }
  Out.Stats.EquivAliased = AliasOrder.size();

  for (size_t R = 0; R != Rows.size(); ++R) {
    if (!Alive[R])
      continue;
    Out.Stats.UnitsFixed += Rows[R].Vars.size() == 1;
    Out.Rows.push_back(std::move(Rows[R]));
  }
  Out.Stats.RowsKept = Out.Rows.size();
  return Out;
}
