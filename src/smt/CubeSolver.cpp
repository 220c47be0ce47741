//===- smt/CubeSolver.cpp - Problem encoding ------------------------------===//
//
// Part of the veriqec project.
//
// The solving entry points solveExpr() and solveExprParallel() live in
// engine/CubeEngine.cpp: every solve runs on the engine's CubeRun.
//
//===----------------------------------------------------------------------===//

#include "smt/CubeSolver.h"

#include "obs/Trace.h"
#include "support/Assert.h"

#include <algorithm>
#include <unordered_set>

using namespace veriqec;
using namespace veriqec::smt;
using sat::Lit;
using sat::Var;

VerificationProblem::VerificationProblem(const BoolContext &Ctx_, ExprRef Root,
                                         const ProblemOptions &Opts) {
  VarNames.reserve(Ctx_.numVariables());
  for (uint32_t Id = 0; Id != Ctx_.numVariables(); ++Id)
    VarNames.push_back(Ctx_.varName(Id));
  PreprocessOptions PO;
  PO.Enable = Opts.Preprocess;
  for (const std::string &Name : Opts.ProtectedVars)
    PO.KeepVarIds.push_back(Ctx_.varIdOf(Name));
  PO.KeepUsedExprs = Opts.BudgetTerms;
  PO.CaptureOriginalRows = Opts.CaptureProofData;
  PreprocessedFormula P = [&] {
    obs::TraceSpan Span("gf2_preprocess", {{"vars", Ctx_.numVariables()}});
    return preprocess(Ctx_, Root, PO);
  }();
  Prep = P.Stats;
  TriviallyUnsat = P.TriviallyUnsat;
  OriginalRows = std::move(P.OriginalRows);
  Eliminated = std::move(P.Eliminated);
  KeptRows = P.Rows;

  // Everything below is CNF materialization; the span's clause count is
  // attached on the normal exit (a trivially-UNSAT formula encodes none).
  obs::TraceSpan EncodeSpan("cnf_encode");
  CnfEncoder Encoder(Ctx_, Cnf, Opts.CardEnc);
  if (Opts.CounterCap)
    Encoder.setBudgetTruncation(Opts.CounterCap, Opts.BudgetTerms);
  // Equivalence substitutions must be registered before anything is
  // encoded: every later occurrence of an aliased variable — residue,
  // budget terms — must resolve to its partner's literal.
  for (const VarAlias &A : P.Aliases)
    Encoder.aliasVar(A.VarId, A.ToVarId, A.Negated);
  // Materialize every non-eliminated named variable so models are always
  // total (a variable can be optimized away by constant folding yet still
  // be interesting to the caller); eliminated variables are reconstructed
  // at model read-back instead.
  std::unordered_set<uint32_t> Dropped;
  for (const VarReconstruction &R : Eliminated)
    Dropped.insert(R.VarId);
  for (uint32_t Id = 0; Id != Ctx_.numVariables(); ++Id) {
    if (Dropped.count(Id))
      continue;
    Var V = Encoder.satVarOf(Id);
    NamedVars.emplace_back(Ctx_.varName(Id), V);
    BoolVarOfSat.emplace(V, Id);
  }
  if (TriviallyUnsat)
    return; // refuted before any clause exists

  // Reduced parity rows — native XOR constraints for the solver's
  // Gauss engine, or CNF parity chains when NativeXor is off — then the
  // irreducible residue, then the weight layer.
  std::vector<Lit> RowLits;
  for (const ParityRow &R : P.Rows) {
    if (Opts.NativeXor) {
      std::vector<sat::Var> RowVars;
      RowVars.reserve(R.Vars.size());
      for (uint32_t V : R.Vars)
        RowVars.push_back(Encoder.satVarOf(V));
      XorRows.emplace_back(std::move(RowVars), R.Rhs);
      continue;
    }
    RowLits.clear();
    for (uint32_t V : R.Vars)
      RowLits.push_back(sat::mkLit(Encoder.satVarOf(V)));
    Encoder.assertParity(RowLits, R.Rhs);
  }
  for (ExprRef C : P.Residue)
    Encoder.assertTrue(C);
  if (!Opts.BudgetTerms.empty()) {
    std::vector<Lit> Terms;
    Terms.reserve(Opts.BudgetTerms.size());
    for (ExprRef T : Opts.BudgetTerms)
      Terms.push_back(Encoder.encode(T));
    BudgetCounter = Encoder.counterOver(Terms, Opts.CounterCap);
    NumBudgetTerms = Terms.size();
  }
  EncodeSpan.arg("clauses", Cnf.Clauses.size());
}

sat::Solver VerificationProblem::makeSolver() const {
  sat::Solver S;
  loadInto(S);
  return S;
}

void VerificationProblem::loadInto(sat::Solver &S) const {
  for (size_t I = 0; I != Cnf.NumVars; ++I)
    S.newVar();
  for (const auto &C : Cnf.Clauses)
    S.addClause(C);
  std::vector<Lit> RowLits;
  for (const auto &[Vars, Rhs] : XorRows) {
    RowLits.clear();
    for (sat::Var V : Vars)
      RowLits.push_back(sat::mkLit(V));
    S.addXorClause(RowLits, Rhs);
  }
}

void VerificationProblem::readModel(
    const sat::Solver &S, std::unordered_map<std::string, bool> &Model) const {
  for (const auto &[Name, V] : NamedVars)
    Model[Name] = S.modelValue(V);
  // Eliminated variables, replayed in REVERSE elimination order: a
  // record's dependencies are either surviving variables (already in the
  // model) or variables eliminated later (already reconstructed).
  for (auto It = Eliminated.rbegin(); It != Eliminated.rend(); ++It) {
    bool B = It->Constant;
    for (uint32_t D : It->Deps)
      B ^= Model.at(VarNames[D]);
    Model[VarNames[It->VarId]] = B;
  }
}

Var VerificationProblem::varOfName(const std::string &Name) const {
  for (const auto &[N, V] : NamedVars)
    if (N == Name)
      return V;
  fatalError("unknown split variable: " + Name);
}

void VerificationProblem::appendWeightAssumptions(uint32_t MaxW,
                                                 std::vector<Lit> &Out,
                                                 uint32_t MinW) const {
  assert(NumBudgetTerms != 0 && "problem built without a weight layer");
  if (MinW > 0) {
    assert(MinW <= BudgetCounter.size() && "bound beyond the counter depth");
    Out.push_back(BudgetCounter[MinW - 1]);
  }
  if (MaxW < NumBudgetTerms) {
    assert(MaxW < BudgetCounter.size() && "bound beyond the counter depth");
    Out.push_back(~BudgetCounter[MaxW]);
  }
}

void VerificationProblem::assertWeightBound(sat::Solver &S, uint32_t MaxW,
                                            uint32_t MinW) const {
  std::vector<Lit> Units;
  appendWeightAssumptions(MaxW, Units, MinW);
  for (Lit L : Units)
    S.addClause(L);
}

size_t VerificationProblem::parityParticipation(sat::Var V) const {
  auto It = BoolVarOfSat.find(V);
  if (It == BoolVarOfSat.end())
    return 0;
  uint32_t BoolVar = It->second;
  size_t Count = 0;
  for (const ParityRow &Row : KeptRows)
    // Row variables are kept sorted (Preprocessor invariant).
    if (std::binary_search(Row.Vars.begin(), Row.Vars.end(), BoolVar))
      ++Count;
  return Count;
}

ProblemOptions veriqec::smt::makeProblemOptions(const BoolContext &Ctx,
                                                const SolveOptions &Opts) {
  ProblemOptions PO;
  PO.CardEnc = Opts.CardEnc;
  PO.Preprocess = Opts.Preprocess;
  PO.NativeXor = Opts.Xor == XorMode::On;
  PO.ProtectedVars = Opts.SplitVars;
  for (const std::string &Name : Opts.BudgetVars)
    PO.BudgetTerms.push_back(Ctx.varRef(Name));
  if (!Opts.BudgetVars.empty())
    // Every consumer hardens the bound at the root (assertWeightBound),
    // so counters past it are dead weight.
    PO.CounterCap = static_cast<size_t>(Opts.BudgetBound) + 1;
  PO.CaptureProofData = Opts.LogProofs;
  return PO;
}
