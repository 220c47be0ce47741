//===- smt/CnfEncoder.h - Tseitin CNF encoding ------------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates BoolContext expressions into CNF: plain Tseitin for the
/// logical connectives, XOR chains for parities, and sequential-counter
/// unary sums for cardinality and pseudo-Boolean comparison atoms. The
/// output CnfFormula is solver-neutral so the parallel driver can hand the
/// same clause set to many Solver instances.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_SMT_CNFENCODER_H
#define VERIQEC_SMT_CNFENCODER_H

#include "sat/SatTypes.h"
#include "smt/BoolExpr.h"

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace veriqec::smt {

/// A CNF instance decoupled from any Solver, plus the mapping from
/// BoolContext variables to CNF variables (needed for model read-back and
/// cube assumptions).
struct CnfFormula {
  size_t NumVars = 0;
  std::vector<std::vector<sat::Lit>> Clauses;
  std::unordered_map<uint32_t, sat::Var> VarOfBoolVar;

  sat::Var newVar() { return static_cast<sat::Var>(NumVars++); }
  void add(std::vector<sat::Lit> C) { Clauses.push_back(std::move(C)); }
};

/// Available cardinality encodings (the ablation benchmark compares them).
enum class CardinalityEncoding {
  SequentialCounter, ///< O(n*k) auxiliary counter registers (default)
  PairwiseNaive,     ///< O(n^{k+1}) direct clauses; only sane for tiny k
};

/// Encoder: one per (context, formula) pair; memoizes node literals and
/// unary counters so shared sub-sums are built once.
class CnfEncoder {
public:
  CnfEncoder(const BoolContext &Ctx, CnfFormula &Out,
             CardinalityEncoding CardEnc =
                 CardinalityEncoding::SequentialCounter)
      : Ctx(Ctx), Out(Out), CardEnc(CardEnc) {}

  /// Returns a literal equivalent to the expression (defining auxiliary
  /// clauses as needed).
  sat::Lit encode(ExprRef R);

  /// Asserts the expression as a top-level fact.
  void assertTrue(ExprRef R) { Out.add({encode(R)}); }

  /// CNF variable carrying the named BoolContext variable, creating the
  /// mapping if needed.
  sat::Var satVarOf(uint32_t BoolVarId);

  /// Routes every encoding of Bool variable \p VarId through the literal
  /// of \p ToVarId (negated when \p Negated) instead of materializing a
  /// CNF variable for it — the encoder half of the preprocessor's
  /// equivalence-literal substitution (2-literal parity rows x = y /
  /// x != y). Must be registered before the first encode() call reaches
  /// the variable; \p ToVarId must not itself be aliased.
  void aliasVar(uint32_t VarId, uint32_t ToVarId, bool Negated) {
    Alias.emplace(VarId, std::make_pair(ToVarId, Negated));
  }

  /// Asserts XOR over \p Lits == \p Odd as a top-level fact: unit/binary
  /// clauses for short rows, a direct aux-free encoding for ternary rows,
  /// and a balanced tree of XOR gates above that. This is how the
  /// preprocessor's reduced GF(2) rows reach the solver.
  void assertParity(const std::vector<sat::Lit> &Lits, bool Odd);

  /// Two-sided unary counter over \p Inputs: result[j-1] <=> (sum >= j)
  /// for j = 1..min(MaxJ, Inputs.size()) (MaxJ = 0 means full depth),
  /// in n*min(MaxJ, n) registers: each is an alias or one variable with
  /// at most four clauses, with no carry auxiliaries. Shares the counter
  /// cache with cardinality atoms over the same inputs. This is the
  /// substrate of the assumption-activated weight layers: one encoding
  /// serves every bound below its depth, because assuming ~result[K]
  /// enforces sum <= K and result[K-1] enforces sum >= K at solve time.
  const std::vector<sat::Lit> &counterOver(const std::vector<sat::Lit> &Inputs,
                                           size_t MaxJ = 0) {
    return unaryCounter(Inputs, MaxJ ? MaxJ : Inputs.size());
  }

  /// Enables budget-driven counter truncation: the caller guarantees
  /// (by a root-level unit on the budget counter) that the sum over
  /// \p BudgetTerms never reaches \p Cap. SumLeqSum atoms whose
  /// right-hand side consists solely of budget terms then only encode
  /// comparison thresholds up to Cap — the threshold-Cap implication
  /// pins the left sum below Cap, making every higher threshold vacuous
  /// — which keeps the unary counters shallow (O(n*Cap) instead of
  /// O(n^2) registers of one variable and at most four clauses each).
  /// Only those atoms read the cap: the depth of a counterOver() layer
  /// is its caller's MaxJ.
  void setBudgetTruncation(size_t Cap,
                           const std::vector<ExprRef> &BudgetTerms) {
    CounterCap = Cap;
    BudgetSet.insert(BudgetTerms.begin(), BudgetTerms.end());
  }

private:
  sat::Lit parityLit(const std::vector<sat::Lit> &Lits, size_t Begin,
                     size_t End);
  sat::Lit trueLit();
  sat::Lit mkAndLits(const std::vector<sat::Lit> &Lits);
  sat::Lit mkOrLits(const std::vector<sat::Lit> &Lits);
  sat::Lit mkXorLits(sat::Lit A, sat::Lit B);

  /// Unary counter over \p Inputs: result[j-1] <=> (sum >= j), for
  /// j = 1..MaxJ, as Sinz's sequential counter (CP'05): each register
  /// is one variable with the clauses of
  /// r[i][j] <=> r[i-1][j] | (x_i & r[i-1][j-1]). The full register
  /// bank is cached per input list and deepened in place on a later
  /// deeper request, so request order does not matter and nothing is
  /// ever re-encoded.
  const std::vector<sat::Lit> &unaryCounter(const std::vector<sat::Lit> &Inputs,
                                            size_t MaxJ);

  sat::Lit encodeCardinalityGE(const std::vector<sat::Lit> &Inputs,
                               uint32_t K);

  const BoolContext &Ctx;
  CnfFormula &Out;
  CardinalityEncoding CardEnc;
  std::unordered_map<ExprRef, sat::Lit> Memo;
  /// Equivalence-substituted variables: VarId -> (partner, negated).
  std::unordered_map<uint32_t, std::pair<uint32_t, bool>> Alias;
  /// Per input list: the counter register bank, Cols[i][j-1] <=>
  /// (first i+1 inputs have >= j ones), deepened on demand.
  std::map<std::vector<int32_t>, std::vector<std::vector<sat::Lit>>>
      CounterCache;
  size_t CounterCap = 0;
  std::unordered_set<ExprRef> BudgetSet;
  sat::Lit CachedTrue = sat::Lit::undef();
};

} // namespace veriqec::smt

#endif // VERIQEC_SMT_CNFENCODER_H
