//===- smt/BoolExpr.h - Boolean expression DAG ------------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consed Boolean expressions over named variables, with the
/// connectives the classical verification conditions of QEC programs need:
/// AND/OR/NOT/XOR plus cardinality atoms (at-most-k / at-least-k) and
/// pseudo-Boolean sum comparisons (sum(A) <= sum(B), used by the decoder
/// contract "weight of corrections <= weight of errors" of Section 5.2).
/// This is the expression language the paper encodes into SMT-LIB; here it
/// is encoded into CNF for the built-in CDCL solver.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_SMT_BOOLEXPR_H
#define VERIQEC_SMT_BOOLEXPR_H

#include "support/Assert.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace veriqec::smt {

/// Index of a node inside a BoolContext.
using ExprRef = uint32_t;

/// Node kinds after desugaring (Implies/Iff are folded into these).
enum class BoolKind : uint8_t {
  Const,
  Var,
  Not,
  And,
  Or,
  Xor,
  AtMost,    ///< sum(kids) <= K
  AtLeast,   ///< sum(kids) >= K
  SumLeqSum, ///< sum(kids[0..SplitAt)) <= sum(kids[SplitAt..))
};

/// One DAG node. Immutable once created.
struct BoolNode {
  BoolKind Kind;
  bool ConstVal = false;
  uint32_t VarId = 0;
  uint32_t K = 0; ///< cardinality threshold, or the split point (SumLeqSum)
  std::vector<ExprRef> Kids;
};

/// Owning arena of hash-consed Boolean expressions. All mk* functions
/// perform light constant folding so trivially true/false structure
/// collapses before CNF encoding.
class BoolContext {
public:
  BoolContext();

  // -- Construction --------------------------------------------------------
  ExprRef mkConst(bool V) { return V ? TrueRef : FalseRef; }
  ExprRef mkTrue() { return TrueRef; }
  ExprRef mkFalse() { return FalseRef; }

  /// Returns (creating on first use) the variable named \p Name.
  ExprRef mkVar(const std::string &Name);

  /// Id of an existing variable (fatal if unknown) — const lookup for
  /// layers that must not grow the context.
  uint32_t varIdOf(const std::string &Name) const;

  /// ExprRef of an existing variable (fatal if unknown).
  ExprRef varRef(const std::string &Name) const {
    return VarRefs[varIdOf(Name)];
  }

  ExprRef mkNot(ExprRef A);
  ExprRef mkAnd(std::vector<ExprRef> Kids);
  ExprRef mkOr(std::vector<ExprRef> Kids);
  ExprRef mkXor(std::vector<ExprRef> Kids);
  ExprRef mkAnd(ExprRef A, ExprRef B) { return mkAnd(std::vector{A, B}); }
  ExprRef mkOr(ExprRef A, ExprRef B) { return mkOr(std::vector{A, B}); }
  ExprRef mkXor(ExprRef A, ExprRef B) { return mkXor(std::vector{A, B}); }
  ExprRef mkImplies(ExprRef A, ExprRef B) { return mkOr(mkNot(A), B); }
  ExprRef mkIff(ExprRef A, ExprRef B) { return mkNot(mkXor(A, B)); }

  /// sum over \p Kids of their 0/1 values <= \p K.
  ExprRef mkAtMost(std::vector<ExprRef> Kids, uint32_t K);
  /// sum over \p Kids >= \p K.
  ExprRef mkAtLeast(std::vector<ExprRef> Kids, uint32_t K);
  /// sum(\p A) <= sum(\p B).
  ExprRef mkSumLeqSum(std::vector<ExprRef> A, std::vector<ExprRef> B);

  // -- Inspection ----------------------------------------------------------
  const BoolNode &node(ExprRef R) const { return Nodes[R]; }
  size_t numNodes() const { return Nodes.size(); }
  size_t numVariables() const { return VarNames.size(); }
  const std::string &varName(uint32_t VarId) const { return VarNames[VarId]; }

  /// Evaluates under a total assignment indexed by VarId. Used for model
  /// validation and brute-force cross-checks in tests.
  bool evaluate(ExprRef R, const std::vector<bool> &VarValues) const;

  /// Pretty-prints an expression (diagnostics / golden tests).
  std::string toString(ExprRef R) const;

private:
  ExprRef intern(BoolNode N);
  uint64_t hashNode(const BoolNode &N) const;

  std::vector<BoolNode> Nodes;
  std::unordered_map<uint64_t, std::vector<ExprRef>> Interned;
  std::unordered_map<std::string, uint32_t> VarByName;
  std::vector<std::string> VarNames;
  std::vector<ExprRef> VarRefs;
  ExprRef TrueRef = 0;
  ExprRef FalseRef = 0;
};

} // namespace veriqec::smt

#endif // VERIQEC_SMT_BOOLEXPR_H
