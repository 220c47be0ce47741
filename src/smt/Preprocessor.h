//===- smt/Preprocessor.h - GF(2)/XOR-aware preprocessing -------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algebraic preprocessing of verification conditions before CNF encoding.
/// The negations of QEC verification conditions are dominated by GF(2)
/// syndrome equations — exactly the structure a CDCL solver handles worst
/// once Tseitin-flattened. The preprocessor lifts the parity subsystem of
/// a BoolExpr conjunction into a gf2::BitMatrix, Gaussian-eliminates it,
/// detects trivial unsatisfiability, drops variables that occur only in
/// the linear subsystem (recording how to reconstruct their values from a
/// model of the residue), and hands the encoder the irreducible residue
/// plus the reduced row basis.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_SMT_PREPROCESSOR_H
#define VERIQEC_SMT_PREPROCESSOR_H

#include "smt/BoolExpr.h"

#include <cstdint>
#include <vector>

namespace veriqec::smt {

/// One linear GF(2) equation over BoolContext variables:
/// XOR over Vars == Rhs. Vars are sorted and duplicate-free.
struct ParityRow {
  std::vector<uint32_t> Vars;
  bool Rhs = false;
};

/// How to rebuild an eliminated variable from a model of the residue:
/// value(VarId) = XOR over value(Deps) + Constant. Records are emitted in
/// elimination order; a record's Deps may contain variables eliminated
/// LATER, so reconstruction replays the records in reverse.
struct VarReconstruction {
  uint32_t VarId = 0;
  std::vector<uint32_t> Deps;
  bool Constant = false;
};

/// Telemetry of one preprocessing run (surfaced by --bench-out).
struct PreprocessStats {
  /// Conjuncts of the top-level AND recognized as parity equations.
  size_t LinearConjuncts = 0;
  /// Distinct variables of the parity subsystem.
  size_t LinearVars = 0;
  /// Rows of the reduced basis that stay in the encoding.
  size_t RowsKept = 0;
  /// Single-variable rows (turn into unit clauses).
  size_t UnitsFixed = 0;
  /// Variables dropped from the encoding entirely.
  size_t VarsEliminated = 0;
  /// Variables substituted away through a 2-literal equivalence row
  /// (x = y / x != y). Counted separately from VarsEliminated: the
  /// variable keeps a literal in the CNF (its partner's), it just never
  /// materializes a CNF variable or a parity row of its own.
  size_t EquivAliased = 0;
  /// Conjuncts the linear lift could not absorb.
  size_t ResidueConjuncts = 0;
  bool TriviallyUnsat = false;

  /// The count fields above, in wire order, named by their --bench-out
  /// "prep" keys; TriviallyUnsat is the one flag and is handled apart.
  struct Field {
    const char *Name;
    size_t PreprocessStats::*Member;
  };
  static constexpr Field Fields[] = {
      {"linear_conjuncts", &PreprocessStats::LinearConjuncts},
      {"linear_vars", &PreprocessStats::LinearVars},
      {"rows_kept", &PreprocessStats::RowsKept},
      {"units_fixed", &PreprocessStats::UnitsFixed},
      {"vars_eliminated", &PreprocessStats::VarsEliminated},
      {"equiv_aliased", &PreprocessStats::EquivAliased},
      {"residue_conjuncts", &PreprocessStats::ResidueConjuncts},
  };
};
// The trailing flag pads to one more size_t.
static_assert(sizeof(PreprocessStats) ==
                  (std::size(PreprocessStats::Fields) + 1) * sizeof(size_t),
              "every PreprocessStats count needs a Fields entry");

/// A 2-literal equivalence distilled from a kept parity row u ^ v = c:
/// VarId (= v) is eliminated from the encoding entirely; every occurrence
/// of it — rows, residue, budget terms — encodes as the literal of
/// ToVarId, negated when \p Negated. Model read-back reconstructs the
/// value through the matching VarReconstruction record.
struct VarAlias {
  uint32_t VarId = 0;
  uint32_t ToVarId = 0;
  bool Negated = false;
};

struct PreprocessOptions {
  /// Master switch; disabled, preprocess() returns the whole input as
  /// residue (the legacy pipeline).
  bool Enable = true;
  /// Variables that must survive as encoder variables regardless of
  /// occurrence (cube split variables, weight-layer inputs).
  std::vector<uint32_t> KeepVarIds;
  /// Expressions encoded outside the preprocessed conjunction (e.g. the
  /// weight layer's counter inputs); every variable they reach is pinned.
  std::vector<ExprRef> KeepUsedExprs;
  /// Keep a copy of the lifted parity rows as they entered reduction
  /// (PreprocessedFormula::OriginalRows). Proof emission replays kept
  /// rows and elimination records against them; off by default because
  /// the copy is pure overhead otherwise.
  bool CaptureOriginalRows = false;
};

/// Result of preprocessing one conjunction: the formula is equivalent to
/// AND(Residue) ∧ AND(Rows) ∧ (the dropped defining rows of Eliminated),
/// and every model of Residue ∧ Rows extends uniquely to the eliminated
/// variables via the reconstruction records.
struct PreprocessedFormula {
  bool TriviallyUnsat = false;
  std::vector<ExprRef> Residue;
  std::vector<ParityRow> Rows;
  std::vector<VarReconstruction> Eliminated;
  /// Equivalence substitutions (2-literal rows) the encoder must apply
  /// while encoding Residue/Rows; every alias also has a reconstruction
  /// record in Eliminated. Targets are fully resolved: an alias never
  /// points at another aliased variable.
  std::vector<VarAlias> Aliases;
  /// With PreprocessOptions::CaptureOriginalRows: the parity rows as
  /// lifted from the conjunction, before any reduction — the base the
  /// proof checker verifies Rows and Eliminated against. A trivially
  /// unsatisfiable constant-false root captures the single row 0 == 1
  /// (the lift of "false"). Empty otherwise.
  std::vector<ParityRow> OriginalRows;
  PreprocessStats Stats;
};

/// Lifts and reduces the parity subsystem of \p Root (interpreted as a
/// top-level conjunction in \p Ctx).
PreprocessedFormula preprocess(const BoolContext &Ctx, ExprRef Root,
                               const PreprocessOptions &Opts = {});

} // namespace veriqec::smt

#endif // VERIQEC_SMT_PREPROCESSOR_H
