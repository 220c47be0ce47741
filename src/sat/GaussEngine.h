//===- sat/GaussEngine.h - Gauss-in-the-loop XOR reasoning -----*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Native XOR-constraint reasoning inside the CDCL solver, in the
/// CryptoMiniSat lineage: parity rows are kept as GF(2) equations instead
/// of being Tseitin-flattened into CNF. The engine holds the rows as a
/// static SPARSE basis — exactly as registered, deliberately never
/// reduced, since echelon rows are globally entangled and would densify
/// the occurrence lists and reason clauses (finalize() only runs a
/// scratch elimination for the consistency verdict). It mirrors the
/// solver trail into per-row unknown/parity counters for
/// watched-literal-cheap unit propagation, and periodically re-eliminates
/// the residual system over the still-unassigned columns to surface
/// implications no single row shows — the cross-row strength that makes
/// LDPC-scale parity subsystems tractable. Every implied literal and
/// conflict is justified by a materialized clause over the assigned
/// variables of the (possibly combined) row, so XOR-derived facts flow
/// through the solver's standard conflict analysis, assumption cores and
/// clause learning unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_SAT_GAUSSENGINE_H
#define VERIQEC_SAT_GAUSSENGINE_H

#include "sat/SatTypes.h"
#include "support/BitVector.h"

#include <cstdint>
#include <vector>

namespace veriqec::sat {

class Solver;

/// The XOR component of a Solver. A value type with no back-pointer: the
/// owning solver passes itself into every call, so solvers stay movable
/// (and copyable for the test-seam subclasses).
class GaussEngine {
public:
  /// Registers the equation XOR(Vars) == Rhs. Duplicate variables cancel
  /// in pairs. Rows may be added at any time; the basis is (re)built by
  /// the next finalize().
  void addRow(std::vector<Var> Vars, bool Rhs);

  bool hasRows() const { return !Original.empty(); }
  size_t numRows() const { return Rows.size(); }
  bool needsFinalize() const { return Dirty; }

  /// Rebuilds the basis (the registered rows verbatim, kept sparse) and
  /// decides their standalone consistency on a scratch elimination.
  /// Must be called at decision level 0 (the engine re-syncs from trail
  /// position 0 afterwards). Returns false if the rows alone are
  /// contradictory (0 == 1).
  bool finalize();

  /// Brings the engine to fixpoint against \p S's trail: substitutes new
  /// assignments into the row counters, propagates rows with a single
  /// unknown, and — when enough has changed since the last one — runs a
  /// fresh elimination of the residual system for cross-row implications.
  /// Returns a conflict clause reference (materialized in \p S) or
  /// Solver's NoReason sentinel.
  int32_t propagate(Solver &S);

  /// The solver trail shrank to \p NewTrailSize entries; rolls the
  /// counter mirror back. The echelon basis itself never changes with
  /// the trail, so nothing else needs undoing.
  void onBacktrack(size_t NewTrailSize);

private:
  struct OriginalRow {
    std::vector<Var> Vars;
    bool Rhs = false;
  };

  /// Rows of the (sparse, as-registered) basis: bit i < NumCols is the
  /// coefficient of VarOfCol[i]; bit NumCols is the right-hand side.
  std::vector<BitVector> Rows;
  std::vector<OriginalRow> Original;

  std::vector<Var> VarOfCol;
  std::vector<int32_t> ColOfVar; ///< dense, -1 = not an XOR variable
  std::vector<std::vector<uint32_t>> RowsOfCol;

  /// Live mirror of the trail restricted to XOR variables.
  std::vector<uint32_t> Unknowns; ///< unassigned vars per row
  std::vector<uint8_t> Residual;  ///< rhs ^ XOR of assigned values
  struct AppliedEntry {
    uint32_t TrailPos;
    uint32_t Col;
    uint8_t Value;
  };
  std::vector<AppliedEntry> Applied;
  size_t TrailSeen = 0;

  /// Rows whose unknown count dropped to <= 1 (deduplicated lazily: a
  /// stale entry is re-checked against the live counters when popped).
  std::vector<uint32_t> PendingRows;

  /// Cross-row elimination pacing: a fresh elimination of the residual
  /// system runs once at least DeepInterval XOR variables were assigned
  /// since the last run and the fast path came up empty. The interval
  /// adapts — a barren elimination doubles it (up to MaxDeepInterval),
  /// a productive one resets it — so workloads whose rows never combine
  /// into anything pay a vanishing overhead while LDPC-style systems
  /// keep the full cross-row strength.
  uint32_t AppliedSinceDeep = 0;
  uint32_t DeepInterval = MinDeepInterval;
  static constexpr uint32_t MinDeepInterval = 8;
  static constexpr uint32_t MaxDeepInterval = 4096;

  bool Dirty = false;

  /// Scratch kept across calls so the search loop never allocates here:
  /// deepCheck()'s residual rows (the first NumElim of a call are live)
  /// and processRow()'s reason/conflict clause.
  std::vector<BitVector> Elim;
  std::vector<Lit> ReasonLits;

  int32_t processRow(Solver &S, const BitVector &Row);
  int32_t deepCheck(Solver &S);
  void syncTrail(Solver &S);
};

} // namespace veriqec::sat

#endif // VERIQEC_SAT_GAUSSENGINE_H
