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

#include <cstdint>
#include <span>
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
  size_t numRows() const { return RowRhs.size(); }
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
  /// counter and column mirrors back. The registered basis itself never changes with
  /// the trail, so nothing else needs undoing.
  void onBacktrack(size_t NewTrailSize);

private:
  struct OriginalRow {
    std::vector<Var> Vars;
    bool Rhs = false;
  };

  /// The (sparse, as-registered) basis: row R is the equation
  /// XOR(VarOfCol[C] for C in RowCols[RowBegin[R] .. RowBegin[R + 1]])
  /// == RowRhs[R], its columns sorted ascending.
  std::vector<uint32_t> RowBegin;
  std::vector<uint32_t> RowCols;
  std::vector<uint8_t> RowRhs;
  std::vector<OriginalRow> Original;

  std::vector<Var> VarOfCol;
  std::vector<int32_t> ColOfVar; ///< dense, -1 = not an XOR variable
  std::vector<std::vector<uint32_t>> RowsOfCol;

  /// Live mirror of the trail restricted to XOR variables.
  std::vector<uint32_t> Unknowns; ///< unassigned vars per row
  struct AppliedEntry {
    uint32_t TrailPos;
    uint32_t Col;
  };
  std::vector<AppliedEntry> Applied;
  size_t TrailSeen = 0;
  /// The same mirror per column, one bit each: unassigned columns, and
  /// columns assigned true.
  std::vector<uint64_t> ColFree;
  std::vector<uint64_t> ColTrue;

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

  /// Scratch kept across calls so the search loop never allocates here.
  /// deepCheck() works on dense rows of RowWords words, bit C being
  /// column C.
  size_t RowWords = 0;
  /// The residual rows of one elimination, flat: row K occupies words
  /// [K * RowWords, (K + 1) * RowWords); the first NumElim rows are live.
  std::vector<uint64_t> Elim;
  /// Per residual row: the words [Lo, Hi) outside which it is zero, and
  /// its right-hand side.
  struct ElimRow {
    uint32_t Lo = 0;
    uint32_t Hi = 0;
    bool Rhs = false;
  };
  std::vector<ElimRow> ElimRows;
  /// ColFree/ColTrue as of the running elimination, including what its
  /// inspect pass has implied so far.
  std::vector<uint64_t> FreeMask;
  std::vector<uint64_t> TrueMask;
  /// Occurrence bitsets over the residual rows (one bit per row, so
  /// (NumElim + 63) / 64 words each), one per column that was unassigned
  /// when the elimination started: FreeSlot[C] is the index of column
  /// C's bitset in Occ, and slot 0 is a sink for the assigned columns.
  std::vector<uint32_t> FreeSlot;
  std::vector<uint64_t> Occ;
  /// The residual rows after the current pivot row that hold its pivot
  /// column.
  std::vector<uint64_t> Targets;
  /// processRow()'s inputs and output for a combined row: its columns,
  /// and the reason/conflict clause.
  std::vector<uint32_t> ComboCols;
  std::vector<Lit> ReasonLits;

  int32_t processRow(Solver &S, std::span<const uint32_t> Cols, bool Rhs);
  /// One fresh forward elimination of the residual system (the rows with
  /// >= 2 unknowns) over the unassigned columns, then a live inspect pass
  /// over the combined rows. Word-parallel: a row's pivot is the first
  /// set bit of row & FreeMask, the later rows it must clear come from
  /// its pivot column's occurrence bitset, and the inspect pass judges
  /// rows on the masks, calling processRow() only for units and
  /// conflicts.
  int32_t deepCheck(Solver &S);
  void syncTrail(Solver &S);
};

} // namespace veriqec::sat

#endif // VERIQEC_SAT_GAUSSENGINE_H
