//===- gf2/BitMatrix.h - Dense GF(2) matrix algebra ------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense matrices over GF(2) with the elimination routines the stabilizer
/// formalism needs: rank/RREF, linear solves, nullspace bases, and
/// expressing vectors over a generating set (the engine behind
/// Proposition 5.2's generator re-expression).
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_GF2_BITMATRIX_H
#define VERIQEC_GF2_BITMATRIX_H

#include "support/BitVector.h"

#include <optional>
#include <string>
#include <vector>

namespace veriqec {

/// Dense matrix over GF(2); rows are BitVectors of equal length.
class BitMatrix {
public:
  BitMatrix() = default;

  /// Creates a zero matrix of \p NumRows x \p NumCols.
  BitMatrix(size_t NumRows, size_t NumCols)
      : NumCols(NumCols), Rows(NumRows, BitVector(NumCols)) {}

  /// Builds a matrix from existing rows; all rows must share a length.
  static BitMatrix fromRows(std::vector<BitVector> RowsIn);

  /// The n x n identity.
  static BitMatrix identity(size_t N);

  size_t numRows() const { return Rows.size(); }
  size_t numCols() const { return NumCols; }

  bool get(size_t R, size_t C) const { return Rows[R].get(C); }
  void set(size_t R, size_t C, bool V = true) { Rows[R].set(C, V); }

  const BitVector &row(size_t R) const { return Rows[R]; }
  BitVector &row(size_t R) { return Rows[R]; }

  /// Appends \p Row (must have numCols() bits, unless the matrix is empty in
  /// which case it defines the width).
  void appendRow(BitVector Row);

  void swapRows(size_t A, size_t B) { std::swap(Rows[A], Rows[B]); }

  BitMatrix transposed() const;

  /// Matrix-vector product (over GF(2)); \p V has numCols() bits.
  BitVector multiply(const BitVector &V) const;

  /// Matrix-matrix product; this->numCols() must equal Other.numRows().
  BitMatrix multiply(const BitMatrix &Other) const;

  /// Reduces the matrix in place to reduced row-echelon form.
  /// \returns the pivot column of each nonzero row, in order.
  std::vector<size_t> rowReduce();

  /// Rank (does not modify the matrix).
  size_t rank() const;

  /// Solves x such that (*this) * x = B. \returns nullopt if inconsistent.
  /// When the system is underdetermined an arbitrary solution is returned
  /// (free variables set to zero).
  std::optional<BitVector> solve(const BitVector &B) const;

  /// A basis of { x : (*this) * x = 0 }.
  std::vector<BitVector> nullspaceBasis() const;

  /// Expresses \p Target as a GF(2) combination of this matrix's *rows*:
  /// finds c with c^T * (*this) = Target. \returns the row-selector c, or
  /// nullopt if Target is outside the row space. This is the workhorse of
  /// the case-2 VC reduction (writing a primed generator as a product of
  /// the original generating set).
  std::optional<BitVector> expressInRowSpace(const BitVector &Target) const;

  /// True if \p Target lies in the row space.
  bool rowSpaceContains(const BitVector &Target) const {
    return expressInRowSpace(Target).has_value();
  }

  bool operator==(const BitMatrix &Other) const {
    return NumCols == Other.NumCols && Rows == Other.Rows;
  }

  /// Multi-line 0/1 rendering for diagnostics.
  std::string toString() const;

private:
  size_t NumCols = 0;
  std::vector<BitVector> Rows;
};

} // namespace veriqec

#endif // VERIQEC_GF2_BITMATRIX_H
