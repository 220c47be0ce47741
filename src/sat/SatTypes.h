//===- sat/SatTypes.h - Variables, literals, truth values ------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic vocabulary of the CDCL solver: variables, literals in the
/// MiniSat-style packed encoding, and three-valued assignments.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_SAT_SATTYPES_H
#define VERIQEC_SAT_SATTYPES_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace veriqec::sat {

/// A propositional variable, numbered from 0.
using Var = int32_t;

/// A literal: variable with polarity, packed as 2*var + (negated ? 1 : 0).
struct Lit {
  int32_t Code = -2;

  Lit() = default;
  Lit(Var V, bool Negated) : Code(2 * V + (Negated ? 1 : 0)) {}

  Var var() const { return Code >> 1; }
  bool negated() const { return Code & 1; }
  Lit operator~() const {
    Lit L;
    L.Code = Code ^ 1;
    return L;
  }
  bool operator==(const Lit &O) const { return Code == O.Code; }
  bool operator!=(const Lit &O) const { return Code != O.Code; }
  bool operator<(const Lit &O) const { return Code < O.Code; }

  /// A sentinel literal distinct from every real literal.
  static Lit undef() { return Lit(); }
  bool isUndef() const { return Code < 0; }
};

/// Positive literal of \p V.
inline Lit mkLit(Var V) { return Lit(V, false); }

/// Three-valued assignment.
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

} // namespace veriqec::sat

#endif // VERIQEC_SAT_SATTYPES_H
