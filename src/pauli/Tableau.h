//===- pauli/Tableau.h - Stabilizer tableau simulator -----------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Aaronson-Gottesman style stabilizer tableau with destabilizers,
/// supporting Clifford gates, Pauli errors, arbitrary Pauli measurements
/// and qubit reset. This is the simulation substrate playing the role Stim
/// plays in the paper's Section 7.2 comparison, and the engine behind the
/// stabilizer interpreter of the program semantics.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_PAULI_TABLEAU_H
#define VERIQEC_PAULI_TABLEAU_H

#include "pauli/Pauli.h"
#include "support/Rng.h"

#include <optional>
#include <vector>

namespace veriqec {

/// Stabilizer state of n qubits, initialized to |0...0>.
class Tableau {
public:
  explicit Tableau(size_t NumQubits);

  size_t numQubits() const { return N; }

  /// Applies a Clifford gate (T is rejected by assertion).
  void applyGate(GateKind Kind, size_t Q0, size_t Q1 = ~size_t{0});

  /// Applies a Pauli operator as an error/correction (only signs change).
  void applyPauli(const Pauli &P);

  /// Measures the Hermitian Pauli \p P. Outcome 0 means the +1 eigenvalue
  /// (the paper's convention for x := meas[P]). Random outcomes are drawn
  /// from \p R; pass \p Forced to postselect a branch (assertion-fails if
  /// that branch has probability 0).
  bool measure(const Pauli &P, Rng &R,
               std::optional<bool> Forced = std::nullopt);

  /// If the measurement of \p P would be deterministic, returns its
  /// outcome; otherwise nullopt.
  std::optional<bool> deterministicOutcome(const Pauli &P) const;

  /// Resets qubit \p Q to |0> (measure Z and flip on outcome 1).
  void reset(size_t Q, Rng &R);

  /// True if the state is stabilized by \p P (i.e. measuring P yields 0
  /// with certainty).
  bool isStabilizedBy(const Pauli &P) const {
    std::optional<bool> Det = deterministicOutcome(P);
    return Det.has_value() && !*Det;
  }

  const Pauli &stabilizer(size_t I) const { return Stabs[I]; }

private:
  size_t N;
  std::vector<Pauli> Stabs;
  std::vector<Pauli> Destabs;
};

} // namespace veriqec

#endif // VERIQEC_PAULI_TABLEAU_H
