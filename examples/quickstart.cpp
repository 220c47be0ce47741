//===- examples/quickstart.cpp - Verifying the Steane code in 60 lines ----===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's running example (Section 2.2 / Eqn. (2)): build the
/// [[7,1,3]] Steane code, verify that one error-correction cycle corrects
/// any single Pauli error, and verify the fault-tolerant logical Hadamard
/// with propagation errors. Then break the decoder contract and watch the
/// verifier produce a counterexample.
///
//===----------------------------------------------------------------------===//

#include "qec/Codes.h"
#include "verifier/Verifier.h"

#include <cstdio>

using namespace veriqec;

int main() {
  StabilizerCode Steane = makeSteaneCode();
  std::printf("code: %s [[%zu,%zu,%zu]]\n", Steane.Name.c_str(),
              Steane.NumQubits, Steane.NumLogical, Steane.Distance);

  // 1. One cycle of error correction corrects any single Y error.
  Scenario Memory =
      makeMemoryScenario(Steane, PauliKind::Y, LogicalBasis::Z, 1);
  VerificationResult R = verifyScenario(Memory);
  // Every verdict printed below must be the expected one.
  bool Ok = R.Verified;
  std::printf("memory, <=1 Y error:      %s (%.1f ms, %llu conflicts)\n",
              R.Verified ? "VERIFIED" : "FAILED", R.Seconds * 1e3,
              static_cast<unsigned long long>(R.Stats.Conflicts));

  // 2. The fault-tolerant logical Hadamard of Eqn. (2): propagation
  // errors + standard errors, at most one in total.
  for (LogicalBasis Basis : {LogicalBasis::X, LogicalBasis::Z}) {
    Scenario LogicalH =
        makeLogicalHScenario(Steane, PauliKind::Y, Basis, 1);
    VerificationResult RH = verifyScenario(LogicalH);
    std::printf("Steane(Y,H), basis %c:     %s (%.1f ms)\n",
                Basis == LogicalBasis::X ? 'X' : 'Z',
                RH.Verified ? "VERIFIED" : "FAILED", RH.Seconds * 1e3);
    Ok &= RH.Verified;
  }

  // 3. Two errors exceed the distance-3 budget: the verifier finds a
  // concrete uncorrectable pattern.
  Scenario TooMany =
      makeMemoryScenario(Steane, PauliKind::Y, LogicalBasis::Z, 2);
  VerificationResult R2 = verifyScenario(TooMany);
  std::printf("memory, <=2 Y errors:     %s\n",
              R2.Verified ? "VERIFIED" : "counterexample found");
  if (!R2.Verified) {
    std::printf("  offending errors:");
    for (const std::string &E : TooMany.ErrorVars)
      if (R2.CounterExample.at(E))
        std::printf(" %s", E.c_str());
    std::printf("\n");
  }
  Ok &= !R2.Verified && !R2.CounterExample.empty();

  // 4. A decoder that ignores minimum-weight is caught immediately.
  Scenario Weak = makeMemoryScenario(Steane, PauliKind::X, LogicalBasis::Z, 1);
  Weak.Weights.clear();
  VerificationResult R3 = verifyScenario(Weak);
  std::printf("weakened decoder contract: %s\n",
              R3.Verified ? "VERIFIED (unexpected!)"
                          : "counterexample found, as expected");
  Ok &= !R3.Verified && !R3.CounterExample.empty();
  return Ok ? 0 : 1;
}
