//===- examples/surface_code_verification.cpp - Section 7.1/7.2 demo ------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// General verification of rotated surface codes (accurate correction,
/// Eqn. (14), and precise detection, Eqn. (15)) across distances, plus
/// verification under user-provided error constraints (locality and
/// discreteness, Section 7.2) — the workloads behind Fig. 4, Fig. 6 and
/// Fig. 7 at example scale.
///
//===----------------------------------------------------------------------===//

#include "qec/Codes.h"
#include "support/Rng.h"
#include "verifier/Verifier.h"

#include <cstdio>

using namespace veriqec;

int main() {
  // Every verdict printed below must be the one theory predicts.
  bool Ok = true;
  for (size_t D : {3, 5}) {
    StabilizerCode Code = makeRotatedSurfaceCode(D);
    uint32_t T = static_cast<uint32_t>((D - 1) / 2);

    Scenario S = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, T);
    VerifyOptions Par;
    Par.Parallel = true;
    VerificationResult R = verifyScenario(S, Par);
    std::printf("surface d=%zu correction (t=%u): %s  %.2fs  cubes=%llu\n",
                D, T, R.Verified ? "VERIFIED" : "FAILED", R.Seconds,
                static_cast<unsigned long long>(R.NumCubes));
    Ok &= R.Verified;

    DetectionResult Det = verifyDetection(Code, D - 1);
    std::printf("surface d=%zu detection  (w<%zu): %s  %.2fs\n", D, D,
                Det.Detects ? "VERIFIED" : "FAILED", Det.Seconds);
    Ok &= Det.Detects;
    DetectionResult Beyond = verifyDetection(Code, D);
    std::printf("surface d=%zu detection  (w<=%zu): %s", D, D,
                Beyond.Detects ? "holds (unexpected)" : "fails, witness ");
    if (Beyond.CounterExample)
      std::printf("%s", Beyond.CounterExample->toString().c_str());
    std::printf("\n");
    Ok &= !Beyond.Detects && Beyond.CounterExample.has_value();
  }

  // User-provided constraints (Fig. 7) prune the search space at the
  // same error budget: locality confines errors to (d^2-1)/2 seeded
  // random qubits, discreteness allows at most one error per row of the
  // d=5 lattice. Each keeps the verified property while cutting solver
  // work, alone and together.
  StabilizerCode Code = makeRotatedSurfaceCode(5);
  Scenario S = makeMemoryScenario(Code, PauliKind::X, LogicalBasis::Z, 2);
  std::vector<bool> Allowed(25, false);
  Rng Rand(2029);
  for (size_t Left = 12; Left;) {
    size_t Q = Rand.nextBelow(25);
    if (!Allowed[Q]) {
      Allowed[Q] = true;
      --Left;
    }
  }
  auto constrain = [&](bool Locality, bool Discreteness) {
    VerifyOptions O;
    if (!Locality && !Discreteness)
      return O;
    O.ExtraConstraint = [&, Locality, Discreteness](smt::BoolContext &Ctx) {
      std::vector<smt::ExprRef> Parts;
      for (size_t Q = 0; Locality && Q != 25; ++Q)
        if (!Allowed[Q])
          Parts.push_back(Ctx.mkNot(Ctx.mkVar(S.ErrorVars[Q])));
      for (size_t Row = 0; Discreteness && Row != 5; ++Row) {
        std::vector<smt::ExprRef> RowVars;
        for (size_t Col = 0; Col != 5; ++Col)
          RowVars.push_back(Ctx.mkVar(S.ErrorVars[Row * 5 + Col]));
        Parts.push_back(Ctx.mkAtMost(std::move(RowVars), 1));
      }
      return Ctx.mkAnd(std::move(Parts));
    };
    return O;
  };
  const char *Names[] = {"unconstrained", "locality", "discreteness",
                         "locality+discreteness"};
  for (int Mode = 0; Mode != 4; ++Mode) {
    bool Locality = Mode & 1, Discreteness = Mode & 2;
    VerificationResult R = verifyScenario(S, constrain(Locality, Discreteness));
    std::printf("d=5 t=2 %-22s %s  conflicts=%llu\n", Names[Mode],
                R.Verified ? "VERIFIED" : "FAILED",
                static_cast<unsigned long long>(R.Stats.Conflicts));
    Ok &= R.Verified;
  }

  // Constraints do NOT extend the correction radius: allowing up to 5
  // spread-out errors is genuinely uncorrectable and the verifier shows
  // a concrete witness.
  Scenario Wide = makeMemoryScenario(Code, PauliKind::X, LogicalBasis::Z, 5);
  VerificationResult Over = verifyScenario(Wide, constrain(false, true));
  std::printf("d=5 <=5 errors, 1 per row      %s\n",
              Over.Verified ? "VERIFIED (unexpected)"
                            : "counterexample, as theory demands");
  Ok &= !Over.Verified && !Over.CounterExample.empty();
  return Ok ? 0 : 1;
}
