//===- examples/decoder_audit.cpp - Finding decoder bugs two ways ---------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 7.2 contrast in miniature: a buggy decoder for the d=3
/// surface code is exposed (a) instantly by the verifier as a
/// counterexample, and (b) only statistically by Stim-style sampling —
/// with the sample count needed for *certainty* growing as the full
/// error-configuration space. Also demonstrates extracting the decoder
/// requirement P_f from the code (designing a decoder from the VC).
///
//===----------------------------------------------------------------------===//

#include "decoder/Decoder.h"
#include "qec/Codes.h"
#include "sim/SamplingTester.h"
#include "verifier/Verifier.h"

#include <cstdio>

using namespace veriqec;

namespace {

/// A decoder that forgets to handle one syndrome (returns "no
/// correction"): classic lookup-table truncation bug.
class BuggyDecoder : public Decoder {
public:
  BuggyDecoder(const StabilizerCode &Code) : Inner(Code, 1) {}
  std::optional<Pauli> decode(const BitVector &Syndrome) override {
    ++Calls;
    if (Syndrome.count() == 2 && Syndrome.get(0)) // "rare" case dropped
      return Pauli(9);
    return Inner.decode(Syndrome);
  }
  uint64_t Calls = 0;

private:
  LookupDecoder Inner;
};

} // namespace

int main() {
  StabilizerCode Code = makeRotatedSurfaceCode(3);

  // (a) The verifier catches contract violations without any decoder
  // implementation at all: drop the syndrome-match constraints of the
  // first Z-check and the VC immediately produces an error pattern that
  // any decoder obeying the weakened contract mishandles.
  Scenario S = makeMemoryScenario(Code, PauliKind::X, LogicalBasis::Z, 1);
  Scenario Weak = S;
  Weak.Parity.erase(Weak.Parity.begin());
  VerificationResult R = verifyScenario(Weak);
  bool Refuted = !R.Verified && !R.CounterExample.empty();
  std::printf("verifier on weakened contract: %s (%.1f ms)\n",
              Refuted ? "counterexample" : "no counterexample (unexpected)",
              R.Seconds * 1e3);
  if (Refuted) {
    std::printf("  error pattern:");
    for (const std::string &E : Weak.ErrorVars)
      if (R.CounterExample.at(E))
        std::printf(" %s", E.c_str());
    std::printf("\n");
  }
  VerificationResult Full = verifyScenario(S);
  std::printf("verifier on full contract:     %s (%.1f ms)\n",
              Full.Verified ? "VERIFIED" : "failed", Full.Seconds * 1e3);

  // (b) Sampling against the concrete buggy decoder: failures appear only
  // when the dropped syndrome is hit.
  BuggyDecoder Buggy(Code);
  Rng Rand(77);
  SamplingReport Report = sampleMemoryCorrection(Code, Buggy, 1, 2000, Rand);
  std::printf("sampling vs buggy decoder: %llu/%llu failures "
              "(%.0f samples/s)\n",
              static_cast<unsigned long long>(Report.Failures),
              static_cast<unsigned long long>(Report.Samples),
              Report.samplesPerSecond());

  // Exhaustive certainty by testing alone needs every configuration:
  uint64_t Space = errorConfigurationCount(Code.NumQubits, 1);
  std::printf("configurations for certainty at t=1: %llu; at d=19, t=9: ",
              static_cast<unsigned long long>(Space));
  uint64_t Big = errorConfigurationCount(361, 9);
  if (Big == UINT64_MAX)
    std::printf("> 2^64 (the paper's 2^76-sample argument)\n");
  else
    std::printf("%llu\n", static_cast<unsigned long long>(Big));
  // The contrast holds only if the verifier refutes the weakened
  // contract and proves the full one.
  return Refuted && Full.Verified ? 0 : 1;
}
