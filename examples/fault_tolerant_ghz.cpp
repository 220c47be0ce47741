//===- examples/fault_tolerant_ghz.cpp - Fig. 9 GHZ preparation -----------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fault-tolerant logical GHZ preparation over three Steane blocks
/// (Fig. 9): first formally verified (any single Y error anywhere among
/// the 21 physical qubits is corrected), then demonstrated concretely on
/// the stabilizer simulator with a lookup decoder and a random injected
/// error in every run.
///
//===----------------------------------------------------------------------===//

#include "decoder/Decoder.h"
#include "qec/Codes.h"
#include "sem/Interpreter.h"
#include "verifier/Verifier.h"

#include <cstdio>

using namespace veriqec;

namespace {

Pauli embedBlock(const Pauli &P, size_t Block, size_t Total) {
  Pauli Out(Total);
  for (size_t Q = 0; Q != P.numQubits(); ++Q)
    Out.setKind(Block * P.numQubits() + Q, P.kindAt(Q));
  return Out.abs();
}

} // namespace

int main() {
  StabilizerCode Steane = makeSteaneCode();
  const size_t Blocks = 3, Total = Blocks * 7;

  // -- Formal verification ---------------------------------------------------
  bool Verified = true;
  for (LogicalBasis Basis : {LogicalBasis::Z, LogicalBasis::X}) {
    Scenario S = makeGhzScenario(Steane, PauliKind::Y, Basis, 1);
    VerificationResult R = verifyScenario(S);
    std::printf("GHZ prep (21 qubits), basis %c: %s  %.2fs  goals=%zu\n",
                Basis == LogicalBasis::Z ? 'Z' : 'X',
                R.Verified ? "VERIFIED" : "FAILED", R.Seconds, R.NumGoals);
    Verified &= R.Verified;
  }

  // -- Concrete demonstration -------------------------------------------------
  Scenario S = makeGhzScenario(Steane, PauliKind::Y, LogicalBasis::Z, 1);
  DecoderRegistry Decoders;
  LookupDecoder Lookup(Steane, 1);
  auto decode = [&](const std::vector<int64_t> &Syn, bool WantX) {
    BitVector SynBits(Steane.Generators.size());
    for (size_t I = 0; I != Syn.size(); ++I)
      if (Syn[I])
        SynBits.set(I);
    std::vector<int64_t> Out(7, 0);
    if (auto C = Lookup.decode(SynBits))
      for (size_t Q = 0; Q != 7; ++Q) {
        PauliKind K = C->kindAt(Q);
        Out[Q] = WantX ? (K == PauliKind::X || K == PauliKind::Y)
                       : (K == PauliKind::Z || K == PauliKind::Y);
      }
    return Out;
  };
  for (const char *Tag : {"b0", "b1", "b2"}) {
    Decoders.define(std::string("decode_x") + Tag,
                    [decode](const std::vector<int64_t> &In) {
                      return decode(In, true);
                    });
    Decoders.define(std::string("decode_z") + Tag,
                    [decode](const std::vector<int64_t> &In) {
                      return decode(In, false);
                    });
  }

  Rng R(12345);
  int Good = 0;
  const int Runs = 100;
  for (int Trial = 0; Trial != Runs; ++Trial) {
    // One random Y error somewhere among the 21 qubits.
    CMem Mem;
    size_t Block = R.nextBelow(Blocks), Qubit = R.nextBelow(7);
    Mem["e" + std::to_string(Block) + "_" + std::to_string(Qubit)] = 1;

    // Prepare logical |000>: |0...0> projected onto every generator's +1
    // eigenspace by forced measurements (logical Zs already hold).
    StabilizerRun Run{std::move(Mem), Tableau(Total)};
    for (size_t B = 0; B != Blocks; ++B)
      for (const Pauli &G : Steane.Generators)
        Run.State.measure(embedBlock(G, B, Total), R, /*Forced=*/false);

    runStabilizerFrom(S.Program, Run, Decoders, R);

    // The post-specs with constant phases are the code stabilizers; the
    // logical specs have phase b<j> which is 0 for |000>.
    bool Ok = true;
    for (const GenSpec &G : S.Post) {
      Pauli Expect = G.Base;
      if (G.PhaseConstant)
        Expect.negate();
      if (!Run.State.isStabilizedBy(Expect))
        Ok = false;
    }
    Good += Ok;
  }
  std::printf("simulated GHZ runs with one random Y error: %d/%d reached "
              "the verified GHZ stabilizer state\n",
              Good, Runs);
  return Verified && Good == Runs ? 0 : 1;
}
