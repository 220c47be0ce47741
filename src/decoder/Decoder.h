//===- decoder/Decoder.h - Syndrome decoders --------------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimum-weight syndrome decoders. The verification conditions reason
/// about decoders symbolically through the contract P_f (Section 5.2); the
/// concrete decoders here serve the sampling baseline (Section 7.2's Stim
/// comparison) and decoder-audit examples.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_DECODER_DECODER_H
#define VERIQEC_DECODER_DECODER_H

#include "qec/StabilizerCode.h"

#include <optional>
#include <unordered_map>

namespace veriqec {

/// Interface: maps a syndrome (one bit per generator) to a Pauli
/// correction whose syndrome matches, or nullopt if none is known.
class Decoder {
public:
  virtual ~Decoder();

  /// Decodes \p Syndrome into a correction operator.
  virtual std::optional<Pauli> decode(const BitVector &Syndrome) = 0;
};

/// Table decoder: precomputes the minimum-weight correction for every
/// syndrome reachable by errors of weight <= MaxWeight (breadth-first over
/// weights, so entries are automatically minimum-weight).
class LookupDecoder : public Decoder {
public:
  LookupDecoder(const StabilizerCode &Code, size_t MaxWeight);

  std::optional<Pauli> decode(const BitVector &Syndrome) override;

private:
  std::unordered_map<BitVector, Pauli> Table;
};

/// SAT decoder: finds a minimum-weight correction for an arbitrary
/// syndrome with iterative cardinality-bounded SAT queries. Handles codes
/// whose syndrome space is too large to tabulate.
class SatDecoder : public Decoder {
public:
  explicit SatDecoder(const StabilizerCode &Code) : Code(Code) {}

  std::optional<Pauli> decode(const BitVector &Syndrome) override;

private:
  const StabilizerCode &Code;
};

} // namespace veriqec

#endif // VERIQEC_DECODER_DECODER_H
