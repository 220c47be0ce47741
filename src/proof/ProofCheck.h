//===- proof/ProofCheck.h - Independent proof checker -----------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trusted side of proof-emitting verification: a deliberately tiny,
/// self-contained checker for the clause proofs the solver stack emits
/// (see proof/ProofLog.h for the producer). It depends on nothing outside
/// the standard library — in particular not on src/sat/ — so that a bug
/// in the solver cannot also hide in the checker.
///
/// A proof certifies UNSAT verdicts only. It carries a header (the CNF
/// the solver was given, native XOR rows, and the GF(2) preprocessor's
/// replay records) followed by one stream per solver: derived-clause
/// additions and deletions in DRAT style, plus per-cube conclusions
/// naming the assumption cube and the failed-assumption core. Stream
/// records are checked by their justifications alone, with no search:
/// a learnt clause by the hinted unit chain that refutes its negation, a
/// clause the XOR engine materialized by the sum of the header rows it
/// names, and a conclusion by the hinted chain from its asserted core to
/// a conflict.
///
/// One rule decides acceptance: the proof must refute its header. Each
/// checked conclusion puts the clause ¬core into one table with the
/// header; a final trailer section adds the cube tree's internal nodes
/// to that table by reverse unit propagation, children before parents,
/// up to the empty clause. A proof is accepted only when a checked
/// record derives the empty clause — a trivial-unsat record, an
/// empty-core conclusion, or the trailer's closing addition — so no
/// count or other figure the producer declares is trusted.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_PROOF_PROOFCHECK_H
#define VERIQEC_PROOF_PROOFCHECK_H

#include <cstdint>
#include <string>
#include <string_view>

namespace veriqec::proof {

/// Outcome of checking one proof.
struct CheckResult {
  bool Ok = false;
  /// When !Ok: what failed, with the 1-based line of the offending record.
  std::string Error;

  // Telemetry (filled as far as checking got).
  uint64_t NumVars = 0;
  uint64_t HeaderClauses = 0;
  uint64_t XorRows = 0;
  uint64_t ReplayRecords = 0; ///< preprocessor pr/pk/pe records
  uint64_t Streams = 0;
  uint64_t Additions = 0;
  uint64_t Deletions = 0;
  /// Checked conclusions (q records) across all streams.
  uint64_t Conclusions = 0;
};

/// Replays \p Text and returns whether every record checks. Never throws;
/// malformed input is a rejection with a diagnostic, not a crash.
CheckResult checkProof(std::string_view Text);

} // namespace veriqec::proof

#endif // VERIQEC_PROOF_PROOFCHECK_H
