//===- proof/ProofLog.h - Proof emission -----------------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The producing side of proof-emitting verification (the consuming side
/// is the self-contained proof/ProofCheck.h). A proof is plain text:
///
///   p veriqec proof 1
///   v N                    variable count of the encoding
///   o <lits> 0             original clause (DIMACS literals)
///   b <lits> 0             assumed unit: the hardened weight budget,
///                          then the cube tree's bound
///   x <rhs> <vars> 0       native XOR row (SAT variables, 1-based)
///   pr <rhs> <vars> 0      original lifted parity row (BoolContext vars)
///   pk <rhs> <vars> 0      kept row after reduction
///   pe <var> <c> <deps> 0  eliminated: var == XOR(deps) ^ c
///   t                      preprocessor refuted the problem outright
///   s <slot>               begin one solver's stream
///   a <lits> 0 [hints 0]   derived clause (learnt / XOR-materialized)
///   d <serial>             delete the stream's serial-th addition
///   q <core> 0 <cube> 0 [hints 0]
///                          cube UNSAT with this failed-assumption core;
///                          the clause ¬core joins the trailer's table
///   r                      begin the cube-tree trailer: one addition per
///                          internal node of the cube tree, replayed
///                          against the header plus every q's ¬core,
///                          closing with the root's `a 0`
///
/// The header is built once per problem from the encoded
/// VerificationProblem; each solver slot owns a SlotProofLog that the
/// solver feeds through the sat::ClauseProofSink interface, and the
/// engine (or the distributed coordinator, for streams that arrive as
/// BatchResult chunks) concatenates header, streams and trailer into one
/// certificate. Both ends come from the cube set's engine::CubeTree: its
/// bound is the header's `b` units, and its internal nodes are the
/// trailer, in post-order (children before parents): the negation of
/// each node's path below the bound, RUP from its children's negations
/// (a branch the ones cap dropped is refuted by the `b` units), so the
/// root's is the empty clause `a 0`. A tree that is one leaf has no
/// trailer, and neither does a proof whose streams already derived the
/// empty clause (an empty-core conclusion).
///
/// An addition (and likewise a q conclusion) may carry a trailing
/// 0-terminated list: LRAT-style hints naming its antecedents, positive
/// for an earlier addition of the same stream (by serial) and negative
/// for a header clause record (-k is the k-th o/b record). Hints are
/// ordered so each named clause becomes unit in turn — under the negated
/// addition, or under the asserted core for a conclusion — with the last
/// one conflicting. The checker verifies hinted records without any
/// watched-literal search, and falls back to full reverse unit
/// propagation when the hints are absent or do not pan out (soundness
/// never rests on them).
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_PROOF_PROOFLOG_H
#define VERIQEC_PROOF_PROOFLOG_H

#include "engine/CubeTree.h"
#include "sat/Solver.h"
#include "smt/CubeSolver.h"

#include <span>
#include <string>
#include <utility>
#include <vector>

namespace veriqec::proof {

/// Buffered proof stream of one solver slot. Derivations and retirements
/// arrive through the sink interface while solve() runs; conclusions are
/// appended by the cube driver after each verdict. drain() hands the
/// accumulated text over (the distributed worker ships it as a chunk per
/// result batch; chunk boundaries are invisible after concatenation).
class SlotProofLog final : public sat::ClauseProofSink {
public:
  void onDerive(std::span<const sat::Lit> Lits,
                std::span<const int64_t> Hints = {}) override;
  void onRetire(uint64_t Serial) override;

  /// Records an UNSAT verdict: \p Core (a subset of \p Cube, possibly
  /// empty) propagates to a conflict against this stream's database.
  /// \p Hints, when non-empty, name the reason clauses of the
  /// refutation cone (sat::Solver::conflictCoreHints()) so the checker
  /// can replay the conflict without a propagation search.
  void logConclusion(std::span<const sat::Lit> Core,
                     std::span<const sat::Lit> Cube,
                     std::span<const int64_t> Hints = {});

  bool empty() const { return Buf.empty(); }
  std::string drain() { return std::exchange(Buf, {}); }

private:
  void appendLits(std::span<const sat::Lit> Lits);
  std::string Buf;
};

/// Builds the proof header for an encoded problem: clauses exactly as
/// VerificationProblem::loadInto() feeds them to every solver, \p Bound
/// as `b` units (the weight bound the certificate assumes), native XOR
/// rows, and the preprocessor replay records (captured only when the
/// problem was built with ProblemOptions::CaptureProofData).
std::string buildProofHeader(const smt::VerificationProblem &P,
                             std::span<const sat::Lit> Bound);

/// Complete certificate for a problem the preprocessor refuted before
/// any encoding: the replay records plus a trivial-unsat conclusion.
std::string buildTrivialProof(const smt::VerificationProblem &P);

/// Concatenates \p Header and the per-slot \p Streams into one proof,
/// then the trailer of \p Trailer's internal nodes; pass null when the
/// streams already derived the empty clause. \p Header must assert the
/// tree's bound.
std::string assembleProof(std::string Header,
                          std::span<const std::string> Streams,
                          const engine::CubeTree *Trailer);

} // namespace veriqec::proof

#endif // VERIQEC_PROOF_PROOFLOG_H
