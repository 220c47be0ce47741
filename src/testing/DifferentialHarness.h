//===- testing/DifferentialHarness.h - Cross-engine differential -*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one fuzz case through every engine configuration (sequential,
/// cube-and-conquer at several widths and split depths, both cardinality
/// encodings, the GF(2)-preprocessed pipeline against the legacy
/// unpreprocessed one, and a direct solver-reuse cube loop) and demands
/// a single verdict. Every SAT verdict's model is validated twice — against the
/// BoolExpr by the independent evaluator, and against the tableau
/// semantics by the reference executor — and the consensus verdict is
/// cross-checked against the brute-force oracle (small instances) and a
/// sampling refuter (verified memory scenarios). The direct cube loop's
/// solver comes from an injectable factory so tests can substitute a
/// deliberately buggy solver and prove the harness catches it.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_TESTING_DIFFERENTIALHARNESS_H
#define VERIQEC_TESTING_DIFFERENTIALHARNESS_H

#include "sat/Solver.h"
#include "testing/ScenarioFuzzer.h"

#include <memory>
#include <string>
#include <vector>

namespace veriqec::testing {

struct HarnessOptions {
  /// Width of the widest parallel configuration.
  size_t Jobs = 4;
  /// Work cap for the brute-force oracle (replays); larger scenarios are
  /// skipped rather than enumerated.
  uint64_t BruteBudget = 300000;
  /// Trials for the sampling refuter; 0 disables it.
  uint64_t SamplingTrials = 1500;
  /// Threaded into the solvers' random tie-breaking (0 = deterministic).
  uint64_t RandomSeed = 0;
  /// Solver factory for the direct cube-reuse configuration. Defaults to
  /// the production solver; tests inject buggy subclasses here.
  std::function<std::unique_ptr<sat::Solver>()> SolverFactory;
  /// Re-solve each UNSAT cube of the direct configuration with a fresh
  /// baseline solver (bounded by MaxCubesRecheck): a cube whose verdict
  /// depends on reused solver state is exactly the PR 1 failure mode.
  bool RecheckUnsatCubes = true;
  size_t MaxCubesRecheck = 512;
  /// Workers of the dist-loopback configuration: the case additionally
  /// runs through a coordinator + in-process worker fleet behind the
  /// full wire codec (problem serialization, batch sharding, core
  /// broadcast, model read-back on the worker side), cross-checked
  /// against every other configuration. 0 disables.
  size_t DistWorkers = 2;
  /// The proof oracle: force clause-proof logging in every engine
  /// configuration and replay each verified verdict's proof with the
  /// independent checker. A verified verdict whose proof is missing or
  /// rejected is a discrepancy like any other.
  bool CheckProofs = false;
};

/// Verdict letters: V = verified, F = counterexample found, A = aborted,
/// E = structural error.
struct ConfigVerdict {
  std::string Name;
  char Verdict = '?';
  std::string Detail; ///< error text for 'E'
};

struct CaseReport {
  uint64_t Seed = 0;
  std::string Description;
  std::vector<ConfigVerdict> Verdicts;
  char Consensus = '?';
  /// Human-readable descriptions of every disagreement or failed
  /// certificate/oracle check. Empty = the case is clean.
  std::vector<std::string> Discrepancies;
  bool BruteRan = false;
  uint64_t BruteExecutions = 0;
  bool SamplingRan = false;
  /// Proofs the proof oracle replayed successfully (CheckProofs only).
  uint64_t ProofsChecked = 0;
  /// Proofs the checker rejected, as (configuration, proof text) — kept
  /// verbatim so a fuzz driver can save the offending certificate next
  /// to the failing seed.
  std::vector<std::pair<std::string, std::string>> RejectedProofs;
  double Seconds = 0;

  bool clean() const { return Discrepancies.empty(); }
};

/// Runs the full differential + oracle pipeline on one case.
CaseReport runDifferential(const FuzzCase &C, const HarnessOptions &O = {});

} // namespace veriqec::testing

#endif // VERIQEC_TESTING_DIFFERENTIALHARNESS_H
