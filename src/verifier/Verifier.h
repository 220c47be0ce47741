//===- verifier/Verifier.h - Veri-QEC style verification driver -*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top of the stack: runs a Scenario through the symbolic flow, builds
/// the VC, and discharges it with the built-in SAT layer, either
/// sequentially or with the paper's cube-and-conquer parallelization
/// (splitting on error indicator bits with the ET heuristic). Also
/// provides the precise-detection check of Eqn. (15).
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_VERIFIER_VERIFIER_H
#define VERIQEC_VERIFIER_VERIFIER_H

#include "qec/StabilizerCode.h"
#include "smt/CubeSolver.h"
#include "verifier/Scenarios.h"

#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace veriqec::engine {
class CubeBackend;
} // namespace veriqec::engine

namespace veriqec {

/// Solver configuration for one verification run.
struct VerifyOptions {
  bool Parallel = false;
  size_t Threads = 0;            ///< 0 = hardware concurrency
  uint32_t SplitThreshold = 0;   ///< 0 = auto (the number of qubits)
  smt::CardinalityEncoding CardEnc =
      smt::CardinalityEncoding::SequentialCounter;
  /// GF(2)/XOR preprocessing of the VC before CNF encoding (syndrome
  /// equations are Gaussian-eliminated, defined variables dropped); off
  /// reproduces the legacy monolithic-Tseitin pipeline.
  bool Preprocess = true;
  /// Native XOR reasoning (`--xor on|off`): kept parity rows become
  /// Gauss-in-the-loop solver constraints instead of CNF parity chains.
  /// Auto resolves per workload — On for the distance search (pure
  /// parity, 6-60x on the LDPC rows), Off for scenario verification and
  /// detection (measured neutral-to-negative there). No effect without
  /// Preprocess.
  smt::XorMode Xor = smt::XorMode::Auto;
  uint64_t ConflictBudget = 0;
  /// Nonzero seeds the solvers' random branching tie-breaks so a run (in
  /// particular a fuzz failure) is exactly reproducible; 0 keeps the
  /// deterministic default order.
  uint64_t RandomSeed = 0;
  /// Optional user error constraint (locality/discreteness, Section 7.2),
  /// conjoined with the assumptions.
  std::function<smt::ExprRef(smt::BoolContext &)> ExtraConstraint;
  /// Emit a machine-checkable clause proof for UNSAT verdicts (the
  /// Proof fields of the result structs), independently replayable with
  /// proof::checkProof / the veriqec-check tool. Disables cross-slot
  /// learnt-clause sharing and adds logging overhead.
  bool LogProofs = false;
};

/// Result of a verification run.
struct VerificationResult {
  bool StructuralOk = false; ///< flow + VC assembly succeeded
  std::string Error;         ///< when !StructuralOk
  bool Verified = false;     ///< VC valid (negation UNSAT)
  /// The solver gave up (conflict budget exhausted) on at least one cube:
  /// !Verified then means "inconclusive", not "counterexample found".
  bool Aborted = false;
  /// For failed verification: a model of the negated VC — a concrete
  /// error pattern plus decoder behaviour exposing the bug.
  std::unordered_map<std::string, bool> CounterExample;
  sat::SolverStats Stats;
  uint64_t NumCubes = 1;
  /// Cubes actually discharged; < NumCubes when the first SAT cube
  /// cancelled its outstanding siblings.
  uint64_t CubesSolved = 1;
  /// Always 0: every cube that runs is concluded by its own solver call
  /// (the GF(2) and sibling-core cube pruners are gone). The fields stay
  /// only until qecbench/qecbench.cpp stops reading them.
  uint64_t CubesPruned = 0;
  uint64_t CubesPrunedGf2 = 0;
  uint64_t CubesPrunedCore = 0;
  /// Preprocessing telemetry and CNF size for this scenario's encoding.
  smt::PreprocessStats Prep;
  size_t CnfVars = 0;
  size_t CnfClauses = 0;
  /// The ET threshold the cube tree actually grew to (0 = unsplit);
  /// lower than the auto cap when the slot-targeting heuristic cut it.
  uint32_t SplitThresholdUsed = 0;
  size_t NumGoals = 0;
  double Seconds = 0;
  /// With VerifyOptions::LogProofs and Verified: the clause proof of the
  /// negated VC's unsatisfiability (empty otherwise).
  std::string Proof;
};

/// Verifies one scenario. Facade over engine::VerificationEngine: the
/// process-wide engine is used unless Opts.Parallel requests a thread
/// count different from its pool width, in which case a private pool of
/// Opts.Threads workers is spun up for this call.
VerificationResult verifyScenario(const Scenario &S,
                                  const VerifyOptions &Opts = {});

/// Verifies a batch of scenarios, multiplexing all of their cubes over one
/// thread pool with one shared task queue; one result per scenario, in
/// order.
std::vector<VerificationResult> verifyAll(std::span<const Scenario> Scenarios,
                                          const VerifyOptions &Opts = {});

/// Precise-detection property (Eqn. (15)): no Pauli error of weight
/// 1..MaxWeight is simultaneously syndrome-free and logically acting.
struct DetectionResult {
  bool Detects = false; ///< true = property holds (UNSAT)
  /// The solver gave up (conflict budget exhausted): !Detects then means
  /// "inconclusive", not "an undetectable error exists".
  bool Aborted = false;
  /// When the property fails: the offending logical operator.
  std::optional<Pauli> CounterExample;
  sat::SolverStats Stats;
  double Seconds = 0;
  /// With VerifyOptions::LogProofs and Detects: the clause proof.
  std::string Proof;
};

DetectionResult verifyDetection(const StabilizerCode &Code, size_t MaxWeight,
                                const VerifyOptions &Opts = {});

/// Which Pauli family the distance search ranges over. Any is the true
/// stabilizer distance; XOnly/ZOnly restrict to pure-X / pure-Z logical
/// operators (the registry documents the X-type distance for
/// bit-flip-only codes such as repetition<N>).
enum class PauliFamily { Any, XOnly, ZOnly };

/// Result of a code-distance search (the `veriqec distance` workload).
struct DistanceResult {
  bool Ok = false;   ///< search ran to completion
  std::string Error; ///< when !Ok && !Aborted
  /// The conflict budget ran out before the search converged.
  bool Aborted = false;
  /// Minimum weight of an undetectable logical operator.
  size_t Distance = 0;
  /// A logical operator attaining the minimum.
  std::optional<Pauli> Witness;
  /// Summed over every probe: the existence probe's solver and the
  /// search's.
  sat::SolverStats Stats;
  /// SAT calls the search issued: the existence probe on its own solver,
  /// then the binary search's, all on one incremental solver.
  uint64_t SolverCalls = 0;
  /// One SAT call of the search, in order: the bound it ran under
  /// (1 <= weight <= MaxWeight; the first probe's is n), its verdict,
  /// and its share of the conflicts and wall time.
  struct Probe {
    size_t MaxWeight = 0;
    sat::SolveResult Result = sat::SolveResult::Aborted;
    uint64_t Conflicts = 0;
    double Seconds = 0;
  };
  std::vector<Probe> Probes;
  /// Depth of the searched problem's weight counter: the existence
  /// probe's witness weight (1 if that probe did not find one).
  size_t LayerDepth = 0;
  smt::PreprocessStats Prep;
  /// CNF size of the searched problem (XOR rows excluded when native).
  size_t CnfVars = 0;
  size_t CnfClauses = 0;
  /// Parity rows the solver carries natively (0 with --xor off).
  size_t XorRows = 0;
  double Seconds = 0;
  /// With VerifyOptions::LogProofs and Ok: the certificate of the last
  /// UNSAT probe. Its header asserts that probe's weight bound
  /// (1 <= weight <= Distance - 1) as `b` units and its stream is the
  /// whole search's, later SAT probes' records included. SAT probes are
  /// witnessed by the returned model, not the proof.
  std::string Proof;
};

/// Computes the code distance by incremental binary search over the
/// weight bound. The undetectable-logical constraint system is
/// preprocessed and encoded with a one-register weight layer for the
/// existence probe (weight >= 1); that probe's witness weight W bounds
/// the distance, so the system is encoded once more, with a two-sided
/// unary counter of depth W over the per-qubit supports (n*W registers,
/// not n^2), and each probe of the search activates "1 <= weight <= K"
/// (K < W) purely by assumptions, so a single solver (and its learnt
/// clauses) serves the whole search. Contrast qec/StabilizerCode.h's
/// estimateDistance, which re-encodes from scratch at every weight.
///
/// Every probe is a one-cube set on an engine::CubeBackend handle. The
/// existence probe runs on a local one-slot engine::CubeEngine without a
/// proof log; the search runs on \p Backend (null = a local one-slot
/// engine; a dist::Coordinator ships the sized problem once), so local
/// and fleet searches share slot set-up, seed stream and certificate
/// rule: with one-slot workers, identical probes, conflicts and
/// certificate bytes.
DistanceResult computeDistance(const StabilizerCode &Code,
                               const VerifyOptions &Opts = {},
                               PauliFamily Family = PauliFamily::Any,
                               engine::CubeBackend *Backend = nullptr);

} // namespace veriqec

#endif // VERIQEC_VERIFIER_VERIFIER_H
