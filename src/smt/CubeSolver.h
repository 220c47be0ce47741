//===- smt/CubeSolver.h - Problem encoding & solving facades ----*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solving facade used by the verifier: a sequential entry point and a
/// cube-and-conquer parallel driver reproducing the paper's
/// parallelization (Section 7.1 / Appendix D.4): selected error variables
/// are enumerated until the heuristic ET = 2d*N(ones) + N(bits) exceeds a
/// threshold; each resulting cube is an independent SAT call; a SAT cube
/// aborts the siblings and surfaces its counterexample model. Both entry
/// points run on engine::CubeEngine (and are defined there).
///
/// Both run on VerificationProblem, the reusable middle of the
/// pipeline: GF(2)/XOR preprocessing (smt/Preprocessor.h), then one CNF
/// encoding shared read-only by every worker and cube, with the weight
/// budget as an assumption-activated counter layer so different bounds
/// reuse the same solver and its learnt clauses.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_SMT_CUBESOLVER_H
#define VERIQEC_SMT_CUBESOLVER_H

#include "sat/Solver.h"
#include "smt/BoolExpr.h"
#include "smt/CnfEncoder.h"
#include "smt/Preprocessor.h"

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace veriqec::dist {
class ProblemCodec;
} // namespace veriqec::dist

namespace veriqec::smt {

/// Outcome of a (possibly parallel) solve.
struct SolveOutcome {
  sat::SolveResult Result = sat::SolveResult::Aborted;
  /// For Sat: values of the named BoolContext variables.
  std::unordered_map<std::string, bool> Model;
  /// Aggregate statistics (summed over workers in the parallel case).
  sat::SolverStats Stats;
  /// Number of cubes dispatched (1 for sequential solving).
  uint64_t NumCubes = 1;
  /// Cubes actually solved; < NumCubes when a SAT cube cancelled the rest.
  uint64_t CubesSolved = 1;
  /// Cubes refuted before any SAT call (included in CubesSolved): a
  /// sibling cube's stored UNSAT core subsumed them.
  uint64_t CubesPruned = 0;
  /// Preprocessing telemetry and CNF size (for --bench-out).
  PreprocessStats Prep;
  size_t CnfVars = 0;
  size_t CnfClauses = 0;
  /// The ET threshold the cube tree actually grew to (0 when the problem
  /// was not split). Differs from SolveOptions::SplitThreshold
  /// when the slot-targeting heuristic picked a tighter cut.
  uint32_t SplitThresholdUsed = 0;
  /// Wall time of the SAT discharge (excludes VC assembly).
  double SolveSeconds = 0;
  /// With SolveOptions::LogProofs and an Unsat result: the assembled
  /// clause proof (proof/ProofLog.h format), checkable by
  /// proof::checkProof or the standalone veriqec-check tool. Empty
  /// otherwise (Sat verdicts carry their model as the certificate).
  std::string Proof;
};

/// Native XOR policy. On keeps the preprocessor's parity rows as
/// Gauss-in-the-loop solver constraints (sat/GaussEngine.h); Off
/// CNF-encodes the rows (the pre-XOR pipeline). Auto lets the workload
/// decide: the distance search — whose constraint system is almost pure
/// parity and where the engine is worth 6-60x on the LDPC rows —
/// resolves to On, while scenario verification — where the residue
/// dominates and the CNF parity auxiliaries actually help VSIDS/learning
/// (measured ~3x fewer conflicts on surface7 t=3) — resolves to Off.
enum class XorMode { Auto, On, Off };

/// Options shared by the sequential and parallel drivers.
struct SolveOptions {
  CardinalityEncoding CardEnc = CardinalityEncoding::SequentialCounter;
  /// GF(2)/XOR preprocessing before CNF encoding (see smt/Preprocessor.h).
  bool Preprocess = true;
  /// Native XOR policy; Auto resolves to Off at this generic layer
  /// (expression workloads are scenario-shaped unless the caller knows
  /// better). Only effective with Preprocess on (without the lift there
  /// are no rows to keep native).
  XorMode Xor = XorMode::Auto;
  uint64_t ConflictBudget = 0; ///< 0 = unlimited
  /// Nonzero seeds the solver's random branching tie-breaks (each engine
  /// worker derives its own stream from this), making runs reproducible
  /// for fuzzing; 0 keeps the deterministic pure-VSIDS order.
  uint64_t RandomSeed = 0;
  /// Emit a machine-checkable clause proof for Unsat outcomes
  /// (SolveOutcome::Proof). Logging disables the shared learnt-clause
  /// pool — imported lemmas are not replayable from one stream — and
  /// costs derivation bookkeeping, so it is opt-in.
  bool LogProofs = false;

  /// Assumption-activated weight layer: when BudgetVars is non-empty the
  /// Root expression must NOT contain the corresponding cardinality atom;
  /// sum(BudgetVars) <= BudgetBound is enforced with counter assumptions
  /// at solve time instead, so re-solves under other bounds reuse the
  /// encoding and learnt clauses.
  std::vector<std::string> BudgetVars;
  uint32_t BudgetBound = ~uint32_t{0};

  // Parallel-only knobs.
  size_t NumThreads = 0; ///< 0 = hardware concurrency
  /// Variables to enumerate (typically the error indicators e_i).
  std::vector<std::string> SplitVars;
  /// The d in ET = 2d*N(ones) + N(bits); usually the code distance.
  uint32_t DistanceHint = 3;
  /// The cube tree stops splitting once ET exceeds this (the paper uses
  /// n, the number of qubits). 0 disables splitting (one cube).
  uint32_t SplitThreshold = 0;
  /// SplitThreshold came from the auto policy, not the user: the engine
  /// may stop the cube tree lower, once it has ~8x the total worker
  /// slots in leaves (engine::prepareCubeProblem's sizing rule), instead
  /// of taking the flat budget-exhaustion cut. SplitThreshold stays the
  /// upper bound.
  bool AutoSplitThreshold = false;
  /// Cubes whose ones-count would exceed this are pruned as infeasible
  /// (weight constraint); ~0 disables pruning.
  uint32_t MaxOnes = ~uint32_t{0};
};

/// How a VerificationProblem is built from a (context, root) pair.
struct ProblemOptions {
  CardinalityEncoding CardEnc = CardinalityEncoding::SequentialCounter;
  /// GF(2)/XOR preprocessing (extraction, elimination, trivial-UNSAT).
  bool Preprocess = true;
  /// Hand kept parity rows to solvers as native XOR constraints
  /// (Solver::addXorClause) rather than CNF-encoding them. This is the
  /// resolved form of XorMode (the drivers translate their policy here);
  /// the default is On so direct VerificationProblem users and the
  /// property tests exercise the engine.
  bool NativeXor = true;
  /// Variables that must survive preprocessing as CNF variables — cube
  /// split variables, whose assumption literals would otherwise dangle.
  std::vector<std::string> ProtectedVars;
  /// When non-empty, a two-sided unary counter over these terms is
  /// encoded once and weight bounds become solve-time assumptions
  /// (appendWeightAssumptions). Terms may be arbitrary expressions (e.g.
  /// per-qubit support x_q | z_q for the distance search).
  std::vector<ExprRef> BudgetTerms;
  /// Nonzero caps every counter touching the budget at this depth
  /// (CnfEncoder::setBudgetTruncation), which shrinks the cardinality
  /// machinery from O(n^2) to O(n*Cap). The budget layer itself then
  /// answers bounds MaxW < Cap (appendWeightAssumptions); SumLeqSum atoms
  /// over the budget are truncated too, which is exact only when the
  /// solve enforces sum(BudgetTerms) < CounterCap at the root
  /// (assertWeightBound). The distance search, whose VC has no such
  /// atoms, sizes it by its first witness's weight. 0 = full depth.
  size_t CounterCap = 0;
  /// Capture the data proof emission needs (the preprocessor's original
  /// parity rows, VerificationProblem::OriginalRows). The resolved form
  /// of SolveOptions::LogProofs.
  bool CaptureProofData = false;
};

/// The reusable middle of the verification pipeline: one (context, root)
/// problem preprocessed and encoded once, plus everything needed to read
/// models back (including reconstruction of preprocessor-eliminated
/// variables), translate split-variable names into assumption literals,
/// and activate weight bounds by assumption. Immutable after
/// construction, so the engine's workers share one instance per problem:
/// each worker instantiates its own Solver from the encoded clauses once
/// and then discharges every cube it picks up with assumptions, reusing
/// learned clauses across cubes instead of re-encoding the shared prefix.
///
/// The struct is fully self-contained (no live BoolContext reference):
/// names and reconstruction records are copied in at build time, which
/// is what lets the distributed layer serialize a problem, ship it to a
/// remote worker, and run the identical makeSolver()/readModel()
/// machinery there.
struct VerificationProblem {
  CnfFormula Cnf;
  std::vector<std::pair<std::string, sat::Var>> NamedVars;
  /// The preprocessor's kept parity rows when built with NativeXor: CNF
  /// variables per row plus the right-hand side, loaded into every
  /// solver as native XOR constraints by loadInto(). Empty otherwise
  /// (the rows are then part of Cnf).
  std::vector<std::pair<std::vector<sat::Var>, bool>> XorRows;
  /// The preprocessor refuted the conjunction outright; the CNF is empty
  /// and no solver needs to run.
  bool TriviallyUnsat = false;
  /// With ProblemOptions::CaptureProofData: the parity rows as lifted
  /// from the conjunction before reduction, the base of the proof
  /// header's replay records. Empty otherwise.
  std::vector<ParityRow> OriginalRows;
  PreprocessStats Prep;

  VerificationProblem(const BoolContext &Ctx, ExprRef Root,
                      const ProblemOptions &Opts = {});

  /// A fresh solver loaded with the encoded clauses.
  sat::Solver makeSolver() const;

  /// Loads the encoded clauses into an existing empty solver — the same
  /// loading makeSolver() performs, shared so factory-made solvers (the
  /// testing harness's injectable subclasses) cannot diverge from it.
  void loadInto(sat::Solver &S) const;

  /// Reads the named-variable assignment out of a Sat solver; variables
  /// the preprocessor eliminated are reconstructed from their GF(2)
  /// defining rows, so models stay total.
  void readModel(const sat::Solver &S,
                 std::unordered_map<std::string, bool> &Model) const;

  /// CNF variable of a named BoolContext variable (fatal if unknown).
  sat::Var varOfName(const std::string &Name) const;

  /// Appends assumptions enforcing MinW <= sum(BudgetTerms) <= MaxW to
  /// \p Out (bounds at or beyond the trivial ones contribute nothing).
  /// Only valid when the problem was built with BudgetTerms. Use for
  /// searches that probe MANY bounds on one solver (learnt clauses
  /// survive across bounds); a solver serving a single bound should
  /// harden it with assertWeightBound instead.
  void appendWeightAssumptions(uint32_t MaxW, std::vector<sat::Lit> &Out,
                               uint32_t MinW = 0) const;

  /// Asserts MinW <= sum(BudgetTerms) <= MaxW as root-level unit clauses
  /// of \p S. Root-level units propagate once and permanently simplify
  /// the search — much stronger than re-deciding the bound as an
  /// assumption on every solve — while the bound-independent CnfFormula
  /// is still encoded only once and shared by solvers with different
  /// bounds.
  void assertWeightBound(sat::Solver &S, uint32_t MaxW,
                         uint32_t MinW = 0) const;

  /// Number of kept GF(2) parity rows the CNF variable \p V participates
  /// in (0 for variables the preprocessor does not track). The cube
  /// engine orders split variables by this — most-constrained first —
  /// so each enumerated assignment feeds the parity machinery maximal
  /// propagation. Coordinator-side only, like keptRows(): a problem
  /// decoded off the wire has neither (workers need neither).
  size_t parityParticipation(sat::Var V) const;

  /// Proof-header accessors (proof/ProofLog.h): the kept parity rows and
  /// the eliminated-variable records, both in BoolContext variable space.
  const std::vector<ParityRow> &keptRows() const { return KeptRows; }
  const std::vector<VarReconstruction> &reconstructions() const {
    return Eliminated;
  }

private:
  /// The wire codec rebuilds instances field-by-field (dist/Codec.cpp).
  friend class veriqec::dist::ProblemCodec;
  VerificationProblem() = default;

  /// BoolContext variable id -> name, captured at build time so model
  /// reconstruction needs no live context.
  std::vector<std::string> VarNames;
  std::vector<VarReconstruction> Eliminated;
  std::vector<ParityRow> KeptRows;
  std::vector<sat::Lit> BudgetCounter;
  size_t NumBudgetTerms = 0;
  std::unordered_map<int32_t, uint32_t> BoolVarOfSat;
};

/// The one SolveOptions -> ProblemOptions translation (of
/// engine::prepareCubeProblem): split variables become protected, budget
/// variables become counter terms, and — because every slot solver
/// hardens the bound at the root via assertWeightBound — the counters are
/// truncated just past it.
ProblemOptions makeProblemOptions(const BoolContext &Ctx,
                                  const SolveOptions &Opts);

/// Solves \p Root (checking satisfiability) as one open cube on one slot
/// on the calling thread, ignoring the split options.
SolveOutcome solveExpr(const BoolContext &Ctx, ExprRef Root,
                       const SolveOptions &Opts = {});

/// Cube-and-conquer parallel solve of \p Root. Facade over the
/// engine::CubeEngine work-stealing scheduler (defined in
/// engine/CubeEngine.cpp): Opts.NumThreads selects the pool size, with 0
/// (or the shared pool's width) reusing the process-wide engine.
SolveOutcome solveExprParallel(const BoolContext &Ctx, ExprRef Root,
                               const SolveOptions &Opts);

} // namespace veriqec::smt

#endif // VERIQEC_SMT_CUBESOLVER_H
