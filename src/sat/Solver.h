//===- sat/Solver.h - CDCL SAT solver ---------------------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver in the MiniSat lineage:
/// two-watched-literal propagation, first-UIP learning with clause
/// minimization, VSIDS branching with phase saving, Luby restarts and
/// activity-based learned-clause deletion. It is the decision engine that
/// replaces Z3/CVC5 in this reproduction (see DESIGN.md, substitutions).
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_SAT_SOLVER_H
#define VERIQEC_SAT_SOLVER_H

#include "sat/ClauseArena.h"
#include "sat/GaussEngine.h"
#include "sat/SatTypes.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace veriqec::sat {

/// Result of a solve() call.
enum class SolveResult { Sat, Unsat, Aborted };

/// A thread-safe exchange of short learned clauses between the solvers
/// attacking cubes of the same problem (the engine's slots, and through
/// engine::CubeRun the slots of other --dist workers). Learned clauses
/// are derived by resolution from the shared clause database, so they
/// are valid for every sibling regardless of its assumptions; sharing
/// them collapses the duplicated learning that otherwise makes per-slot
/// solvers re-derive the same lemmas.
///
/// The pool is a ring of the Capacity most recent lemmas: publishing
/// past it evicts the oldest entry, so sharing never stops. Readers keep
/// a cursor into the unbounded publish sequence; a cursor that fell more
/// than Capacity entries behind resumes at the oldest live entry (the
/// lemmas it missed are lost to that reader, which costs search, never
/// soundness).
class SharedClausePool {
public:
  /// Live entries kept; bounds memory and what one reader can miss.
  static constexpr size_t Capacity = 4096;
  /// Longest lemma worth sharing: short clauses prune the most search
  /// per literal imported.
  static constexpr size_t MaxLemmaLits = 8;

  /// Publishes a learned clause on behalf of \p Owner, evicting the
  /// oldest entry once Capacity entries are live.
  void publish(int Owner, std::span<const Lit> Lits) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Ring.size() < Capacity)
      Ring.emplace_back();
    Entry &E = Ring[Published % Capacity];
    E.Owner = Owner;
    E.Lits.assign(Lits.begin(), Lits.end());
    ++Published;
  }

  /// Appends every live clause published by *other* owners since
  /// \p Cursor to \p Out and advances the cursor.
  void fetch(int Owner, uint64_t &Cursor,
             std::vector<std::vector<Lit>> &Out) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (Cursor = oldestLive(Cursor); Cursor < Published; ++Cursor) {
      const Entry &E = Ring[Cursor % Capacity];
      if (E.Owner != Owner)
        Out.push_back(E.Lits);
    }
  }

  /// True iff fetch() would deliver anything; skips \p Cursor past the
  /// owner's own entries so repeated polling stays O(1) amortized. Lets
  /// a solver keep its assumption-prefix trail alive across solve()
  /// calls instead of unconditionally returning to the root to import.
  bool hasNewsFor(int Owner, uint64_t &Cursor) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    Cursor = oldestLive(Cursor);
    while (Cursor < Published && Ring[Cursor % Capacity].Owner == Owner)
      ++Cursor;
    return Cursor < Published;
  }

private:
  struct Entry {
    int Owner = 0;
    std::vector<Lit> Lits;
  };

  /// \p Cursor, or the oldest live sequence number if it fell behind.
  uint64_t oldestLive(uint64_t Cursor) const {
    return Published > Capacity ? std::max(Cursor, Published - Capacity)
                                : Cursor;
  }

  mutable std::mutex Mutex;
  /// Entry of sequence number s lives at Ring[s % Capacity]; grows to
  /// Capacity on demand, so an unused pool costs nothing.
  std::vector<Entry> Ring;
  uint64_t Published = 0; ///< sequence number of the next publish
};

/// Observer of the solver's clause derivations, the hook proof logging
/// hangs on (proof/ProofLog.h implements it). Every clause the solver
/// derives — CDCL learnt clauses (units included), clauses materialized
/// by the XOR engine as reasons or conflicts, and root implications of
/// the XOR system — is reported in derivation order, through onDerive()
/// or onDeriveParity(); the n-th reported clause has serial n (1-based),
/// and onRetire() names that serial when reduceDB drops the clause.
/// Clauses added through addClause() are NOT reported: they are the
/// problem statement, which the proof header already carries.
///
/// Every report carries its justification, so a checker never searches.
/// onDerive() \p Hints are the LRAT-style antecedents of a CDCL learnt
/// clause: the clauses conflict analysis actually resolved, ordered so a
/// checker that asserts the clause's negation derives a unit from each
/// hint in turn and reaches a conflict at the last. Positive hints name
/// earlier derivations by serial; negative hints name header clauses (-k
/// is the k-th clause record of the problem statement); a pool-imported
/// antecedent has no such name and empties the list, which is why proof
/// logging and clause pools do not combine. onDeriveParity() \p Rows
/// name the XOR rows whose GF(2) sum implies the clause, ascending: k is
/// the k-th addXorClause() call. Under the root assignment the sum's
/// unassigned variables all occur in the clause, and the assignment
/// falsifying the clause violates it. A row set that is contradictory on
/// its own (an empty odd row, or the rows' consistency verdict at the
/// first solve) is not reported; the proof pipeline's rows are
/// consistent by construction (the preprocessor refutes the others).
class ClauseProofSink {
public:
  virtual ~ClauseProofSink() = default;
  virtual void onDerive(std::span<const Lit> Lits,
                        std::span<const int64_t> Hints = {}) = 0;
  virtual void onDeriveParity(std::span<const Lit> Lits,
                              std::span<const uint32_t> Rows) = 0;
  virtual void onRetire(uint64_t Serial) = 0;
};

/// Aggregate statistics for benchmarking and diagnostics.
struct SolverStats {
  uint64_t Decisions = 0;
  /// Literals implied through binary watchers (resolved without touching
  /// clause memory) and through long-clause watch traversal. Together
  /// with XorPropagations these partition what used to be one
  /// Propagations counter; propagations() restores the total.
  uint64_t BinPropagations = 0;
  uint64_t LongPropagations = 0;
  uint64_t Conflicts = 0;
  uint64_t LearnedClauses = 0;
  uint64_t Restarts = 0;
  /// Literals implied by the native XOR engine (sat/GaussEngine.h).
  uint64_t XorPropagations = 0;
  /// Conflicts the XOR engine detected before CNF propagation could.
  uint64_t XorConflicts = 0;
  /// Cross-row eliminations of the residual GF(2) system.
  uint64_t XorEliminations = 0;
  /// Peak clause-arena footprint in bytes (summed over slot solvers when
  /// aggregated: the total clause-storage high-water mark of a run).
  uint64_t ArenaBytes = 0;
  /// Cumulative bytes reclaimed by arena compaction.
  uint64_t WastedBytes = 0;
  /// Arena compactions (garbageCollect() runs).
  uint64_t Compactions = 0;

  /// Total implied literals across every propagation engine — the
  /// headline number displays want, independent of the split above.
  uint64_t propagations() const {
    return BinPropagations + LongPropagations + XorPropagations;
  }

  /// The one list of the counters above, in wire order (dist/Codec.cpp
  /// encodes them in this order); the names are the --bench-out keys
  /// and, prefixed with "solver.", the metric names. Aggregation, delta,
  /// the codec and every JSON record loop over it, so a new counter
  /// cannot be summed in one consumer and silently dropped in another.
  struct Field {
    const char *Name;
    uint64_t SolverStats::*Member;
  };
  static constexpr Field Fields[] = {
      {"decisions", &SolverStats::Decisions},
      {"bin_propagations", &SolverStats::BinPropagations},
      {"long_propagations", &SolverStats::LongPropagations},
      {"conflicts", &SolverStats::Conflicts},
      {"learned", &SolverStats::LearnedClauses},
      {"restarts", &SolverStats::Restarts},
      {"xor_propagations", &SolverStats::XorPropagations},
      {"xor_conflicts", &SolverStats::XorConflicts},
      {"xor_eliminations", &SolverStats::XorEliminations},
      {"arena_bytes", &SolverStats::ArenaBytes},
      {"wasted_bytes", &SolverStats::WastedBytes},
      {"compactions", &SolverStats::Compactions},
  };

  SolverStats &operator+=(const SolverStats &O) {
    for (const auto &F : Fields)
      this->*F.Member += O.*F.Member;
    return *this;
  }
  /// Counter-wise delta (all counters are monotone).
  SolverStats operator-(const SolverStats &O) const {
    SolverStats D;
    for (const auto &F : Fields)
      D.*F.Member = this->*F.Member - O.*F.Member;
    return D;
  }
};
static_assert(sizeof(SolverStats) ==
                  std::size(SolverStats::Fields) * sizeof(uint64_t),
              "every SolverStats counter needs a Fields entry");

/// CDCL SAT solver. Typical usage:
/// \code
///   Solver S;
///   Var A = S.newVar(), B = S.newVar();
///   S.addClause({mkLit(A), mkLit(B)});
///   if (S.solve() == SolveResult::Sat) bool VA = S.modelValue(A);
/// \endcode
class Solver {
public:
  Solver();
  // The virtual destructor (for the test seam below) would otherwise
  // suppress the implicit move operations, turning makeSolver() returns
  // into full clause-database copies. Copies stay protected: copying a
  // polymorphic solver by value would silently slice a subclass.
  virtual ~Solver() = default;
  Solver(Solver &&) = default;
  Solver &operator=(Solver &&) = default;

  /// Creates a fresh variable and returns its index.
  Var newVar();

  /// Number of variables created so far.
  size_t numVars() const { return Level.size(); }

  /// Adds a clause. Returns false if the formula became trivially
  /// unsatisfiable (empty clause after simplification at level 0).
  bool addClause(std::vector<Lit> Lits);

  /// Convenience overloads.
  bool addClause(Lit A) { return addClause(std::vector<Lit>{A}); }
  bool addClause(Lit A, Lit B) { return addClause(std::vector<Lit>{A, B}); }
  bool addClause(Lit A, Lit B, Lit C) {
    return addClause(std::vector<Lit>{A, B, C});
  }

  /// Adds a native XOR constraint: XOR over \p Lits == \p Odd. Negated
  /// literals fold into the parity, duplicate variables cancel in pairs.
  /// The constraint is handled by the Gauss-in-the-loop engine instead of
  /// a CNF encoding: no auxiliary variables, and cross-constraint GF(2)
  /// elimination during search. Returns false if the formula became
  /// trivially unsatisfiable (empty XOR with odd parity).
  bool addXorClause(const std::vector<Lit> &Lits, bool Odd);

  /// Rows of the XOR basis (0 before the first solve builds it).
  size_t numXorRows() const { return Gauss.numRows(); }

  /// Solves under the given assumptions (checked before any decision).
  SolveResult solve(const std::vector<Lit> &Assumptions = {});

  /// After Sat: the value of \p V in the found model.
  bool modelValue(Var V) const { return Model[V] == LBool::True; }

  /// Limits the search to approximately \p MaxConflicts conflicts;
  /// 0 means unlimited. Exceeding the budget returns Aborted.
  void setConflictBudget(uint64_t MaxConflicts) {
    ConflictBudget = MaxConflicts;
  }

  /// Installs an external cancellation flag polled during search (used by
  /// the parallel driver to stop siblings once an answer is known).
  void setAbortFlag(const std::atomic<bool> *Flag) { AbortFlag = Flag; }

  /// Connects this solver to a clause exchange: clauses it learns with at
  /// most SharedClausePool::MaxLemmaLits literals are published under
  /// \p OwnerId, and clauses published by other owners are imported at
  /// the start of every solve() call.
  void attachSharedPool(SharedClausePool *Pool, int OwnerId) {
    SharedPool = Pool;
    PoolOwnerId = OwnerId;
    PoolCursor = 0;
  }

  /// Enables seeded random branching tie-breaks: occasionally a random
  /// (rather than highest-activity) variable is decided, with a random
  /// polarity. Soundness is unaffected — only the search order changes —
  /// but runs become exactly reproducible per seed, which is what the
  /// fuzzing harness needs to replay a failure. Seed 0 restores the
  /// deterministic pure-VSIDS default.
  void setRandomSeed(uint64_t Seed) {
    RandomizeBranching = Seed != 0;
    TieRng = Rng(Seed);
  }

  /// Installs (or clears, with nullptr) a derivation observer. Attach
  /// before the first solve() call on a freshly loaded solver, so the
  /// observer sees every derived clause from serial 1; do not combine
  /// with attachSharedPool — imported clauses enter through addClause
  /// and would be invisible to the proof. Not owned.
  void setProofSink(ClauseProofSink *Sink) { ProofSink = Sink; }

  /// After solve() returned Unsat: the subset of that call's assumptions
  /// the refutation actually used (the failed core, MiniSat's
  /// analyzeFinal). An empty core means the clause database refutes the
  /// formula regardless of assumptions — the cube engine uses this to
  /// conclude a whole problem is UNSAT from a single cube, and the
  /// distance search to stop tightening a weight selector that no longer
  /// matters. Contents are unspecified after Sat/Aborted.
  const std::vector<Lit> &conflictCore() const { return ConflictCore; }

  /// Proof hints justifying conflictCore(): the reason clauses of the
  /// refutation cone, ordered so each becomes unit in turn when the core
  /// is asserted (the last one conflicting). Empty when no sink is
  /// attached, when the core came without a cone (root-implied), or when
  /// an antecedent has no proof identity. Same id scheme as derivation
  /// hints; the proof's q records carry them.
  const std::vector<int64_t> &conflictCoreHints() const {
    return ConflictCoreHints;
  }

  const SolverStats &stats() const { return Stats; }

  /// Arena-compaction trigger: collect when wasted words exceed this
  /// fraction of the arena (default 0.2, the minisat garbage_frac
  /// convention). 0 forces a compaction at every restart that has any
  /// garbage at all — the test batteries use that to shake out
  /// relocation bugs.
  void setGarbageFraction(double Frac) { GarbageFrac = Frac; }

  /// Process-wide default for setGarbageFraction, applied to every
  /// subsequently constructed solver. A test knob (the smt/engine layers
  /// build their slot solvers internally); set it only while no solver
  /// is running.
  static void setDefaultGarbageFraction(double Frac);

  /// Learned-clause cap driving reduceDB (test knob; production default
  /// 8192).
  void setMaxLearned(size_t Max) { MaxLearned = Max; }

  /// Compact the arena unconditionally — even with zero waste, so a
  /// caller can force a full relocation pass between solve() calls.
  /// Used by the test batteries to prove verdicts, models and proof
  /// identities survive relocation without having to provoke the
  /// restart-path trigger on small instances.
  void forceGarbageCollect() { garbageCollect(); }

  /// Live (non-deleted) learned clauses currently in the database.
  size_t liveLearnts() const { return NumLiveLearnts; }

  /// Current clause-arena footprint in bytes (Stats.ArenaBytes is the
  /// peak; the difference is what compaction has handed back).
  size_t arenaBytes() const { return Arena.sizeBytes(); }

protected:
  Solver(const Solver &) = default;
  Solver &operator=(const Solver &) = default;

  /// Test seam for the fuzzing harness: called when a conflict-driven
  /// backjump lands at or below the assumption prefix. Returning true
  /// declares UNSAT right there — the PR 1 soundness bug family
  /// (mistaking a backjump into the prefix for unsatisfiability), which
  /// silently flips satisfiable cubes under solver reuse. The production
  /// solver always returns false (the prefix survives the capped
  /// backjump, or is re-extended by the search loop); harness tests
  /// override this to prove the differential oracles catch the bug.
  virtual bool declareUnsatOnPrefixBackjump() const { return false; }

  /// Test seam for the fuzzing harness: when true, every XOR reason
  /// clause with at least two dependencies is materialized with one
  /// dependency silently dropped — an under-justified reason whose
  /// resolvents over-prune the search, the characteristic way a buggy
  /// Gaussian reason computation goes wrong (it silently flips SAT cubes
  /// to UNSAT). The production solver never corrupts; harness tests
  /// override this to prove the differential oracles catch the bug.
  virtual bool corruptXorReasonClause() const { return false; }

private:
  friend class GaussEngine;

  // -- Internal state ------------------------------------------------------
  // ClauseRef (sat/ClauseArena.h) is a word offset into Arena; always
  // >= 0, so the negative range below stays free for the markers.
  static constexpr ClauseRef NoReason = -1;

  /// Binary clauses are encoded entirely in their watchers: the blocker
  /// is the other literal and the reference is marked (mapped below -1,
  /// clear of NoReason) so propagation can decide satisfied / unit /
  /// conflicting without loading the clause.
  static constexpr ClauseRef binaryMark(ClauseRef R) { return -R - 2; }
  static constexpr bool isBinaryMark(ClauseRef R) { return R <= -2; }
  static constexpr ClauseRef fromBinaryMark(ClauseRef R) { return -R - 2; }

  struct Watcher {
    ClauseRef Ref;
    Lit Blocker;
  };

  /// All clause storage (problem, learnt, XOR-materialized) lives in one
  /// relocating arena; the two lists below index into it. Deleted
  /// clauses are tombstoned in place and reclaimed by garbageCollect().
  ClauseArena Arena;
  std::vector<ClauseRef> ProblemClauses;
  std::vector<ClauseRef> LearntClauses;
  /// Non-deleted learned clauses (locked or not) — the reduceDB trigger.
  /// Counting only unlocked candidates (the pre-arena accounting) lets
  /// the database grow without bound under long assumption prefixes,
  /// where most reasons stay locked across restarts.
  size_t NumLiveLearnts = 0;
  double GarbageFrac;
  std::vector<std::vector<Watcher>> Watches; // indexed by Lit.Code
  /// Truth value of every literal, indexed by Lit.Code: valueOf() is one
  /// load. A variable's value is the entry of its positive literal.
  std::vector<LBool> LitValue;
  std::vector<LBool> Model;
  std::vector<bool> SavedPhase;
  std::vector<ClauseRef> Reason;
  std::vector<int32_t> Level;
  /// Trail index of each assigned variable (stale for unassigned ones);
  /// conflict analysis sorts proof hints by it.
  std::vector<uint32_t> TrailPosOf;
  std::vector<Lit> Trail;
  std::vector<int32_t> TrailLim;
  size_t PropagateHead = 0;

  // VSIDS.
  std::vector<double> Activity;
  double VarInc = 1.0;
  double VarDecay = 0.95;
  std::vector<Var> Heap; // binary max-heap of variables by activity
  std::vector<int32_t> HeapPos;

  double ClauseInc = 1.0;
  double ClauseDecay = 0.999;
  size_t MaxLearned = 8192;

  bool RandomizeBranching = false;
  Rng TieRng;

  bool OkState = true;
  uint64_t ConflictBudget = 0;
  const std::atomic<bool> *AbortFlag = nullptr;
  SharedClausePool *SharedPool = nullptr;
  int PoolOwnerId = -1;
  uint64_t PoolCursor = 0;
  SolverStats Stats;

  /// Proof logging (null = off, the default: the hooks below then cost
  /// one pointer test each).
  ClauseProofSink *ProofSink = nullptr;
  /// Count of derivations reported to the sink; the serial of the most
  /// recent one. Serials are also stored inside the clause (the proof-id
  /// word, see ClauseArena.h), so they must fit an int32.
  uint64_t DeriveCount = 0;
  /// Count of addClause() calls (stored or simplified away). A stored
  /// clause's proof-id word carries the negated sequence number: the
  /// clause's record index in the proof header, which is what a negative
  /// proof hint names.
  uint32_t AddClauseSeq = 0;
  /// Scratch for conflict analysis: the antecedents of the current
  /// conflict as (trail position of the implied literal, clause) pairs
  /// (the conflicting clause itself implies nothing and sorts last), and
  /// the hint ids they map to. Only filled while a sink is attached.
  std::vector<std::pair<uint32_t, ClauseRef>> HintSteps;
  std::vector<int64_t> HintIds;
  std::vector<int64_t> ConflictCoreHints;

  /// Count of addXorClause() calls (kept or cancelled to empty): the
  /// next row's number in the proof header, which onDeriveParity() names.
  uint32_t AddXorSeq = 0;

  /// Binds the serial of the derivation just reported for \p Ref into
  /// the clause's proof-id word (for the retirement notice when reduceDB
  /// drops it; the id relocates with the clause memory).
  void bindSerial(ClauseRef Ref) {
    ++DeriveCount;
    assert(DeriveCount <= static_cast<uint64_t>(
                              std::numeric_limits<int32_t>::max()) &&
           "derivation serial exceeds the in-clause id range");
    Arena[Ref].setProofId(static_cast<int32_t>(DeriveCount));
  }

  /// Reports \p Ref 's literals to the proof sink with their hints.
  void proofDerive(ClauseRef Ref, std::span<const int64_t> Hints) {
    if (!ProofSink)
      return;
    ProofSink->onDerive(Arena[Ref].lits(), Hints);
    bindSerial(Ref);
  }

  /// The proof-hint id of \p Ref: its derivation serial (positive), its
  /// header record index (negative), or 0 when the clause is neither — a
  /// lemma imported from a sibling's pool, say — which poisons the
  /// conflict's hint list (a checker then rejects the addition).
  int64_t proofHintIdOf(ClauseRef Ref) const {
    return Arena[Ref].proofId();
  }

  /// Sorts the collected HintSteps into replay order (ascending trail
  /// position of the implied literal), dedups, and maps them to hint
  /// ids in \p Out. One unmappable antecedent clears the whole list.
  void finalizeHintIds(std::vector<int64_t> &Out) {
    std::sort(HintSteps.begin(), HintSteps.end());
    HintSteps.erase(std::unique(HintSteps.begin(), HintSteps.end()),
                    HintSteps.end());
    Out.clear();
    for (const auto &[Pos, Ref] : HintSteps) {
      int64_t Id = proofHintIdOf(Ref);
      if (Id == 0) {
        Out.clear();
        return;
      }
      Out.push_back(Id);
    }
  }

  // Scratch used by conflict analysis, kept across conflicts so the hot
  // path never allocates: the learnt clause, per-variable marks, the
  // learnt literals whose marks analyze() must clear (minimized-away ones
  // included), and litRedundant()'s DFS path and the memo marks it set.
  // Seen values during minimization (MiniSat's seen_* scheme; all cleared
  // when analyze() returns):
  static constexpr uint8_t SeenSource = 1;    ///< literal of the learnt clause
  static constexpr uint8_t SeenRemovable = 2; ///< proven implied by sources
  static constexpr uint8_t SeenFailed = 3;    ///< proven not removable
  std::vector<Lit> Learnt;
  std::vector<uint8_t> Seen;
  std::vector<Lit> Marked;
  /// One DFS frame: the literal whose reason is being scanned and the
  /// index of the next reason literal to look at.
  struct RedundantFrame {
    uint32_t Next;
    Lit L;
  };
  std::vector<RedundantFrame> RedundantStack;
  std::vector<Var> RedundantToClear;
  /// Scratch of the hint post-pass (removed literals' reason cones).
  std::vector<Lit> ConeStack;

  /// Per-literal flag (indexed by Lit.Code): the watch list lost a
  /// watcher to a reduceDB victim and must be swept. reduceDB sets and
  /// clears them within one call.
  std::vector<uint8_t> Smudged;

  std::vector<Lit> ConflictCore;

  /// Native XOR constraints (empty for pure-CNF formulas; every method
  /// call on an empty engine is a cheap no-op).
  GaussEngine Gauss;

  /// The previous solve() call's assumptions: consecutive calls keep the
  /// trail of their longest common assumption prefix alive instead of
  /// re-deciding and re-propagating it from the root (the cube engine's
  /// ET enumeration hands each worker thousands of cubes sharing long
  /// prefixes).
  std::vector<Lit> PrevAssumptions;

  // -- Core algorithms -----------------------------------------------------
  LBool valueOf(Lit L) const { return LitValue[L.Code]; }
  /// The one accessor for a variable's value (the XOR engine, branching,
  /// phase saving and the model all read it here).
  LBool varValue(Var V) const { return LitValue[mkLit(V).Code]; }
  int32_t decisionLevel() const {
    return static_cast<int32_t>(TrailLim.size());
  }

  /// Assigns \p L with reason \p From at the current decision level.
  void enqueue(Lit L, ClauseRef From);
  ClauseRef propagate();
  /// CNF propagation and XOR propagation to their joint fixpoint.
  ClauseRef propagateFixpoint();
  /// Registers a clause implied by the XOR system as a reason/conflict
  /// justification for conflict analysis. Never watched (sizes < 2 are
  /// tombstoned at birth, so reduceDB never picks them as victims).
  /// \p Rows: the XOR rows it came from, for the proof sink.
  ClauseRef materializeXorClause(std::span<const Lit> Lits,
                                 std::span<const uint32_t> Rows);
  /// First-UIP analysis of \p Confl into the Learnt scratch (asserting
  /// literal first, minimized) and the backjump level.
  void analyze(ClauseRef Confl, int32_t &BtLevel);
  void analyzeFinal(Lit Failed);
  bool litRedundant(Lit L, uint32_t AbstractLevels);
  /// Proof hints of minimization: the reason cone of every literal
  /// minimization removed, down to the clause's own literals.
  void collectRemovedCones();
  void backtrack(int32_t ToLevel);
  Lit pickBranchLit();
  void attachClause(ClauseRef Ref);
  ClauseRef learnClause(std::span<const Lit> Lits);
  /// True iff \p Ref is the reason of an assigned literal (MiniSat's
  /// locked()). O(1): reasons keep their implied literal at index 0.
  bool locked(ClauseRef Ref) const;
  void reduceDB();

  /// Allocates into the arena and keeps the peak-footprint stat current.
  ClauseRef allocClause(std::span<const Lit> Lits, bool Learned) {
    ClauseRef Ref = Arena.alloc(Lits, Learned);
    Stats.ArenaBytes = std::max<uint64_t>(Stats.ArenaBytes,
                                          Arena.sizeBytes());
    return Ref;
  }
  /// Compacts the arena when the wasted fraction crosses GarbageFrac.
  /// Only call from a quiescent point (no ClauseRef held in a local):
  /// the restart path, right after reduceDB.
  void checkGarbage();
  void garbageCollect();
  /// Rewrites every live ClauseRef holder — watch lists, trail reasons,
  /// both clause lists — into \p To. Clauses reachable from none of them
  /// (tombstones nothing locks anymore) are dropped.
  void relocAll(ClauseArena &To);

  // Heap helpers.
  void heapInsert(Var V);
  void heapUpdate(Var V);
  Var heapPop();
  void heapSiftUp(size_t Idx);
  void heapSiftDown(size_t Idx);
  bool heapLess(Var A, Var B) const { return Activity[A] > Activity[B]; }

  void bumpVar(Var V);
  void bumpClause(Clause C);
  void decayActivities();

  /// Pulls clauses published by sibling solvers into the database; must
  /// run at decision level 0. Publishing happens inline at learn time.
  void importSharedClauses();
};

/// Luby restart sequence value (1-based index), used for restart pacing.
uint64_t lubySequence(uint64_t I);

} // namespace veriqec::sat

#endif // VERIQEC_SAT_SOLVER_H
