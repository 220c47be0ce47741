//===- engine/CubeRun.h - Shared per-problem cube discharge -----*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread-safe shared state of one problem while its cubes are being
/// discharged: per-slot reusable solvers (lazily built from the shared
/// encoding), cross-slot learned-clause exchange, and the problem's one
/// outcome vocabulary. Every cube that runs is concluded by its own
/// solver call with a CubeVerdict; a batch, a cube set and a problem
/// conclude with the maximum of their cubes' verdicts (VerdictCell), and
/// resultOf() is the one verdict -> SolveResult map. A SAT cube or an
/// empty failed-assumption core (Refuted) cancels the run. Extracted
/// from CubeEngine so the in-process shared-queue scheduler and the
/// distributed worker (dist/Worker.h) run the identical per-cube logic,
/// cut into pool tasks by the one rule cubeRanges() — the distributed
/// layer additionally feeds lemmas in from other nodes
/// (addExternalLemmas) and drains locally learnt ones for relay
/// (drainOutboundLemmas).
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_ENGINE_CUBERUN_H
#define VERIQEC_ENGINE_CUBERUN_H

#include "proof/ProofLog.h"
#include "sat/Solver.h"
#include "smt/CubeSolver.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

namespace veriqec::engine {

/// Per-problem solve configuration — the serializable subset of
/// smt::SolveOptions a (possibly remote) cube worker needs.
struct CubeRunConfig {
  uint64_t ConflictBudget = 0; ///< 0 = unlimited
  uint64_t RandomSeed = 0;     ///< 0 = deterministic branching
  /// Attach a proof::SlotProofLog to every slot solver and record one q
  /// conclusion per solved cube. Disables lemma exchange (local and
  /// remote): an imported lemma is justified by another slot's derivation
  /// chain and would not be RUP in this stream.
  bool LogProofs = false;
};

/// How a cube concluded, in precedence order: a batch, a cube set or a
/// problem concludes with the maximum of its cubes' verdicts (a SAT cube
/// decides everything; an empty core outranks budget aborts, whose cubes
/// it makes redundant; any unconcluded cube outranks plain refutations).
enum class CubeVerdict : uint8_t {
  Unsat,     ///< refuted under the cube's assumptions
  Cancelled, ///< not concluded: the run was cancelled first
  Aborted,   ///< the solver gave up (conflict budget)
  Refuted,   ///< refuted by an empty core: the problem is UNSAT outright
  Sat,       ///< satisfiable: a counterexample
};

/// The SolveResult a verdict stands for: an unconcluded cube leaves its
/// problem inconclusive.
constexpr sat::SolveResult resultOf(CubeVerdict V) {
  return V == CubeVerdict::Sat ? sat::SolveResult::Sat
         : V == CubeVerdict::Unsat || V == CubeVerdict::Refuted
             ? sat::SolveResult::Unsat
             : sat::SolveResult::Aborted;
}

/// The fold of many cubes' verdicts, raised concurrently: it only ever
/// rises. A raise releases and get() acquires, so what a thread wrote
/// before raising (the SAT model) is visible to whoever reads it after.
class VerdictCell {
public:
  void raise(CubeVerdict V) {
    uint8_t Cur = Cell.load(std::memory_order_relaxed);
    while (Cur < static_cast<uint8_t>(V) &&
           !Cell.compare_exchange_weak(Cur, static_cast<uint8_t>(V),
                                       std::memory_order_release)) {
    }
  }
  CubeVerdict get() const {
    return static_cast<CubeVerdict>(Cell.load(std::memory_order_acquire));
  }
  void reset() { Cell.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint8_t> Cell{0};
};

/// What a run's slots spent: solver statistics and solved cubes.
struct CubeCounters {
  sat::SolverStats Stats;
  uint64_t Solved = 0;
};

class CubeRun {
public:
  /// \p Problem must outlive the run and is shared read-only across
  /// slots. \p NumSlots bounds the slot indices runCube() accepts.
  /// \p RemotePeers: slots of other nodes work on the same problem (the
  /// run belongs to a --dist worker), so lemmas are worth exchanging even
  /// with a single local slot.
  CubeRun(const smt::VerificationProblem &Problem, const CubeRunConfig &Cfg,
          size_t NumSlots, bool RemotePeers = false);

  /// Discharges one cube on slot \p Slot. Slots are exclusive: at most
  /// one thread may use a given slot at any time (the slot owns a
  /// reusable solver whose learnt clauses carry across cubes); distinct
  /// slots may run concurrently. \p CubeId is observability-only: it
  /// labels this cube's trace span (the enumeration index in-process,
  /// the batch-relative index on a distributed worker). Raises the run's
  /// verdict with the cube's, except that the run turns Sat only with the
  /// model of its first SAT cube.
  CubeVerdict runCube(size_t Slot, const std::vector<sat::Lit> &Cube,
                      uint64_t CubeId = 0);

  void cancel() { Cancel.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return Cancel.load(std::memory_order_relaxed); }

  /// Owner id of lemmas that came from other nodes in the learnt pool
  /// (slots own ids 0..numSlots()-1).
  static constexpr int ImportedOwner = -1;

  /// Clears the per-run verdict state (cancel flag, verdict and the
  /// captured model) while keeping slot solvers, learnt clauses and
  /// counters: one run serves many incremental cube sets of a persistent
  /// problem (the distance search's probes). Call only while quiescent.
  void reset() {
    Cancel.store(false, std::memory_order_relaxed);
    Verdict.reset();
    Model.clear();
  }

  /// The maximum verdict of the cubes run since the last reset().
  CubeVerdict verdict() const { return Verdict.get(); }

  /// Model of the first SAT cube. Valid when verdict() is Sat; call only
  /// after the run has quiesced (no slot inside runCube()).
  const std::unordered_map<std::string, bool> &model() const { return Model; }

  uint64_t solved() const { return Solved.load(std::memory_order_relaxed); }

  /// Solver conflicts spent so far, observed at cube granularity: each
  /// slot publishes its solver's running total after every cube, so this
  /// is safe to read while slots are mid-solve (unlike takeCounters,
  /// which walks the solvers themselves). Feeds the worker heartbeat's
  /// conflict delta.
  uint64_t conflictsObserved() const {
    return ConflictsObserved.load(std::memory_order_relaxed);
  }

  /// Feeds lemmas learnt on OTHER nodes into the learnt pool, where every
  /// slot imports them at its next cube (they are not handed back by
  /// drainOutboundLemmas). No-op when the run exchanges no lemmas (proof
  /// logging, or a lone slot without remote peers). Thread-safe.
  void addExternalLemmas(std::span<const std::vector<sat::Lit>> Lemmas);

  /// Short lemmas the local slots learnt since the previous drain (at
  /// most SharedClausePool::Capacity; a drain that fell further behind
  /// skips the oldest). Empty when the run exchanges no lemmas. At most
  /// one thread may drain at a time; safe while slots are mid-solve.
  std::vector<std::vector<sat::Lit>> drainOutboundLemmas();

  /// The slot solvers' statistics and the solved cubes since the
  /// previous take (slot solvers persist across batches and cube sets,
  /// so their totals would double-count). Call only while the slots are
  /// quiescent (between batches / after the run).
  CubeCounters takeCounters();

  size_t numSlots() const { return Slots.size(); }
  const CubeRunConfig &config() const { return Cfg; }

  /// Moves out everything slot \p Slot's proof log has accumulated since
  /// the last drain (empty when not logging or nothing happened). Record
  /// boundaries are respected: runCube() writes whole records, so a
  /// drain between cubes never splits one. Chunks drained from the same
  /// slot concatenate into one valid stream. Call only while the slot is
  /// quiescent (owner thread, or between batches).
  proof::ProofText drainSlotProof(size_t Slot);

private:
  const smt::VerificationProblem &Problem;
  CubeRunConfig Cfg;

  std::atomic<bool> Cancel{false};
  VerdictCell Verdict;
  std::atomic<uint64_t> Solved{0};
  /// The counters takeCounters() last returned (taker-only).
  CubeCounters Taken;
  /// See conflictsObserved(). Owner-only per-slot bases live in
  /// SlotConflictBase; only the published sum is shared.
  std::atomic<uint64_t> ConflictsObserved{0};

  /// One lazily-built solver per slot; a slot is only ever touched by one
  /// thread at a time, so no locking.
  std::vector<std::unique_ptr<sat::Solver>> Slots;
  /// One proof stream per slot (owner-only, like Slots); allocated in
  /// the constructor when Cfg.LogProofs. unique_ptr for address
  /// stability — the slot solver keeps a raw sink pointer.
  std::vector<std::unique_ptr<proof::SlotProofLog>> SlotLogs;
  /// Per-slot last-published solver conflict totals (owner-only).
  std::vector<uint64_t> SlotConflictBase;

  /// Clause exchange between the slots, local and remote: lemmas learned
  /// on one slot's cubes are valid for every sibling cube and imported
  /// lazily. Attached to every slot solver when ExchangeLemmas.
  sat::SharedClausePool LearntPool;
  /// Proofs are off and some peer can use the lemmas: two or more local
  /// slots, or remote ones.
  bool ExchangeLemmas;
  /// drainOutboundLemmas()' read position in LearntPool (drainer-only).
  uint64_t OutboundLemmaCursor = 0;

  std::mutex ModelMutex; // guards Model on the SAT path
  std::unordered_map<std::string, bool> Model;
};

/// A contiguous slice [Begin, End) of a cube list: one pool task.
struct CubeRange {
  size_t Begin, End;
};

/// The one rule for cutting \p NumCubes cubes into pool tasks over
/// \p Slots slots: non-empty contiguous ranges in cube order, at most 8
/// per slot. Ranges, not single cubes, keep mostly trivial cubes off the
/// queue and neighbouring cubes (long shared assumption prefixes) on one
/// slot solver; several per slot let idle threads even out hardness.
std::vector<CubeRange> cubeRanges(size_t NumCubes, size_t Slots);

} // namespace veriqec::engine

#endif // VERIQEC_ENGINE_CUBERUN_H
