//===- engine/CubeRun.h - Shared per-problem cube discharge -----*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread-safe shared state of one problem while its cubes are being
/// discharged: per-slot reusable solvers (lazily built from the shared
/// encoding), first-SAT cancellation, global-UNSAT detection via empty
/// failed-assumption cores and sibling-core subtree pruning, plus
/// cross-slot learned-clause exchange. Extracted from CubeEngine so the
/// in-process work-stealing scheduler and the distributed worker
/// (dist/Worker.h) run the identical per-cube logic —
/// the distributed layer additionally feeds cores and lemmas in from
/// other nodes (addExternalCores, addExternalLemmas) and drains locally
/// discovered ones for relay (drainOutboundCores, drainOutboundLemmas).
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
  /// Harden sum(budget terms) <= BudgetBound as root-level units in every
  /// slot solver (one bound per problem). Off for searches that probe
  /// many bounds by assumption (the distance search makes each probe's
  /// bound the root path of its cube tree, so every cube assumes it).
  bool HardenBudget = false;
  uint32_t BudgetBound = 0;
  uint64_t ConflictBudget = 0; ///< 0 = unlimited
  uint64_t RandomSeed = 0;     ///< 0 = deterministic branching
  /// Attach a proof::SlotProofLog to every slot solver and record a q
  /// conclusion per solved cube (a cube a stored core subsumes is covered
  /// by that core's q). Disables lemma exchange (local and remote): an
  /// imported lemma is justified by another slot's derivation chain and
  /// would not be RUP in this stream.
  bool LogProofs = false;
};

class CubeRun {
public:
  /// What happened to one cube.
  enum class CubeOutcome {
    Unsat,      ///< discharged UNSAT by a solver call
    PrunedCore, ///< subsumed by a stored sibling UNSAT core
    Sat,        ///< satisfiable — model captured, run cancelled
    Aborted,    ///< solver gave up (conflict budget)
    Cancelled,  ///< run was cancelled before/while solving this cube
  };

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
  /// the batch-relative index on a distributed worker).
  CubeOutcome runCube(size_t Slot, const std::vector<sat::Lit> &Cube,
                      uint64_t CubeId = 0);

  void cancel() { Cancel.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return Cancel.load(std::memory_order_relaxed); }

  /// Owner id of lemmas that came from other nodes in the learnt pool
  /// (slots own ids 0..numSlots()-1).
  static constexpr int ImportedOwner = -1;

  /// Clears the per-run verdict state (cancel/SAT/global-UNSAT/abort
  /// flags and the captured model) while keeping slot solvers, learnt
  /// clauses, stored cores and cumulative counters: the distributed
  /// worker reuses one CubeRun across many incremental cube sets of a
  /// persistent problem (the distance search's probes). Call only while
  /// quiescent.
  void reset() {
    Cancel.store(false, std::memory_order_relaxed);
    GlobalUnsat.store(false, std::memory_order_relaxed);
    AnyAborted.store(false, std::memory_order_relaxed);
    SatFlag.store(false, std::memory_order_relaxed);
    Model.clear();
  }

  /// A cube's UNSAT refutation used none of its assumption literals: the
  /// problem is UNSAT under its root clauses alone.
  bool globalUnsat() const {
    return GlobalUnsat.load(std::memory_order_relaxed);
  }
  /// Some cube aborted on its conflict budget (excludes cancellation).
  bool anyAborted() const { return AnyAborted.load(std::memory_order_relaxed); }
  bool satFound() const { return SatFlag.load(std::memory_order_acquire); }

  /// Model of the first SAT cube. Valid when satFound(); call only after
  /// the run has quiesced (no slot inside runCube()).
  const std::unordered_map<std::string, bool> &model() const { return Model; }

  uint64_t solved() const { return Solved.load(std::memory_order_relaxed); }
  uint64_t prunedCore() const {
    return PrunedCore.load(std::memory_order_relaxed);
  }

  /// Solver conflicts spent so far, observed at cube granularity: each
  /// slot publishes its solver's running total after every cube, so this
  /// is safe to read while slots are mid-solve (unlike accumulateStats,
  /// which walks the solvers themselves). Feeds the worker heartbeat's
  /// conflict delta.
  uint64_t conflictsObserved() const {
    return ConflictsObserved.load(std::memory_order_relaxed);
  }

  /// Merges cores discovered on OTHER nodes into the pruning list (they
  /// are not re-broadcast through drainOutboundCores).
  void addExternalCores(std::span<const std::vector<sat::Lit>> Cores);

  /// Locally discovered strict-subset cores not yet drained — the
  /// distributed worker ships these to the coordinator for cross-node
  /// sibling pruning.
  std::vector<std::vector<sat::Lit>> drainOutboundCores();

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

  /// Sums the slot solvers' statistics into \p Out. Call only while the
  /// slots are quiescent (between batches / after the run).
  void accumulateStats(sat::SolverStats &Out) const;

  size_t numSlots() const { return Slots.size(); }
  const CubeRunConfig &config() const { return Cfg; }

  /// Moves out everything slot \p Slot's proof log has accumulated since
  /// the last drain (empty when not logging or nothing happened). Record
  /// boundaries are respected: runCube() writes whole records, so a
  /// drain between cubes never splits one. Chunks drained from the same
  /// slot concatenate into one valid stream. Call only while the slot is
  /// quiescent (owner thread, or between batches).
  std::string drainSlotProof(size_t Slot);

private:
  void storeCore(const std::vector<sat::Lit> &Core, bool Outbound);

  const smt::VerificationProblem &Problem;
  CubeRunConfig Cfg;

  std::atomic<bool> Cancel{false};
  std::atomic<bool> GlobalUnsat{false};
  std::atomic<bool> AnyAborted{false};
  std::atomic<bool> SatFlag{false};
  std::atomic<uint64_t> Solved{0};
  std::atomic<uint64_t> PrunedCore{0};
  /// See conflictsObserved(). Owner-only per-slot bases live in
  /// SlotConflictBase; only the published sum is shared.
  std::atomic<uint64_t> ConflictsObserved{0};

  /// UNSAT cores that used only a strict subset of their cube's
  /// assumption literals. Any later cube containing such a core is UNSAT
  /// without solving — with the ET enumeration's shared prefixes this
  /// regularly discharges whole subtrees of sibling cubes. The master
  /// list is guarded by CoreMutex and append-only; slots scan their own
  /// snapshot (refreshed only when CoreCount says it is stale), so the
  /// common case costs one relaxed load per cube, not a lock. Capped so
  /// snapshot refreshes and subset checks stay cheap.
  std::vector<std::vector<sat::Lit>> RefutedCores;
  std::vector<std::vector<sat::Lit>> OutboundCores;
  std::atomic<size_t> CoreCount{0};
  std::mutex CoreMutex;
  static constexpr size_t MaxRefutedCores = 256;

  /// One lazily-built solver per slot; a slot is only ever touched by one
  /// thread at a time, so no locking.
  std::vector<std::unique_ptr<sat::Solver>> Slots;
  /// One proof stream per slot (owner-only, like Slots); allocated in
  /// the constructor when Cfg.LogProofs. unique_ptr for address
  /// stability — the slot solver keeps a raw sink pointer.
  std::vector<std::unique_ptr<proof::SlotProofLog>> SlotLogs;
  /// Per-slot snapshots of RefutedCores (owner-only, like Slots).
  std::vector<std::vector<std::vector<sat::Lit>>> CoreSnapshots;
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

} // namespace veriqec::engine

#endif // VERIQEC_ENGINE_CUBERUN_H
