//===- engine/CubeEngine.h - Work-stealing cube-and-conquer -----*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expression-level half of the verification engine: cube-and-conquer
/// SAT discharge over a shared work-stealing thread pool. Cubes produced
/// by the paper's ET split heuristic (Section 7.1 / Appendix D.4,
/// ET = 2d*N(ones) + N(bits)) become pool tasks; each worker lazily
/// instantiates one reusable solver per problem from the shared CNF
/// encoding and discharges every cube it pops or steals under
/// assumptions, so learned clauses on the shared prefix carry over and
/// the CNF is never re-encoded per cube. The first SAT cube cancels all
/// outstanding siblings of its problem. solveAll() multiplexes many
/// independent problems over the same pool — the substrate of the batch
/// verifyAll() path. The handle API runs an open problem's cube sets on
/// one persistent slot on the calling thread (sequential solves, the
/// local distance search).
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_ENGINE_CUBEENGINE_H
#define VERIQEC_ENGINE_CUBEENGINE_H

#include "engine/CubeRun.h"
#include "engine/ThreadPool.h"
#include "smt/CubeSolver.h"

#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

namespace veriqec::engine {

struct Discharge; // one problem's discharge state (CubeEngine.cpp)

/// Enumerates assumption cubes over \p SplitVars with the ET heuristic:
/// a branch is extended while ET = 2*Distance*ones + bits stays within
/// \p Threshold; branches whose ones-count exceeds \p MaxOnes are pruned
/// as infeasible under the weight constraint. The zero branch is taken
/// first so cubes come out in (roughly) increasing weight order.
std::vector<std::vector<sat::Lit>>
enumerateCubes(const std::vector<sat::Var> &SplitVars, uint32_t Distance,
               uint32_t Threshold, uint32_t MaxOnes);

/// Exact number of cubes enumerateCubes() would emit for \p NumSplitVars
/// split variables, computed by a (bits, ones) dynamic program without
/// materializing anything; saturates at \p Cap so threshold probes stay
/// cheap.
uint64_t countCubes(size_t NumSplitVars, uint32_t Distance,
                    uint32_t Threshold, uint32_t MaxOnes, uint64_t Cap);

/// Cube-split sizing heuristic: the smallest ET threshold whose cube
/// count reaches max(8x \p TotalSlots, 8192), bounded above by
/// \p MaxThreshold (the budget-exhaustion cut, which stays the ceiling).
/// The slot term sizes the cube set to the fleet (local threads x
/// nodes); the floor keeps the per-slot count high enough that the
/// reusable solvers' assumption-prefix reuse and sibling-core pruning
/// have material to work with — measured on surface9 t=4 at one slot,
/// 305 cubes run 14.9 s and 10.4k cubes 5.2 s, while the old flat cut's
/// 21k cubes pay 7.6 s of near-trivial dispatch (ROADMAP "cube-split
/// heuristics"). Monotonicity of the cube count in the threshold makes
/// a binary search exact. \p CubeCountOut (optional) receives the count
/// at the chosen threshold, saturated at 32x the target.
uint32_t pickSplitThreshold(size_t NumSplitVars, uint32_t Distance,
                            uint32_t MaxThreshold, uint32_t MaxOnes,
                            size_t TotalSlots,
                            uint64_t *CubeCountOut = nullptr);

/// The auto ET cap, min(\p NumQubits, 2*Distance*MaxOnes + 4). The paper
/// cuts at n, but past 2d*MaxOnes every extension is a forced zero-tail
/// that multiplies near-trivial cubes without narrowing the search
/// (measured ~25% of cube-path wall-clock on surface9 t=4); the +4 slack
/// keeps the cubes that just placed their last feasible one.
uint32_t autoSplitThreshold(size_t NumQubits, uint32_t Distance,
                            uint32_t MaxOnes);

/// One satisfiability problem for the batch API.
struct CubeProblem {
  const smt::BoolContext *Ctx = nullptr;
  smt::ExprRef Root;
  smt::SolveOptions Opts;
};

/// A CubeProblem encoded and split: the shared immutable problem, its
/// cube list, the threshold the enumeration actually used, and the
/// per-problem run configuration. Cubes is empty when the preprocessor
/// refuted the problem outright (Encoded->TriviallyUnsat).
struct PreparedProblem {
  std::shared_ptr<smt::VerificationProblem> Encoded;
  std::vector<std::vector<sat::Lit>> Cubes;
  uint32_t SplitThresholdUsed = 0;
  CubeRunConfig Config;
};

/// The one CubeProblem -> (encoding, cubes, config) translation, shared
/// by the in-process engine and the distributed coordinator so the two
/// schedulers cannot desynchronize (their verdicts are compared in CI):
/// preprocess + encode, resolve an auto split threshold against
/// \p TotalSlots (the fleet-wide slot count), enumerate the cubes.
PreparedProblem prepareCubeProblem(const CubeProblem &P, size_t TotalSlots);

/// Copies \p P's preprocessing and CNF figures into \p Out.
void describeProblem(const smt::VerificationProblem &P,
                     smt::SolveOutcome &Out);

/// Outcome of a problem the preprocessor refuted: no cubes, no solver.
smt::SolveOutcome triviallyUnsatOutcome(const smt::VerificationProblem &P,
                                        bool LogProofs);

/// The certificate rule of every CubeBackend: a header asserting
/// \p Bound (plus a hardened budget) as `b` units, \p Streams, and the
/// trailer of the cube tree \p Cubes span past their \p Bound prefix.
/// Pass no cubes when an empty core already refuted the problem.
std::string assembleCertificate(const smt::VerificationProblem &P,
                                const CubeRunConfig &Cfg,
                                std::span<const sat::Lit> Bound,
                                std::span<const std::string> Streams,
                                std::span<const std::vector<sat::Lit>> Cubes);

/// Where cube problems are discharged: in-process (CubeEngine) or
/// sharded across remote workers (dist::Coordinator). Scenario batches
/// (VerificationEngine::verifyAll) and the distance search (through the
/// handle API) run unchanged on either; certificates follow
/// assembleCertificate().
class CubeBackend {
public:
  virtual ~CubeBackend() = default;

  /// Solves many independent problems; one outcome per problem, in
  /// order.
  virtual std::vector<smt::SolveOutcome>
  solveAll(std::span<const CubeProblem> Problems) = 0;

  /// Total solver slots behind this backend (local threads x nodes);
  /// drives the cube-split sizing heuristic.
  virtual size_t numSlots() const = 0;

  /// Registers an encoded problem (not TriviallyUnsat) without solving;
  /// its slot solvers and learnt clauses persist until closeProblem().
  virtual uint32_t
  openProblem(std::shared_ptr<const smt::VerificationProblem> P,
              const CubeRunConfig &Config) = 0;

  /// Solves one cube set against an open problem, blocking; statistics
  /// and cube counts are this call's. \p Bound is assumed ahead of every
  /// cube and asserted by the certificate's header (the distance
  /// search's weight bound), so the cubes must cover the problem under
  /// it as a cube tree.
  virtual smt::SolveOutcome
  solveCubes(uint32_t Handle, std::vector<std::vector<sat::Lit>> Cubes,
             std::span<const sat::Lit> Bound) = 0;

  /// Frees the state of an open problem.
  virtual void closeProblem(uint32_t Handle) = 0;
};

class CubeEngine : public CubeBackend {
public:
  /// \p NumThreads = 0 picks the hardware concurrency. The pool itself
  /// is created on first use, so engines that only ever see
  /// single-cube (sequential) problems never spawn a thread.
  explicit CubeEngine(size_t NumThreads = 0);
  ~CubeEngine() override;

  size_t numWorkers() const { return Width; }
  size_t numSlots() const override { return Width; }

  /// Cube-and-conquer solve of one problem (blocks until decided).
  smt::SolveOutcome solve(const smt::BoolContext &Ctx, smt::ExprRef Root,
                          const smt::SolveOptions &Opts);

  /// Solves many independent problems over the same pool: every cube of
  /// every problem is in flight together, a SAT cube cancels only its own
  /// problem's siblings, and statistics are aggregated per problem. A
  /// lone unsplit problem runs through the handle API instead.
  std::vector<smt::SolveOutcome>
  solveAll(std::span<const CubeProblem> Problems) override;

  /// The handle API on one slot: an open problem's cubes run in order on
  /// the calling thread, whatever the engine's width. Distinct handles
  /// may be driven from distinct threads concurrently.
  uint32_t openProblem(std::shared_ptr<const smt::VerificationProblem> P,
                       const CubeRunConfig &Config) override;
  smt::SolveOutcome solveCubes(uint32_t Handle,
                               std::vector<std::vector<sat::Lit>> Cubes,
                               std::span<const sat::Lit> Bound) override;
  void closeProblem(uint32_t Handle) override;

private:
  ThreadPool &pool();

  size_t Width;
  std::mutex PoolMutex;
  std::unique_ptr<ThreadPool> Pool;

  std::mutex OpenMutex; // guards Open and NextHandle
  std::unordered_map<uint32_t, std::unique_ptr<Discharge>> Open;
  uint32_t NextHandle = 1;
};

} // namespace veriqec::engine

#endif // VERIQEC_ENGINE_CUBEENGINE_H
