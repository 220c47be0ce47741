//===- engine/CubeEngine.h - Shared-queue cube-and-conquer ------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expression-level half of the verification engine: cube-and-conquer
/// SAT discharge over a thread pool with one shared task queue. Each
/// problem's cubes are the leaves of one CubeTree grown by the paper's ET
/// split (Section 7.1 / Appendix D.4, ET = 2d*N(ones) + N(bits)); they
/// are cut into contiguous range tasks (cubeRanges()), and each worker
/// lazily instantiates one reusable solver per problem from the shared
/// CNF encoding and discharges every cube of the ranges it takes under
/// assumptions, so learned clauses on the shared prefix carry over and
/// the CNF is never re-encoded per cube. The first SAT cube cancels all
/// outstanding siblings of its problem. solveAll() multiplexes many
/// independent problems over the same pool — the substrate of the batch
/// verifyAll() path. The handle API runs an open problem's cube trees on
/// one persistent slot on the calling thread (sequential solves, the
/// local distance search).
///
/// The sizing rule (prepareCubeProblem): under an auto threshold the tree
/// grows threshold by threshold until it has max(8 x slots, 8192) leaves,
/// never past the auto cap. The slot term sizes the cube set to the fleet
/// (local threads x nodes) so idle pool threads taking the next range and
/// the coordinator's on-demand grants can even out uneven hardness; the
/// floor keeps the per-slot count high enough that the reusable solvers'
/// assumption-prefix reuse has material to work with — measured on
/// surface9 t=4 at one slot, 305 cubes run 14.9 s and 10.4k cubes 5.2 s,
/// while the old flat cut's 21k cubes pay 7.6 s of near-trivial dispatch
/// (ROADMAP "cube-split heuristics").
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_ENGINE_CUBEENGINE_H
#define VERIQEC_ENGINE_CUBEENGINE_H

#include "engine/CubeRun.h"
#include "engine/CubeTree.h"
#include "engine/ThreadPool.h"
#include "smt/CubeSolver.h"

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace veriqec::engine {

struct Discharge; // one problem's discharge state (CubeEngine.cpp)

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
/// cube tree, the threshold the tree grew to, and the per-problem run
/// configuration. The tree is one leaf when the preprocessor refuted the
/// problem outright (Encoded->TriviallyUnsat); nothing runs it then.
struct PreparedProblem {
  std::shared_ptr<smt::VerificationProblem> Encoded;
  CubeTree Tree;
  uint32_t SplitThresholdUsed = 0;
  CubeRunConfig Config;
};

/// The one CubeProblem -> (encoding, cubes, config) translation, shared
/// by the in-process engine and the distributed coordinator so the two
/// schedulers cannot desynchronize (their verdicts are compared in CI):
/// preprocess + encode, then grow the cube tree: by the sizing rule
/// against \p TotalSlots (the fleet-wide slot count) under an auto
/// threshold, straight to the threshold otherwise.
PreparedProblem prepareCubeProblem(const CubeProblem &P, size_t TotalSlots);

/// Copies \p P's preprocessing and CNF figures into \p Out.
void describeProblem(const smt::VerificationProblem &P,
                     smt::SolveOutcome &Out);

/// Outcome of a problem the preprocessor refuted: no cubes, no solver.
smt::SolveOutcome triviallyUnsatOutcome(const smt::VerificationProblem &P,
                                        bool LogProofs);

/// The certificate rule of every CubeBackend: a header asserting
/// \p P's root units and \p Tree's bound as `b` units, \p Streams,
/// released into it, and the trailer of \p Tree's internal nodes. A
/// cube set an empty core refuted is certified by provenTree(): its
/// bound alone, which needs no trailer.
std::string assembleCertificate(const smt::VerificationProblem &P,
                                std::span<proof::ProofText> Streams,
                                const CubeTree &Tree);

/// The tree an UNSAT cube set's certificate stands for: \p Tree, or its
/// bound as one leaf when an empty core \p Refuted the problem.
CubeTree provenTree(CubeTree Tree, bool Refuted);

/// Where cube problems are discharged: in-process (CubeEngine) or
/// sharded across remote workers (dist::Coordinator). Scenario batches
/// (VerificationEngine::verifyAll) and the distance search (through the
/// handle API) run unchanged on either. Every problem's certificate
/// follows assembleCertificate() and is assembled once, when the problem
/// closes: at the end of solveAll(), or in closeProblem() for a handle.
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

  /// Solves the leaves of \p Tree against an open problem, blocking;
  /// statistics and cube counts are this call's, and the outcome carries
  /// no certificate. The tree's bound leads every cube (the distance
  /// search's weight bound).
  virtual smt::SolveOutcome solveCubes(uint32_t Handle, CubeTree Tree) = 0;

  /// Frees an open problem and returns its certificate: that of its last
  /// UNSAT cube set over every set's streams (learnt clauses never depend
  /// on a set's bound). Empty without LogProofs or without an UNSAT set.
  virtual std::string closeProblem(uint32_t Handle) = 0;
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
  smt::SolveOutcome solveCubes(uint32_t Handle, CubeTree Tree) override;
  std::string closeProblem(uint32_t Handle) override;

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
