//===- engine/VerificationEngine.h - Batch scenario verification -*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scenario-level half of the verification engine: owns a CubeEngine
/// (shared-queue pool + cube-and-conquer scheduler) and drives whole
/// Scenarios through symbolic execution, VC assembly and SAT discharge on
/// it. verifyAll() multiplexes many scenarios over the same pool — VC
/// encodings build concurrently and every scenario's cubes share the
/// workers — with per-scenario verdicts, counterexamples and statistics.
/// The verifyScenario()/verifyDetection() functions in verifier/Verifier.h
/// are thin facades over the process-wide instance.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_ENGINE_VERIFICATIONENGINE_H
#define VERIQEC_ENGINE_VERIFICATIONENGINE_H

#include "engine/CubeEngine.h"
#include "verifier/Verifier.h"

#include <span>

namespace veriqec::engine {

/// Steps 1-2 of the verification pipeline — symbolic flow plus negated-VC
/// assembly into \p Ctx — without the SAT discharge. The engine's own
/// verifyAll() runs on this; it is exposed so the testing/ oracles can
/// re-evaluate engine verdicts (certificate checking needs the exact
/// BoolExpr the engine solved). \p Ctx must outlive any solving of the
/// returned VC.
BuiltVc buildScenarioVc(smt::BoolContext &Ctx, const Scenario &S,
                        const VerifyOptions &Opts = {});

class VerificationEngine {
public:
  /// \p NumThreads = 0 picks the hardware concurrency.
  explicit VerificationEngine(size_t NumThreads = 0) : Cubes(NumThreads) {}

  size_t numWorkers() const { return Cubes.numWorkers(); }

  /// Verifies one scenario on the engine's pool. Opts.Parallel selects
  /// cube splitting; Opts.Threads is ignored here (the pool size rules).
  VerificationResult verify(const Scenario &S, const VerifyOptions &Opts = {});

  /// Verifies a batch of scenarios over the same pool, one result per
  /// scenario in order. Scenarios are independent: a counterexample in
  /// one cancels only that scenario's outstanding cubes.
  std::vector<VerificationResult> verifyAll(std::span<const Scenario> Scenarios,
                                            const VerifyOptions &Opts = {});

  /// Same pipeline, but the SAT discharge runs on \p Backend instead of
  /// this engine's pool — this is how a whole scenario workload is
  /// sharded across remote workers (dist::Coordinator) without the
  /// verification layers knowing: symbolic flow and VC assembly still
  /// happen here, only the cube scheduling is swapped out.
  std::vector<VerificationResult> verifyAll(std::span<const Scenario> Scenarios,
                                            const VerifyOptions &Opts,
                                            CubeBackend &Backend);

  /// The engine's cube-level scheduler (for expression workloads).
  CubeEngine &cubes() { return Cubes; }

  /// Process-wide engine sized to the hardware, created on first use.
  static VerificationEngine &shared();

private:
  CubeEngine Cubes;
};

/// The facades' one engine rule: calls \p F on the process-wide engine
/// unless \p Threads asks for another width, then on a private engine
/// of that width for the call.
template <typename Fn>
auto onEngine(size_t Threads, Fn &&F) {
  VerificationEngine &Shared = VerificationEngine::shared();
  if (Threads == 0 || Threads == Shared.numWorkers())
    return F(Shared);
  VerificationEngine Private(Threads);
  return F(Private);
}

} // namespace veriqec::engine

#endif // VERIQEC_ENGINE_VERIFICATIONENGINE_H
