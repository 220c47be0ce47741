//===- bench/cube_vs_monolithic.cpp - Cube-path regression tracking --------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracks the PR 1 regression by number instead of anecdote: surface-code
/// memory verification with the cube-and-conquer path versus the
/// monolithic solve, at growing distance. The PR 1 engine lost to
/// monolithic on surface9 t=4 (33.7 s vs 12.8 s on the original box);
/// the preprocessed, incrementally-reused pipeline must keep the cube
/// path AHEAD of monolithic. The surface9 rows reproduce the exact
/// BENCH_table3.json configuration; smaller distances keep CI runs
/// honest but cheap. Also benchmarks the preprocessing toggle so the
/// GF(2) layer's cost/benefit stays visible.
///
//===----------------------------------------------------------------------===//

#include "qec/Codes.h"
#include "verifier/Verifier.h"

#include <benchmark/benchmark.h>

using namespace veriqec;

namespace {

void runSurfaceMemory(benchmark::State &State, size_t Distance,
                      uint32_t MaxErrors, bool Cube, bool Preprocess) {
  StabilizerCode Code = makeRotatedSurfaceCode(Distance);
  Scenario S =
      makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, MaxErrors);
  VerifyOptions VO;
  VO.Parallel = Cube;
  VO.Threads = 1; // per-core comparison: same budget for both strategies
  VO.Preprocess = Preprocess;
  uint64_t Cubes = 0, Conflicts = 0;
  for (auto _ : State) {
    VerificationResult R = verifyScenario(S, VO);
    if (!R.StructuralOk || !R.Verified)
      State.SkipWithError("verification failed");
    Cubes = R.NumCubes;
    Conflicts = R.Stats.Conflicts;
  }
  State.counters["cubes"] = static_cast<double>(Cubes);
  State.counters["conflicts"] = static_cast<double>(Conflicts);
}

} // namespace

#define SURFACE_BENCH(Name, D, T, Cube, Prep)                                  \
  static void Name(benchmark::State &State) {                                  \
    runSurfaceMemory(State, D, T, Cube, Prep);                                 \
  }                                                                            \
  BENCHMARK(Name)->Unit(benchmark::kMillisecond)

SURFACE_BENCH(BM_Surface5T2_Cube, 5, 2, true, true);
SURFACE_BENCH(BM_Surface5T2_Monolithic, 5, 2, false, true);
SURFACE_BENCH(BM_Surface7T3_Cube, 7, 3, true, true);
SURFACE_BENCH(BM_Surface7T3_Cube_NoPreprocess, 7, 3, true, false);
SURFACE_BENCH(BM_Surface7T3_Monolithic, 7, 3, false, true);

// The PR 1 regression case itself. Heavy (~10 s per iteration on a dev
// box); benchmark filters keep it out of quick runs:
//   bench_cube_vs_monolithic --benchmark_filter='Surface9'
SURFACE_BENCH(BM_Surface9T4_Cube, 9, 4, true, true)->Iterations(1);
SURFACE_BENCH(BM_Surface9T4_Monolithic, 9, 4, false, true)->Iterations(1);

BENCHMARK_MAIN();
