//===- qecbench/qecbench.cpp - One measured veriqec workload run ----------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload once through veriqec's public entry points
/// and prints one JSON object of measurements as the last stdout line.
/// run.py launches this binary many times per run, checks the verdicts
/// and turns the samples into metrics.
///
/// Every layer is measured from outside: the program times the public
/// calls it makes (code and scenario construction, fleet start-up, the
/// verifier call, proof checking, wire encode/decode) and reads the
/// counters those calls already return. With --trace-out it also opens
/// its own `bench.*` spans around the same calls, so the library's
/// internal spans (cube_solve, reduce_db, gauss_elim, ...) can be
/// attributed to the verifier call that caused them.
///
/// Kinds:
///   verify    memory scenario, Y errors, Z basis, cube-and-conquer on one
///             slot (the `veriqec verify --jobs 1` path)
///   proof     verify with proof logging; the verdict includes the
///             in-process proof::checkProof of the certificate
///   distance  computeDistance with the default policies
///   loopback  verify sharded over two in-process workers of one slot
///             each (the `veriqec verify --dist loopback:2` path)
///
//===----------------------------------------------------------------------===//

#include "dist/Codec.h"
#include "dist/Coordinator.h"
#include "engine/CubeEngine.h"
#include "engine/VerificationEngine.h"
#include "obs/Trace.h"
#include "proof/ProofCheck.h"
#include "qec/Codes.h"
#include "support/Json.h"
#include "support/Timer.h"
#include "verifier/Verifier.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace veriqec;

namespace {

struct Options {
  std::string Kind;
  std::string Code;
  uint32_t MaxErrors = 0;
  uint64_t SolverSeed = 0;
  /// Stop right before the verifier call (set-up time samples).
  bool SetupOnly = false;
  std::string TraceOut;
  std::string ProofOut;
  /// Time encodeMessage/decodeMessage on the scenario's problem frame.
  bool WireFrame = false;
};

constexpr size_t LoopbackWorkers = 2;

/// CLOCK_MONOTONIC, the clock Python's time.monotonic() reads: run.py
/// subtracts its own pre-spawn reading from this to get set-up time
/// including process start.
double monotonicNow() {
  timespec Ts{};
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         static_cast<double>(Ts.tv_nsec) * 1e-9;
}

std::optional<StabilizerCode> makeCode(const std::string &Name) {
  if (Name == "surface9")
    return makeRotatedSurfaceCode(9);
  if (Name == "surface5")
    return makeRotatedSurfaceCode(5);
  if (Name == "tanner1-full")
    return makeTannerIFull();
  if (Name == "tanner1")
    return makeTannerISubstitute();
  return std::nullopt;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--setup-only") {
      O.SetupOnly = true;
      continue;
    }
    if (A == "--wire-frame") {
      O.WireFrame = true;
      continue;
    }
    if (!(V = Value())) {
      std::fprintf(stderr, "qecbench: %s needs a value\n", A.c_str());
      return false;
    }
    if (A == "--kind")
      O.Kind = V;
    else if (A == "--code")
      O.Code = V;
    else if (A == "--max-errors")
      O.MaxErrors = static_cast<uint32_t>(std::strtoul(V, nullptr, 10));
    else if (A == "--solver-seed")
      O.SolverSeed = std::strtoull(V, nullptr, 10);
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--proof-out")
      O.ProofOut = V;
    else {
      std::fprintf(stderr, "qecbench: unknown option %s\n", A.c_str());
      return false;
    }
  }
  bool KnownKind = O.Kind == "verify" || O.Kind == "proof" ||
                   O.Kind == "distance" || O.Kind == "loopback";
  if (!KnownKind || O.Code.empty()) {
    std::fprintf(stderr, "usage: qecbench --kind verify|proof|distance|loopback"
                         " --code NAME [--max-errors T] [--solver-seed N]"
                         " [--setup-only] [--trace-out FILE]"
                         " [--proof-out FILE] [--wire-frame]\n");
    return false;
  }
  return true;
}

/// A loopback fleet; destruction shuts it down and joins the workers.
struct Fleet {
  dist::Coordinator Coord;
  std::vector<std::thread> Threads;

  Fleet() = default;
  Fleet(const Fleet &) = delete;
  Fleet &operator=(const Fleet &) = delete;
  ~Fleet() {
    Coord.shutdownWorkers();
    for (std::thread &T : Threads)
      if (T.joinable())
        T.join();
  }
};

/// Collects "key": value pairs and prints them as one JSON object line.
class JsonLine {
public:
  void num(const char *Key, double V) { add(Key, jsonNumber(V)); }
  void count(const char *Key, uint64_t V) { add(Key, std::to_string(V)); }
  void flag(const char *Key, bool V) { add(Key, V ? "true" : "false"); }
  void str(const char *Key, const std::string &V) {
    add(Key, "\"" + jsonEscape(V) + "\"");
  }
  void print() const { std::printf("{%s}\n", Body.c_str()); }

private:
  void add(const char *Key, const std::string &Rendered) {
    if (!Body.empty())
      Body += ", ";
    Body += "\"" + std::string(Key) + "\": " + Rendered;
  }
  std::string Body;
};

void putStats(JsonLine &J, const sat::SolverStats &S) {
  J.count("conflicts", S.Conflicts);
  J.count("decisions", S.Decisions);
  J.count("propagations", S.propagations());
  J.count("learned", S.LearnedClauses);
  J.count("restarts", S.Restarts);
  J.count("compactions", S.Compactions);
  J.count("wasted_bytes", S.WastedBytes);
  J.count("xor_propagations", S.XorPropagations);
  J.count("xor_eliminations", S.XorEliminations);
}

/// The cube-problem translation VerificationEngine::verifyAll applies to
/// a scenario VC (its makeSolveOptions), rebuilt here so the problem
/// frame the coordinator ships can be encoded on its own.
engine::CubeProblem cubeProblemOf(const smt::BoolContext &Ctx,
                                  const BuiltVc &Vc, const Scenario &S,
                                  const VerifyOptions &VO) {
  engine::CubeProblem P;
  P.Ctx = &Ctx;
  P.Root = Vc.NegatedVcBase;
  smt::SolveOptions &SO = P.Opts;
  SO.RandomSeed = VO.RandomSeed;
  SO.AutoSplitThreshold = true;
  SO.SplitVars = S.ErrorVars;
  SO.DistanceHint = std::max<uint32_t>(2, 2 * S.MaxErrors + 1);
  SO.SplitThreshold = static_cast<uint32_t>(std::min<uint64_t>(
      S.NumQubits, 2ull * SO.DistanceHint * S.MaxErrors + 4));
  SO.MaxOnes = S.MaxErrors;
  SO.BudgetVars = Vc.BudgetVars;
  SO.BudgetBound = Vc.BudgetBound;
  return P;
}

/// Times the problem frame's encode and decode (mean of several calls,
/// so a sub-millisecond call is not lost in timer noise). False when the
/// frame does not round-trip.
bool timeProblemFrame(const Scenario &S, const VerifyOptions &VO,
                      JsonLine &J) {
  smt::BoolContext Ctx;
  BuiltVc Vc = engine::buildScenarioVc(Ctx, S, VO);
  if (!Vc.Ok)
    return false;
  engine::PreparedProblem PP =
      engine::prepareCubeProblem(cubeProblemOf(Ctx, Vc, S, VO),
                                 LoopbackWorkers);
  dist::ProblemMsg Msg;
  Msg.ProblemId = 1;
  Msg.Config = PP.Config;
  Msg.Problem = PP.Encoded;
  constexpr int Reps = 20;
  std::vector<uint8_t> Frame;
  Timer Enc;
  for (int I = 0; I != Reps; ++I)
    Frame = dist::encodeMessage(dist::Message{Msg});
  double EncodeS = Enc.seconds() / Reps;
  dist::Message Out;
  bool Ok = true;
  Timer Dec;
  for (int I = 0; I != Reps; ++I)
    Ok &= dist::decodeMessage(Frame, Out);
  double DecodeS = Dec.seconds() / Reps;
  const auto *Back = std::get_if<dist::ProblemMsg>(&Out);
  Ok &= Back && Back->Problem &&
        Back->Problem->Cnf.Clauses.size() == PP.Encoded->Cnf.Clauses.size();
  J.count("frame_bytes", Frame.size());
  J.num("frame_encode_s", EncodeS);
  J.num("frame_decode_s", DecodeS);
  J.flag("frame_ok", Ok);
  return Ok;
}

std::optional<StabilizerCode> buildCode(const Options &O, JsonLine &J) {
  Timer Clock;
  std::optional<StabilizerCode> Code;
  {
    obs::TraceSpan Span("bench.code_build");
    Code = makeCode(O.Code);
  }
  if (Code)
    J.num("code_build_s", Clock.seconds());
  else
    std::fprintf(stderr, "qecbench: unknown code '%s'\n", O.Code.c_str());
  return Code;
}

int runScenario(const Options &O, JsonLine &J) {
  std::optional<StabilizerCode> Code = buildCode(O, J);
  if (!Code)
    return 2;

  Timer Clock;
  std::optional<Scenario> S;
  {
    obs::TraceSpan Span("bench.scenario_build");
    S = makeMemoryScenario(*Code, PauliKind::Y, LogicalBasis::Z, O.MaxErrors);
  }
  J.num("scenario_build_s", Clock.seconds());

  std::optional<Fleet> F;
  if (O.Kind == "loopback") {
    Clock.restart();
    obs::TraceSpan Span("bench.fleet_start");
    F.emplace();
    dist::WorkerOptions WO;
    WO.Jobs = 1;
    WO.HeartbeatMs = 500;
    F->Threads = dist::spawnLoopbackWorkers(F->Coord, LoopbackWorkers, WO);
    if (!F->Coord.waitForWorkers(LoopbackWorkers, 10000)) {
      std::fprintf(stderr, "qecbench: loopback workers failed to register\n");
      return 2;
    }
    J.num("fleet_start_s", Clock.seconds());
  }
  J.num("setup_done_mono", monotonicNow());
  if (O.SetupOnly)
    return 0;

  VerifyOptions VO;
  VO.Parallel = true;
  VO.Threads = 1;
  VO.RandomSeed = O.SolverSeed;
  VO.LogProofs = O.Kind == "proof";
  engine::VerificationEngine Engine(1);

  VerificationResult R;
  Clock.restart();
  {
    obs::TraceSpan Verdict("bench.verdict");
    {
      obs::TraceSpan Span("bench.verify_all");
      std::vector<VerificationResult> Rs =
          F ? Engine.verifyAll({&*S, 1}, VO, F->Coord)
            : Engine.verifyAll({&*S, 1}, VO);
      R = std::move(Rs.front());
    }
    J.num("solve_s", Clock.seconds());
    if (O.Kind == "proof") {
      Timer Check;
      obs::TraceSpan Span("bench.proof_check", {{"bytes", R.Proof.size()}});
      proof::CheckResult CR = proof::checkProof(R.Proof);
      J.num("check_s", Check.seconds());
      J.flag("proof_ok", CR.Ok);
      J.str("proof_error", CR.Error);
      J.count("proof_bytes", R.Proof.size());
      J.count("proof_additions", CR.Additions);
      J.count("proof_deletions", CR.Deletions);
      J.count("proof_conclusions", CR.Conclusions);
    }
  }
  J.num("verdict_s", Clock.seconds());

  J.flag("structural_ok", R.StructuralOk);
  J.str("error", R.Error);
  J.flag("verified", R.Verified);
  J.flag("aborted", R.Aborted);
  putStats(J, R.Stats);
  J.count("cubes", R.NumCubes);
  J.count("cubes_solved", R.CubesSolved);
  J.count("cubes_pruned_gf2", R.CubesPrunedGf2);
  J.count("cubes_pruned_core", R.CubesPrunedCore);
  // Every solved cube that was not pruned is one solve() call.
  J.count("solver_calls", R.CubesSolved - R.CubesPruned);
  J.count("cnf_vars", R.CnfVars);
  J.count("cnf_clauses", R.CnfClauses);
  J.count("rows_kept", R.Prep.RowsKept);
  J.count("vars_eliminated", R.Prep.VarsEliminated);
  J.count("slots", F ? F->Coord.numSlots() : Engine.numWorkers());

  if (!O.ProofOut.empty() && !R.Proof.empty()) {
    std::ofstream Out(O.ProofOut, std::ios::binary);
    if (!(Out << R.Proof) || !Out.flush()) {
      std::fprintf(stderr, "qecbench: cannot write %s\n", O.ProofOut.c_str());
      return 2;
    }
  }
  if (F) {
    const dist::CoordinatorStats &DS = F->Coord.stats();
    J.count("batches_stolen", DS.BatchesStolen);
    J.count("batches_requeued", DS.BatchesRequeued);
    J.count("workers_dropped", DS.WorkersDropped);
    J.count("core_broadcasts", DS.CoreBroadcasts);
    J.count("heartbeats", DS.HeartbeatsReceived);
    if (O.WireFrame && !timeProblemFrame(*S, VO, J)) {
      std::fprintf(stderr, "qecbench: problem frame did not round-trip\n");
      return 2;
    }
  }
  return 0;
}

int runDistance(const Options &O, JsonLine &J) {
  std::optional<StabilizerCode> Code = buildCode(O, J);
  if (!Code)
    return 2;
  J.count("documented_distance", Code->Distance);
  J.flag("distance_is_estimate", Code->DistanceIsEstimate);
  J.num("setup_done_mono", monotonicNow());
  if (O.SetupOnly)
    return 0;

  VerifyOptions VO;
  VO.RandomSeed = O.SolverSeed;
  DistanceResult R;
  Timer Clock;
  {
    obs::TraceSpan Verdict("bench.verdict");
    R = computeDistance(*Code, VO);
  }
  J.num("verdict_s", Clock.seconds());

  J.flag("structural_ok", R.Ok || R.Aborted);
  J.str("error", R.Error);
  J.flag("aborted", R.Aborted);
  J.count("distance", R.Ok ? R.Distance : 0);
  putStats(J, R.Stats);
  J.count("solver_calls", R.SolverCalls);
  J.count("cnf_vars", R.CnfVars);
  J.count("cnf_clauses", R.CnfClauses);
  J.count("rows_kept", R.Prep.RowsKept);
  J.count("vars_eliminated", R.Prep.VarsEliminated);
  J.count("xor_rows", R.XorRows);
  J.count("slots", 1);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  if (!O.TraceOut.empty())
    obs::beginTrace();

  JsonLine J;
  J.str("kind", O.Kind);
  J.str("code", O.Code);
  int Rc = O.Kind == "distance" ? runDistance(O, J) : runScenario(O, J);

  if (!O.TraceOut.empty()) {
    std::string Err;
    if (!obs::endTrace(O.TraceOut, Err)) {
      std::fprintf(stderr, "qecbench: %s\n", Err.c_str());
      Rc = Rc ? Rc : 2;
    }
  }
  if (Rc == 0)
    J.print();
  return Rc;
}
