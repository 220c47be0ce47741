//===- tools/veriqec.cpp - Batch verification CLI driver -------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One binary for every CLI workload, the paper's suites among them:
/// select codes and scenarios by name, verify a single triple or a whole
/// batch over the shared-queue engine, check the precise-detection
/// property, or parse a program file from the paper's concrete syntax.
/// Every command runs one solver configuration (cube-and-conquer with the
/// library's automatic split threshold, cardinality encoding and
/// preprocessing); exit code 0 = everything verified, 1 = a
/// counterexample was found, 2 = usage or structural error, 3 =
/// inconclusive (a conflict budget was exhausted before a verdict).
///
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"
#include "dist/Transport.h"
#include "dist/Worker.h"
#include "engine/VerificationEngine.h"
#include "obs/Metrics.h"
#include "obs/Progress.h"
#include "obs/Trace.h"
#include "prog/Parser.h"
#include "proof/ProofCheck.h"
#include "qec/Codes.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "verifier/Verifier.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace veriqec;

namespace {

// -- Option parsing ----------------------------------------------------------

/// Cap on --jobs and --expect-workers: the largest fleet the engine's
/// automatic split threshold is sized for (8 cubes per slot reach its
/// 8192-cube floor at 1024 slots).
constexpr uint64_t MaxFleetSlots = 1024;

/// Heartbeat period of the `worker` command and of loopback fleets: the
/// beats feed `--progress` and `dist.heartbeats`, and keep a grinding
/// worker off a coordinator's silence timer.
constexpr int WorkerHeartbeatMs = 500;

struct CliOptions {
  std::string Command;
  std::vector<std::string> Codes;
  std::vector<std::string> ScenarioNames{"memory"};
  std::string Suite;
  std::string ProgramFile;
  PauliKind ErrorKind = PauliKind::Y;
  std::string Basis = "Z"; // Z, X or both
  std::optional<uint32_t> MaxErrors;
  size_t Cycles = 2;
  size_t MaxWeight = 0; // detect: 0 = distance - 1
  size_t Jobs = 0;
  smt::XorMode Xor = smt::XorMode::Auto;
  uint64_t ConflictBudget = 0;
  uint64_t Seed = 0;
  bool Json = false;
  std::string BenchOut;
  /// Proof-emitting verification: log clause proofs and replay every
  /// UNSAT verdict's proof in-process after the run (verify/distance).
  bool CheckProofs = false;
  /// Dump each UNSAT verdict's proof to this directory (implies proof
  /// logging); the CI mutation smoke corrupts these and feeds them to
  /// veriqec-check.
  std::string ProofDir;
  /// Distributed execution: "loopback:N" runs N in-process workers over
  /// the full codec + scheduler path (verify and distance commands).
  std::string Dist;
  std::string Listen;          ///< serve: host:port to bind
  size_t ExpectWorkers = 1;    ///< serve: wait for this many workers
  std::string Connect;         ///< worker: coordinator host:port
  uint64_t MaxBatches = 0;     ///< worker: crash-after-N test hook
  std::string TraceOut;   ///< --trace: Chrome trace-event JSON file
  std::string MetricsOut; ///< --metrics-out: metrics snapshot JSON file
  bool Progress = false;  ///< --progress: live stderr status line
};

void printUsage(std::FILE *To) {
  std::fprintf(
      To,
      "usage: veriqec <command> [options]\n"
      "\n"
      "commands:\n"
      "  list-codes            print the code registry\n"
      "  verify                verify scenarios (batch when several are\n"
      "                        selected; all cubes share one pool)\n"
      "  detect                precise-detection property (Eqn. 15)\n"
      "  distance              code distance by incremental binary search\n"
      "                        over an assumption-activated weight bound\n"
      "                        (exit 1 if a computed distance contradicts\n"
      "                        the registry's documented one)\n"
      "  serve                 run verify workloads as a coordinator:\n"
      "                        shard cubes across remote workers\n"
      "                        (--listen HOST:PORT, --expect-workers N)\n"
      "  worker                join a coordinator and discharge cubes\n"
      "                        (--connect HOST:PORT, --jobs N)\n"
      "  parse <file>          parse a program file and pretty-print it\n"
      "\n"
      "selection:\n"
      "  --code A[,B...]       steane, five-qubit, six-qubit, repetition<N>,\n"
      "                        surface<D>, xzzx<D>, reed-muller<R>,\n"
      "                        gottesman<R>, dodecacode, honeycomb, hgp98,\n"
      "                        tanner1, tanner1-full, tanner2, cube832,\n"
      "                        carbon, triorthogonal<K>, campbell-howard<K>\n"
      "  --scenario A[,B...]   memory, logical-h, multicycle,\n"
      "                        correction-step, ghz, cnot (default memory)\n"
      "  --suite NAME          preset batch: fig4, fig9, table3\n"
      "  --error X|Y|Z         injected Pauli kind (default Y)\n"
      "  --basis Z|X|both      logical basis family (default Z)\n"
      "  --max-errors N        error budget (default (d-1)/2)\n"
      "  --cycles N            rounds for multicycle (default 2)\n"
      "  --max-weight W        detect: max error weight (default d-1)\n"
      "  --program FILE        replace the generated program with FILE\n"
      "\n"
      "engine:\n"
      "  --jobs N              worker threads, at most 1024 (default:\n"
      "                        hardware)\n"
      "  --xor on|off          native Gauss-in-the-loop XOR reasoning in\n"
      "                        the solver; the default picks per workload\n"
      "                        (on for distance, off elsewhere). on/off\n"
      "                        force either side of the A/B\n"
      "  --budget N            conflict budget per solver (default none)\n"
      "  --seed N              seed solver tie-breaking and shuffle the\n"
      "                        batch order (0 = deterministic default)\n"
      "\n"
      "distributed:\n"
      "  --dist loopback:N     verify/distance: run N in-process workers\n"
      "                        behind the full wire codec + scheduler\n"
      "                        (--jobs sets slots per worker, default 1)\n"
      "  --listen HOST:PORT    serve: bind the coordinator here\n"
      "  --expect-workers N    serve: wait for N workers (default 1)\n"
      "  --connect HOST:PORT   worker: coordinator address\n"
      "  --max-batches N       worker: after N batch results, drop the\n"
      "                        link when the next batch arrives\n"
      "                        (crash-recovery testing)\n"
      "\n"
      "output:\n"
      "  --json                machine-readable results on stdout\n"
      "  --bench-out FILE      verify/serve/distance: write per-scenario\n"
      "                        benchmark records (wall-clock, conflicts,\n"
      "                        cubes, encoder and preprocessor stats) as\n"
      "                        JSON to FILE\n"
      "  --trace FILE          record phase spans (encode, preprocess,\n"
      "                        per-cube solve, GC, wire codec) and write\n"
      "                        Chrome trace-event JSON to FILE — open in\n"
      "                        chrome://tracing or Perfetto\n"
      "  --metrics-out FILE    write the metrics-registry snapshot\n"
      "                        (counters, gauges, histograms) to FILE\n"
      "  --progress            live one-line status on stderr while\n"
      "                        cubes are in flight\n"
      "\n"
      "proofs (verify, serve and distance):\n"
      "  --check-proofs        log machine-checkable clause proofs and\n"
      "                        replay every UNSAT verdict's proof after\n"
      "                        the run (exit 2 if any proof is rejected\n"
      "                        or missing)\n"
      "  --proof-dir DIR       write each UNSAT verdict's proof to\n"
      "                        DIR/<name>.proof (implies proof logging;\n"
      "                        check offline with veriqec-check)\n");
}

bool splitList(const std::string &Arg, std::vector<std::string> &Out) {
  Out.clear();
  std::stringstream Ss(Arg);
  std::string Item;
  while (std::getline(Ss, Item, ','))
    if (!Item.empty())
      Out.push_back(Item);
  return !Out.empty();
}

/// Parses the value of a numeric flag into Out: decimal digits only, no
/// overflow, within [Min, Max]. Anything else is reported and leaves Out
/// alone, so "-1", "abc" or a wrapped value never reaches the run.
template <typename T>
bool parseNumber(const std::string &Flag, const std::string &Text,
                 uint64_t Min, uint64_t Max, T &Out) {
  uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Ptr != End || V < Min || V > Max) {
    std::fprintf(stderr, "veriqec: %s expects an integer in [%llu, %llu], "
                         "got '%s'\n",
                 Flag.c_str(), static_cast<unsigned long long>(Min),
                 static_cast<unsigned long long>(Max), Text.c_str());
    return false;
  }
  Out = static_cast<T>(V);
  return true;
}

/// Parses "<stem><number>" (e.g. "surface5") into its parts.
bool splitStemNumber(const std::string &Name, const std::string &Stem,
                     size_t &Number) {
  if (Name.size() <= Stem.size() || Name.compare(0, Stem.size(), Stem) != 0)
    return false;
  // Digits only: "surface-1" must not wrap to a huge size.
  const char *End = Name.data() + Name.size();
  auto [Ptr, Ec] = std::from_chars(Name.data() + Stem.size(), End, Number);
  return Ec == std::errc() && Ptr == End && Number != 0;
}

std::optional<StabilizerCode> makeCodeByName(const std::string &Name) {
  size_t N = 0;
  if (Name == "steane")
    return makeSteaneCode();
  if (Name == "five-qubit")
    return makeFiveQubitCode();
  if (Name == "six-qubit")
    return makeSixQubitCode();
  if (Name == "dodecacode")
    return makeDodecacodeSubstitute();
  if (Name == "honeycomb")
    return makeHoneycombSubstitute();
  if (Name == "hgp98")
    return makeHgp98();
  if (Name == "tanner1")
    return makeTannerISubstitute();
  if (Name == "tanner1-full")
    return makeTannerIFull();
  if (Name == "tanner2")
    return makeTannerIISubstitute();
  if (Name == "cube832")
    return makeCube832();
  if (Name == "carbon")
    return makeCarbonSubstitute();
  if (splitStemNumber(Name, "repetition", N))
    return makeRepetitionCode(N);
  if (splitStemNumber(Name, "surface", N))
    return makeRotatedSurfaceCode(N);
  if (splitStemNumber(Name, "xzzx", N))
    return makeXzzxSurfaceCode(N, N);
  if (splitStemNumber(Name, "reed-muller", N))
    return makeReedMullerCode(N);
  if (splitStemNumber(Name, "gottesman", N))
    return makeGottesmanCode(N);
  if (splitStemNumber(Name, "triorthogonal", N))
    return makeTriorthogonalSubstitute(N);
  if (splitStemNumber(Name, "campbell-howard", N))
    return makeCampbellHowardSubstitute(N);
  return std::nullopt;
}

// -- Distributed execution ---------------------------------------------------

/// A coordinator plus (for loopback mode) its in-process worker threads.
/// Destruction shuts the fleet down and joins the threads.
struct DistContext {
  std::unique_ptr<dist::Coordinator> Coord;
  std::vector<std::thread> LoopbackThreads;

  ~DistContext() {
    if (Coord)
      Coord->shutdownWorkers();
    for (std::thread &T : LoopbackThreads)
      if (T.joinable())
        T.join();
  }
};

/// Builds the backend for --dist / serve. True on success; Ctx.Coord
/// stays null when the run is plain in-process.
bool setupDist(const CliOptions &Cli, DistContext &Ctx) {
  if (Cli.Command == "serve") {
    if (Cli.Listen.empty()) {
      std::fprintf(stderr, "veriqec: serve needs --listen HOST:PORT\n");
      return false;
    }
    std::string Err;
    std::unique_ptr<dist::Listener> L = dist::listenTcp(Cli.Listen, Err);
    if (!L) {
      std::fprintf(stderr, "veriqec: cannot listen on %s: %s\n",
                   Cli.Listen.c_str(), Err.c_str());
      return false;
    }
    Ctx.Coord = std::make_unique<dist::Coordinator>();
    std::fprintf(stderr,
                 "veriqec: coordinator on port %u, waiting for %zu "
                 "worker(s)\n",
                 L->port(), Cli.ExpectWorkers);
    Ctx.Coord->attachListener(std::move(L));
    if (!Ctx.Coord->waitForWorkers(Cli.ExpectWorkers, 120000)) {
      std::fprintf(stderr, "veriqec: workers did not register in time\n");
      return false;
    }
    return true;
  }
  if (Cli.Dist.empty())
    return true;
  if (Cli.Dist.rfind("loopback:", 0) != 0) {
    std::fprintf(stderr, "veriqec: --dist expects loopback:N\n");
    return false;
  }
  constexpr uint64_t MaxLoopbackWorkers = 256;
  size_t N = 0;
  if (!parseNumber("--dist loopback:N", Cli.Dist.substr(9), 1,
                   MaxLoopbackWorkers, N))
    return false;
  Ctx.Coord = std::make_unique<dist::Coordinator>();
  dist::WorkerOptions WO;
  WO.Jobs = Cli.Jobs ? Cli.Jobs : 1;
  WO.HeartbeatMs = WorkerHeartbeatMs;
  Ctx.LoopbackThreads = dist::spawnLoopbackWorkers(*Ctx.Coord, N, WO);
  if (!Ctx.Coord->waitForWorkers(N, 10000)) {
    std::fprintf(stderr, "veriqec: loopback workers failed to register\n");
    return false;
  }
  return true;
}

// -- Proof handling ----------------------------------------------------------

/// Writes \p Text to \p Path. The stream is flushed before it is
/// checked, so a full disk is reported instead of losing the data.
bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  if (!(Out << Text) || !Out.flush()) {
    std::fprintf(stderr, "veriqec: cannot write %s\n", Path.c_str());
    return false;
  }
  return true;
}

/// Post-run proof handling for one UNSAT verdict (--check-proofs /
/// --proof-dir): dumps the proof when a directory was given and replays
/// it in-process when checking was requested. Returns 0 on success, 2
/// when the proof is missing, unwritable or rejected.
int handleProof(const CliOptions &Cli, const std::string &Name,
                const std::string &Proof) {
  if (Proof.empty()) {
    // Proof logging was on and the verdict was UNSAT, so an empty proof
    // is itself a pipeline bug — exactly what --check-proofs gates on.
    if (Cli.CheckProofs) {
      std::fprintf(stderr, "veriqec: %s: UNSAT verdict carries no proof\n",
                   Name.c_str());
      return 2;
    }
    return 0;
  }
  if (!Cli.ProofDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Cli.ProofDir, Ec);
    if (!writeFile(Cli.ProofDir + "/" + Name + ".proof", Proof))
      return 2;
  }
  if (!Cli.CheckProofs)
    return 0;
  // The span lives here, not in checkProof itself: veriqec-check links
  // ProofCheck.cpp standalone and stays observability-free.
  obs::TraceSpan Span("proof_check", {{"bytes", Proof.size()}});
  proof::CheckResult CR = proof::checkProof(Proof);
  if (!CR.Ok) {
    std::fprintf(stderr, "veriqec: %s: proof REJECTED: %s\n", Name.c_str(),
                 CR.Error.c_str());
    return 2;
  }
  return 0;
}

// -- Solver configuration ----------------------------------------------------

/// The one solver configuration every command runs: cube-and-conquer on
/// --jobs threads. The split threshold, cardinality encoding and
/// preprocessing keep the library's defaults, which won the recorded
/// A/Bs on the tracked workloads.
VerifyOptions makeVerifyOptions(const CliOptions &Cli) {
  VerifyOptions VO;
  VO.Parallel = true;
  VO.Threads = Cli.Jobs;
  VO.Xor = Cli.Xor;
  VO.ConflictBudget = Cli.ConflictBudget;
  VO.RandomSeed = Cli.Seed;
  VO.LogProofs = Cli.CheckProofs || !Cli.ProofDir.empty();
  return VO;
}

// -- Scenario construction ---------------------------------------------------

uint32_t defaultBudget(const StabilizerCode &Code) {
  return Code.Distance >= 3 ? static_cast<uint32_t>((Code.Distance - 1) / 2)
                            : 1;
}

std::optional<Scenario> makeScenarioByName(const StabilizerCode &Code,
                                           const std::string &Name,
                                           LogicalBasis Basis,
                                           const CliOptions &Cli) {
  uint32_t Budget = Cli.MaxErrors ? *Cli.MaxErrors : defaultBudget(Code);
  if (Name == "memory")
    return makeMemoryScenario(Code, Cli.ErrorKind, Basis, Budget);
  if (Name == "logical-h")
    return makeLogicalHScenario(Code, Cli.ErrorKind, Basis, Budget);
  if (Name == "multicycle")
    return makeMultiCycleScenario(Code, Cli.ErrorKind, Basis, Cli.Cycles,
                                  Budget);
  if (Name == "correction-step")
    return makeCorrectionStepErrorScenario(Code, Cli.ErrorKind, Basis,
                                           Budget);
  if (Name == "ghz")
    return makeGhzScenario(Code, Cli.ErrorKind, Basis, Budget);
  if (Name == "cnot")
    return makeLogicalCnotScenario(Code, Cli.ErrorKind, Basis, Budget);
  return std::nullopt;
}

std::vector<LogicalBasis> selectedBases(const CliOptions &Cli) {
  if (Cli.Basis == "both")
    return {LogicalBasis::Z, LogicalBasis::X};
  return {Cli.Basis == "X" ? LogicalBasis::X : LogicalBasis::Z};
}

/// Expands the --suite presets into (code, scenario) selections.
bool expandSuite(CliOptions &Cli) {
  if (Cli.Suite == "fig4") {
    // General verification on growing surface codes, memory scenario.
    Cli.Codes = {"surface3", "surface5"};
    Cli.ScenarioNames = {"memory"};
    return true;
  }
  if (Cli.Suite == "fig9") {
    // The fault-tolerant gadget scenarios on the Steane code.
    Cli.Codes = {"steane"};
    Cli.ScenarioNames = {"memory", "logical-h", "multicycle",
                         "correction-step", "ghz", "cnot"};
    return true;
  }
  if (Cli.Suite == "table3") {
    // The odd-distance rows of the Table 3 suite at CLI-friendly size.
    Cli.Codes = {"repetition5", "steane",     "five-qubit", "six-qubit",
                 "surface3",    "xzzx3",      "reed-muller3", "dodecacode",
                 "honeycomb"};
    Cli.ScenarioNames = {"memory"};
    return true;
  }
  return Cli.Suite.empty();
}

// -- Output ------------------------------------------------------------------

struct RunRecord {
  std::string Code;
  std::string Scenario;
  std::string Basis;
  size_t NumQubits = 0;
  VerificationResult Result;
};

void printRecordText(const RunRecord &R) {
  if (!R.Result.StructuralOk) {
    std::printf("%-14s %-16s %s  ERROR: %s\n", R.Code.c_str(),
                R.Scenario.c_str(), R.Basis.c_str(), R.Result.Error.c_str());
    return;
  }
  std::printf("%-14s %-16s %s  %-10s %8.1f ms  %5llu/%llu cubes  %llu "
              "conflicts\n",
              R.Code.c_str(), R.Scenario.c_str(), R.Basis.c_str(),
              R.Result.Verified ? "VERIFIED"
              : R.Result.Aborted ? "ABORTED"
                                 : "FAILED",
              R.Result.Seconds * 1e3,
              static_cast<unsigned long long>(R.Result.CubesSolved),
              static_cast<unsigned long long>(R.Result.NumCubes),
              static_cast<unsigned long long>(R.Result.Stats.Conflicts));
  if (!R.Result.Verified && !R.Result.CounterExample.empty()) {
    std::printf("  counterexample:");
    int Shown = 0;
    for (const auto &[Name, Value] : R.Result.CounterExample)
      if (Value && Name[0] == 'e' && Shown++ < 12)
        std::printf(" %s", Name.c_str());
    std::printf("\n");
  }
}

/// The solver counters every record carries: the propagation total plus
/// one key per SolverStats field.
void putSolverStats(JsonObject &J, const sat::SolverStats &S) {
  J.count("propagations", S.propagations());
  for (const auto &F : sat::SolverStats::Fields)
    J.count(F.Name, S.*F.Member);
}

std::string prepJson(const smt::PreprocessStats &P) {
  JsonObject J;
  for (const auto &F : smt::PreprocessStats::Fields)
    J.count(F.Name, P.*F.Member);
  return J.flag("trivially_unsat", P.TriviallyUnsat).text();
}

/// Publishes a run's solver totals as the solver.<name> metrics.
void publishSolverStats(const sat::SolverStats &S) {
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("solver.propagations").set(S.propagations());
  for (const auto &F : sat::SolverStats::Fields)
    Reg.counter(std::string("solver.") + F.Name).set(S.*F.Member);
}

/// One scenario's record, shared by --json and --bench-out: wall-clock,
/// solver, cube and encoder/preprocessor statistics.
std::string recordJson(const RunRecord &R) {
  const VerificationResult &V = R.Result;
  JsonObject J;
  J.str("code", R.Code)
      .str("scenario", R.Scenario)
      .str("basis", R.Basis)
      .count("qubits", R.NumQubits);
  if (!V.StructuralOk)
    return J.str("error", V.Error).text();
  J.flag("verified", V.Verified)
      .flag("aborted", V.Aborted)
      .num("seconds", V.Seconds)
      .count("goals", V.NumGoals)
      .count("cubes", V.NumCubes)
      .count("cubes_solved", V.CubesSolved)
      .count("split_threshold_used", V.SplitThresholdUsed);
  putSolverStats(J, V.Stats);
  J.count("cnf_vars", V.CnfVars)
      .count("cnf_clauses", V.CnfClauses)
      .raw("prep", prepJson(V.Prep));
  if (!V.Verified && !V.CounterExample.empty()) {
    JsonObject Cex;
    for (const auto &[Name, Value] : V.CounterExample)
      if (Value)
        Cex.flag(Name, true);
    J.raw("counterexample", Cex.text());
  }
  return J.text();
}

/// Writes the machine-readable benchmark trajectory file (--bench-out):
/// the configuration that produced the run, one record per result, and
/// the metrics snapshot.
bool writeBenchOut(const std::string &Path, const JsonObject &Config,
                   const std::vector<std::string> &Results) {
  JsonObject J;
  J.raw("config", Config.text())
      .raw("results", jsonArray(Results))
      .raw("metrics", obs::Registry::global().snapshotJson());
  return writeFile(Path, J.text() + "\n");
}

/// The probes of a distance search, in order: each one's weight bound,
/// verdict, conflicts and wall time.
std::string probesJson(const std::vector<DistanceResult::Probe> &Probes) {
  std::vector<std::string> Items;
  for (const DistanceResult::Probe &P : Probes) {
    const char *Verdict = P.Result == sat::SolveResult::Sat     ? "sat"
                          : P.Result == sat::SolveResult::Unsat ? "unsat"
                                                                : "aborted";
    JsonObject J;
    J.count("max_weight", P.MaxWeight)
        .str("result", Verdict)
        .count("conflicts", P.Conflicts)
        .num("seconds", P.Seconds);
    Items.push_back(J.text());
  }
  return jsonArray(Items);
}

/// One distance-search record, shared by the distance command's --json
/// and --bench-out: per-code wall-clock, solver-call and solver counts,
/// the per-probe breakdown, plus the XOR-engine and preprocessing
/// statistics. \p Matches says whether the search agrees with the
/// registry distance, \p Family names the restricted family ("x"/"z")
/// that attains it when the unrestricted search does not.
std::string distanceRecordJson(const std::string &Name,
                               const StabilizerCode &Code, bool Matches,
                               const std::string &Family,
                               const DistanceResult &D) {
  JsonObject J;
  J.str("code", Name)
      .count("qubits", Code.NumQubits)
      .flag("ok", D.Ok)
      .flag("aborted", D.Aborted)
      .count("distance", D.Distance)
      .count("documented", Code.Distance)
      .flag("matches", Matches)
      .num("seconds", D.Seconds)
      .count("solver_calls", D.SolverCalls);
  putSolverStats(J, D.Stats);
  J.count("xor_rows", D.XorRows)
      .count("cnf_vars", D.CnfVars)
      .count("cnf_clauses", D.CnfClauses)
      .count("layer_depth", D.LayerDepth)
      .raw("probes", probesJson(D.Probes))
      .raw("prep", prepJson(D.Prep));
  if (!Family.empty())
    J.str("documented_family", Family);
  if (D.Witness)
    J.str("witness", D.Witness->toString());
  return J.text();
}

/// Prints a command's --json document: the seed and its records.
void printResultsJson(const CliOptions &Cli,
                      const std::vector<std::string> &Results) {
  JsonObject J;
  J.count("seed", Cli.Seed).raw("results", jsonArray(Results));
  std::puts(J.text().c_str());
}

// -- Commands ----------------------------------------------------------------

int runListCodes() {
  const char *Names[] = {"repetition3", "repetition5",  "steane",
                         "five-qubit",  "six-qubit",    "surface3",
                         "surface5",    "xzzx3",        "reed-muller3",
                         "gottesman3",  "dodecacode",   "honeycomb",
                         "hgp98",       "tanner1",      "tanner1-full",
                         "tanner2",     "cube832",      "carbon",
                         "triorthogonal2", "campbell-howard2"};
  std::printf("%-20s %-34s n    k   d\n", "name", "construction");
  for (const char *Name : Names) {
    std::optional<StabilizerCode> Code = makeCodeByName(Name);
    if (!Code)
      continue;
    std::printf("%-20s %-34s %-4zu %-3zu %zu\n", Name, Code->Name.c_str(),
                Code->NumQubits, Code->NumLogical, Code->Distance);
  }
  return 0;
}

int runParse(const CliOptions &Cli) {
  std::ifstream In(Cli.ProgramFile);
  if (!In) {
    std::fprintf(stderr, "veriqec: cannot open %s\n",
                 Cli.ProgramFile.c_str());
    return 2;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  ParseResult PR = parseProgram(Buffer.str());
  if (auto *Err = std::get_if<ParseError>(&PR)) {
    std::fprintf(stderr, "veriqec: %s\n", Err->render().c_str());
    return 2;
  }
  StmtPtr Prog = Stmt::flatten(std::get<StmtPtr>(PR));
  std::printf("%s\n", Prog->toString(0).c_str());
  return 0;
}

std::optional<StmtPtr> loadProgramFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "veriqec: cannot open %s\n", Path.c_str());
    return std::nullopt;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  ParseResult PR = parseProgram(Buffer.str());
  if (auto *Err = std::get_if<ParseError>(&PR)) {
    std::fprintf(stderr, "veriqec: %s: %s\n", Path.c_str(),
                 Err->render().c_str());
    return std::nullopt;
  }
  return Stmt::flatten(std::get<StmtPtr>(PR));
}

int runVerify(const CliOptions &Cli) {
  std::optional<StmtPtr> Program;
  if (!Cli.ProgramFile.empty() &&
      !(Program = loadProgramFile(Cli.ProgramFile)))
    return 2;
  std::vector<RunRecord> Records;
  std::vector<Scenario> Scenarios;
  for (const std::string &CodeName : Cli.Codes) {
    std::optional<StabilizerCode> Code = makeCodeByName(CodeName);
    if (!Code) {
      std::fprintf(stderr, "veriqec: unknown code '%s'\n", CodeName.c_str());
      return 2;
    }
    for (const std::string &ScenarioName : Cli.ScenarioNames) {
      for (LogicalBasis Basis : selectedBases(Cli)) {
        std::optional<Scenario> S =
            makeScenarioByName(*Code, ScenarioName, Basis, Cli);
        if (!S) {
          std::fprintf(stderr, "veriqec: unknown scenario '%s'\n",
                       ScenarioName.c_str());
          return 2;
        }
        if (Program) {
          S->Program = *Program;
          S->Name += "+" + Cli.ProgramFile;
        }
        RunRecord R;
        R.Code = CodeName;
        R.Scenario = ScenarioName;
        R.Basis = Basis == LogicalBasis::X ? "X" : "Z";
        R.NumQubits = S->NumQubits;
        Records.push_back(std::move(R));
        Scenarios.push_back(std::move(*S));
      }
    }
  }
  if (Scenarios.empty()) {
    std::fprintf(stderr, "veriqec: nothing selected (use --code)\n");
    return 2;
  }

  // Seeded suite shuffle: exercises different batch multiplexing orders
  // while keeping every run exactly reproducible from the seed.
  if (Cli.Seed && Scenarios.size() > 1) {
    Rng R(Cli.Seed);
    for (size_t I = Scenarios.size(); I-- > 1;) {
      size_t J = R.nextBelow(I + 1);
      std::swap(Scenarios[I], Scenarios[J]);
      std::swap(Records[I], Records[J]);
    }
  }

  VerifyOptions VO = makeVerifyOptions(Cli);
  DistContext DC;
  if (!setupDist(Cli, DC))
    return 2;
  engine::VerificationEngine Engine(Cli.Jobs);
  std::vector<VerificationResult> Results =
      DC.Coord ? Engine.verifyAll(Scenarios, VO, *DC.Coord)
               : Engine.verifyAll(Scenarios, VO);
  for (size_t I = 0; I != Results.size(); ++I)
    Records[I].Result = std::move(Results[I]);

  bool AnyFailed = false, AnyError = false, AnyAborted = false;
  sat::SolverStats Total;
  double TotalSeconds = 0;
  for (const RunRecord &R : Records) {
    AnyError |= !R.Result.StructuralOk;
    // Aborted (budget-exhausted) runs are inconclusive, not refuted:
    // they get their own exit code so CI can tell "counterexample" from
    // "ran out of budget".
    AnyAborted |= R.Result.StructuralOk && R.Result.Aborted;
    AnyFailed |= R.Result.StructuralOk && !R.Result.Verified &&
                 !R.Result.Aborted;
    Total += R.Result.Stats;
    TotalSeconds += R.Result.Seconds;
  }

  // Publish the end-of-run totals into the metrics registry so
  // --bench-out and --metrics-out surface SolverStats and scheduler
  // counters through one named catalog alongside the hot-path
  // histograms.
  if (obs::metricsEnabled()) {
    obs::Registry &Reg = obs::Registry::global();
    publishSolverStats(Total);
    uint64_t Cubes = 0, Solved = 0;
    for (const RunRecord &R : Records) {
      Cubes += R.Result.NumCubes;
      Solved += R.Result.CubesSolved;
    }
    Reg.counter("engine.cubes").set(Cubes);
    Reg.counter("engine.cubes_solved").set(Solved);
    Reg.gauge("run.wall_ms").set(
        static_cast<uint64_t>(TotalSeconds * 1e3));
    if (DC.Coord)
      for (const auto &F : dist::CoordinatorStats::Fields)
        Reg.counter(F.Name).set(DC.Coord->stats().*F.Member);
  }

  size_t Workers = DC.Coord ? DC.Coord->numSlots() : Engine.numWorkers();
  std::vector<std::string> Json;
  for (const RunRecord &R : Records)
    Json.push_back(recordJson(R));
  if (Cli.Json) {
    printResultsJson(Cli, Json);
  } else {
    for (const RunRecord &R : Records)
      printRecordText(R);
    if (Records.size() > 1)
      std::printf("batch: %zu scenarios, %.1f ms scenario-time total, "
                  "%llu conflicts, %zu workers%s\n",
                  Records.size(), TotalSeconds * 1e3,
                  static_cast<unsigned long long>(Total.Conflicts), Workers,
                  DC.Coord ? " (distributed slots)" : "");
    if (DC.Coord) {
      const dist::CoordinatorStats &DS = DC.Coord->stats();
      std::printf("dist: %zu workers, %zu slots, %llu requeued, %llu "
                  "dropped, %llu heartbeats, %llu lemmas relayed\n",
                  DC.Coord->numWorkers(), DC.Coord->numSlots(),
                  static_cast<unsigned long long>(DS.BatchesRequeued),
                  static_cast<unsigned long long>(DS.WorkersDropped),
                  static_cast<unsigned long long>(DS.HeartbeatsReceived),
                  static_cast<unsigned long long>(DS.LemmasRelayed));
    }
  }
  if (!Cli.BenchOut.empty()) {
    std::string Dist = Cli.Dist.empty() ? "local" : Cli.Dist;
    if (Cli.Command == "serve")
      Dist = "serve";
    JsonObject J;
    J.str("command", "verify")
        .count("jobs", Cli.Jobs)
        .count("workers", Workers)
        .str("dist", Dist)
        .flag("xor", Cli.Xor == smt::XorMode::On)
        .count("conflict_budget", Cli.ConflictBudget)
        .count("seed", Cli.Seed);
    if (!writeBenchOut(Cli.BenchOut, J, Json))
      return 2;
  }

  if (VO.LogProofs) {
    size_t Checked = 0;
    for (const RunRecord &R : Records) {
      if (!R.Result.StructuralOk || !R.Result.Verified)
        continue; // SAT/aborted verdicts are witnessed by models, not proofs
      if (handleProof(Cli, R.Code + "-" + R.Scenario + "-" + R.Basis,
                      R.Result.Proof))
        return 2;
      ++Checked;
    }
    if (Cli.CheckProofs && !Cli.Json)
      std::printf("proofs: %zu UNSAT verdict(s), all proofs check\n", Checked);
  }
  return AnyError ? 2 : AnyFailed ? 1 : AnyAborted ? 3 : 0;
}

int runDistance(const CliOptions &Cli) {
  bool AnyMismatch = false, AnyAborted = false, AnyError = false;
  bool AnyProofFailed = false;
  DistContext DC;
  if (!setupDist(Cli, DC))
    return 2;
  dist::Coordinator *Remote = DC.Coord.get();
  VerifyOptions VO = makeVerifyOptions(Cli);
  std::vector<std::string> Json;
  sat::SolverStats Total;
  for (const std::string &CodeName : Cli.Codes) {
    std::optional<StabilizerCode> Code = makeCodeByName(CodeName);
    if (!Code) {
      std::fprintf(stderr, "veriqec: unknown code '%s'\n", CodeName.c_str());
      return 2;
    }
    DistanceResult R = computeDistance(*Code, VO, PauliFamily::Any, Remote);
    Total += R.Stats;
    AnyAborted |= R.Aborted;
    AnyError |= !R.Ok && !R.Aborted;
    // A registry distance flagged as an estimate is not binding: report
    // the difference (the printed "estimate" qualifier says why) but do
    // not fail the run over it.
    bool Mismatch = R.Ok && Code->Distance && !Code->DistanceIsEstimate &&
                    R.Distance != Code->Distance;
    // Some registry entries document a restricted-error-family distance
    // (repetition<N> documents the bit-flip distance, reached by pure-X
    // logicals only); accept the documented number if a family-
    // restricted search attains it.
    std::string FamilyMatch;
    if (Mismatch) {
      for (auto [Family, Name] :
           {std::pair{PauliFamily::XOnly, "x"},
            std::pair{PauliFamily::ZOnly, "z"}}) {
        DistanceResult F = computeDistance(*Code, VO, Family, Remote);
        if (F.Ok && F.Distance == Code->Distance) {
          Mismatch = false;
          FamilyMatch = Name;
          break;
        }
      }
    }
    AnyMismatch |= Mismatch;
    // A failed or aborted search agrees with nothing.
    bool Agrees = R.Ok && !Mismatch;
    Json.push_back(distanceRecordJson(CodeName, *Code, Agrees, FamilyMatch, R));
    if (!Cli.Json && !R.Ok && !R.Aborted) {
      std::printf("%-20s ERROR: %s\n", CodeName.c_str(), R.Error.c_str());
    } else if (!Cli.Json) {
      // When the documented number belongs to a restricted family, say
      // so: "distance 1 (documented 5)" with a silent success would
      // read as a contradiction.
      std::string Documented = std::to_string(Code->Distance);
      if (!FamilyMatch.empty())
        Documented += " = " + FamilyMatch + "-family";
      if (Code->DistanceIsEstimate)
        Documented += ", estimate";
      std::printf("%-20s distance %-3zu %s(documented %s)  %llu calls, "
                  "%llu conflicts  (%.1f ms)\n",
                  CodeName.c_str(), R.Distance,
                  R.Aborted ? "ABORTED " : Mismatch ? "MISMATCH " : "",
                  Documented.c_str(),
                  static_cast<unsigned long long>(R.SolverCalls),
                  static_cast<unsigned long long>(R.Stats.Conflicts),
                  R.Seconds * 1e3);
      if (R.Witness)
        std::printf("  minimal logical operator: %s\n",
                    R.Witness->toString().c_str());
    }
    if (VO.LogProofs && R.Ok) {
      // A distance-1 search can conclude from SAT probes alone (no UNSAT
      // probe, hence legitimately no proof); any deeper verdict must
      // prove every weight below the distance impossible.
      if (R.Distance > 1 || !R.Proof.empty())
        AnyProofFailed |= handleProof(Cli, CodeName + "-distance", R.Proof) != 0;
    }
  }
  if (obs::metricsEnabled())
    publishSolverStats(Total);
  if (Cli.Json)
    printResultsJson(Cli, Json);
  if (!Cli.BenchOut.empty()) {
    JsonObject J;
    J.str("command", "distance")
        .flag("xor", Cli.Xor != smt::XorMode::Off)
        .count("conflict_budget", Cli.ConflictBudget)
        .count("seed", Cli.Seed);
    if (!writeBenchOut(Cli.BenchOut, J, Json))
      return 2;
  }
  if (Cli.CheckProofs && !Cli.Json && !AnyProofFailed)
    std::printf("proofs: all distance certificates check\n");
  return AnyError || AnyProofFailed ? 2
         : AnyMismatch              ? 1
         : AnyAborted               ? 3
                                    : 0;
}

int runDetect(const CliOptions &Cli) {
  bool AnyMisses = false, AnyAborted = false;
  VerifyOptions VO = makeVerifyOptions(Cli);
  std::vector<std::string> Json;
  sat::SolverStats Total;
  for (const std::string &CodeName : Cli.Codes) {
    std::optional<StabilizerCode> Code = makeCodeByName(CodeName);
    if (!Code) {
      std::fprintf(stderr, "veriqec: unknown code '%s'\n", CodeName.c_str());
      return 2;
    }
    size_t MaxWeight =
        Cli.MaxWeight ? Cli.MaxWeight
                      : (Code->Distance >= 2 ? Code->Distance - 1 : 1);
    DetectionResult R = verifyDetection(*Code, MaxWeight, VO);
    AnyAborted |= R.Aborted;
    AnyMisses |= !R.Detects && !R.Aborted;
    Total += R.Stats;
    JsonObject J;
    J.str("code", CodeName)
        .count("max_weight", MaxWeight)
        .flag("detects", R.Detects)
        .flag("aborted", R.Aborted)
        .num("seconds", R.Seconds);
    putSolverStats(J, R.Stats);
    if (R.CounterExample)
      J.str("counterexample", R.CounterExample->toString());
    Json.push_back(J.text());
    if (Cli.Json)
      continue;
    std::printf("%-20s weight<=%zu  %s  (%.1f ms)\n", CodeName.c_str(),
                MaxWeight,
                R.Aborted   ? "ABORTED"
                : R.Detects ? "DETECTS"
                            : "MISSES",
                R.Seconds * 1e3);
    if (R.CounterExample)
      std::printf("  undetected logical operator: %s\n",
                  R.CounterExample->toString().c_str());
  }
  if (obs::metricsEnabled())
    publishSolverStats(Total);
  if (Cli.Json)
    printResultsJson(Cli, Json);
  return AnyMisses ? 1 : AnyAborted ? 3 : 0;
}

int runWorkerCommand(const CliOptions &Cli) {
  if (Cli.Connect.empty()) {
    std::fprintf(stderr, "veriqec: worker needs --connect HOST:PORT\n");
    return 2;
  }
  // A malformed address can never succeed: fail before the retry loop.
  std::string Err;
  if (!dist::validTcpAddress(Cli.Connect, /*AllowPortZero=*/false, Err)) {
    std::fprintf(stderr, "veriqec: %s\n", Err.c_str());
    return 2;
  }
  // Retry the connect: CI starts coordinator and workers concurrently.
  std::unique_ptr<dist::Link> L;
  for (int Attempt = 0; Attempt != 50 && !L; ++Attempt) {
    L = dist::connectTcp(Cli.Connect, Err);
    if (!L)
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  if (!L) {
    std::fprintf(stderr, "veriqec: cannot connect to %s: %s\n",
                 Cli.Connect.c_str(), Err.c_str());
    return 2;
  }
  dist::WorkerOptions WO;
  WO.Jobs = Cli.Jobs ? Cli.Jobs : 1;
  WO.MaxBatches = Cli.MaxBatches;
  WO.HeartbeatMs = WorkerHeartbeatMs;
  std::fprintf(stderr, "veriqec: worker connected to %s (%zu slot%s)\n",
               Cli.Connect.c_str(), WO.Jobs, WO.Jobs == 1 ? "" : "s");
  int R = dist::runWorker(std::move(L), WO);
  // The MaxBatches crash hook (R == 2) did exactly what was asked; a
  // handshake/link failure (R == 1) is a real error. An eviction (R ==
  // 3) keeps its distinct code: the run continued elsewhere, but an
  // operator (or CI) may want to know this node was written off.
  if (R == 3)
    std::fprintf(stderr, "veriqec: worker evicted by coordinator\n");
  return R == 1 ? 1 : R == 3 ? 3 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.empty()) {
    printUsage(stderr);
    return 2;
  }
  if (Args[0] == "--help" || Args[0] == "-h") {
    printUsage(stdout);
    return 0;
  }
  Cli.Command = Args[0];

  auto needValue = [&](size_t &I) -> const std::string * {
    if (I + 1 >= Args.size()) {
      std::fprintf(stderr, "veriqec: %s needs a value\n", Args[I].c_str());
      return nullptr;
    }
    return &Args[++I];
  };
  // Reads the value of numeric flag Args[I] into Out, checked against
  // [Min, Max]; false (after reporting) on a missing or bad value.
  auto numberValue = [&](size_t &I, uint64_t Min, uint64_t Max, auto &Out) {
    const std::string &Flag = Args[I];
    const std::string *V = needValue(I);
    return V && parseNumber(Flag, *V, Min, Max, Out);
  };
  constexpr uint64_t U32Max = ~uint32_t{0}, U64Max = ~uint64_t{0};

  for (size_t I = 1; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    const std::string *V = nullptr;
    if (A == "--json") {
      Cli.Json = true;
    } else if (A == "--xor") {
      if (!(V = needValue(I)))
        return 2;
      if (*V == "on")
        Cli.Xor = smt::XorMode::On;
      else if (*V == "off")
        Cli.Xor = smt::XorMode::Off;
      else {
        std::fprintf(stderr, "veriqec: --xor must be on or off\n");
        return 2;
      }
    } else if (A == "--bench-out") {
      if (!(V = needValue(I)))
        return 2;
      Cli.BenchOut = *V;
    } else if (A == "--check-proofs") {
      Cli.CheckProofs = true;
    } else if (A == "--proof-dir") {
      if (!(V = needValue(I)))
        return 2;
      Cli.ProofDir = *V;
    } else if (A == "--dist") {
      if (!(V = needValue(I)))
        return 2;
      Cli.Dist = *V;
    } else if (A == "--listen") {
      if (!(V = needValue(I)))
        return 2;
      Cli.Listen = *V;
    } else if (A == "--connect") {
      if (!(V = needValue(I)))
        return 2;
      Cli.Connect = *V;
    } else if (A == "--expect-workers") {
      if (!numberValue(I, 1, MaxFleetSlots, Cli.ExpectWorkers))
        return 2;
    } else if (A == "--max-batches") {
      if (!numberValue(I, 0, U64Max, Cli.MaxBatches))
        return 2;
    } else if (A == "--trace") {
      if (!(V = needValue(I)))
        return 2;
      Cli.TraceOut = *V;
    } else if (A == "--metrics-out") {
      if (!(V = needValue(I)))
        return 2;
      Cli.MetricsOut = *V;
    } else if (A == "--progress") {
      Cli.Progress = true;
    } else if (A == "--code") {
      if (!(V = needValue(I)))
        return 2;
      if (!splitList(*V, Cli.Codes)) {
        std::fprintf(stderr, "veriqec: --code needs a non-empty list\n");
        return 2;
      }
    } else if (A == "--scenario") {
      if (!(V = needValue(I)))
        return 2;
      if (!splitList(*V, Cli.ScenarioNames)) {
        std::fprintf(stderr, "veriqec: --scenario needs a non-empty list\n");
        return 2;
      }
    } else if (A == "--suite") {
      if (!(V = needValue(I)))
        return 2;
      Cli.Suite = *V;
    } else if (A == "--program") {
      if (!(V = needValue(I)))
        return 2;
      Cli.ProgramFile = *V;
    } else if (A == "--error") {
      if (!(V = needValue(I)))
        return 2;
      if (*V == "X")
        Cli.ErrorKind = PauliKind::X;
      else if (*V == "Y")
        Cli.ErrorKind = PauliKind::Y;
      else if (*V == "Z")
        Cli.ErrorKind = PauliKind::Z;
      else {
        std::fprintf(stderr, "veriqec: --error must be X, Y or Z\n");
        return 2;
      }
    } else if (A == "--basis") {
      if (!(V = needValue(I)))
        return 2;
      if (*V != "Z" && *V != "X" && *V != "both") {
        std::fprintf(stderr, "veriqec: --basis must be Z, X or both\n");
        return 2;
      }
      Cli.Basis = *V;
    } else if (A == "--max-errors") {
      // The all-ones value is the library's "no budget" sentinel.
      if (!numberValue(I, 0, U32Max - 1, Cli.MaxErrors.emplace()))
        return 2;
    } else if (A == "--cycles") {
      // Each cycle adds a full error sweep and syndrome round.
      if (!numberValue(I, 1, 1000, Cli.Cycles))
        return 2;
    } else if (A == "--max-weight") {
      if (!numberValue(I, 0, U32Max - 1, Cli.MaxWeight))
        return 2;
    } else if (A == "--jobs") {
      if (!numberValue(I, 0, MaxFleetSlots, Cli.Jobs))
        return 2;
    } else if (A == "--budget") {
      if (!numberValue(I, 0, U64Max, Cli.ConflictBudget))
        return 2;
    } else if (A == "--seed") {
      if (!numberValue(I, 0, U64Max, Cli.Seed))
        return 2;
    } else if (A == "--help" || A == "-h") {
      printUsage(stdout);
      return 0;
    } else if (Cli.Command == "parse" && Cli.ProgramFile.empty() &&
               A[0] != '-') {
      Cli.ProgramFile = A;
    } else {
      std::fprintf(stderr, "veriqec: unknown option '%s'\n", A.c_str());
      printUsage(stderr);
      return 2;
    }
  }

  if (!expandSuite(Cli)) {
    std::fprintf(stderr, "veriqec: unknown suite '%s'\n", Cli.Suite.c_str());
    return 2;
  }

  // Records and proofs come from verification runs only. Refuse them
  // elsewhere rather than silently not writing a file a CI step will
  // parse, or passing a proof gate that never checked anything.
  bool Verifies = Cli.Command == "verify" || Cli.Command == "serve" ||
                  Cli.Command == "distance";
  if (!Verifies &&
      (!Cli.BenchOut.empty() || Cli.CheckProofs || !Cli.ProofDir.empty())) {
    std::fprintf(stderr, "veriqec: --bench-out, --check-proofs and "
                         "--proof-dir are only supported by the verify, "
                         "serve and distance commands\n");
    return 2;
  }

  if (Cli.Command == "list-codes")
    return runListCodes();
  if (Cli.Command == "parse") {
    if (Cli.ProgramFile.empty()) {
      std::fprintf(stderr, "veriqec: parse needs a file\n");
      return 2;
    }
    return runParse(Cli);
  }
  if (!Cli.Dist.empty() && Cli.Command != "verify" &&
      Cli.Command != "distance") {
    std::fprintf(stderr, "veriqec: --dist is only supported by the verify "
                         "and distance commands\n");
    return 2;
  }

  // Observability switches gate the instrumentation for the whole run:
  // tracing records phase spans, metrics feed --metrics-out and the
  // bench-out metrics block, progress renders the live stderr line.
  if (!Cli.TraceOut.empty())
    obs::beginTrace();
  if (!Cli.MetricsOut.empty() || !Cli.BenchOut.empty())
    obs::setMetricsEnabled(true);
  if (Cli.Progress)
    obs::setProgressEnabled(true);

  int Code = 2;
  if (Cli.Command == "verify" || Cli.Command == "serve")
    Code = runVerify(Cli);
  else if (Cli.Command == "worker")
    Code = runWorkerCommand(Cli);
  else if (Cli.Command == "detect") {
    if (Cli.Codes.empty()) {
      std::fprintf(stderr, "veriqec: detect needs --code\n");
      return 2;
    }
    Code = runDetect(Cli);
  } else if (Cli.Command == "distance") {
    if (Cli.Codes.empty()) {
      std::fprintf(stderr, "veriqec: distance needs --code\n");
      return 2;
    }
    Code = runDistance(Cli);
  } else {
    std::fprintf(stderr, "veriqec: unknown command '%s'\n",
                 Cli.Command.c_str());
    printUsage(stderr);
    return 2;
  }

  if (!Cli.TraceOut.empty()) {
    std::string Err;
    if (!obs::endTrace(Cli.TraceOut, Err)) {
      std::fprintf(stderr, "veriqec: %s\n", Err.c_str());
      Code = Code ? Code : 2;
    }
  }
  if (!Cli.MetricsOut.empty() &&
      !writeFile(Cli.MetricsOut,
                 obs::Registry::global().snapshotJson() + "\n"))
    Code = 2;
  return Code;
}
