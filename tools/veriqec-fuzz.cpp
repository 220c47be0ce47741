//===- tools/veriqec-fuzz.cpp - Differential fuzzing driver ----------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded differential fuzzing of the whole verification stack: generate
/// random scenarios (random codes, shapes, error models, budgets, user
/// constraints), run each through every engine configuration — the
/// GF(2)-preprocessed pipeline is cross-checked against the legacy
/// unpreprocessed path, sequential and cube-and-conquer alike — validate
/// every counterexample certificate (including reconstructed
/// preprocessor-eliminated variables), and cross-check verdicts against
/// the brute-force and sampling oracles. Exit code 0 = no discrepancy,
/// 1 = discrepancies found (seeds reported, and appended to
/// --out-failures when given), 2 = usage error.
///
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "testing/DifferentialHarness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace veriqec;
using namespace veriqec::testing;

namespace {

struct FuzzCliOptions {
  uint64_t Seeds = 100;
  uint64_t BaseSeed = 1;
  size_t MaxQubits = 9;
  uint32_t MaxErrors = 2;
  size_t Jobs = 4;
  size_t DistWorkers = 2;
  uint64_t BruteBudget = 300000;
  uint64_t SamplingTrials = 1500;
  bool Json = false;
  bool Verbose = false;
  std::string OutFailures;
  /// Proof oracle: every verified verdict of every configuration must
  /// come with a clause proof the independent checker accepts.
  bool CheckProofs = false;
  /// Where to dump proofs the checker rejected (next to the failing
  /// seed in --out-failures, for CI artifact upload).
  std::string ProofDir;
};

void printUsage(std::FILE *To) {
  std::fprintf(
      To,
      "usage: veriqec-fuzz [options]\n"
      "\n"
      "  --seeds N          number of random cases (default 100)\n"
      "  --seed S           base seed; case i uses seed S+i (default 1)\n"
      "  --max-qubits N     cap on total scenario qubits (default 9)\n"
      "  --max-errors T     cap on the drawn error budget (default 2)\n"
      "  --jobs N           widest parallel configuration (default 4)\n"
      "  --dist-workers N   workers of the dist-loopback configuration\n"
      "                     (full wire codec + scheduler; 0 = off,\n"
      "                     default 2)\n"
      "  --brute-budget N   brute-force oracle replay cap (default 300000)\n"
      "  --samples N        sampling-refuter trials, 0 = off (default 1500)\n"
      "  --out-failures F   append failing seeds to file F, one per line\n"
      "  --check-proofs     proof oracle: log clause proofs in every\n"
      "                     configuration and replay each verified\n"
      "                     verdict's proof with the independent checker\n"
      "  --proof-dir DIR    write rejected proofs to DIR (one file per\n"
      "                     seed and configuration)\n"
      "  --json             machine-readable report on stdout\n"
      "  --verbose          print every case, not just failures\n");
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzCliOptions Cli;
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  auto needValue = [&](size_t &I) -> const std::string * {
    if (I + 1 >= Args.size()) {
      std::fprintf(stderr, "veriqec-fuzz: %s needs a value\n",
                   Args[I].c_str());
      return nullptr;
    }
    return &Args[++I];
  };
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    const std::string *V = nullptr;
    if (A == "--json") {
      Cli.Json = true;
    } else if (A == "--verbose") {
      Cli.Verbose = true;
    } else if (A == "--seeds") {
      if (!(V = needValue(I)))
        return 2;
      Cli.Seeds = std::strtoull(V->c_str(), nullptr, 10);
    } else if (A == "--seed") {
      if (!(V = needValue(I)))
        return 2;
      Cli.BaseSeed = std::strtoull(V->c_str(), nullptr, 10);
    } else if (A == "--max-qubits") {
      if (!(V = needValue(I)))
        return 2;
      Cli.MaxQubits = std::strtoul(V->c_str(), nullptr, 10);
    } else if (A == "--max-errors") {
      if (!(V = needValue(I)))
        return 2;
      Cli.MaxErrors =
          static_cast<uint32_t>(std::strtoul(V->c_str(), nullptr, 10));
    } else if (A == "--jobs") {
      if (!(V = needValue(I)))
        return 2;
      Cli.Jobs = std::strtoul(V->c_str(), nullptr, 10);
    } else if (A == "--dist-workers") {
      if (!(V = needValue(I)))
        return 2;
      Cli.DistWorkers = std::strtoul(V->c_str(), nullptr, 10);
    } else if (A == "--brute-budget") {
      if (!(V = needValue(I)))
        return 2;
      Cli.BruteBudget = std::strtoull(V->c_str(), nullptr, 10);
    } else if (A == "--samples") {
      if (!(V = needValue(I)))
        return 2;
      Cli.SamplingTrials = std::strtoull(V->c_str(), nullptr, 10);
    } else if (A == "--out-failures") {
      if (!(V = needValue(I)))
        return 2;
      Cli.OutFailures = *V;
    } else if (A == "--check-proofs") {
      Cli.CheckProofs = true;
    } else if (A == "--proof-dir") {
      if (!(V = needValue(I)))
        return 2;
      Cli.ProofDir = *V;
    } else if (A == "--help" || A == "-h") {
      printUsage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "veriqec-fuzz: unknown option '%s'\n", A.c_str());
      printUsage(stderr);
      return 2;
    }
  }
  if (Cli.MaxQubits < 3) {
    std::fprintf(stderr, "veriqec-fuzz: --max-qubits must be >= 3\n");
    return 2;
  }

  FuzzerOptions FO;
  FO.MaxQubits = Cli.MaxQubits;
  FO.MaxErrorBudget = Cli.MaxErrors;
  HarnessOptions HO;
  HO.Jobs = Cli.Jobs;
  HO.BruteBudget = Cli.BruteBudget;
  HO.SamplingTrials = Cli.SamplingTrials;
  HO.DistWorkers = Cli.DistWorkers;
  HO.CheckProofs = Cli.CheckProofs;

  uint64_t Clean = 0, Verified = 0, Failed = 0, Other = 0;
  uint64_t BruteRuns = 0, SamplingRuns = 0, ProofsChecked = 0;
  double Seconds = 0;
  std::vector<uint64_t> FailingSeeds;
  std::vector<std::string> Cases;

  for (uint64_t I = 0; I != Cli.Seeds; ++I) {
    uint64_t Seed = Cli.BaseSeed + I;
    FuzzCase Case = generateFuzzCase(Seed, FO);
    HO.RandomSeed = Seed;
    CaseReport Report = runDifferential(Case, HO);

    Clean += Report.clean();
    Verified += Report.Consensus == 'V';
    Failed += Report.Consensus == 'F';
    Other += Report.Consensus != 'V' && Report.Consensus != 'F';
    BruteRuns += Report.BruteRan;
    SamplingRuns += Report.SamplingRan;
    ProofsChecked += Report.ProofsChecked;
    Seconds += Report.Seconds;
    if (!Report.clean())
      FailingSeeds.push_back(Seed);

    // Save any proof the checker rejected: the certificate itself is the
    // bug report, so it rides along as a CI artifact next to the seed.
    if (!Report.RejectedProofs.empty() && !Cli.ProofDir.empty()) {
      std::error_code Ec;
      std::filesystem::create_directories(Cli.ProofDir, Ec);
      for (const auto &[Config, Proof] : Report.RejectedProofs) {
        std::string Path = Cli.ProofDir + "/seed-" + std::to_string(Seed) +
                           "-" + Config + ".proof";
        std::ofstream Out(Path, std::ios::binary);
        Out << Proof;
      }
    }

    if (Cli.Json) {
      JsonObject J;
      J.count("seed", Seed)
          .str("case", Report.Description)
          .str("consensus", std::string(1, Report.Consensus))
          .flag("clean", Report.clean());
      if (!Report.clean()) {
        std::vector<std::string> Discrepancies;
        for (const std::string &D : Report.Discrepancies)
          Discrepancies.push_back(jsonString(D));
        J.raw("discrepancies", jsonArray(Discrepancies));
      }
      Cases.push_back(J.text());
    } else if (Cli.Verbose || !Report.clean()) {
      std::printf("%s %s consensus=%c%s\n",
                  Report.clean() ? "ok  " : "FAIL",
                  Report.Description.c_str(), Report.Consensus,
                  Report.BruteRan ? " [brute]" : "");
      for (const std::string &D : Report.Discrepancies)
        std::printf("     %s\n", D.c_str());
    }
  }

  if (Cli.Json) {
    JsonObject J;
    J.count("base_seed", Cli.BaseSeed)
        .raw("cases", jsonArray(Cases))
        .count("clean", Clean)
        .count("discrepant", Cli.Seeds - Clean);
    std::puts(J.text().c_str());
  } else {
    std::printf("fuzz: %llu cases (%llu verified, %llu refuted, %llu "
                "other), %llu clean, %llu discrepant; oracle coverage: "
                "%llu brute, %llu sampling, %llu proofs; %.1f s\n",
                static_cast<unsigned long long>(Cli.Seeds),
                static_cast<unsigned long long>(Verified),
                static_cast<unsigned long long>(Failed),
                static_cast<unsigned long long>(Other),
                static_cast<unsigned long long>(Clean),
                static_cast<unsigned long long>(Cli.Seeds - Clean),
                static_cast<unsigned long long>(BruteRuns),
                static_cast<unsigned long long>(SamplingRuns),
                static_cast<unsigned long long>(ProofsChecked), Seconds);
    for (uint64_t Seed : FailingSeeds)
      std::printf("reproduce with: veriqec-fuzz --seeds 1 --seed %llu\n",
                  static_cast<unsigned long long>(Seed));
  }

  if (!FailingSeeds.empty() && !Cli.OutFailures.empty()) {
    std::ofstream Out(Cli.OutFailures, std::ios::app);
    for (uint64_t Seed : FailingSeeds)
      Out << Seed << "\n";
  }
  return FailingSeeds.empty() ? 0 : 1;
}
