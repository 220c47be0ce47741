//===- tools/veriqec-check.cpp - Standalone proof checker ------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The independent half of proof-emitting verification: reads one clause
/// proof (a file argument, or stdin when the argument is "-" or absent)
/// and replays it with proof::checkProof. Deliberately tiny — this binary
/// compiles from exactly two translation units (this file and
/// src/proof/ProofCheck.cpp) and does not link the veriqec library, so no
/// solver bug can be shared with the checker. Exit 0 = the proof checks,
/// 1 = it does not, 2 = usage or I/O error.
///
//===----------------------------------------------------------------------===//

#include "proof/ProofCheck.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

/// Reads all of \p In into \p Text, the one resident copy of the proof:
/// \p Size bytes (a regular file's size) straight into place, then
/// whatever follows in chunks (all of a pipe).
static bool readAll(std::FILE *In, size_t Size, std::string &Text) {
  Text.resize(Size);
  Text.resize(std::fread(Text.data(), 1, Size, In));
  char Chunk[1 << 16];
  for (size_t N; (N = std::fread(Chunk, 1, sizeof Chunk, In)) != 0;)
    Text.append(Chunk, N);
  return !std::ferror(In);
}

int main(int Argc, char **Argv) {
  bool Quiet = false;
  std::string Path;
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    if (A == "-q" || A == "--quiet") {
      Quiet = true;
    } else if (A == "-h" || A == "--help") {
      std::printf("usage: veriqec-check [-q] [PROOF-FILE|-]\n"
                  "\n"
                  "Replays a veriqec clause proof read from PROOF-FILE or\n"
                  "stdin. Stream records are checked by the justification\n"
                  "they carry, with no search: a (learnt) and q (cube core)\n"
                  "records by their unit-propagation hints, g records by the\n"
                  "sum of the XOR rows they name; only the cube-tree trailer\n"
                  "is checked by reverse unit propagation. The proof is\n"
                  "accepted only when a checked record derives the empty\n"
                  "clause: a trivial-unsat record, an empty-core conclusion,\n"
                  "or the cube-tree trailer's closing addition.\n"
                  "Exit 0 = proof checks, 1 = rejected, 2 = usage/IO error.\n");
      return 0;
    } else if (!A.empty() && A[0] == '-' && A != "-") {
      std::fprintf(stderr, "veriqec-check: unknown option '%s'\n", A.c_str());
      return 2;
    } else if (Path.empty()) {
      Path = A;
    } else {
      std::fprintf(stderr, "veriqec-check: more than one input\n");
      return 2;
    }
  }

  std::FILE *In = stdin;
  if (!Path.empty() && Path != "-" && !(In = std::fopen(Path.c_str(), "rb"))) {
    std::fprintf(stderr, "veriqec-check: cannot open %s\n", Path.c_str());
    return 2;
  }
  size_t Size = 0;
  std::error_code Ec;
  if (In != stdin && std::filesystem::is_regular_file(Path, Ec)) {
    uintmax_t Bytes = std::filesystem::file_size(Path, Ec);
    Size = Ec ? 0 : static_cast<size_t>(Bytes);
  }
  std::string Text;
  bool ReadOk = readAll(In, Size, Text);
  if (In != stdin)
    std::fclose(In);
  if (!ReadOk) {
    std::fprintf(stderr, "veriqec-check: cannot read %s\n",
                 Path.empty() ? "-" : Path.c_str());
    return 2;
  }

  veriqec::proof::CheckResult R = veriqec::proof::checkProof(Text);
  if (!R.Ok) {
    std::fprintf(stderr, "veriqec-check: REJECTED: %s\n", R.Error.c_str());
    return 1;
  }
  if (!Quiet)
    std::printf("veriqec-check: OK  %llu vars, %llu clauses, %llu xor rows, "
                "%llu replay records, %llu streams, %llu additions, "
                "%llu deletions, %llu conclusions, empty clause derived\n",
                static_cast<unsigned long long>(R.NumVars),
                static_cast<unsigned long long>(R.HeaderClauses),
                static_cast<unsigned long long>(R.XorRows),
                static_cast<unsigned long long>(R.ReplayRecords),
                static_cast<unsigned long long>(R.Streams),
                static_cast<unsigned long long>(R.Additions),
                static_cast<unsigned long long>(R.Deletions),
                static_cast<unsigned long long>(R.Conclusions));
  return 0;
}
