//===- dist/Codec.h - Versioned binary wire format --------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire vocabulary of the distributed verification layer: a
/// length-prefixed, versioned, little-endian binary format that
/// round-trips everything a remote cube worker needs — whole encoded
/// smt::VerificationProblems (CNF clauses, native XOR rows, reconstruction
/// records, budget-layer metadata), cube batches, per-batch results with
/// counterexample models, solver statistics and proof chunks, and short
/// learnt lemmas streamed between workers. Framing
/// (the u32 length prefix) belongs to the transport (dist/Transport.h);
/// this layer encodes and decodes frame payloads. Decoding is strict:
/// any truncation, over-length count, unknown tag or trailing byte
/// poisons the Decoder and rejects the frame, so a corrupted or
/// version-skewed peer can never smuggle a half-parsed message into the
/// scheduler.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_DIST_CODEC_H
#define VERIQEC_DIST_CODEC_H

#include "engine/CubeRun.h"
#include "smt/CubeSolver.h"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

namespace veriqec::dist {

/// First bytes of every Hello: rejects non-veriqec peers outright.
constexpr uint32_t WireMagic = 0x43455156; // "VQEC" little-endian
/// Bumped on every incompatible wire change; the handshake refuses a
/// mismatch in either direction. v2: CubeRunConfig::LogProofs and
/// BatchResultMsg::ProofChunks. v3: arena telemetry in SolverStats.
/// v4: the binary/long propagation split in SolverStats, plus a
/// backtracking-policy flag in CubeRunConfig with three SolverStats
/// counters. v5: progress Heartbeat (worker -> coordinator) and Evicted
/// (coordinator -> worker) frames. v6: the v4 policy flag and its
/// counters are gone again. v7: Lemmas frames (worker -> coordinator ->
/// the other workers). v8: the GF(2) cube pruner is gone — its rows,
/// mode flag and variable map leave the problem frame, its counter the
/// batch result. v9: sibling-core pruning is gone — the Cores frame and
/// the batch result's pruned count and new cores with it. v10: the batch
/// status is an engine::CubeVerdict, and the hardened budget bound leaves
/// the config for the problem's range-checked root units. v11: work
/// stealing is gone, and its request and reply frames with it, so every
/// later kind tag moves down by two.
constexpr uint32_t WireVersion = 11;
/// Upper bound on one frame payload (a surface-scale problem is a few
/// MB; anything near this is a corrupt length prefix, not data).
constexpr uint32_t MaxFrameBytes = 256u << 20;

// -- Byte-level primitives ---------------------------------------------------

/// Append-only little-endian byte writer.
class Encoder {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void boolean(bool V) { u8(V ? 1 : 0); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  void lit(sat::Lit L) { i32(L.Code); }
  void lits(const std::vector<sat::Lit> &Ls) {
    u32(static_cast<uint32_t>(Ls.size()));
    for (sat::Lit L : Ls)
      lit(L);
  }
  void litVecs(const std::vector<std::vector<sat::Lit>> &Vs) {
    u32(static_cast<uint32_t>(Vs.size()));
    for (const std::vector<sat::Lit> &V : Vs)
      lits(V);
  }

  const std::vector<uint8_t> &bytes() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian byte reader. Failure is sticky and
/// closed: every underrun, out-of-range count or corrupt value jumps to
/// the end of the input, so every later read yields zero and every later
/// count() yields 0 — a poisoned frame can never announce a length that
/// drives an allocation. Callers check ok() once at the end instead of
/// after every field.
class Decoder {
public:
  explicit Decoder(std::span<const uint8_t> Data) : Data(Data) {}

  bool ok() const { return !Failed; }
  bool atEnd() const { return Pos == Data.size(); }
  void fail() {
    Failed = true;
    Pos = Data.size();
  }
  size_t remaining() const { return Data.size() - Pos; }

  uint8_t u8() {
    if (remaining() < 1) {
      fail();
      return 0;
    }
    return Data[Pos++];
  }
  bool boolean() {
    uint8_t V = u8();
    if (V > 1)
      fail(); // corrupt: bools are canonical 0/1 on the wire
    return V == 1;
  }
  uint32_t u32() {
    if (remaining() < 4) {
      fail();
      return 0;
    }
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return V;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  uint64_t u64() {
    if (remaining() < 8) {
      fail();
      return 0;
    }
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return V;
  }
  /// Reads a count that prefixes \p ElemBytes-sized elements; fails (and
  /// returns 0) when the announced count cannot fit in the remaining
  /// bytes — the defense against corrupt length fields triggering huge
  /// allocations. Once the decoder has failed it always returns 0.
  uint32_t count(size_t ElemBytes) {
    uint32_t N = u32();
    if (Failed)
      return 0;
    if (static_cast<uint64_t>(N) * ElemBytes > remaining()) {
      fail();
      return 0;
    }
    return N;
  }
  std::string str() {
    uint32_t N = count(1);
    if (Failed)
      return {};
    std::string S(reinterpret_cast<const char *>(Data.data() + Pos), N);
    Pos += N;
    return S;
  }
  sat::Lit lit() {
    sat::Lit L;
    L.Code = i32();
    return L;
  }
  std::vector<sat::Lit> lits() {
    uint32_t N = count(4);
    std::vector<sat::Lit> Out;
    if (Failed)
      return Out;
    Out.reserve(N);
    for (uint32_t I = 0; I != N && !Failed; ++I)
      Out.push_back(lit());
    return Out;
  }
  std::vector<std::vector<sat::Lit>> litVecs() {
    uint32_t N = count(4);
    std::vector<std::vector<sat::Lit>> Out;
    if (Failed)
      return Out;
    Out.reserve(N);
    for (uint32_t I = 0; I != N && !Failed; ++I)
      Out.push_back(lits());
    return Out;
  }

private:
  std::span<const uint8_t> Data;
  size_t Pos = 0;
  bool Failed = false;
};

// -- Problem codec -----------------------------------------------------------

/// Serializes whole smt::VerificationProblems. A friend of the struct:
/// it reaches the private reconstruction state and rebuilds
/// instances through the private default constructor, so a decoded
/// problem is behaviorally identical to the coordinator's original for
/// everything a worker runs (makeSolver, readModel, weight assumptions).
class ProblemCodec {
public:
  static void encode(Encoder &E, const smt::VerificationProblem &P);
  /// Returns nullptr (and poisons \p D) on any malformed input.
  static std::shared_ptr<smt::VerificationProblem> decode(Decoder &D);
};

// -- Messages ----------------------------------------------------------------

enum class MsgKind : uint8_t {
  Hello = 1,     ///< worker -> coordinator: version + slot count
  HelloAck,      ///< coordinator -> worker: accept / version-reject
  Problem,       ///< coordinator -> worker: encoded problem + config
  CubeBatch,     ///< coordinator -> worker: a batch of cubes to discharge
  BatchResult,   ///< worker -> coordinator: verdict, stats, model, proof
  Cancel,        ///< coordinator -> worker: stop + forget one problem
  Shutdown,      ///< coordinator -> worker: exit cleanly
  Heartbeat,     ///< worker -> coordinator: periodic progress report
  Evicted,       ///< coordinator -> worker: dropped, stop grinding
  Lemmas,        ///< worker <-> coordinator: learnt lemmas to share
};

struct HelloMsg {
  uint32_t Magic = WireMagic;
  uint32_t Version = WireVersion;
  uint32_t Slots = 1;
};

struct HelloAckMsg {
  uint32_t Magic = WireMagic;
  uint32_t Version = WireVersion;
  bool Accepted = false;
  std::string Reason; ///< human-readable rejection cause
};

struct ProblemMsg {
  uint32_t ProblemId = 0;
  engine::CubeRunConfig Config;
  /// The problem serves many incremental cube sets (the distance
  /// search): the worker resets its run's verdict state between
  /// batches after a decided set, instead of treating the latched
  /// cancel as "this problem is over".
  bool Persistent = false;
  std::shared_ptr<smt::VerificationProblem> Problem;
};

struct CubeBatchMsg {
  uint32_t ProblemId = 0;
  uint32_t BatchId = 0;
  std::vector<std::vector<sat::Lit>> Cubes;
};

struct BatchResultMsg {
  uint32_t ProblemId = 0;
  uint32_t BatchId = 0;
  /// The maximum of the batch's cube verdicts: Sat and Refuted decide the
  /// whole problem, and a Cancelled batch is not done.
  engine::CubeVerdict Status = engine::CubeVerdict::Unsat;
  /// Counterexample model (named variables, reconstruction already
  /// applied worker-side) when Status == Sat.
  std::unordered_map<std::string, bool> Model;
  /// Solver-statistics DELTA since the worker's previous report for this
  /// problem (slot solvers persist across batches, so totals would
  /// double-count).
  sat::SolverStats Stats;
  uint64_t Solved = 0;
  /// With CubeRunConfig::LogProofs: per-slot proof text accrued since
  /// the worker's previous report, as (slot, chunk) pairs. Chunks are
  /// record-atomic; the coordinator concatenates chunks of the same
  /// (worker, slot) in arrival order into one stream per slot.
  std::vector<std::pair<uint32_t, std::string>> ProofChunks;
};

struct CancelMsg {
  uint32_t ProblemId = 0;
};

struct ShutdownMsg {};

/// Periodic worker -> coordinator progress report (WorkerOptions::
/// HeartbeatMs). ANY frame refreshes the coordinator's silence timer,
/// so a heartbeating worker is never declared dead by WorkerTimeoutMs
/// while it grinds a hard batch; the payload additionally feeds the
/// coordinator's `--progress` rendering.
struct HeartbeatMsg {
  /// Batches granted but not yet resulted: 0 or 1, since the coordinator
  /// grants only to a worker that holds none — plus, after a Cancel, a
  /// fresh grant queued behind the cancelled batch that still drains.
  uint32_t BatchesInFlight = 0;
  /// Cubes discharged since the previous heartbeat.
  uint64_t CubesDelta = 0;
  /// Solver conflicts spent since the previous heartbeat (observed at
  /// cube granularity: a slot publishes after each cube completes).
  uint64_t ConflictsDelta = 0;
};

/// Coordinator -> worker eviction notice, sent just before the link is
/// closed on a silence timeout. The epoch check already ignores any
/// result the evicted worker might still send; this frame lets the
/// worker abort its in-flight solves instead of grinding to the end of
/// a batch nobody will accept.
struct EvictedMsg {
  std::string Reason; ///< human-readable cause (for the worker's stderr)
};

/// Short lemmas one worker's slots learnt on a problem, streamed while
/// they solve: the worker sends one frame per problem and poll, the
/// coordinator relays it unchanged to every other worker that knows the
/// problem. Never sent for proof-logging problems (an imported lemma has
/// no derivation in the importer's proof stream). The decoder enforces
/// the pool's limits: at most SharedClausePool::Capacity lemmas of at
/// most SharedClausePool::MaxLemmaLits literals each.
struct LemmasMsg {
  uint32_t ProblemId = 0;
  std::vector<std::vector<sat::Lit>> Lemmas;
};

using Message =
    std::variant<HelloMsg, HelloAckMsg, ProblemMsg, CubeBatchMsg,
                 BatchResultMsg, CancelMsg, ShutdownMsg, HeartbeatMsg,
                 EvictedMsg, LemmasMsg>;

/// True iff every literal of \p Lits names a variable of \p P. Cube and
/// lemma frames carry literals without their problem, so the decoder
/// cannot range-check them; every receiver must, before a solver sees
/// them (an out-of-range variable indexes its arrays out of bounds).
bool litsInRange(const smt::VerificationProblem &P,
                 std::span<const std::vector<sat::Lit>> Lits);

/// Encodes one message into a frame payload (kind tag + body).
std::vector<uint8_t> encodeMessage(const Message &M);

/// Strict decode of one frame payload; false on any malformed input
/// (truncated, over-long, unknown kind, trailing bytes).
bool decodeMessage(std::span<const uint8_t> Payload, Message &Out);

} // namespace veriqec::dist

#endif // VERIQEC_DIST_CODEC_H
