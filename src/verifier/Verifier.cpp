//===- verifier/Verifier.cpp - Veri-QEC style verification driver ----------===//
//
// Part of the veriqec project.
//
// The scenario pipeline (symbolic flow, VC assembly, cube-and-conquer
// discharge) lives in engine/VerificationEngine.cpp; this file keeps the
// historical free-function entry points plus the precise-detection check,
// whose VC is an expression over the code alone (no program).
//
//===----------------------------------------------------------------------===//

#include "verifier/Verifier.h"

#include "engine/VerificationEngine.h"
#include "support/Timer.h"

using namespace veriqec;
using namespace veriqec::smt;

VerificationResult veriqec::verifyScenario(const Scenario &S,
                                           const VerifyOptions &Opts) {
  return engine::onEngine(
      Opts.Parallel ? Opts.Threads : 0,
      [&](engine::VerificationEngine &E) { return E.verify(S, Opts); });
}

std::vector<VerificationResult>
veriqec::verifyAll(std::span<const Scenario> Scenarios,
                   const VerifyOptions &Opts) {
  return engine::onEngine(Opts.Parallel ? Opts.Threads : 0,
                         [&](engine::VerificationEngine &E) {
                           return E.verifyAll(Scenarios, Opts);
                         });
}

namespace {

/// Shared symbolic skeleton of the detection / distance workloads: an
/// unknown Pauli (x_q, z_q per qubit) that commutes with every generator
/// (pure parity rows — the preprocessor's home turf) yet anticommutes
/// with some logical operator.
struct UndetectableLogicalVc {
  BoolContext Ctx;
  std::vector<ExprRef> XVars, ZVars, Support;
  std::vector<ExprRef> Constraints;
};

void buildUndetectableLogicalVc(const StabilizerCode &Code,
                                UndetectableLogicalVc &Out,
                                PauliFamily Family = PauliFamily::Any) {
  size_t N = Code.NumQubits;
  BoolContext &Ctx = Out.Ctx;
  for (size_t Q = 0; Q != N; ++Q) {
    Out.XVars.push_back(Family == PauliFamily::ZOnly
                            ? Ctx.mkFalse()
                            : Ctx.mkVar("x" + std::to_string(Q)));
    Out.ZVars.push_back(Family == PauliFamily::XOnly
                            ? Ctx.mkFalse()
                            : Ctx.mkVar("z" + std::to_string(Q)));
    Out.Support.push_back(Ctx.mkOr(Out.XVars[Q], Out.ZVars[Q]));
  }
  auto anticommutes = [&](const Pauli &G) {
    std::vector<ExprRef> Terms;
    for (size_t Q = 0; Q != N; ++Q) {
      if (G.zBits().get(Q))
        Terms.push_back(Out.XVars[Q]);
      if (G.xBits().get(Q))
        Terms.push_back(Out.ZVars[Q]);
    }
    return Terms.empty() ? Ctx.mkFalse() : Ctx.mkXor(std::move(Terms));
  };
  for (const Pauli &G : Code.Generators)
    Out.Constraints.push_back(Ctx.mkNot(anticommutes(G)));
  std::vector<ExprRef> Logical;
  for (size_t J = 0; J != Code.NumLogical; ++J) {
    Logical.push_back(anticommutes(Code.LogicalX[J]));
    Logical.push_back(anticommutes(Code.LogicalZ[J]));
  }
  Out.Constraints.push_back(Ctx.mkOr(std::move(Logical)));
}

/// Model lookup defaulting to false — family-restricted searches never
/// create the suppressed letter's variables.
bool modelBit(const std::unordered_map<std::string, bool> &Model,
              const std::string &Name) {
  auto It = Model.find(Name);
  return It != Model.end() && It->second;
}

Pauli pauliFromModel(const std::unordered_map<std::string, bool> &Model,
                     size_t N) {
  Pauli P(N);
  for (size_t Q = 0; Q != N; ++Q) {
    bool X = modelBit(Model, "x" + std::to_string(Q));
    bool Z = modelBit(Model, "z" + std::to_string(Q));
    if (X && Z)
      P.setKind(Q, PauliKind::Y);
    else if (X)
      P.setKind(Q, PauliKind::X);
    else if (Z)
      P.setKind(Q, PauliKind::Z);
  }
  return P.abs();
}

} // namespace

DetectionResult veriqec::verifyDetection(const StabilizerCode &Code,
                                         size_t MaxWeight,
                                         const VerifyOptions &Opts) {
  DetectionResult Result;
  Timer Clock;
  size_t N = Code.NumQubits;

  UndetectableLogicalVc D;
  buildUndetectableLogicalVc(Code, D);
  BoolContext &Ctx = D.Ctx;
  std::vector<ExprRef> Cs = D.Constraints;
  // Weight within 1..MaxWeight (the two atoms share one counter bank;
  // unaryCounter deepens it on demand, so request order is free).
  Cs.push_back(Ctx.mkAtMost(D.Support, static_cast<uint32_t>(MaxWeight)));
  Cs.push_back(Ctx.mkAtLeast(D.Support, 1));

  SolveOptions SO;
  SO.CardEnc = Opts.CardEnc;
  SO.Preprocess = Opts.Preprocess;
  SO.Xor = Opts.Xor;
  SO.ConflictBudget = Opts.ConflictBudget;
  SO.RandomSeed = Opts.RandomSeed;
  SO.LogProofs = Opts.LogProofs;
  if (Opts.Parallel) {
    SO.NumThreads = Opts.Threads;
    for (size_t Q = 0; Q != N; ++Q)
      SO.SplitVars.push_back("x" + std::to_string(Q));
    SO.DistanceHint = static_cast<uint32_t>(
        Code.Distance ? Code.Distance : MaxWeight + 1);
    SO.MaxOnes = static_cast<uint32_t>(MaxWeight);
    SO.AutoSplitThreshold = Opts.SplitThreshold == 0;
    SO.SplitThreshold =
        Opts.SplitThreshold
            ? Opts.SplitThreshold
            : engine::autoSplitThreshold(N, SO.DistanceHint, SO.MaxOnes);
  }
  // Unsplit (not Parallel), the engine discharges one open cube on the
  // calling thread.
  SolveOutcome Outcome = solveExprParallel(Ctx, Ctx.mkAnd(std::move(Cs)), SO);

  Result.Stats = Outcome.Stats;
  Result.Detects = Outcome.Result == sat::SolveResult::Unsat;
  Result.Aborted = Outcome.Result == sat::SolveResult::Aborted;
  Result.Proof = std::move(Outcome.Proof);
  if (Outcome.Result == sat::SolveResult::Sat)
    Result.CounterExample = pauliFromModel(Outcome.Model, N);
  Result.Seconds = Clock.seconds();
  return Result;
}

DistanceResult veriqec::computeDistance(const StabilizerCode &Code,
                                        const VerifyOptions &Opts,
                                        PauliFamily Family,
                                        engine::CubeBackend *Backend) {
  DistanceResult Result;
  Timer Clock;
  size_t N = Code.NumQubits;
  if (Code.NumLogical == 0) {
    Result.Error = "code has no logical qubits";
    return Result;
  }

  UndetectableLogicalVc D;
  buildUndetectableLogicalVc(Code, D, Family);
  ExprRef Root = D.Ctx.mkAnd(D.Constraints);

  // The parity system plus the logical-action residue, with the
  // per-qubit supports feeding an assumption-activated weight layer: a
  // two-sided unary counter, so every probe of the search is a pure
  // assumption change on one solver. A counter of depth k answers every
  // bound below k with n*k registers (Sinz, CP'05), and no bound above
  // the first witness's weight W is ever probed, so the problem is
  // encoded with depth 1 for the existence probe (a nontrivial logical
  // has weight >= 1) and then with depth W for the binary search. The
  // distance VC has no SumLeqSum atoms, so CounterCap truncates this
  // layer and nothing else.
  ProblemOptions PO;
  PO.CardEnc = CardinalityEncoding::SequentialCounter;
  PO.Preprocess = Opts.Preprocess;
  // Auto resolves to ON here: the undetectable-logical system is almost
  // pure parity, exactly the Gauss engine's home turf (the LDPC rows of
  // the registry are intractable without it — see BENCH_table3.json).
  PO.NativeXor = Opts.Xor != XorMode::Off;
  PO.BudgetTerms = D.Support;
  // The searched problem's figures overwrite the existence probe's.
  auto encode = [&](size_t Depth) {
    PO.CounterCap = Depth;
    VerificationProblem P(D.Ctx, Root, PO);
    Result.LayerDepth = Depth;
    Result.Prep = P.Prep;
    Result.CnfVars = P.Cnf.NumVars;
    Result.CnfClauses = P.Cnf.Clauses.size();
    Result.XorRows = P.XorRows.size();
    return P;
  };
  // One probe = the open cube under the bound "1 <= weight <= MaxW"
  // against an open handle; its counters add into the result. A handle's
  // certificate is cumulative and asserts its probe's bound as `b`
  // units, so the last UNSAT probe's stands for the search.
  auto probe = [&](engine::CubeBackend &B, uint32_t Handle,
                   const VerificationProblem &P, size_t MaxW,
                   std::unordered_map<std::string, bool> &Model) {
    std::vector<sat::Lit> Bound;
    P.appendWeightAssumptions(static_cast<uint32_t>(MaxW), Bound, 1);
    Timer ProbeClock;
    smt::SolveOutcome O = B.solveCubes(Handle, {{}}, Bound);
    Result.Stats += O.Stats;
    ++Result.SolverCalls;
    Result.Probes.push_back(
        {MaxW, O.Result, O.Stats.Conflicts, ProbeClock.seconds()});
    if (O.Result == sat::SolveResult::Unsat && !O.Proof.empty())
      Result.Proof = std::move(O.Proof);
    if (O.Result == sat::SolveResult::Sat)
      Model = std::move(O.Model);
    return O.Result;
  };
  auto modelWeight = [&](const std::unordered_map<std::string, bool> &M) {
    size_t W = 0;
    for (size_t Q = 0; Q != N; ++Q)
      W += modelBit(M, "x" + std::to_string(Q)) ||
           modelBit(M, "z" + std::to_string(Q));
    return W;
  };

  // Existence probe (weight >= 1, unbounded above), always local and
  // unlogged: every code with a logical qubit has an undetectable logical
  // operator, witnessed by its model.
  engine::CubeEngine Local(1);
  engine::CubeRunConfig Cfg;
  Cfg.ConflictBudget = Opts.ConflictBudget;
  Cfg.RandomSeed = Opts.RandomSeed;
  std::unordered_map<std::string, bool> Best;
  sat::SolveResult R;
  {
    auto Exist = std::make_shared<const VerificationProblem>(encode(1));
    if (Exist->TriviallyUnsat) {
      Result.Error = "undetectable-logical system is inconsistent";
      Result.Seconds = Clock.seconds();
      return Result;
    }
    uint32_t Handle = Local.openProblem(Exist, Cfg);
    R = probe(Local, Handle, *Exist, N, Best);
    Local.closeProblem(Handle);
  }
  if (R != sat::SolveResult::Sat) {
    Result.Aborted = R == sat::SolveResult::Aborted;
    if (!Result.Aborted)
      Result.Error = "no undetectable logical operator exists";
    Result.Seconds = Clock.seconds();
    return Result;
  }
  size_t Lo = 1, Hi = modelWeight(Best);
  auto succeed = [&] {
    Result.Distance = Lo;
    Result.Witness = pauliFromModel(Best, N);
    Result.Ok = true;
    Result.Seconds = Clock.seconds();
  };
  if (Hi == 1) { // a weight-1 witness is minimal: nothing left to search
    succeed();
    return Result;
  }

  // The search runs on one handle over the problem sized by the witness,
  // on Backend (else locally): one persistent slot solver, so learnt
  // clauses survive across bounds.
  PO.CaptureProofData = Opts.LogProofs;
  Cfg.LogProofs = Opts.LogProofs;
  engine::CubeBackend &Search = Backend ? *Backend : Local;
  auto Sized = std::make_shared<const VerificationProblem>(encode(Hi));
  uint32_t Handle = Search.openProblem(Sized, Cfg);

  // Binary search for the least satisfiable weight bound; a SAT probe
  // tightens Hi to the witness's actual weight, not just the bound.
  while (Lo < Hi) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    std::unordered_map<std::string, bool> M;
    R = probe(Search, Handle, *Sized, Mid, M);
    if (R == sat::SolveResult::Aborted)
      break;
    if (R == sat::SolveResult::Sat) {
      Hi = modelWeight(M);
      Best = std::move(M);
    } else {
      Lo = Mid + 1;
    }
  }
  Search.closeProblem(Handle);
  if (R == sat::SolveResult::Aborted) {
    Result.Aborted = true;
    Result.Seconds = Clock.seconds();
    return Result;
  }
  succeed();
  return Result;
}
