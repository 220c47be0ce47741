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

#include "dist/Coordinator.h"
#include "engine/VerificationEngine.h"
#include "proof/ProofLog.h"
#include "support/Timer.h"

#include <algorithm>
#include <optional>

using namespace veriqec;
using namespace veriqec::smt;

namespace {

/// Picks the engine for a call: the process-wide pool unless the caller
/// asked for a specific different width.
template <typename Fn> auto onEngine(const VerifyOptions &Opts, Fn &&F) {
  engine::VerificationEngine &Shared = engine::VerificationEngine::shared();
  if (!Opts.Parallel || Opts.Threads == 0 ||
      Opts.Threads == Shared.numWorkers())
    return F(Shared);
  engine::VerificationEngine Local(Opts.Threads);
  return F(Local);
}

} // namespace

VerificationResult veriqec::verifyScenario(const Scenario &S,
                                           const VerifyOptions &Opts) {
  return onEngine(Opts, [&](engine::VerificationEngine &E) {
    return E.verify(S, Opts);
  });
}

std::vector<VerificationResult>
veriqec::verifyAll(std::span<const Scenario> Scenarios,
                   const VerifyOptions &Opts) {
  return onEngine(Opts, [&](engine::VerificationEngine &E) {
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
  SolveOutcome Outcome;
  ExprRef Root = Ctx.mkAnd(std::move(Cs));
  if (Opts.Parallel) {
    SO.NumThreads = Opts.Threads;
    for (size_t Q = 0; Q != N; ++Q)
      SO.SplitVars.push_back("x" + std::to_string(Q));
    SO.DistanceHint = static_cast<uint32_t>(
        Code.Distance ? Code.Distance : MaxWeight + 1);
    // Same budget-exhaustion cutoff as the engine's scenario path.
    uint32_t Auto = static_cast<uint32_t>(std::min<uint64_t>(
        N, 2ull * SO.DistanceHint * MaxWeight + 4));
    SO.AutoSplitThreshold = Opts.SplitThreshold == 0;
    SO.SplitThreshold = Opts.SplitThreshold ? Opts.SplitThreshold : Auto;
    SO.MaxOnes = static_cast<uint32_t>(MaxWeight);
    Outcome = solveExprParallel(Ctx, Root, SO);
  } else {
    Outcome = solveExpr(Ctx, Root, SO);
  }

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
                                        dist::Coordinator *Remote) {
  DistanceResult Result;
  Timer Clock;
  size_t N = Code.NumQubits;
  if (Code.NumLogical == 0) {
    Result.Error = "code has no logical qubits";
    return Result;
  }

  UndetectableLogicalVc D;
  buildUndetectableLogicalVc(Code, D, Family);

  // Encode once: the parity system plus the logical-action residue, with
  // the per-qubit supports feeding the assumption-activated weight layer.
  // Every probe of the search is then a pure assumption change on one
  // solver, which keeps all learnt clauses live across bounds.
  ProblemOptions PO;
  PO.CardEnc = CardinalityEncoding::SequentialCounter;
  PO.Preprocess = Opts.Preprocess;
  // Auto resolves to ON here: the undetectable-logical system is almost
  // pure parity, exactly the Gauss engine's home turf (the LDPC rows of
  // the registry are intractable without it — see BENCH_table3.json).
  PO.NativeXor = Opts.Xor != XorMode::Off;
  PO.BudgetTerms = D.Support;
  PO.CaptureProofData = Opts.LogProofs;
  VerificationProblem Problem(D.Ctx, D.Ctx.mkAnd(D.Constraints), PO);
  Result.Prep = Problem.Prep;
  Result.CnfVars = Problem.Cnf.NumVars;
  Result.CnfClauses = Problem.Cnf.Clauses.size();
  Result.XorRows = Problem.XorRows.size();
  if (Problem.TriviallyUnsat) {
    Result.Error = "undetectable-logical system is inconsistent";
    Result.Seconds = Clock.seconds();
    return Result;
  }

  // One probe = one solve under "1 <= weight <= MaxW" assumptions, on a
  // persistent solver: locally the reused sat::Solver, remotely the
  // fleet's slot solver behind an open problem handle (the assumptions
  // ride inside a one-cube batch). Either way learnt clauses survive
  // across bounds.
  proof::SlotProofLog DistLog; // declared before Local: the solver keeps
                               // a raw pointer to it until destruction
  uint64_t UnsatProbes = 0;
  std::optional<sat::Solver> Local;
  std::shared_ptr<smt::VerificationProblem> Shipped;
  uint32_t Handle = 0;
  if (Remote) {
    Shipped = std::make_shared<smt::VerificationProblem>(std::move(Problem));
    engine::CubeRunConfig Cfg;
    Cfg.ConflictBudget = Opts.ConflictBudget;
    Cfg.RandomSeed = Opts.RandomSeed;
    Cfg.LogProofs = Opts.LogProofs;
    Handle = Remote->openProblem(Shipped, Cfg);
  } else {
    Local.emplace(Problem.makeSolver());
    if (Opts.LogProofs)
      Local->setProofSink(&DistLog);
    if (Opts.ConflictBudget)
      Local->setConflictBudget(Opts.ConflictBudget);
    if (Opts.RandomSeed)
      Local->setRandomSeed(Opts.RandomSeed);
  }
  const smt::VerificationProblem &Prob = Remote ? *Shipped : Problem;
  auto probe = [&](size_t MaxW,
                   std::unordered_map<std::string, bool> &Model) {
    std::vector<sat::Lit> Assumptions;
    Prob.appendWeightAssumptions(static_cast<uint32_t>(MaxW), Assumptions,
                                 1);
    ++Result.SolverCalls;
    if (Remote) {
      smt::SolveOutcome O =
          Remote->solveCubes(Handle, {std::move(Assumptions)});
      // Per-call statistics deltas accumulate into the search total.
      Result.Stats += O.Stats;
      if (O.Result == sat::SolveResult::Unsat && !O.Proof.empty())
        // Streams are cumulative across probes (the remote slot solvers
        // persist), so the LAST UNSAT probe's certificate covers every
        // earlier one too.
        Result.Proof = std::move(O.Proof);
      if (O.Result == sat::SolveResult::Sat)
        Model = std::move(O.Model);
      return O.Result;
    }
    sat::SolveResult R = Local->solve(Assumptions);
    if (R == sat::SolveResult::Unsat && Opts.LogProofs) {
      DistLog.logConclusion(Local->conflictCore(), Assumptions,
                            Local->conflictCoreHints());
      ++UnsatProbes;
    }
    if (R == sat::SolveResult::Sat)
      Prob.readModel(*Local, Model);
    return R;
  };

  auto modelWeight = [&](const std::unordered_map<std::string, bool> &M) {
    size_t W = 0;
    for (size_t Q = 0; Q != N; ++Q)
      W += modelBit(M, "x" + std::to_string(Q)) ||
           modelBit(M, "z" + std::to_string(Q));
    return W;
  };
  auto finish = [&](sat::SolveResult R) {
    if (!Remote) {
      Result.Stats = Local->stats();
      if (Opts.LogProofs) {
        // One persistent solver = one stream; every UNSAT probe's
        // assumption set is a distinct concluded cube (distinct bounds
        // select distinct counter literals).
        const std::string Streams[] = {DistLog.drain()};
        Result.Proof = proof::assembleProof(
            proof::buildProofHeader(Prob, /*HardenBudget=*/false, 0),
            Streams, UnsatProbes);
      }
    } else {
      Remote->closeProblem(Handle);
    }
    Result.Aborted = R == sat::SolveResult::Aborted;
    Result.Seconds = Clock.seconds();
  };

  // Existence probe (weight >= 1, unbounded above): every code with a
  // logical qubit has an undetectable logical operator of weight <= n.
  std::unordered_map<std::string, bool> Best;
  sat::SolveResult R = probe(N, Best);
  if (R != sat::SolveResult::Sat) {
    finish(R);
    if (!Result.Aborted)
      Result.Error = "no undetectable logical operator exists";
    return Result;
  }
  size_t Lo = 1, Hi = modelWeight(Best);

  // Binary search for the least satisfiable weight bound; a SAT probe
  // tightens Hi to the witness's actual weight, not just the bound.
  while (Lo < Hi) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    std::unordered_map<std::string, bool> M;
    R = probe(Mid, M);
    if (R == sat::SolveResult::Aborted) {
      finish(R);
      return Result;
    }
    if (R == sat::SolveResult::Sat) {
      Hi = modelWeight(M);
      Best = std::move(M);
    } else {
      Lo = Mid + 1;
    }
  }

  Result.Distance = Lo;
  Result.Witness = pauliFromModel(Best, N);
  Result.Ok = true;
  finish(R);
  return Result;
}
