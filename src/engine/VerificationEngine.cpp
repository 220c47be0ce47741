//===- engine/VerificationEngine.cpp - Batch scenario verification ---------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "engine/VerificationEngine.h"

#include "obs/Trace.h"
#include "support/Timer.h"
#include "vcgen/SymbolicFlow.h"

#include <algorithm>

using namespace veriqec;
using namespace veriqec::engine;
using namespace veriqec::smt;

namespace {

/// Scenario VC under construction: the BoolContext must outlive the SAT
/// discharge, so it lives here rather than on the stack of a helper.
struct PreparedScenario {
  BoolContext Ctx;
  BuiltVc Vc;
  VerificationResult Result;
  double BuildSeconds = 0;
};

/// Steps 1-2 of the pipeline: symbolic execution and VC assembly.
void prepareScenario(const Scenario &S, const VerifyOptions &Opts,
                     PreparedScenario &P) {
  obs::TraceSpan Span("scenario_build", {{"qubits", S.NumQubits}});
  Timer Clock;
  P.Vc = buildScenarioVc(P.Ctx, S, Opts);
  if (!P.Vc.Ok) {
    P.Result.Error = P.Vc.Error;
    P.BuildSeconds = Clock.seconds();
    return;
  }
  P.Result.StructuralOk = true;
  P.Result.NumGoals = P.Vc.NumGoals;
  P.BuildSeconds = Clock.seconds();
}

/// Discharge configuration for one scenario (the ET split heuristic's
/// parameters come from the scenario's error structure).
SolveOptions makeSolveOptions(const Scenario &S, const VerifyOptions &Opts) {
  SolveOptions SO;
  SO.CardEnc = Opts.CardEnc;
  SO.Preprocess = Opts.Preprocess;
  SO.Xor = Opts.Xor;
  SO.ConflictBudget = Opts.ConflictBudget;
  SO.RandomSeed = Opts.RandomSeed;
  SO.LogProofs = Opts.LogProofs;
  if (Opts.Parallel && !S.ErrorVars.empty()) {
    // An auto threshold is an upper bound: the backend stops the cube
    // tree lower once it has ~8x its total slots in leaves
    // (prepareCubeProblem).
    SO.AutoSplitThreshold = Opts.SplitThreshold == 0;
    SO.SplitVars = S.ErrorVars;
    SO.DistanceHint = std::max<uint32_t>(
        2, S.MaxErrors == ~uint32_t{0} ? 2 : 2 * S.MaxErrors + 1);
    SO.SplitThreshold = Opts.SplitThreshold
                            ? Opts.SplitThreshold
                            : autoSplitThreshold(S.NumQubits,
                                                 SO.DistanceHint,
                                                 S.MaxErrors);
    SO.MaxOnes = S.MaxErrors;
  }
  return SO;
}

void applyOutcome(SolveOutcome &&Outcome, PreparedScenario &P) {
  P.Result.Stats = Outcome.Stats;
  P.Result.NumCubes = Outcome.NumCubes;
  P.Result.CubesSolved = Outcome.CubesSolved;
  P.Result.Prep = Outcome.Prep;
  P.Result.CnfVars = Outcome.CnfVars;
  P.Result.CnfClauses = Outcome.CnfClauses;
  P.Result.SplitThresholdUsed = Outcome.SplitThresholdUsed;
  P.Result.Verified = Outcome.Result == sat::SolveResult::Unsat;
  P.Result.Aborted = Outcome.Result == sat::SolveResult::Aborted;
  if (Outcome.Result == sat::SolveResult::Sat)
    P.Result.CounterExample = std::move(Outcome.Model);
  P.Result.Proof = std::move(Outcome.Proof);
  P.Result.Seconds = P.BuildSeconds + Outcome.SolveSeconds;
}

} // namespace

BuiltVc veriqec::engine::buildScenarioVc(BoolContext &Ctx, const Scenario &S,
                                         const VerifyOptions &Opts) {
  obs::TraceSpan Span("vc_gen", {{"qubits", S.NumQubits}});
  SymbolicFlow Flow(S.NumQubits);
  for (const GenSpec &G : S.Pre) {
    PhaseExpr Phase(G.PhaseConstant);
    if (!G.PhaseVar.empty())
      Phase.xorVar(Flow.vars().id(G.PhaseVar));
    Flow.addInitialGenerator(G.Base, Phase);
  }
  FlowResult FR = Flow.run(S.Program);
  if (!FR.Ok) {
    BuiltVc Out;
    Out.Error = "symbolic flow: " + FR.Error;
    return Out;
  }

  VcSpec Spec;
  Spec.Vars = &Flow.vars();
  Spec.Flow = std::move(FR);
  for (const GenSpec &G : S.Post) {
    PhaseExpr Phase(G.PhaseConstant);
    if (!G.PhaseVar.empty())
      Phase.xorVar(Flow.vars().id(G.PhaseVar));
    Spec.Targets.push_back({G.Base, std::move(Phase)});
  }
  Spec.ErrorVars = S.ErrorVars;
  Spec.MaxTotalErrors = S.MaxErrors;
  Spec.ParityConstraints = S.Parity;
  Spec.WeightConstraints = S.Weights;
  Spec.ExtraConstraint = Opts.ExtraConstraint;

  BuiltVc Vc = buildVc(Ctx, Spec);
  if (!Vc.Ok)
    Vc.Error = "vc assembly: " + Vc.Error;
  return Vc;
}

VerificationResult VerificationEngine::verify(const Scenario &S,
                                              const VerifyOptions &Opts) {
  return verifyAll({&S, 1}, Opts).front();
}

std::vector<VerificationResult>
VerificationEngine::verifyAll(std::span<const Scenario> Scenarios,
                              const VerifyOptions &Opts) {
  return verifyAll(Scenarios, Opts, Cubes);
}

std::vector<VerificationResult>
VerificationEngine::verifyAll(std::span<const Scenario> Scenarios,
                              const VerifyOptions &Opts,
                              CubeBackend &Backend) {
  // VC assembly is pure per scenario; build them all first (cheap next to
  // SAT), then hand every structurally-sound VC to the cube scheduler in
  // one batch so all cubes share the pool.
  std::vector<PreparedScenario> Prepared(Scenarios.size());
  for (size_t I = 0; I != Scenarios.size(); ++I)
    prepareScenario(Scenarios[I], Opts, Prepared[I]);

  std::vector<CubeProblem> Problems;
  std::vector<size_t> ProblemOf; // index into Prepared
  for (size_t I = 0; I != Scenarios.size(); ++I) {
    if (!Prepared[I].Result.StructuralOk)
      continue;
    CubeProblem P;
    P.Ctx = &Prepared[I].Ctx;
    P.Opts = makeSolveOptions(Scenarios[I], Opts);
    // Encode-once, assume-many: with the sequential-counter encoding the
    // error budget is not baked into the CNF — the weight layer enforces
    // it by assumptions, so the encoding is bound-independent. The
    // pairwise ablation encoding keeps the legacy baked atom (its whole
    // point is to encode the cardinality differently).
    const BuiltVc &Vc = Prepared[I].Vc;
    if (!Vc.BudgetVars.empty() &&
        Opts.CardEnc == CardinalityEncoding::SequentialCounter) {
      P.Root = Vc.NegatedVcBase;
      P.Opts.BudgetVars = Vc.BudgetVars;
      P.Opts.BudgetBound = Vc.BudgetBound;
    } else {
      P.Root = Vc.NegatedVc;
    }
    Problems.push_back(P);
    ProblemOf.push_back(I);
  }

  std::vector<SolveOutcome> Outcomes = Backend.solveAll(Problems);
  for (size_t J = 0; J != Outcomes.size(); ++J)
    applyOutcome(std::move(Outcomes[J]), Prepared[ProblemOf[J]]);

  std::vector<VerificationResult> Results;
  Results.reserve(Scenarios.size());
  for (PreparedScenario &P : Prepared) {
    if (!P.Result.StructuralOk)
      P.Result.Seconds = P.BuildSeconds;
    Results.push_back(std::move(P.Result));
  }
  return Results;
}

VerificationEngine &VerificationEngine::shared() {
  static VerificationEngine Engine;
  return Engine;
}
