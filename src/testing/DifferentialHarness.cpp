//===- testing/DifferentialHarness.cpp - Cross-engine differential ---------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "testing/DifferentialHarness.h"

#include "decoder/Decoder.h"
#include "dist/Coordinator.h"
#include "dist/Transport.h"
#include "dist/Worker.h"
#include "engine/CubeEngine.h"
#include "engine/VerificationEngine.h"
#include "proof/ProofCheck.h"
#include "proof/ProofLog.h"
#include "sim/SamplingTester.h"
#include "support/Timer.h"
#include "testing/BruteForceOracle.h"
#include "testing/ModelChecker.h"

#include <thread>

using namespace veriqec;
using namespace veriqec::testing;
using namespace veriqec::smt;

namespace {

char verdictOf(const VerificationResult &R) {
  if (!R.StructuralOk)
    return 'E';
  if (R.Aborted)
    return 'A';
  return R.Verified ? 'V' : 'F';
}

/// Validates one SAT model at both the Boolean and the tableau level.
void validateModel(const FuzzCase &C, const VerifyOptions &VO,
                   const std::string &Config,
                   const std::unordered_map<std::string, bool> &Model,
                   CaseReport &Report) {
  BoolContext Ctx;
  BuiltVc Vc = engine::buildScenarioVc(Ctx, C.Scn, VO);
  if (!Vc.Ok) {
    Report.Discrepancies.push_back(Config + ": VC rebuild failed: " +
                                   Vc.Error);
    return;
  }
  ModelCheckResult MC = evaluateUnderModel(Ctx, Vc.NegatedVc, Model);
  if (MC.MissingVars)
    Report.Discrepancies.push_back(
        Config + ": model misses " + std::to_string(MC.MissingVars) +
        " context variables");
  if (!MC.Satisfies)
    Report.Discrepancies.push_back(
        Config + ": model does not satisfy the negated VC "
                 "(encoder or solver certificate bug)");
  CertificateCheck CC =
      replayCounterExample(C.Scn, Model, C.Constraint.predicate(C.Scn));
  if (!CC.Genuine)
    Report.Discrepancies.push_back(Config + ": counterexample replay: " +
                                   CC.Why);
}

/// The proof oracle (HarnessOptions::CheckProofs): every verified
/// verdict must come with a clause proof the independent checker
/// accepts. Rejected proofs are kept verbatim for artifact dumping.
void checkProofOracle(const std::string &Config, const std::string &Proof,
                      CaseReport &Report) {
  if (Proof.empty()) {
    Report.Discrepancies.push_back(Config +
                                   ": verified verdict carries no proof");
    return;
  }
  proof::CheckResult CR = proof::checkProof(Proof);
  if (!CR.Ok) {
    Report.Discrepancies.push_back(Config + ": proof rejected: " + CR.Error);
    Report.RejectedProofs.emplace_back(Config, Proof);
    return;
  }
  ++Report.ProofsChecked;
}

/// The harness's own cube discharge: one reused solver (from the
/// injectable factory) walks the ET cube enumeration under assumptions —
/// the exact reuse pattern that exposed the PR 1 soundness bug — with
/// each UNSAT cube optionally re-solved by a fresh baseline solver.
ConfigVerdict runDirectReuse(const FuzzCase &C, const VerifyOptions &VO,
                             const HarnessOptions &O, CaseReport &Report) {
  ConfigVerdict Out;
  Out.Name = "cube-reuse-direct";
  BoolContext Ctx;
  BuiltVc Vc = engine::buildScenarioVc(Ctx, C.Scn, VO);
  if (!Vc.Ok) {
    Out.Verdict = 'E';
    Out.Detail = Vc.Error;
    return Out;
  }
  // Preprocessing and native XOR stay ON here: the reused solver then
  // exercises model reconstruction (eliminated-variable read-back) AND
  // the Gauss engine under the exact assumption-reuse pattern the
  // engine runs — this is the configuration through which a corrupted
  // XOR reason (the injectable solver's seam) must be caught — while
  // the split variables are pinned so the cube literals cannot dangle.
  ProblemOptions PO;
  PO.Preprocess = true;
  PO.NativeXor = true;
  PO.ProtectedVars = C.Scn.ErrorVars;
  // The proof header replays the preprocessor's GF(2) bridge, which
  // needs the original rows captured at encode time.
  PO.CaptureProofData = O.CheckProofs;
  VerificationProblem Enc(Ctx, Vc.NegatedVc, PO);
  if (Enc.TriviallyUnsat) {
    if (O.CheckProofs)
      checkProofOracle(Out.Name, proof::buildTrivialProof(Enc), Report);
    Out.Verdict = 'V';
    return Out;
  }
  std::vector<sat::Var> SplitVars;
  for (const std::string &Name : C.Scn.ErrorVars)
    SplitVars.push_back(Enc.varOfName(Name));
  uint32_t Dist = std::max<uint32_t>(
      2, C.Scn.MaxErrors == ~uint32_t{0} ? 2 : 2 * C.Scn.MaxErrors + 1);
  std::vector<std::vector<sat::Lit>> Cubes = engine::enumerateCubes(
      SplitVars, Dist, static_cast<uint32_t>(C.Scn.NumQubits),
      C.Scn.MaxErrors);

  // The proof sink must outlive the solver holding the raw pointer.
  proof::SlotProofLog Log;
  std::unique_ptr<sat::Solver> Reused =
      O.SolverFactory ? O.SolverFactory() : std::make_unique<sat::Solver>();
  Enc.loadInto(*Reused);
  if (O.RandomSeed)
    Reused->setRandomSeed(O.RandomSeed);
  if (O.CheckProofs)
    Reused->setProofSink(&Log);

  bool Recheck = O.RecheckUnsatCubes && Cubes.size() <= O.MaxCubesRecheck;
  for (size_t I = 0; I != Cubes.size(); ++I) {
    sat::SolveResult R = Reused->solve(Cubes[I]);
    if (R == sat::SolveResult::Sat) {
      std::unordered_map<std::string, bool> Model;
      Enc.readModel(*Reused, Model);
      validateModel(C, VO, Out.Name, Model, Report);
      Out.Verdict = 'F';
      return Out;
    }
    if (R == sat::SolveResult::Aborted) {
      Out.Verdict = 'A';
      return Out;
    }
    if (O.CheckProofs)
      Log.logConclusion(Reused->conflictCore(), Cubes[I],
                        Reused->conflictCoreHints());
    if (Recheck) {
      sat::Solver Fresh = Enc.makeSolver();
      if (Fresh.solve(Cubes[I]) == sat::SolveResult::Sat) {
        Report.Discrepancies.push_back(
            Out.Name + ": cube #" + std::to_string(I) +
            " flipped SAT -> UNSAT under solver reuse "
            "(assumption-handling soundness bug)");
        std::unordered_map<std::string, bool> Model;
        Enc.readModel(Fresh, Model);
        validateModel(C, VO, Out.Name + "(fresh)", Model, Report);
        Out.Verdict = 'F';
        return Out;
      }
    }
  }
  // The proof oracle on the direct-reuse stream: this is the
  // configuration that runs the injectable (possibly planted-buggy)
  // solver, so a corrupted derivation — e.g. an under-justified XOR
  // reason from the corruptXorReasonClause seam — surfaces here as a
  // rejected addition even when every verdict agrees. The certificate
  // follows the engine's rule, cube-tree trailer included.
  if (O.CheckProofs) {
    const std::string Streams[] = {Log.drain()};
    checkProofOracle(Out.Name,
                     engine::assembleCertificate(Enc, engine::CubeRunConfig{},
                                                 {}, Streams, Cubes),
                     Report);
  }
  Out.Verdict = 'V';
  return Out;
}

} // namespace

CaseReport veriqec::testing::runDifferential(const FuzzCase &C,
                                             const HarnessOptions &O) {
  CaseReport Report;
  Report.Seed = C.Seed;
  Report.Description = C.describe();
  Timer Clock;

  VerifyOptions Base;
  Base.RandomSeed = O.RandomSeed;
  Base.ExtraConstraint = C.Constraint.builder(C.Scn);
  Base.LogProofs = O.CheckProofs;

  struct EngineConfig {
    std::string Name;
    VerifyOptions Opts;
  };
  std::vector<EngineConfig> Configs;
  Configs.push_back({"sequential", Base});
  {
    // The legacy monolithic-Tseitin pipeline: no GF(2) preprocessing, no
    // weight layer. Everything downstream cross-checks verdicts and
    // reconstructed counterexample models against this path.
    VerifyOptions VO = Base;
    VO.Preprocess = false;
    Configs.push_back({"seq-noprep", VO});
  }
  {
    // Native XOR on (scenario workloads resolve XorMode::Auto to off,
    // so this is the explicit A/B side): the Gauss-in-the-loop engine
    // (reason clauses, conflict analysis integration, elimination
    // pruning) is cross-checked against the plain-CNF pipeline on
    // every case.
    VerifyOptions VO = Base;
    VO.Xor = XorMode::On;
    Configs.push_back({"seq-xor", VO});
  }
  {
    VerifyOptions VO = Base;
    VO.Parallel = true;
    VO.Threads = 1;
    Configs.push_back({"cube-j1", VO});
  }
  {
    VerifyOptions VO = Base;
    VO.Parallel = true;
    VO.Threads = 1;
    VO.Xor = XorMode::On;
    Configs.push_back({"cube-j1-xor", VO});
  }
  {
    VerifyOptions VO = Base;
    VO.Parallel = true;
    VO.Threads = 1;
    VO.Preprocess = false;
    Configs.push_back({"cube-j1-noprep", VO});
  }
  if (O.Jobs > 1) {
    VerifyOptions VO = Base;
    VO.Parallel = true;
    VO.Threads = O.Jobs;
    Configs.push_back({"cube-j" + std::to_string(O.Jobs), VO});
  }
  {
    VerifyOptions VO = Base;
    VO.Parallel = true;
    VO.Threads = 2;
    VO.SplitThreshold = static_cast<uint32_t>(2 * C.Scn.NumQubits);
    Configs.push_back({"cube-deep-split", VO});
  }
  // The pairwise encoding is O(n^(k+1)); only sane on small instances.
  if (C.Scn.ErrorVars.size() <= 24 && C.Scn.MaxErrors <= 2) {
    VerifyOptions VO = Base;
    VO.CardEnc = CardinalityEncoding::PairwiseNaive;
    Configs.push_back({"seq-pairwise", VO});
  }

  for (const EngineConfig &Cfg : Configs) {
    VerificationResult R = verifyScenario(C.Scn, Cfg.Opts);
    ConfigVerdict V;
    V.Name = Cfg.Name;
    V.Verdict = verdictOf(R);
    V.Detail = R.Error;
    if (V.Verdict == 'F' && !R.CounterExample.empty())
      validateModel(C, Cfg.Opts, Cfg.Name, R.CounterExample, Report);
    if (V.Verdict == 'V' && O.CheckProofs)
      checkProofOracle(Cfg.Name, R.Proof, Report);
    Report.Verdicts.push_back(std::move(V));
  }

  // Distributed loopback: the identical scenario through the wire codec
  // and the coordinator's sharding/broadcast scheduler. Counterexample
  // models crossed the wire (read back worker-side, reconstruction
  // included), so the model validation below checks the codec too.
  if (O.DistWorkers) {
    ConfigVerdict V;
    V.Name = "dist-loopback";
    dist::Coordinator Coord;
    std::vector<std::thread> Threads =
        dist::spawnLoopbackWorkers(Coord, O.DistWorkers);
    if (!Coord.waitForWorkers(O.DistWorkers, 10000)) {
      V.Verdict = 'E';
      V.Detail = "loopback workers failed to register";
    } else {
      VerifyOptions VO = Base;
      VO.Parallel = true;
      engine::VerificationEngine Prep(1);
      VerificationResult R = Prep.verifyAll({&C.Scn, 1}, VO, Coord)[0];
      V.Verdict = verdictOf(R);
      V.Detail = R.Error;
      if (V.Verdict == 'F' && !R.CounterExample.empty())
        validateModel(C, VO, V.Name, R.CounterExample, Report);
      if (V.Verdict == 'V' && O.CheckProofs)
        checkProofOracle(V.Name, R.Proof, Report);
    }
    Coord.shutdownWorkers();
    for (std::thread &T : Threads)
      T.join();
    Report.Verdicts.push_back(std::move(V));
  }

  Report.Verdicts.push_back(runDirectReuse(C, Base, O, Report));

  // Verdict consensus across every configuration.
  Report.Consensus = Report.Verdicts.front().Verdict;
  for (const ConfigVerdict &V : Report.Verdicts)
    if (V.Verdict != Report.Consensus) {
      std::string Disagreement = "verdicts disagree:";
      for (const ConfigVerdict &W : Report.Verdicts) {
        Disagreement += " " + W.Name + "=";
        Disagreement += W.Verdict;
      }
      Report.Discrepancies.push_back(std::move(Disagreement));
      Report.Consensus = '?';
      break;
    }

  // Brute-force oracle on small instances.
  if (Report.Consensus == 'V' || Report.Consensus == 'F') {
    uint64_t Estimate = bruteForceWorkEstimate(C.Scn);
    if (Estimate <= O.BruteBudget) {
      OracleOptions OO;
      OO.WorkBudget = O.BruteBudget;
      OO.Extra = C.Constraint.predicate(C.Scn);
      OracleResult Oracle = bruteForceVerify(C.Scn, OO);
      Report.BruteExecutions = Oracle.Executions;
      if (Oracle.Status == OracleStatus::Verified ||
          Oracle.Status == OracleStatus::CounterExample) {
        Report.BruteRan = true;
        char OracleVerdict =
            Oracle.Status == OracleStatus::Verified ? 'V' : 'F';
        if (OracleVerdict != Report.Consensus)
          Report.Discrepancies.push_back(
              std::string("brute-force oracle says ") + OracleVerdict +
              " but engines agreed on " + Report.Consensus);
      }
    }
  }

  // Sampling refuter: a verified memory scenario must survive random
  // trials against a concrete (contract-conforming) minimum-weight
  // decoder.
  if (Report.Consensus == 'V' && C.Shape == FuzzShape::Memory &&
      C.Constraint.K == ConstraintSpec::Kind::None && O.SamplingTrials) {
    LookupDecoder Dec(C.Code, C.MaxErrors);
    Rng R(C.Seed ^ 0x5a5a5a5a5a5a5a5aull);
    SamplingOptions SO;
    SO.OnlyKind = C.ErrorKind;
    SO.XBasis = C.Basis == LogicalBasis::X;
    SamplingReport SR = sampleMemoryCorrection(
        C.Code, Dec, C.MaxErrors, O.SamplingTrials, R, SO);
    Report.SamplingRan = true;
    if (SR.Failures)
      Report.Discrepancies.push_back(
          "sampling refuted the verified verdict (" +
          std::to_string(SR.Failures) + "/" + std::to_string(SR.Samples) +
          " trials hit a logical error)");
  }

  Report.Seconds = Clock.seconds();
  return Report;
}
