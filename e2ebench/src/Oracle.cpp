//===--- Oracle.cpp - Findings replayed on the reference semantics ----------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness check does not trust the execution tier
/// under test: every reported witness is replayed on the interpreter
/// (the reference semantics) against a freshly built, un-instrumented
/// subject, and must show what its finding claims:
///
///   boundary       some comparison of the subject sees equal operands;
///   path           every required branch is visited, always in the
///                  required direction;
///   coverage-test  the input takes as many branch directions as claimed;
///   overflow       the named operation yields |a| >= DBL_MAX or NaN
///                  (Section 4.4's overflow);
///   inconsistency  status GSL_SUCCESS with a non-finite val or err;
///   sat-model      the constraint holds at the model.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analyses/BoundaryAnalysis.h"
#include "api/Subjects.h"
#include "exec/Interpreter.h"
#include "ir/Instruction.h"
#include "opt/BasinHopping.h"
#include "sat/SExprParser.h"
#include "support/Hash.h"
#include "support/RNG.h"

#include <cfloat>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>

using namespace wdm;

namespace e2e {

namespace {

/// What one replay observed in the subject function.
class Recorder : public exec::ExecObserver {
public:
  explicit Recorder(const ir::Function &F) {
    F.forEachInst([&](const ir::Instruction *I) { Own.insert(I); });
  }

  void onInstruction(const ir::Instruction *I, const exec::RTValue *Ops,
                     unsigned NumOps, const exec::RTValue &Result) override {
    if (!Own.count(I))
      return;
    if ((NumOps == 2 && I->opcode() == ir::Opcode::FCmp &&
         Ops[0].asDouble() == Ops[1].asDouble()) ||
        (NumOps == 2 && I->opcode() == ir::Opcode::ICmp &&
         Ops[0].asInt() == Ops[1].asInt()))
      EqualAt.insert(I);
    if (I->isElementaryFPArith() && Result.type() == ir::Type::Double) {
      double V = Result.asDouble();
      if (std::isnan(V) || std::fabs(V) >= DBL_MAX)
        Overflowed.insert(I);
    }
  }

  void onBranch(const ir::Instruction *CondBr, bool TakenTrue) override {
    if (!Own.count(CondBr))
      return;
    Directions.insert({CondBr, TakenTrue});
  }

  std::set<const ir::Instruction *> Own;
  std::set<const ir::Instruction *> EqualAt; ///< Comparisons a == b.
  std::set<const ir::Instruction *> Overflowed;
  std::set<std::pair<const ir::Instruction *, bool>> Directions;
};

/// A freshly built builtin subject on the interpreter.
struct Subject {
  ir::Module M{"oracle"};
  api::BuiltinSubject S;
  ir::Function *F = nullptr;
  std::unique_ptr<exec::Engine> E;
  std::unique_ptr<exec::ExecContext> Ctx;
  std::vector<const ir::Instruction *> Branches; ///< Layout order.

  exec::ExecResult run(const std::vector<double> &X, Recorder &R) {
    std::vector<exec::RTValue> Args;
    for (double V : X)
      Args.push_back(exec::RTValue::ofDouble(V));
    Ctx->resetGlobals();
    Ctx->setObserver(&R);
    exec::ExecResult Res = E->run(F, Args, *Ctx);
    Ctx->setObserver(nullptr);
    return Res;
  }
};

std::unique_ptr<Subject> buildSubject(const api::AnalysisSpec &Spec,
                                      std::string &Why) {
  if (Spec.Module.K != api::ModuleSource::Kind::Builtin) {
    Why = "the oracle replays builtin subjects only";
    return nullptr;
  }
  auto Sub = std::make_unique<Subject>();
  Expected<api::BuiltinSubject> B =
      api::buildBuiltinSubject(Sub->M, Spec.Module.Text);
  if (!B) {
    Why = B.error();
    return nullptr;
  }
  Sub->S = *B;
  Sub->F = Spec.Function.empty() ? Sub->S.F
                                 : Sub->M.functionByName(Spec.Function);
  if (!Sub->F) {
    Why = "no subject function";
    return nullptr;
  }
  Sub->E = std::make_unique<exec::Engine>(Sub->M);
  Sub->Ctx = std::make_unique<exec::ExecContext>(Sub->M);
  Sub->F->forEachInst([&](const ir::Instruction *I) {
    if (I->opcode() == ir::Opcode::CondBr)
      Sub->Branches.push_back(I);
  });
  return Sub;
}

/// Section 4.4's site text: the annotation, else "opcode %name".
std::string describe(const ir::Instruction *I) {
  if (!I->annotation().empty())
    return I->annotation();
  std::string Text = ir::opcodeInfo(I->opcode()).Name;
  if (I->hasName())
    Text += " %" + I->name();
  return Text;
}

/// Empty when \p F replays as claimed, else why not.
std::string replay(const api::AnalysisSpec &Spec, const api::Finding &F,
                   Subject *Sub) {
  if (F.Kind == "sat-model") {
    Expected<sat::CNF> C = sat::parseConstraint(Spec.Constraint);
    if (!C)
      return "constraint does not parse: " + C.error();
    return C->satisfiedBy(F.Input) ? "" : "model violates the constraint";
  }
  if (!Sub)
    return "no subject to replay on";
  if (F.Input.size() != Sub->F->numArgs())
    return "witness has the wrong arity";
  Recorder R(*Sub->F);
  exec::ExecResult Res = Sub->run(F.Input, R);

  if (F.Kind == "boundary")
    return R.EqualAt.empty() ? "no comparison sees equal operands" : "";
  if (F.Kind == "path") {
    for (const api::PathLegSpec &Leg : Spec.Path) {
      if (Leg.Branch >= Sub->Branches.size())
        return "path leg names a missing branch";
      const ir::Instruction *B = Sub->Branches[Leg.Branch];
      if (!R.Directions.count({B, Leg.Taken}) ||
          R.Directions.count({B, !Leg.Taken}))
        return "witness leaves the required path";
    }
    return "";
  }
  if (F.Kind == "coverage-test") {
    const json::Value *Dirs = F.Details.find("directions");
    size_t Claimed = Dirs ? Dirs->size() : 0;
    return Claimed == R.Directions.size() ? ""
                                          : "input takes " +
                                                std::to_string(
                                                    R.Directions.size()) +
                                                " directions, claims " +
                                                std::to_string(Claimed);
  }
  if (F.Kind == "overflow") {
    for (const ir::Instruction *I : R.Overflowed)
      if (describe(I) == F.Description)
        return "";
    return "'" + F.Description + "' does not overflow";
  }
  if (F.Kind == "inconsistency") {
    if (!Sub->S.Result.Val || !Sub->S.Result.Err)
      return "subject has no val/err slots";
    if (!Res.ok() || Res.ReturnValue.type() != ir::Type::Int)
      return "replay did not return a status";
    double Val = Sub->Ctx->getGlobal(Sub->S.Result.Val).asDouble();
    double Err = Sub->Ctx->getGlobal(Sub->S.Result.Err).asDouble();
    bool Success = Res.ReturnValue.asInt() == gsl::GSL_SUCCESS;
    return Success && (!std::isfinite(Val) || !std::isfinite(Err))
               ? ""
               : "not a success status with a non-finite result";
  }
  return "unknown finding kind '" + F.Kind + "'";
}

} // namespace

unsigned checkFindings(const std::vector<Unit> &Units,
                       std::vector<std::string> &Problems) {
  unsigned Rejected = 0;
  std::map<std::string, std::unique_ptr<Subject>> Subjects;
  for (const Unit &U : Units) {
    if (!U.Ok)
      continue;
    Subject *Sub = nullptr;
    if (U.Spec.Task != api::TaskKind::FpSat) {
      std::string Key = U.Spec.Module.Text + "#" + U.Spec.Function;
      auto It = Subjects.find(Key);
      if (It == Subjects.end()) {
        std::string Why;
        It = Subjects.emplace(Key, buildSubject(U.Spec, Why)).first;
        if (!It->second)
          Problems.push_back("oracle: " + Key + ": " + Why);
      }
      Sub = It->second.get();
    }
    for (const api::Finding &F : U.R.Findings) {
      std::string Why = replay(U.Spec, F, Sub);
      if (Why.empty())
        continue;
      ++Rejected;
      if (Problems.size() < 20)
        Problems.push_back("oracle rejects a " + F.Kind + " finding of " +
                           U.SpecText + ": " + Why);
    }
  }
  return Rejected;
}

namespace {

uint64_t extraUint(const api::Report &R, const char *Key) {
  const json::Value *V = R.Extra.find(Key);
  return V ? V->asUint() : 0;
}

/// Table 2 (Section 6.2): sample boundary value analysis on the Glibc sin
/// model as bench/table2 does (400k evals, seed 1729, every zero kept),
/// replay every zero on the oracle, and demand all eight reachable
/// conditions (four reachable comparisons x the sign of x) with no
/// unsound zero.
void sinStudyShape(std::vector<std::string> &Problems) {
  api::AnalysisSpec Spec;
  Spec.Module = api::ModuleSource::builtin("sin");
  std::string Why;
  std::unique_ptr<Subject> Oracle = buildSubject(Spec, Why);
  ir::Module M("table2");
  Expected<api::BuiltinSubject> Sin = api::buildBuiltinSubject(M, "sin");
  if (!Oracle || !Sin) {
    Problems.push_back("Table 2 shape: cannot build sin: " + Why);
    return;
  }
  std::vector<const ir::Instruction *> Cmps;
  Oracle->F->forEachInst([&](const ir::Instruction *I) {
    if (I->opcode() == ir::Opcode::FCmp || I->opcode() == ir::Opcode::ICmp)
      Cmps.push_back(I);
  });

  struct ZeroCheck : opt::SampleRecorder {
    Subject *Oracle = nullptr;
    const std::vector<const ir::Instruction *> *Cmps = nullptr;
    std::set<std::pair<size_t, bool>> Groups;
    uint64_t Samples = 0, Unsound = 0;
    void record(const std::vector<double> &X, double F) override {
      ++Samples;
      if (F != 0.0)
        return;
      Recorder R(*Oracle->F);
      Oracle->run(X, R);
      Unsound += R.EqualAt.empty();
      for (const ir::Instruction *I : R.EqualAt)
        for (size_t K = 0; K < Cmps->size(); ++K)
          if ((*Cmps)[K] == I)
            Groups.insert({K, !std::signbit(X[0])});
    }
  } Check;
  Check.Oracle = Oracle.get();
  Check.Cmps = &Cmps;

  analyses::BoundaryAnalysis BVA(M, *Sin->F);
  std::unique_ptr<core::WeakDistance> W = BVA.factory().make();
  opt::BasinHopping Backend;
  opt::MinimizeOptions MinOpts;
  MinOpts.StopAtTarget = false; // Every zero, not one witness.
  const uint64_t Budget = 400000;
  RNG Rand(1729);
  while (Check.Samples < Budget) {
    opt::Objective Obj([&](const std::vector<double> &X) { return (*W)(X); },
                       1);
    Obj.MaxEvals = std::min<uint64_t>(6000, Budget - Check.Samples);
    Obj.StopAtTarget = false;
    Obj.setRecorder(&Check);
    std::vector<double> Start{Rand.chance(0.5) ? Rand.anyFiniteDouble()
                                               : Rand.uniform(-10, 10)};
    RNG Child = Rand.split();
    Backend.minimize(Obj, Start, Child, MinOpts);
  }
  if (Check.Unsound)
    Problems.push_back("Table 2 shape: " + std::to_string(Check.Unsound) +
                       " sin boundary values fail the oracle");
  if (Check.Groups.size() < 8)
    Problems.push_back("Table 2 shape: " +
                       std::to_string(Check.Groups.size()) +
                       " of the 8 reachable sin conditions hit");
}

} // namespace

void checkPaperShapes(const std::string &Workload,
                      const std::vector<Unit> &Units,
                      std::vector<std::string> &Problems) {
  if (Workload == "gsl_study") {
    // Table 3: airy carries both confirmed bugs in every inconsistency
    // run; across the study, bessel overflows almost everywhere (at >= 18
    // of its 23 operations, the bar bench/table3 sets).
    std::set<std::string> BesselSites;
    for (const Unit &U : Units) {
      if (!U.Ok)
        continue;
      const std::string &Subj = U.Spec.Module.Text;
      if (Subj == "airy" && U.Spec.Task == api::TaskKind::Inconsistency &&
          extraUint(U.R, "bugs") != 2)
        Problems.push_back("Table 3 shape: airy carries " +
                           std::to_string(extraUint(U.R, "bugs")) +
                           " bugs, not 2 (" + U.SpecText + ")");
      if (Subj == "bessel")
        for (const api::Finding &F : U.R.Findings)
          if (F.Kind == "overflow")
            BesselSites.insert(std::to_string(F.SiteId));
    }
    if (BesselSites.size() < 18)
      Problems.push_back("Table 3 shape: bessel overflows at " +
                         std::to_string(BesselSites.size()) +
                         " operations, fewer than 18");
  }
  if (Workload == "spec_mix") {
    for (const Unit &U : Units)
      if (U.Ok && U.Spec.Task == api::TaskKind::Boundary &&
          U.Spec.Module.Text == "sin" && !U.R.Success)
        Problems.push_back("Table 2 shape: no sin boundary found by " +
                           U.SpecText);
    sinStudyShape(Problems);
  }
}

std::string reportDigest(const std::vector<Unit> &Units) {
  std::string All;
  for (const Unit &U : Units) {
    All += U.Ok ? api::deterministicReportJson(U.R.toJson()).dump()
                : "error: " + U.Error;
    All += '\n';
  }
  return fnv1a64Hex(All);
}

bool oracleRejectsTampering(const std::vector<Unit> &Units,
                            std::string &Why) {
  // Flip one bit of one witness: the lowest mantissa bit of a boundary
  // witness (exact equality cannot survive it), else the top exponent
  // bit of any witness.
  std::vector<Unit> Flipped = Units;
  bool Done = false;
  for (int Pass = 0; Pass < 2 && !Done; ++Pass)
    for (Unit &U : Flipped)
      for (api::Finding &F : U.R.Findings)
        if (!Done && !F.Input.empty() &&
            (Pass == 1 || F.Kind == "boundary")) {
          uint64_t Bits;
          std::memcpy(&Bits, &F.Input[0], sizeof Bits);
          Bits ^= Pass == 0 ? 1ull : (1ull << 62);
          std::memcpy(&F.Input[0], &Bits, sizeof Bits);
          Done = true;
        }
  if (!Done) {
    Why = "no witness to tamper with";
    return false;
  }
  std::vector<std::string> Ignored;
  if (checkFindings(Flipped, Ignored) == 0) {
    Why = "the oracle accepts a witness with a flipped bit";
    return false;
  }

  // Drop one finding: the replay cannot see it, the digest must.
  std::vector<Unit> Dropped = Units;
  for (Unit &U : Dropped)
    if (!U.R.Findings.empty()) {
      U.R.Findings.pop_back();
      break;
    }
  if (reportDigest(Dropped) == reportDigest(Units)) {
    Why = "the report digest misses a dropped finding";
    return false;
  }
  return true;
}

} // namespace e2e
