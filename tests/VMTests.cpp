//===--- VMTests.cpp - Compiled tiers vs interpreter equivalence ----------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The compiled tiers' contract is *bit-for-bit* agreement with the
// interpreter: same return values, same step counts, same traps, same
// branch traces, same global/site end states — on every builtin subject
// and on randomly generated modules, under every rounding mode and
// budget. The differential harness runs every available tier (the VM
// always, the JIT on hosts that have it) against the interpreter
// reference; these tests are the contract's enforcement.
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"
#include "analyses/OverflowDetector.h"
#include "api/Subjects.h"
#include "gsl/Bessel.h"
#include "instrument/Observers.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "jit/JITCompile.h"
#include "jit/JITWeakDistance.h"
#include "obs/Telemetry.h"
#include "opt/BasinHopping.h"
#include "opt/DifferentialEvolution.h"
#include "opt/RandomSearch.h"
#include "subjects/SinModel.h"
#include "support/FPUtils.h"
#include "support/RNG.h"
#include "vm/Lowering.h"
#include "vm/Machine.h"
#include "vm/VMWeakDistance.h"
#include "vm/Verify.h"

#include "RandomModule.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

using namespace wdm;

namespace {

//===----------------------------------------------------------------------===//
// Differential harness
//===----------------------------------------------------------------------===//

std::vector<uint64_t> globalBits(const exec::ExecContext &Ctx,
                                 const ir::Module &M) {
  std::vector<uint64_t> Bits;
  for (size_t I = 0; I < M.numGlobals(); ++I) {
    exec::RTValue V = Ctx.getGlobal(M.global(I));
    if (V.type() == ir::Type::Double)
      Bits.push_back(bitsOf(V.asDouble()));
    else
      Bits.push_back(static_cast<uint64_t>(V.asInt()));
  }
  return Bits;
}

void expectSameResult(const exec::ExecResult &I, const exec::ExecResult &V,
                      const std::string &Ctx) {
  EXPECT_EQ(static_cast<int>(I.Kind), static_cast<int>(V.Kind)) << Ctx;
  EXPECT_EQ(I.Steps, V.Steps) << Ctx;
  EXPECT_EQ(I.TrapId, V.TrapId) << Ctx;
  EXPECT_EQ(I.TrapMessage, V.TrapMessage) << Ctx;
  ASSERT_EQ(static_cast<int>(I.ReturnValue.type()),
            static_cast<int>(V.ReturnValue.type()))
      << Ctx;
  switch (I.ReturnValue.type()) {
  case ir::Type::Double:
    EXPECT_EQ(bitsOf(I.ReturnValue.asDouble()),
              bitsOf(V.ReturnValue.asDouble()))
        << Ctx;
    break;
  case ir::Type::Int:
    EXPECT_EQ(I.ReturnValue.asInt(), V.ReturnValue.asInt()) << Ctx;
    break;
  case ir::Type::Bool:
    EXPECT_EQ(I.ReturnValue.asBool(), V.ReturnValue.asBool()) << Ctx;
    break;
  case ir::Type::Void:
    break;
  }
}

void expectSameTrace(const instr::BranchTraceObserver &I,
                     const instr::BranchTraceObserver &V,
                     const std::string &Ctx) {
  ASSERT_EQ(I.visits().size(), V.visits().size()) << Ctx;
  for (size_t K = 0; K < I.visits().size(); ++K) {
    EXPECT_EQ(I.visits()[K].Branch, V.visits()[K].Branch) << Ctx;
    EXPECT_EQ(I.visits()[K].TakenTrue, V.visits()[K].TakenTrue) << Ctx;
  }
}

using testutil::buildRandomModule;
using testutil::drawInput;

/// Runs every all-double-arg function of \p M through the interpreter
/// reference and every available compiled tier (VM always, JIT on hosts
/// that have it) on \p NumInputs inputs (optionally with some sites
/// disabled) and asserts full observable equality against the
/// interpreter.
void diffModule(const ir::Module &M, uint64_t Seed, unsigned NumInputs,
                bool DisableSomeSites,
                const exec::ExecOptions &Opts = {}) {
  exec::Engine E(M);
  vm::CompiledModule CM = vm::compile(M);
  // Every lowering in the differential suite must pass the bytecode
  // verifier unconditionally (the compile-time hook is debug-only).
  {
    Status VS = vm::verifyBytecode(CM);
    ASSERT_TRUE(VS.ok()) << VS.message();
  }
  jit::CompiledModule JM = jit::compile(CM);
  const bool Jit = jit::available();

  exec::ExecContext CtxI(M), CtxV(M), CtxJ(M);
  if (DisableSomeSites)
    for (int Id = 0; Id < M.numSiteIds(); Id += 2) {
      CtxI.setSiteEnabled(Id, false);
      CtxV.setSiteEnabled(Id, false);
      CtxJ.setSiteEnabled(Id, false);
    }

  instr::BranchTraceObserver ObsI, ObsV, ObsJ;
  CtxI.setObserver(&ObsI);
  CtxV.setObserver(&ObsV);
  CtxJ.setObserver(&ObsJ);

  vm::Machine Mach(CM);
  RNG Rand(Seed);

  for (const auto &FPtr : M) {
    const ir::Function *F = FPtr.get();
    bool AllDouble = true;
    for (unsigned I = 0; I < F->numArgs(); ++I)
      AllDouble &= F->arg(I)->type() == ir::Type::Double;
    if (!AllDouble)
      continue;
    const vm::CompiledFunction *CF = CM.lookup(F);
    ASSERT_NE(CF, nullptr);
    ASSERT_TRUE(CF->Ok) << F->name() << ": " << CF->RejectReason;
    const jit::CompiledFunction *JF = JM.lookup(F);
    if (Jit) {
      // The JIT must take everything the VM lowering takes.
      ASSERT_NE(JF, nullptr);
      ASSERT_TRUE(JF->Ok) << F->name() << ": " << JF->RejectReason;
    }

    for (unsigned K = 0; K < NumInputs; ++K) {
      std::vector<double> X = drawInput(Rand, F->numArgs());
      std::vector<exec::RTValue> Args;
      for (double V : X)
        Args.push_back(exec::RTValue::ofDouble(V));

      std::string Where = M.name() + "::" + F->name() + " input #" +
                          std::to_string(K);
      CtxI.resetGlobals();
      CtxV.resetGlobals();
      ObsI.clear();
      ObsV.clear();

      exec::ExecResult RI = E.run(F, Args, CtxI, Opts);
      exec::ExecResult RV = Mach.run(*CF, Args, CtxV, Opts);

      expectSameResult(RI, RV, Where + " [vm]");
      expectSameTrace(ObsI, ObsV, Where + " [vm]");
      EXPECT_EQ(globalBits(CtxI, M), globalBits(CtxV, M))
          << Where << " [vm]";
      EXPECT_EQ(CtxI.siteDisabledTable(), CtxV.siteDisabledTable())
          << Where << " [vm]";

      if (Jit) {
        CtxJ.resetGlobals();
        ObsJ.clear();
        exec::ExecResult RJ = jit::run(JM, *JF, Args, CtxJ, Opts);
        expectSameResult(RI, RJ, Where + " [jit]");
        expectSameTrace(ObsI, ObsJ, Where + " [jit]");
        EXPECT_EQ(globalBits(CtxI, M), globalBits(CtxJ, M))
            << Where << " [jit]";
        EXPECT_EQ(CtxI.siteDisabledTable(), CtxJ.siteDisabledTable())
            << Where << " [jit]";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Builtin subjects
//===----------------------------------------------------------------------===//

TEST(VMLoweringTest, EveryBuiltinSubjectCompiles) {
  for (const api::BuiltinInfo &Info : api::builtinSubjects()) {
    ir::Module M(Info.Name);
    auto Sub = api::buildBuiltinSubject(M, Info.Name);
    ASSERT_TRUE(Sub.hasValue()) << Info.Name;
    vm::CompiledModule CM = vm::compile(M);
    for (const vm::CompiledFunction &CF : CM.Functions)
      EXPECT_TRUE(CF.Ok) << Info.Name << "::" << CF.Source->name() << ": "
                         << CF.RejectReason;
  }
}

TEST(VMDifferentialTest, BuiltinSubjectsMatchInterpreter) {
  uint64_t Seed = 0x5eed;
  for (const api::BuiltinInfo &Info : api::builtinSubjects()) {
    ir::Module M(Info.Name);
    auto Sub = api::buildBuiltinSubject(M, Info.Name);
    ASSERT_TRUE(Sub.hasValue()) << Info.Name;
    diffModule(M, Seed++, 20, /*DisableSomeSites=*/false);
  }
}

TEST(VMDifferentialTest, InstrumentedSubjectsMatchWithSiteState) {
  // Instrumentation introduces site_enabled gates and the w global; the
  // site-state-sensitive behavior (Algorithm 3's evolving L) must agree
  // too, including with half the sites disabled.
  uint64_t Seed = 0x11;
  for (const char *Name : {"fig2", "sin", "bessel", "airy"}) {
    ir::Module M(Name);
    auto Sub = api::buildBuiltinSubject(M, Name);
    ASSERT_TRUE(Sub.hasValue()) << Name;
    instr::OverflowInstrumentation OI =
        instr::instrumentOverflow(*Sub->F);
    ASSERT_NE(OI.Wrapped, nullptr);
    diffModule(M, Seed++, 15, /*DisableSomeSites=*/false);
    diffModule(M, Seed++, 15, /*DisableSomeSites=*/true);
  }
}

TEST(VMDifferentialTest, RoundingModesMatch) {
  ir::Module M("sin");
  subjects::SinModel P = subjects::buildSinModel(M);
  ASSERT_NE(P.F, nullptr);
  for (exec::RoundingMode RM :
       {exec::RoundingMode::NearestEven, exec::RoundingMode::TowardZero,
        exec::RoundingMode::Upward, exec::RoundingMode::Downward}) {
    exec::ExecOptions Opts;
    Opts.Rounding = RM;
    diffModule(M, 0x40d + static_cast<uint64_t>(RM), 12,
               /*DisableSomeSites=*/false, Opts);
  }
}

TEST(VMDifferentialTest, StepBudgetsMatch) {
  ir::Module M("sin");
  subjects::buildSinModel(M);
  for (uint64_t MaxSteps : {1ull, 2ull, 7ull, 33ull, 100ull}) {
    exec::ExecOptions Opts;
    Opts.MaxSteps = MaxSteps;
    diffModule(M, 0x57e9 + MaxSteps, 6, /*DisableSomeSites=*/false, Opts);
  }
}

//===----------------------------------------------------------------------===//
// Randomly generated modules
//===----------------------------------------------------------------------===//

TEST(VMDifferentialTest, RandomModulesMatchInterpreter) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    ir::Module M("random" + std::to_string(Seed));
    RNG Rand(Seed * 0x9e37);
    buildRandomModule(M, Rand);
    Status S = ir::verifyModule(M);
    ASSERT_TRUE(S.ok()) << "seed " << Seed << ": " << S.message();
    diffModule(M, Seed, 12, /*DisableSomeSites=*/false);
    diffModule(M, Seed + 1000, 6, /*DisableSomeSites=*/true);
  }
}

//===----------------------------------------------------------------------===//
// Full tier x rounding x budget sweep
//===----------------------------------------------------------------------===//

/// One parameterized pass over every (rounding mode, step budget) cell;
/// diffModule itself fans each cell out across every available engine
/// tier, so a new tier joins the whole sweep by existing.
class TierSweepTest
    : public ::testing::TestWithParam<
          std::tuple<exec::RoundingMode, uint64_t>> {};

TEST_P(TierSweepTest, RandomModulesAgreeAcrossAllTiers) {
  exec::ExecOptions Opts;
  Opts.Rounding = std::get<0>(GetParam());
  Opts.MaxSteps = std::get<1>(GetParam());
  const uint64_t Salt = static_cast<uint64_t>(Opts.Rounding) * 1000 +
                        Opts.MaxSteps;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ir::Module M("sweep" + std::to_string(Seed));
    RNG Rand(Seed * 0x51ee7);
    buildRandomModule(M, Rand);
    Status S = ir::verifyModule(M);
    ASSERT_TRUE(S.ok()) << "seed " << Seed << ": " << S.message();
    diffModule(M, Seed + Salt, 5, /*DisableSomeSites=*/Seed % 2 == 0,
               Opts);
  }
}

std::string tierSweepName(
    const ::testing::TestParamInfo<TierSweepTest::ParamType> &Info) {
  const char *RM = "?";
  switch (std::get<0>(Info.param)) {
  case exec::RoundingMode::NearestEven:
    RM = "NearestEven";
    break;
  case exec::RoundingMode::TowardZero:
    RM = "TowardZero";
    break;
  case exec::RoundingMode::Upward:
    RM = "Upward";
    break;
  case exec::RoundingMode::Downward:
    RM = "Downward";
    break;
  }
  return std::string(RM) + "_Budget" +
         std::to_string(std::get<1>(Info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, TierSweepTest,
    ::testing::Combine(
        ::testing::Values(exec::RoundingMode::NearestEven,
                          exec::RoundingMode::TowardZero,
                          exec::RoundingMode::Upward,
                          exec::RoundingMode::Downward),
        ::testing::Values(1ull, 9ull, 150ull, 2'000'000ull)),
    tierSweepName);

//===----------------------------------------------------------------------===//
// Superinstructions
//===----------------------------------------------------------------------===//

/// Branches, fusible read-modify-write triples on the accumulator, and a
/// call whose callee branches: the constructs both superinstructions
/// (FusedGRmwD, FusedFCmpBr) are lowered from.
const char *FusionSubjectIr = R"(
module "fusionsubject"
global @w: double = 0.0
func @helper(%a: double) -> double {
entry:
  %c = fcmp.lt %a, 10.0
  condbr %c, small, big
small:
  %r1 = fmul %a, 2.0
  ret %r1
big:
  %r2 = fadd %a, 1.0
  ret %r2
}
func @acc(%x: double, %y: double) -> double {
entry:
  %t0 = loadg @w
  %s0 = fadd %t0, %x
  storeg @w, %s0
  %h = call @helper(%x)
  %c = fcmp.lt %x, %y
  condbr %c, lo, hi
lo:
  %t1 = loadg @w
  %m1 = fmul %t1, %y
  storeg @w, %m1
  br done
hi:
  %t2 = loadg @w
  %m2 = fmin %t2, %h
  storeg @w, %m2
  br done
done:
  %r = loadg @w
  ret %r
}
)";

unsigned countFused(const vm::CompiledFunction &CF) {
  unsigned N = 0;
  for (const vm::Inst &I : CF.Code)
    N += I.Opc == vm::Op::FusedGRmwD;
  return N;
}

TEST(SuperinstructionTest, LoweringFusesTheRmwIdiom) {
  auto Parsed = ir::parseModule(FusionSubjectIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  vm::CompiledModule Fused = vm::compile(M);
  const vm::CompiledFunction *CF = Fused.lookup(M.functionByName("acc"));
  ASSERT_NE(CF, nullptr);
  ASSERT_TRUE(CF->Ok);
  EXPECT_EQ(countFused(*CF), 3u); // fadd, fmul, fmin triples

  vm::Limits NoFuse;
  NoFuse.Fuse = false;
  vm::CompiledModule Plain = vm::compile(M, NoFuse);
  EXPECT_EQ(countFused(*Plain.lookup(M.functionByName("acc"))), 0u);

  // The boundary pass's Min form emits the idiom too — the
  // instrumentation this satellite exists for.
  instr::BoundaryInstrumentation BI = instr::instrumentBoundary(
      *M.functionByName("helper"), instr::BoundaryForm::Min);
  vm::CompiledModule Instr = vm::compile(M);
  EXPECT_GT(countFused(*Instr.lookup(BI.Wrapped)), 0u);
}

unsigned countFusedCmpBr(const vm::CompiledFunction &CF) {
  unsigned N = 0;
  for (const vm::Inst &I : CF.Code)
    N += I.Opc == vm::Op::FusedFCmpBr;
  return N;
}

TEST(SuperinstructionTest, LoweringFusesCompareBranchPairs) {
  auto Parsed = ir::parseModule(FusionSubjectIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  vm::CompiledModule Fused = vm::compile(M);
  // Each function ends its entry block with `fcmp; condbr` on the
  // compare's result — exactly the fusible pair.
  const vm::CompiledFunction *Acc = Fused.lookup(M.functionByName("acc"));
  const vm::CompiledFunction *Help =
      Fused.lookup(M.functionByName("helper"));
  ASSERT_TRUE(Acc && Acc->Ok && Help && Help->Ok);
  EXPECT_EQ(countFusedCmpBr(*Acc), 1u);
  EXPECT_EQ(countFusedCmpBr(*Help), 1u);

  vm::Limits NoFuse;
  NoFuse.Fuse = false;
  vm::CompiledModule Plain = vm::compile(M, NoFuse);
  EXPECT_EQ(countFusedCmpBr(*Plain.lookup(M.functionByName("acc"))), 0u);
  EXPECT_EQ(countFusedCmpBr(*Plain.lookup(M.functionByName("helper"))),
            0u);
}

TEST(SuperinstructionTest, FusedCompareBranchKeepsTraceAndAccounting) {
  // The fused pair must charge exactly two steps (compare, then branch,
  // each checked at its own virtual boundary) and fire the observer only
  // once the branch step fits — bit-identical to the unfused pair and
  // the interpreter at every budget crossing the pair.
  auto Parsed = ir::parseModule(FusionSubjectIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  const ir::Function *Acc = M.functionByName("acc");

  exec::Engine E(M);
  vm::CompiledModule Fused = vm::compile(M);
  vm::Limits NoFuse;
  NoFuse.Fuse = false;
  vm::CompiledModule Plain = vm::compile(M, NoFuse);
  ASSERT_GT(countFusedCmpBr(*Fused.lookup(Acc)), 0u);
  vm::Machine MF(Fused), MP(Plain);

  RNG Rand(0xcb5);
  for (unsigned K = 0; K < 60; ++K) {
    std::vector<exec::RTValue> Args = {
        exec::RTValue::ofDouble(Rand.uniform(-20.0, 20.0)),
        exec::RTValue::ofDouble(Rand.uniform(-20.0, 20.0))};
    for (uint64_t MaxSteps : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull,
                              8ull, 9ull, 12ull, 2'000'000ull}) {
      exec::ExecOptions Opts;
      Opts.MaxSteps = MaxSteps;
      exec::ExecContext CI(M), CF2(M), CP(M);
      instr::BranchTraceObserver OI, OF, OP;
      CI.setObserver(&OI);
      CF2.setObserver(&OF);
      CP.setObserver(&OP);
      exec::ExecResult RI = E.run(Acc, Args, CI, Opts);
      exec::ExecResult RF = MF.run(*Fused.lookup(Acc), Args, CF2, Opts);
      exec::ExecResult RP = MP.run(*Plain.lookup(Acc), Args, CP, Opts);
      std::string Ctx = "steps " + std::to_string(MaxSteps);
      EXPECT_EQ(static_cast<int>(RI.Kind), static_cast<int>(RF.Kind))
          << Ctx;
      EXPECT_EQ(static_cast<int>(RI.Kind), static_cast<int>(RP.Kind))
          << Ctx;
      EXPECT_EQ(RI.Steps, RF.Steps) << Ctx;
      EXPECT_EQ(RI.Steps, RP.Steps) << Ctx;
      ASSERT_EQ(OI.visits().size(), OF.visits().size()) << Ctx;
      ASSERT_EQ(OI.visits().size(), OP.visits().size()) << Ctx;
      for (size_t V = 0; V < OI.visits().size(); ++V) {
        EXPECT_EQ(OI.visits()[V].Branch, OF.visits()[V].Branch) << Ctx;
        EXPECT_EQ(OI.visits()[V].TakenTrue, OF.visits()[V].TakenTrue)
            << Ctx;
      }
    }
  }
}

TEST(SuperinstructionTest, FusedMatchesUnfusedAndInterpreterEverywhere) {
  auto Parsed = ir::parseModule(FusionSubjectIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  const ir::Function *Acc = M.functionByName("acc");

  exec::Engine E(M);
  vm::CompiledModule Fused = vm::compile(M);
  vm::Limits NoFuse;
  NoFuse.Fuse = false;
  vm::CompiledModule Plain = vm::compile(M, NoFuse);
  vm::Machine MF(Fused), MP(Plain);

  RNG Rand(0xf05e);
  for (unsigned K = 0; K < 200; ++K) {
    double X[2] = {Rand.uniform(-20.0, 20.0), Rand.uniform(-20.0, 20.0)};
    std::vector<exec::RTValue> Args = {exec::RTValue::ofDouble(X[0]),
                                       exec::RTValue::ofDouble(X[1])};
    // Sweep tight step budgets across the whole function so the limit
    // crosses *inside* fused triples too.
    for (uint64_t MaxSteps : {1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 11ull,
                              16ull, 2'000'000ull}) {
      exec::ExecOptions Opts;
      Opts.MaxSteps = MaxSteps;
      exec::ExecContext CI(M), CF2(M), CP(M);
      exec::ExecResult RI = E.run(Acc, Args, CI, Opts);
      exec::ExecResult RF = MF.run(*Fused.lookup(Acc), Args, CF2, Opts);
      exec::ExecResult RP = MP.run(*Plain.lookup(Acc), Args, CP, Opts);
      std::string Ctx = "steps " + std::to_string(MaxSteps) + " input " +
                        std::to_string(X[0]);
      EXPECT_EQ(static_cast<int>(RI.Kind), static_cast<int>(RF.Kind))
          << Ctx;
      EXPECT_EQ(static_cast<int>(RI.Kind), static_cast<int>(RP.Kind))
          << Ctx;
      EXPECT_EQ(RI.Steps, RF.Steps) << Ctx;
      EXPECT_EQ(RI.Steps, RP.Steps) << Ctx;
      if (RI.ok()) {
        EXPECT_EQ(bitsOf(RI.ReturnValue.asDouble()),
                  bitsOf(RF.ReturnValue.asDouble()))
            << Ctx;
        EXPECT_EQ(bitsOf(RI.ReturnValue.asDouble()),
                  bitsOf(RP.ReturnValue.asDouble()))
            << Ctx;
      }
      EXPECT_EQ(bitsOf(CI.getGlobal(M.globalByName("w")).asDouble()),
                bitsOf(CF2.getGlobal(M.globalByName("w")).asDouble()))
          << Ctx;
    }
  }
}

//===----------------------------------------------------------------------===//
// Weak-distance and search-level equivalence
//===----------------------------------------------------------------------===//

const char *QuickstartIr = R"(
module "quickstart"
func @prog(%x: double) -> double {
entry:
  %xs = alloca double
  store %xs, %x
  %c1 = fcmp.le %x, 1.0
  condbr %c1, inc, mid
inc:
  %x1 = fadd %x, 1.0
  store %xs, %x1
  br mid
mid:
  %xv = load %xs
  %y = fmul %xv, %xv
  %c2 = fcmp.le %y, 4.0
  condbr %c2, dec, done
dec:
  %x2 = fsub %xv, 1.0
  store %xs, %x2
  br done
done:
  %r = load %xs
  ret %r
}
)";

TEST(VMEquivalenceTest, WeakDistanceValuesMatchBitForBit) {
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  analyses::BoundaryAnalysis BVA(M, *M.functionByName("prog"));
  ASSERT_EQ(BVA.executionTier().Effective, vm::EngineKind::VM);

  auto VMEval = BVA.factory().make();
  RNG Rand(0xd1ff);
  for (unsigned K = 0; K < 500; ++K) {
    std::vector<double> X = drawInput(Rand, 1);
    double WI = BVA.weak()(X); // Driver-side interpreter evaluator.
    double WV = (*VMEval)(X);
    EXPECT_EQ(bitsOf(WI), bitsOf(WV)) << X[0];
  }
}

/// The paper's basinhopping plus the two population backends (DE and
/// random search), each run on every tier below.
std::vector<std::unique_ptr<opt::Optimizer>> searchBackends() {
  std::vector<std::unique_ptr<opt::Optimizer>> Backends;
  Backends.push_back(std::make_unique<opt::BasinHopping>());
  Backends.push_back(std::make_unique<opt::DifferentialEvolution>());
  Backends.push_back(std::make_unique<opt::RandomSearch>());
  return Backends;
}

constexpr vm::EngineKind CompiledTiers[] = {vm::EngineKind::VM,
                                            vm::EngineKind::JIT};

TEST(VMEquivalenceTest, BoundarySearchIdenticalAcrossEngines) {
  auto Run = [&](vm::EngineKind Engine, opt::Optimizer &Backend) {
    auto Parsed = ir::parseModule(QuickstartIr);
    EXPECT_TRUE(Parsed.hasValue());
    ir::Module &M = **Parsed;
    analyses::BoundaryAnalysis BVA(M, *M.functionByName("prog"),
                                   instr::BoundaryForm::Product, Engine);
    core::SearchOptions Opts;
    Opts.Seed = 2019;
    Opts.MaxEvals = 40'000;
    return BVA.findOne(Backend, Opts);
  };
  for (const auto &Backend : searchBackends()) {
    core::SearchResult RI = Run(vm::EngineKind::Interp, *Backend);
    for (vm::EngineKind Engine : CompiledTiers) {
      core::SearchResult R = Run(Engine, *Backend);
      std::string Ctx = std::string(Backend->name()) + " on " +
                        vm::engineKindName(Engine);
      EXPECT_EQ(RI.Found, R.Found) << Ctx;
      EXPECT_EQ(RI.Witness, R.Witness) << Ctx;
      EXPECT_EQ(RI.Evals, R.Evals) << Ctx;
      EXPECT_EQ(RI.StartsUsed, R.StartsUsed) << Ctx;
      EXPECT_EQ(bitsOf(RI.WStar), bitsOf(R.WStar)) << Ctx;
      EXPECT_EQ(RI.WStarAt, R.WStarAt) << Ctx;
      EXPECT_EQ(RI.UnsoundCandidates, R.UnsoundCandidates) << Ctx;
    }
  }
}

TEST(VMEquivalenceTest, OverflowRoundsIdenticalAcrossEngines) {
  auto Run = [&](vm::EngineKind Engine, opt::Optimizer &Backend) {
    ir::Module M;
    gsl::SfFunction Bessel = gsl::buildBesselKnuScaledAsympx(M);
    analyses::OverflowDetector Det(M, *Bessel.F,
                                   instr::OverflowMetric::UlpGap, Engine);
    analyses::OverflowDetector::Options Opts;
    Opts.Seed = 0xbe55;
    Opts.EvalsPerRound = 2'000;
    Opts.MaxRounds = 4;
    Opts.Backend = &Backend;
    return Det.run(Opts);
  };
  for (const auto &Backend : searchBackends()) {
    analyses::OverflowReport RI = Run(vm::EngineKind::Interp, *Backend);
    for (vm::EngineKind Engine : CompiledTiers) {
      analyses::OverflowReport R = Run(Engine, *Backend);
      std::string Ctx = std::string(Backend->name()) + " on " +
                        vm::engineKindName(Engine);
      EXPECT_EQ(RI.Evals, R.Evals) << Ctx;
      ASSERT_EQ(RI.Findings.size(), R.Findings.size()) << Ctx;
      for (size_t K = 0; K < RI.Findings.size(); ++K) {
        EXPECT_EQ(RI.Findings[K].SiteId, R.Findings[K].SiteId) << Ctx;
        EXPECT_EQ(RI.Findings[K].Found, R.Findings[K].Found) << Ctx;
        EXPECT_EQ(RI.Findings[K].Input, R.Findings[K].Input) << Ctx;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Fallback
//===----------------------------------------------------------------------===//

TEST(VMFallbackTest, TinyLimitsRejectAndFallBack) {
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  ir::Function *F = M.functionByName("prog");

  vm::Limits Tiny;
  Tiny.MaxRegs = 2;
  vm::CompiledModule CM = vm::compile(M, Tiny);
  const vm::CompiledFunction *CF = CM.lookup(F);
  ASSERT_NE(CF, nullptr);
  EXPECT_FALSE(CF->Ok);
  EXPECT_FALSE(CF->RejectReason.empty());

  // The drop-in factory mints working interpreter evaluators instead.
  instr::BoundaryInstrumentation BI = instr::instrumentBoundary(*F);
  exec::Engine E(M);
  exec::ExecContext Parent(M);
  vm::VMWeakDistanceFactory Factory(E, BI.Wrapped, BI.W, BI.WInit, Parent,
                                    {}, Tiny);
  EXPECT_FALSE(Factory.usingVM());
  EXPECT_FALSE(Factory.fallbackReason().empty());

  auto Eval = Factory.make();
  instr::IRWeakDistance Direct(E, BI.Wrapped, BI.W, BI.WInit, Parent);
  for (double X : {-3.0, 0.5, 1.0, 2.0, 1e300})
    EXPECT_EQ(bitsOf(Direct({X})), bitsOf((*Eval)({X})));

  // And the bundle reports the fallback for the api layer.
  vm::FactoryBundle Bundle = vm::makeWeakDistanceFactory(
      vm::EngineKind::VM, E, BI.Wrapped, BI.W, BI.WInit, Parent, {}, Tiny);
  EXPECT_EQ(Bundle.Effective, vm::EngineKind::Interp);
  EXPECT_FALSE(Bundle.FallbackReason.empty());
}

TEST(VMFallbackTest, CallersOfRejectedCalleesFallBackToo) {
  ir::Module M("transitive");
  ir::IRBuilder B(M);

  ir::Function *Big = M.addFunction("big", ir::Type::Double);
  ir::Argument *BA = Big->addArg(ir::Type::Double, "x");
  B.setInsertAppend(Big->addBlock("entry"));
  ir::Value *Acc = BA;
  for (int K = 0; K < 40; ++K)
    Acc = B.fadd(Acc, B.lit(static_cast<double>(K)));
  B.ret(Acc);

  ir::Function *Caller = M.addFunction("caller", ir::Type::Double);
  ir::Argument *CA = Caller->addArg(ir::Type::Double, "x");
  B.setInsertAppend(Caller->addBlock("entry"));
  B.ret(B.call(Big, {CA}));

  vm::Limits Tiny;
  Tiny.MaxRegs = 30; // Rejects big (needs > 30 regs), fits caller.
  vm::CompiledModule CM = vm::compile(M, Tiny);
  EXPECT_FALSE(CM.lookup(Big)->Ok);
  EXPECT_FALSE(CM.lookup(Caller)->Ok);
  EXPECT_NE(CM.lookup(Caller)->RejectReason.find("big"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// JIT tier: equivalence and fallback
//===----------------------------------------------------------------------===//

TEST(JITEquivalenceTest, WeakDistanceValuesMatchBitForBit) {
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  ir::Function *F = M.functionByName("prog");
  instr::BoundaryInstrumentation BI = instr::instrumentBoundary(*F);
  exec::Engine E(M);
  exec::ExecContext Parent(M);

  // Whether native code runs or the chain degrades, minted evaluators
  // must agree with the interpreter bit for bit.
  jit::JITWeakDistanceFactory Factory(E, BI.Wrapped, BI.W, BI.WInit,
                                      Parent);
  EXPECT_EQ(Factory.usingJIT(), jit::available())
      << Factory.fallbackReason();
  auto Eval = Factory.make();
  instr::IRWeakDistance Direct(E, BI.Wrapped, BI.W, BI.WInit, Parent);
  RNG Rand(0x717);
  for (unsigned K = 0; K < 500; ++K) {
    std::vector<double> X = drawInput(Rand, 1);
    EXPECT_EQ(bitsOf(Direct(X)), bitsOf((*Eval)(X))) << X[0];
  }
}

TEST(JITFactoryTest, LowersTheModuleOnce) {
  // The native code is compiled from the VM fallback's own lowering, so
  // one jit factory costs exactly one module lowering.
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  instr::BoundaryInstrumentation BI =
      instr::instrumentBoundary(*M.functionByName("prog"));
  exec::Engine E(M);
  exec::ExecContext Parent(M);

  auto Lowerings = []() -> uint64_t {
    json::Value Snap = obs::snapshotJson();
    const json::Value *Cs = Snap.find("counters");
    const json::Value *C = Cs ? Cs->find("vm.module_lowerings") : nullptr;
    return C ? C->asUint() : 0;
  };
  obs::setEnabled(true);
  const uint64_t Before = Lowerings();
  jit::JITWeakDistanceFactory Factory(E, BI.Wrapped, BI.W, BI.WInit,
                                      Parent);
  const uint64_t After = Lowerings();
  obs::setEnabled(false);
  EXPECT_EQ(After - Before, 1u);
}

TEST(JITFallbackTest, TinyCodeLimitRejectsAndFallsBackToVM) {
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  ir::Function *F = M.functionByName("prog");
  instr::BoundaryInstrumentation BI = instr::instrumentBoundary(*F);
  exec::Engine E(M);
  exec::ExecContext Parent(M);

  jit::Limits TinyJ;
  TinyJ.MaxCodeBytes = 16; // No function fits in 16 bytes.
  jit::JITWeakDistanceFactory Factory(E, BI.Wrapped, BI.W, BI.WInit,
                                      Parent, {}, {}, TinyJ);
  EXPECT_FALSE(Factory.usingJIT());
  EXPECT_FALSE(Factory.fallbackReason().empty());
  EXPECT_TRUE(Factory.vmFallback().usingVM());

  // The minted (VM-backed) evaluators still agree with the interpreter.
  auto Eval = Factory.make();
  instr::IRWeakDistance Direct(E, BI.Wrapped, BI.W, BI.WInit, Parent);
  for (double X : {-3.0, 0.5, 1.0, 2.0, 1e300})
    EXPECT_EQ(bitsOf(Direct({X})), bitsOf((*Eval)({X})));

  // With default limits the bundle reports whatever this host supports:
  // the JIT where available, the VM (with a reason) elsewhere.
  vm::FactoryBundle Bundle = vm::makeWeakDistanceFactory(
      vm::EngineKind::JIT, E, BI.Wrapped, BI.W, BI.WInit, Parent);
  EXPECT_EQ(Bundle.Requested, vm::EngineKind::JIT);
  if (jit::available()) {
    EXPECT_EQ(Bundle.Effective, vm::EngineKind::JIT);
    EXPECT_TRUE(Bundle.FallbackReason.empty()) << Bundle.FallbackReason;
  } else {
    EXPECT_EQ(Bundle.Effective, vm::EngineKind::VM);
    EXPECT_FALSE(Bundle.FallbackReason.empty());
  }
}

TEST(JITFallbackTest, CallersOfRejectedCalleesFallBackToo) {
  if (!jit::available())
    GTEST_SKIP() << "native tier unavailable on this host";
  ir::Module M("transitive");
  ir::IRBuilder B(M);

  ir::Function *Big = M.addFunction("big", ir::Type::Double);
  ir::Argument *BA = Big->addArg(ir::Type::Double, "x");
  B.setInsertAppend(Big->addBlock("entry"));
  ir::Value *Acc = BA;
  for (int K = 0; K < 200; ++K)
    Acc = B.fadd(Acc, B.lit(static_cast<double>(K)));
  B.ret(Acc);

  ir::Function *Caller = M.addFunction("caller", ir::Type::Double);
  ir::Argument *CA = Caller->addArg(ir::Type::Double, "x");
  B.setInsertAppend(Caller->addBlock("entry"));
  B.ret(B.call(Big, {CA}));

  vm::CompiledModule CM = vm::compile(M);
  ASSERT_TRUE(CM.lookup(Big)->Ok);
  ASSERT_TRUE(CM.lookup(Caller)->Ok);

  // Size the native-code budget so big's 200 fadd fragments bust it
  // while caller's call+ret stub would fit on its own: the rejection
  // must still spread to the caller (no mixed native/VM call chains).
  jit::Limits TinyJ;
  TinyJ.MaxCodeBytes = 1024;
  jit::CompiledModule JM = jit::compile(CM, TinyJ);
  EXPECT_FALSE(JM.lookup(Big)->Ok);
  ASSERT_NE(JM.lookup(Caller), nullptr);
  EXPECT_FALSE(JM.lookup(Caller)->Ok);
  EXPECT_NE(JM.lookup(Caller)->RejectReason.find("big"),
            std::string::npos)
      << JM.lookup(Caller)->RejectReason;
}

TEST(JITFallbackTest, EngineNamesForErrorsListAvailability) {
  std::string Names = jit::engineNamesForErrors();
  EXPECT_NE(Names.find("'interp'"), std::string::npos);
  EXPECT_NE(Names.find("'vm'"), std::string::npos);
  EXPECT_NE(Names.find("'jit'"), std::string::npos);
  EXPECT_EQ(Names.find("unavailable") == std::string::npos,
            jit::available());
}

} // namespace
