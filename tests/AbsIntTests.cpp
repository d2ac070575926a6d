//===--- AbsIntTests.cpp - Interval abstract interpretation tests --------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The static pre-pass's contract is *soundness under every runtime
// rounding mode*: every concrete value the interpreter produces must lie
// inside the static interval the analysis certified for that
// instruction. The fuzz half of this file enforces exactly that over
// randomized forward-CFG modules; the unit half pins the precision the
// pruning consumers rely on (infeasible edges, impossible equalities,
// proved-finite ranges, start-box shrinking).
//
//===----------------------------------------------------------------------===//

#include "absint/AbsInt.h"
#include "exec/Interpreter.h"
#include "instrument/Sites.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/FPUtils.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cmath>

#include "RandomModule.h"

using namespace wdm;

namespace {

//===----------------------------------------------------------------------===//
// Soundness fuzz: concrete execution inside static intervals
//===----------------------------------------------------------------------===//

/// Asserts every value-producing instruction's concrete result lies in
/// the interval the analysis certified for it. A bottom fact on an
/// executed instruction is itself a soundness bug (the analysis claimed
/// the instruction unreachable).
class SoundnessObserver : public exec::ExecObserver {
public:
  explicit SoundnessObserver(const absint::FunctionAnalysis &FA)
      : FA(FA) {}

  std::string Where;
  unsigned Checked = 0;

  void onInstruction(const ir::Instruction *I, const exec::RTValue *Ops,
                     unsigned NumOps,
                     const exec::RTValue &Result) override {
    (void)Ops;
    (void)NumOps;
    if (I->type() == ir::Type::Void)
      return;
    absint::AbstractValue Fact = FA.factFor(I);
    ASSERT_EQ(static_cast<int>(Fact.Ty),
              static_cast<int>(Result.type()))
        << Where << " inst %" << I->id();
    ++Checked;
    switch (Result.type()) {
    case ir::Type::Double: {
      double V = Result.asDouble();
      EXPECT_TRUE(Fact.D.contains(V))
          << Where << " inst %" << I->id() << ": concrete " << V
          << " outside [" << Fact.D.Lo << ", " << Fact.D.Hi
          << "] maynan=" << Fact.D.MayNaN;
      break;
    }
    case ir::Type::Int:
      EXPECT_TRUE(Fact.I.contains(Result.asInt()))
          << Where << " inst %" << I->id() << ": concrete "
          << Result.asInt() << " outside [" << Fact.I.Lo << ", "
          << Fact.I.Hi << "]";
      break;
    case ir::Type::Bool:
      EXPECT_TRUE(Fact.B.contains(Result.asBool()))
          << Where << " inst %" << I->id() << ": concrete "
          << Result.asBool();
      break;
    case ir::Type::Void:
      break;
    }
  }

private:
  const absint::FunctionAnalysis &FA;
};

/// One fuzz round: analyze \p F once, then run the interpreter on
/// \p NumInputs inputs under all four rounding modes and check every
/// intermediate value against the static facts.
void fuzzFunction(const ir::Module &M, const ir::Function *F,
                  uint64_t Seed, unsigned NumInputs,
                  const absint::AnalysisOptions &AOpts,
                  bool RestrictedInputs) {
  absint::FunctionAnalysis FA(*F, AOpts);
  exec::Engine E(M);
  exec::ExecContext Ctx(M);
  SoundnessObserver Obs(FA);
  Ctx.setObserver(&Obs);
  RNG Rand(Seed);

  for (exec::RoundingMode RM :
       {exec::RoundingMode::NearestEven, exec::RoundingMode::TowardZero,
        exec::RoundingMode::Upward, exec::RoundingMode::Downward}) {
    exec::ExecOptions Opts;
    Opts.Rounding = RM;
    for (unsigned K = 0; K < NumInputs; ++K) {
      std::vector<double> X;
      if (RestrictedInputs) {
        X.resize(F->numArgs());
        for (unsigned D = 0; D < F->numArgs(); ++D)
          X[D] = Rand.uniform(AOpts.ArgRanges[D].Lo,
                              AOpts.ArgRanges[D].Hi);
      } else {
        X = testutil::drawInput(Rand, F->numArgs());
      }
      std::vector<exec::RTValue> Args;
      for (double V : X)
        Args.push_back(exec::RTValue::ofDouble(V));
      Obs.Where = M.name() + "::" + F->name() + " rm=" +
                  std::to_string(static_cast<int>(RM)) + " input #" +
                  std::to_string(K);
      Ctx.resetGlobals();
      E.run(F, Args, Ctx, Opts);
    }
  }
  EXPECT_GT(Obs.Checked, 0u);
}

TEST(AbsIntSoundnessFuzz, RandomModulesAllRoundingModes) {
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    ir::Module M("absfuzz" + std::to_string(Seed));
    RNG Rand(Seed * 0xab51);
    testutil::buildRandomModule(M, Rand);
    Status S = ir::verifyModule(M);
    ASSERT_TRUE(S.ok()) << "seed " << Seed << ": " << S.message();
    const ir::Function *F = M.functionByName("f");
    ASSERT_NE(F, nullptr);
    fuzzFunction(M, F, Seed * 31 + 7, 8, {}, false);
  }
}

TEST(AbsIntSoundnessFuzz, RestrictedArgRangesStaySound) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    ir::Module M("absfuzzr" + std::to_string(Seed));
    RNG Rand(Seed * 0x517b);
    testutil::buildRandomModule(M, Rand);
    const ir::Function *F = M.functionByName("f");
    ASSERT_NE(F, nullptr);
    absint::AnalysisOptions AOpts;
    for (unsigned D = 0; D < F->numArgs(); ++D)
      AOpts.ArgRanges.push_back(absint::FPInterval::range(-50.0, 50.0));
    fuzzFunction(M, F, Seed * 131 + 3, 6, AOpts, true);
  }
}

TEST(AbsIntSoundnessFuzz, SitesDisabledStillSound) {
  // SiteEnabled is modeled as an unknown bool, so the facts must hold
  // for any disabled-site table.
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    ir::Module M("absfuzzd" + std::to_string(Seed));
    RNG Rand(Seed * 0xd15ab1ed);
    testutil::buildRandomModule(M, Rand);
    const ir::Function *F = M.functionByName("f");
    ASSERT_NE(F, nullptr);
    absint::FunctionAnalysis FA(*F);
    exec::Engine E(M);
    exec::ExecContext Ctx(M);
    for (int Id = 0; Id < M.numSiteIds(); Id += 2)
      Ctx.setSiteEnabled(Id, false);
    SoundnessObserver Obs(FA);
    Ctx.setObserver(&Obs);
    RNG In(Seed * 77 + 5);
    for (unsigned K = 0; K < 10; ++K) {
      std::vector<double> X = testutil::drawInput(In, F->numArgs());
      std::vector<exec::RTValue> Args;
      for (double V : X)
        Args.push_back(exec::RTValue::ofDouble(V));
      Obs.Where = M.name() + " input #" + std::to_string(K);
      Ctx.resetGlobals();
      E.run(F, Args, Ctx, {});
    }
  }
}

//===----------------------------------------------------------------------===//
// Precision units: the facts the pruning consumers need
//===----------------------------------------------------------------------===//

/// f(x) = if (x*x < 0.0) then sin(x) else x*x + 1.0 — the true edge is
/// infeasible (a square is never negative and NaN compares false), and
/// the else-result can never equal zero.
struct SquareSubject {
  ir::Module M{"square"};
  ir::Function *F = nullptr;
  ir::Instruction *Cmp = nullptr;
  ir::Instruction *Br = nullptr;
  ir::Instruction *PlusOne = nullptr;
  ir::Instruction *ZeroCheck = nullptr;

  SquareSubject() {
    ir::IRBuilder B(M);
    F = M.addFunction("f", ir::Type::Double);
    ir::Argument *X = F->addArg(ir::Type::Double, "x");
    ir::BasicBlock *Entry = F->addBlock("entry");
    ir::BasicBlock *Then = F->addBlock("then");
    ir::BasicBlock *Else = F->addBlock("else");
    B.setInsertAppend(Entry);
    ir::Instruction *Sq = B.fmul(X, X);
    Cmp = B.fcmp(ir::CmpPred::LT, Sq, B.lit(0.0));
    Br = B.condbr(Cmp, Then, Else);
    B.setInsertAppend(Then);
    B.ret(B.sin(X));
    B.setInsertAppend(Else);
    PlusOne = B.fadd(Sq, B.lit(1.0));
    ZeroCheck = B.fcmp(ir::CmpPred::EQ, PlusOne, B.lit(0.0));
    B.ret(B.select(ZeroCheck, B.lit(0.0), PlusOne));
  }
};

TEST(AbsIntPrecisionTest, SquareBranchInfeasible) {
  SquareSubject S;
  absint::FunctionAnalysis FA(*S.F);
  ASSERT_TRUE(FA.complete());
  EXPECT_FALSE(FA.edgeFeasible(S.Br, /*TakenTrue=*/true));
  EXPECT_TRUE(FA.edgeFeasible(S.Br, /*TakenTrue=*/false));
}

TEST(AbsIntPrecisionTest, SquarePlusOneEqualityImpossible) {
  SquareSubject S;
  absint::FunctionAnalysis FA(*S.F);
  ASSERT_TRUE(FA.complete());
  // x*x + 1 is >= 1 or NaN; neither can equal 0.0.
  EXPECT_FALSE(FA.cmpEqualityPossible(S.ZeroCheck));
  // The guard itself (x*x < 0) can have equal operands: x == 0.
  EXPECT_TRUE(FA.cmpEqualityPossible(S.Cmp));
}

TEST(AbsIntPrecisionTest, SiteClassification) {
  SquareSubject S;
  absint::FunctionAnalysis FA(*S.F);
  ASSERT_TRUE(FA.complete());

  instr::Site Unreach;
  Unreach.Id = 0;
  Unreach.Kind = instr::SiteKind::BranchTrue;
  Unreach.Inst = S.Br;
  EXPECT_EQ(absint::classifySite(FA, Unreach),
            absint::SiteVerdict::Unreachable);

  instr::Site Safe;
  Safe.Id = 1;
  Safe.Kind = instr::SiteKind::Comparison;
  Safe.Inst = S.ZeroCheck;
  EXPECT_EQ(absint::classifySite(FA, Safe),
            absint::SiteVerdict::ProvedSafe);

  instr::Site Open;
  Open.Id = 2;
  Open.Kind = instr::SiteKind::Comparison;
  Open.Inst = S.Cmp;
  EXPECT_EQ(absint::classifySite(FA, Open),
            absint::SiteVerdict::Unknown);
}

TEST(AbsIntPrecisionTest, BoundedArgsProveFiniteRanges) {
  ir::Module M("bounded");
  ir::IRBuilder B(M);
  ir::Function *F = M.addFunction("f", ir::Type::Double);
  ir::Argument *X = F->addArg(ir::Type::Double, "x");
  B.setInsertAppend(F->addBlock("entry"));
  ir::Instruction *R = B.fadd(B.fmul(X, X), B.lit(1.0));
  B.ret(R);

  absint::AnalysisOptions AOpts;
  AOpts.ArgRanges.push_back(absint::FPInterval::range(-10.0, 10.0));
  absint::FunctionAnalysis FA(*F, AOpts);
  ASSERT_TRUE(FA.complete());
  absint::AbstractValue Fact = FA.factFor(R);
  EXPECT_FALSE(Fact.D.MayNaN);
  EXPECT_GE(Fact.D.Lo, 1.0 - 1e-9);
  EXPECT_LE(Fact.D.Hi, 102.0);

  instr::Site Op;
  Op.Id = 0;
  Op.Kind = instr::SiteKind::FPOp;
  Op.Inst = R;
  EXPECT_EQ(absint::classifySite(FA, Op), absint::SiteVerdict::ProvedSafe);
}

TEST(AbsIntPrecisionTest, RoundingTieStaysInsideTheBounds) {
  // x < 1 implies x + 1 <= 2, and 2 is reachable: the largest double
  // below 1, plus 1, is a tie that rounds to 2 (the paper's Fig. 1a
  // bug). Each corner must be evaluated once rounding down for Lo and
  // once rounding up for Hi.
  const double Below1 = std::nextafter(1.0, 0.0);
  volatile double X = Below1;
  ASSERT_EQ(X + 1.0, 2.0);

  const absint::FPInterval Small = absint::FPInterval::range(-Below1, Below1);
  const absint::FPInterval One = absint::FPInterval::point(1.0);
  EXPECT_EQ(absint::absFAdd(Small, One).Hi, 2.0);
  EXPECT_EQ(absint::absFSub(Small, One).Lo, -2.0);

  // The same tie through the pre-pass: under the guard x < 1, the
  // branch x + 1 < 2 can still go false.
  ir::Module M("tie");
  ir::IRBuilder B(M);
  ir::Function *F = M.addFunction("f", ir::Type::Double);
  ir::Argument *Arg = F->addArg(ir::Type::Double, "x");
  ir::BasicBlock *Entry = F->addBlock("entry");
  ir::BasicBlock *Guarded = F->addBlock("guarded");
  ir::BasicBlock *Done = F->addBlock("done");
  ir::BasicBlock *Bug = F->addBlock("bug");
  B.setInsertAppend(Entry);
  B.condbr(B.fcmp(ir::CmpPred::LT, Arg, B.lit(1.0)), Guarded, Done);
  B.setInsertAppend(Guarded);
  ir::Instruction *Y = B.fadd(Arg, B.lit(1.0));
  ir::Instruction *Br =
      B.condbr(B.fcmp(ir::CmpPred::LT, Y, B.lit(2.0)), Done, Bug);
  B.setInsertAppend(Done);
  B.ret(B.lit(0.0));
  B.setInsertAppend(Bug);
  B.ret(B.lit(1.0));

  absint::FunctionAnalysis FA(*F);
  ASSERT_TRUE(FA.complete());
  EXPECT_GE(FA.factFor(Y).D.Hi, 2.0);
  EXPECT_TRUE(FA.edgeFeasible(Br, /*TakenTrue=*/false));
}

TEST(AbsIntPrecisionTest, ShrinkStartBoxKeepsFeasibleSlices) {
  // The guard x >= 90 gates the only interesting site; slices of
  // [-100, 100] below 90 cannot take it, so the shrunk box must
  // concentrate at the top while still covering the threshold.
  ir::Module M("gate");
  ir::IRBuilder B(M);
  ir::Function *F = M.addFunction("f", ir::Type::Double);
  ir::Argument *X = F->addArg(ir::Type::Double, "x");
  ir::BasicBlock *Entry = F->addBlock("entry");
  ir::BasicBlock *Then = F->addBlock("then");
  ir::BasicBlock *Else = F->addBlock("else");
  B.setInsertAppend(Entry);
  ir::Instruction *C = B.fcmp(ir::CmpPred::GE, X, B.lit(90.0));
  ir::Instruction *Br = B.condbr(C, Then, Else);
  B.setInsertAppend(Then);
  B.ret(B.fmul(X, X));
  B.setInsertAppend(Else);
  B.ret(B.lit(0.0));

  absint::BoxShrinkResult R = absint::shrinkStartBox(
      *F, -100.0, 100.0, {},
      [&](const absint::FunctionAnalysis &FA) {
        return FA.edgeFeasible(Br, /*TakenTrue=*/true);
      });
  EXPECT_TRUE(R.Changed);
  EXPECT_GT(R.Lo, -100.0);
  EXPECT_LE(R.Lo, 90.0);
  EXPECT_EQ(R.Hi, 100.0);
}

TEST(AbsIntPrecisionTest, ClassifySitesReportsAssignedTables) {
  SquareSubject S;
  instr::SiteTable T = instr::assignComparisonSites(*S.F);
  ASSERT_EQ(T.size(), 2u);
  absint::FunctionAnalysis FA(*S.F);
  std::vector<absint::SiteReport> Reports = absint::classifySites(FA, T);
  ASSERT_EQ(Reports.size(), 2u);
  unsigned Safe = 0, Open = 0;
  for (const absint::SiteReport &R : Reports) {
    Safe += R.Verdict == absint::SiteVerdict::ProvedSafe;
    Open += R.Verdict == absint::SiteVerdict::Unknown;
    if (R.Verdict != absint::SiteVerdict::Unknown)
      EXPECT_FALSE(R.Reason.empty());
  }
  EXPECT_EQ(Safe, 1u);
  EXPECT_EQ(Open, 1u);
}

} // namespace
