//===--- DepthTests.cpp - Deeper sweeps across the stack ----------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"
#include "analyses/BranchCoverage.h"
#include "analyses/OverflowDetector.h"
#include "gsl/Airy.h"
#include "gsl/Hyperg.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/BasinHopping.h"
#include "sat/SExprParser.h"
#include "sat/Solver.h"
#include "subjects/NumericKernels.h"
#include "subjects/SinModel.h"
#include "support/FPUtils.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/StringUtils.h"

using namespace wdm;
using namespace wdm::exec;
using namespace wdm::ir;

namespace {

// --------------------------------------------------------------------------
// ICmp semantics sweep (the FCmp sweep lives in ExecTests).
// --------------------------------------------------------------------------

struct ICmpCase {
  CmpPred Pred;
  int64_t A, B;
  bool Expected;
};

class ICmpSemanticsTest : public ::testing::TestWithParam<ICmpCase> {};

TEST_P(ICmpSemanticsTest, Matches) {
  const ICmpCase &C = GetParam();
  Module M;
  Function *F = M.addFunction("f", Type::Int);
  IRBuilder B(M);
  B.setInsertAppend(F->addBlock("entry"));
  Value *Cmp = B.icmp(C.Pred, B.litInt(C.A), B.litInt(C.B));
  B.ret(B.select(Cmp, B.litInt(1), B.litInt(0)));
  Engine E(M);
  ExecContext Ctx(M);
  EXPECT_EQ(E.run(F, {}, Ctx).ReturnValue.asInt(), C.Expected ? 1 : 0);
}

INSTANTIATE_TEST_SUITE_P(
    Predicates, ICmpSemanticsTest,
    ::testing::Values(ICmpCase{CmpPred::EQ, 5, 5, true},
                      ICmpCase{CmpPred::EQ, -5, 5, false},
                      ICmpCase{CmpPred::NE, 5, 6, true},
                      ICmpCase{CmpPred::LT, -2, -1, true},
                      ICmpCase{CmpPred::LT, INT64_MIN, INT64_MAX, true},
                      ICmpCase{CmpPred::LE, 7, 7, true},
                      ICmpCase{CmpPred::GT, 0, -1, true},
                      ICmpCase{CmpPred::GE, -1, 0, false}));

// --------------------------------------------------------------------------
// Parser negative sweep: each fragment must be rejected, never crash.
// --------------------------------------------------------------------------

class ParserRejectTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ParserRejectTest, Rejects) {
  auto R = parseModule(GetParam());
  EXPECT_FALSE(R.hasValue()) << "accepted:\n" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Fragments, ParserRejectTest,
    ::testing::Values(
        // Unterminated body.
        "func @f(%x: double) -> double {\nentry:\n  ret %x\n",
        // Unknown type.
        "func @f(%x: quad) -> double {\nentry:\n  ret %x\n}\n",
        // Value used before any definition.
        "func @f(%x: double) -> double {\nentry:\n  ret %y\n}\n",
        // Branch label that is never defined is a verifier/structural
        // problem; the parser creates it — but an empty block must then
        // be caught. Here: instruction outside a block.
        "func @f(%x: double) -> double {\n  ret %x\n}\n",
        // Duplicate function names.
        "func @f() -> void {\nentry:\n  ret\n}\nfunc @f() -> void "
        "{\nentry:\n  ret\n}\n",
        // Call arity mismatch.
        "func @g(%a: double) -> double {\nentry:\n  ret %a\n}\nfunc "
        "@f(%x: double) -> double {\nentry:\n  %r = call @g(%x, %x)\n  "
        "ret %r\n}\n",
        // Store to an unknown global.
        "func @f(%x: double) -> double {\nentry:\n  storeg @nope, %x\n  "
        "ret %x\n}\n",
        // Garbage suffix.
        "func @f() -> void {\nentry:\n  ret # \n}\n"));

// --------------------------------------------------------------------------
// Printer determinism and name collisions.
// --------------------------------------------------------------------------

TEST(PrinterDepthTest, CollidingNamesStayUnique) {
  Module M;
  Function *F = M.addFunction("f", Type::Double);
  Argument *X = F->addArg(Type::Double, "v");
  IRBuilder B(M);
  B.setInsertAppend(F->addBlock("entry"));
  // Three instructions all named "v", colliding with the argument too.
  Instruction *A1 = B.fadd(X, B.lit(1.0), "v");
  Instruction *A2 = B.fadd(A1, B.lit(1.0), "v");
  Instruction *A3 = B.fadd(A2, B.lit(1.0), "v");
  B.ret(A3);

  std::string Text = toString(M);
  auto Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error() << "\n" << Text;
  EXPECT_TRUE(verifyModule(**Parsed).ok());
  // Executing both gives x + 3.
  Engine E1(M), E2(**Parsed);
  ExecContext C1(M), C2(**Parsed);
  double R1 = E1.run(F, {RTValue::ofDouble(1.5)}, C1)
                  .ReturnValue.asDouble();
  double R2 = E2.run((*Parsed)->functionByName("f"),
                     {RTValue::ofDouble(1.5)}, C2)
                  .ReturnValue.asDouble();
  EXPECT_EQ(R1, 4.5);
  EXPECT_EQ(R1, R2);
}

// --------------------------------------------------------------------------
// Overflow detection across all three GSL models (unit-level versions of
// the Table 3 bench, paper-faithful metric).
// --------------------------------------------------------------------------

TEST(OverflowDepthTest, HypergFindsPowAndProductOverflows) {
  Module M;
  gsl::SfFunction Hyperg = gsl::buildHyperg2F0(M);
  analyses::OverflowDetector Det(M, *Hyperg.F,
                                 instr::OverflowMetric::AbsGap);
  analyses::OverflowDetector::Options Opts;
  Opts.Seed = 0x8f;
  analyses::OverflowReport R = Det.run(Opts);
  EXPECT_GE(R.numOverflows(), 3u);
  EXPECT_LE(R.numOverflows(), 8u);
}

/// The strongest single result in the reproduction: a targeted
/// Algorithm 3 round on airy's pi/4 / result_m site must resolve the
/// *single double* where the Chebyshev modulus cancels to exactly zero —
/// the Bug 1 input. Only the ULP-gap metric can do it: the paper's
/// MAX - |a| form is absorbed flat around the needle.
TEST(OverflowDepthTest, TargetedRoundResolvesTheBug1Needle) {
  for (instr::OverflowMetric Metric :
       {instr::OverflowMetric::AbsGap, instr::OverflowMetric::UlpGap}) {
    Module M;
    gsl::AiryModel Airy = gsl::buildAiryAi(M);
    instr::OverflowInstrumentation OI =
        instr::instrumentOverflow(*Airy.Airy.F, Metric);
    Engine E(M);
    ExecContext Ctx(M);
    instr::IRWeakDistance W(E, OI.Wrapped, OI.W, OI.WInit, Ctx);
    // A late Algorithm 3 round: every other site already in L.
    for (const instr::Site &S : OI.Sites)
      Ctx.setSiteEnabled(
          S.Id,
          S.Description.find("pi/4 / result_m") != std::string::npos);

    opt::BasinHopping Backend;
    RNG Rand(7);
    opt::MinimizeOptions MinOpts;
    bool Found = false;
    for (int Start = 0; Start < 12 && !Found; ++Start) {
      opt::Objective Obj(
          [&W](const std::vector<double> &X) { return W(X); }, 1);
      Obj.MaxEvals = 12'000;
      std::vector<double> S{Rand.chance(0.5) ? Rand.anyFiniteDouble()
                                             : Rand.uniform(-10, 10)};
      RNG Child = Rand.split();
      opt::MinimizeResult R = Backend.minimize(Obj, S, Child, MinOpts);
      if (R.ReachedTarget) {
        Found = true;
        EXPECT_EQ(R.X[0], gsl::AiryBug1Input);
      }
    }
    if (Metric == instr::OverflowMetric::UlpGap)
      EXPECT_TRUE(Found) << "ULP gap should resolve the needle";
    else
      EXPECT_FALSE(Found) << "MAX - |a| is absorbed flat at this scale";
  }
}

// --------------------------------------------------------------------------
// Boundary analysis with the MinUlp form on the sin model.
// --------------------------------------------------------------------------

TEST(BoundaryDepthTest, MinUlpFormSolvesSinModel) {
  Module M;
  subjects::SinModel Sin = subjects::buildSinModel(M);
  analyses::BoundaryAnalysis BVA(M, *Sin.F, instr::BoundaryForm::MinUlp);
  for (unsigned I = 0; I < 4; ++I) {
    EXPECT_EQ(BVA.weak()({Sin.refBoundary(I)}), 0.0);
    EXPECT_EQ(BVA.weak()({-Sin.refBoundary(I)}), 0.0);
  }
  opt::BasinHopping Backend;
  core::SearchOptions Opts;
  Opts.Seed = 0xb1;
  Opts.MaxEvals = 40'000;
  core::SearchResult R = BVA.findOne(Backend, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_FALSE(BVA.hitsFor(R.Witness).empty());
}

// --------------------------------------------------------------------------
// Satisfiability: generated-formula property sweep — every SAT model must
// verify; UNSAT reports must have positive W*.
// --------------------------------------------------------------------------

TEST(SatDepthTest, RandomIntervalConjunctions) {
  RNG Rand(0x5eed);
  unsigned Sat = 0, Unsat = 0;
  for (int Trial = 0; Trial < 12; ++Trial) {
    // (and (>= x lo) (<= x hi) (>= (* x x) s)) with random lo < hi and a
    // threshold s that makes roughly half the instances satisfiable.
    double Lo = Rand.uniform(-50, 0);
    double Hi = Lo + Rand.uniform(0.5, 30);
    double MaxSq = std::max(Lo * Lo, Hi * Hi);
    double S = Rand.uniform(0.0, 2.0 * MaxSq);
    std::string Text = "(and (>= x " + formatDouble(Lo) + ") (<= x " +
                       formatDouble(Hi) + ") (>= (* x x) " +
                       formatDouble(S) + "))";
    auto C = sat::parseConstraint(Text);
    ASSERT_TRUE(C.hasValue()) << Text;
    sat::XSatSolver Solver;
    sat::XSatSolver::Options Opts;
    Opts.Reduce.Seed = 0x711 + Trial;
    Opts.Reduce.MaxEvals = 30'000;
    sat::SatResult R = Solver.solve(*C, Opts);
    if (R.Sat) {
      ++Sat;
      EXPECT_TRUE(C->satisfiedBy(R.Model)) << Text;
    } else {
      ++Unsat;
      EXPECT_GT(R.WStar, 0.0) << Text;
    }
  }
  // The generator straddles the boundary: both outcomes must occur.
  EXPECT_GT(Sat, 0u);
  EXPECT_GT(Unsat, 0u);
}

// --------------------------------------------------------------------------
// Coverage on the quadratic solver: disc == 0 direction is the hard one.
// --------------------------------------------------------------------------

TEST(CoverageDepthTest, QuadraticSolverReachesDoubleRootDirection) {
  Module M;
  subjects::QuadraticSolver P = subjects::buildQuadraticSolver(M);
  analyses::BranchCoverage Cov(M, *P.F);
  opt::BasinHopping Backend;
  analyses::BranchCoverage::Options Opts;
  Opts.Reduce.Seed = 0xcafe;
  Opts.Reduce.MaxEvals = 120'000;
  Opts.MaxStall = 4;
  analyses::CoverageReport R = Cov.run(Backend, Opts);
  EXPECT_EQ(R.Total, 6u);
  // All six directions are reachable: a==0/a!=0, disc<0/disc>=0,
  // disc==0/disc!=0. Require at least five (the equality surface in 3-D
  // is allowed to time out occasionally) and full verification of what
  // was claimed.
  EXPECT_GE(R.Covered, 5u);
}

// --------------------------------------------------------------------------
// RNG statistical depth: uniformity chi-square-ish sanity.
// --------------------------------------------------------------------------

TEST(RNGDepthTest, BelowIsRoughlyUniform) {
  RNG R(99);
  constexpr unsigned Buckets = 16;
  unsigned Counts[Buckets] = {};
  constexpr unsigned N = 64'000;
  for (unsigned I = 0; I < N; ++I)
    ++Counts[R.below(Buckets)];
  double Expected = double(N) / Buckets;
  for (unsigned I = 0; I < Buckets; ++I)
    EXPECT_NEAR(Counts[I], Expected, Expected * 0.1) << "bucket " << I;
}

} // namespace
