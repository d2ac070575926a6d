//===--- KernelsTests.cpp - Analyses on realistic numeric kernels -------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"
#include "analyses/BranchCoverage.h"
#include "analyses/OverflowDetector.h"
#include "analyses/PathReachability.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/BasinHopping.h"
#include "subjects/NumericKernels.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace wdm;
using namespace wdm::analyses;
using namespace wdm::exec;
using namespace wdm::subjects;

namespace {

TEST(QuadraticSolverTest, Semantics) {
  ir::Module M;
  QuadraticSolver P = buildQuadraticSolver(M);
  ASSERT_TRUE(ir::verifyModule(M).ok()) << ir::verifyModule(M).message();
  Engine E(M);
  ExecContext Ctx(M);
  auto Roots = [&](double A, double B, double C) {
    return E.run(P.F,
                 {RTValue::ofDouble(A), RTValue::ofDouble(B),
                  RTValue::ofDouble(C)},
                 Ctx)
        .ReturnValue.asDouble();
  };
  EXPECT_EQ(Roots(1, 0, 1), 0.0);   // x^2 + 1: no real roots
  EXPECT_EQ(Roots(1, 0, -1), 2.0);  // x^2 - 1: two roots
  EXPECT_EQ(Roots(1, 2, 1), 1.0);   // (x+1)^2: double root
  EXPECT_EQ(Roots(0, 5, 1), 1.0);   // linear
}

TEST(QuadraticSolverTest, BoundaryAnalysisFindsDoubleRootSurface) {
  // The disc == 0 surface b^2 = 4ac is measure-zero in R^3 — exactly the
  // "higher payoff" inputs boundary value analysis is for.
  ir::Module M;
  QuadraticSolver P = buildQuadraticSolver(M);
  BoundaryAnalysis BVA(M, *P.F);

  opt::BasinHopping Backend;
  core::SearchOptions Opts;
  Opts.Seed = 0x9d;
  Opts.MaxEvals = 150'000;
  Opts.Starts = 16;
  core::SearchResult R = BVA.findOne(Backend, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_FALSE(BVA.hitsFor(R.Witness).empty());
}

TEST(QuadraticSolverTest, PathToDoubleRoot) {
  // Reach the disc == 0 branch specifically: a != 0, disc not negative,
  // then disc == 0.
  ir::Module M;
  QuadraticSolver P = buildQuadraticSolver(M);
  // Find the disc == 0 condbr: third conditional in layout order.
  std::vector<const ir::Instruction *> Branches;
  P.F->forEachInst([&](const ir::Instruction *I) {
    if (I->opcode() == ir::Opcode::CondBr)
      Branches.push_back(I);
  });
  ASSERT_EQ(Branches.size(), 3u);
  instr::PathSpec Spec;
  Spec.Legs.push_back({Branches[0], false}); // a != 0
  Spec.Legs.push_back({Branches[1], false}); // disc >= 0
  Spec.Legs.push_back({Branches[2], true});  // disc == 0
  PathReachability PR(M, *P.F, Spec);

  // Known solution: (1, 2, 1).
  EXPECT_EQ(PR.weak()({1.0, 2.0, 1.0}), 0.0);
  EXPECT_TRUE(PR.follows({1.0, 2.0, 1.0}));
  EXPECT_FALSE(PR.follows({1.0, 0.0, 1.0}));

  opt::BasinHopping Backend;
  core::SearchOptions Opts;
  Opts.Seed = 0x9e;
  Opts.MaxEvals = 200'000;
  Opts.Starts = 20;
  core::SearchResult R = PR.findOne(Backend, Opts);
  if (R.Found) {
    double A = R.Witness[0], B = R.Witness[1], C = R.Witness[2];
    EXPECT_EQ(B * B - 4.0 * A * C, 0.0);
    EXPECT_NE(A, 0.0);
  }
  // (3-dimensional equality surfaces are hard; not finding one within
  // budget is acceptable incompleteness, but a found witness must be
  // genuine — checked above.)
}

TEST(RaySphereTest, SemanticsAndTangency) {
  ir::Module M;
  RaySphere P = buildRaySphere(M);
  ASSERT_TRUE(ir::verifyModule(M).ok());
  Engine E(M);
  ExecContext Ctx(M);
  auto Hit = [&](double Ox, double Dx, double R) {
    return E.run(P.F,
                 {RTValue::ofDouble(Ox), RTValue::ofDouble(Dx),
                  RTValue::ofDouble(R)},
                 Ctx)
        .ReturnValue.asDouble();
  };
  // Ray from -10 toward +: hits circle radius 1 at distance 9.
  EXPECT_DOUBLE_EQ(Hit(-10.0, 1.0, 1.0), 9.0);
  // Pointing away: the quadratic still has real roots (negative t).
  EXPECT_LE(Hit(-10.0, -1.0, 1.0), 0.0);
  // Radius zero through origin: tangency at t = 10 (disc == 0).
  EXPECT_DOUBLE_EQ(Hit(-10.0, 1.0, 0.0), 10.0);
}

TEST(RaySphereTest, CoverageReachesBothOutcomes) {
  ir::Module M;
  RaySphere P = buildRaySphere(M);
  BranchCoverage Cov(M, *P.F);
  opt::BasinHopping Backend;
  BranchCoverage::Options Opts;
  Opts.Reduce.Seed = 0xa0;
  Opts.Reduce.MaxEvals = 40'000;
  CoverageReport R = Cov.run(Backend, Opts);
  EXPECT_EQ(R.Total, 2u);
  EXPECT_EQ(R.Covered, 2u);
}

TEST(HermiteTest, SemanticsAndClampBoundaries) {
  ir::Module M;
  ir::Function *F = buildHermite(M);
  ASSERT_TRUE(ir::verifyModule(M).ok());
  Engine E(M);
  ExecContext Ctx(M);
  auto H = [&](double P0, double P1, double T) {
    return E.run(F,
                 {RTValue::ofDouble(P0), RTValue::ofDouble(P1),
                  RTValue::ofDouble(T)},
                 Ctx)
        .ReturnValue.asDouble();
  };
  EXPECT_EQ(H(2.0, 5.0, -1.0), 2.0); // clamped low
  EXPECT_EQ(H(2.0, 5.0, 3.0), 5.0);  // clamped high
  EXPECT_EQ(H(2.0, 5.0, 0.5), 3.5);  // midpoint of the smoothstep
  // Monotone on [0,1] for this blend.
  EXPECT_LT(H(0.0, 1.0, 0.25), H(0.0, 1.0, 0.75));
}

TEST(HermiteTest, BoundaryValuesAtClamps) {
  ir::Module M;
  ir::Function *F = buildHermite(M);
  BoundaryAnalysis BVA(M, *F);
  // t == 0 and t == 1 are the boundary conditions.
  EXPECT_EQ(BVA.weak()({1.0, 2.0, 0.0}), 0.0);
  EXPECT_EQ(BVA.weak()({1.0, 2.0, 1.0}), 0.0);
  EXPECT_GT(BVA.weak()({1.0, 2.0, 0.5}), 0.0);

  opt::BasinHopping Backend;
  core::SearchOptions Opts;
  Opts.Seed = 0xa1;
  Opts.MaxEvals = 60'000;
  core::SearchResult R = BVA.findOne(Backend, Opts);
  ASSERT_TRUE(R.Found);
  double T = R.Witness[2];
  EXPECT_TRUE(T == 0.0 || T == 1.0) << "t = " << T;
}

TEST(HermiteTest, OverflowThroughHugeSlopes) {
  ir::Module M;
  ir::Function *F = buildHermite(M);
  OverflowDetector Det(M, *F);
  OverflowDetector::Options Opts;
  Opts.Seed = 0xa2;
  OverflowReport R = Det.run(Opts);
  // span = p1 - p0 and the final fma-style ops overflow with huge
  // endpoint values; at least two operations must be triggerable.
  EXPECT_GE(R.numOverflows(), 2u);
  for (const OverflowFinding &Fd : R.Findings) {
    if (Fd.Found) {
      EXPECT_TRUE(Det.overflowsAt(Fd.SiteId, Fd.Input));
    }
  }
}

TEST(KernelsRoundTripTest, PrintParseExecute) {
  ir::Module M;
  buildQuadraticSolver(M);
  buildRaySphere(M);
  buildHermite(M);
  std::string Text = ir::toString(M);
  auto Parsed = ir::parseModule(Text);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  EXPECT_EQ(ir::toString(**Parsed), Text);
}

} // namespace
