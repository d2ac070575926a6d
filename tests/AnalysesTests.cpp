//===--- AnalysesTests.cpp - End-to-end analysis tests -----------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"
#include "analyses/BranchCoverage.h"
#include "analyses/Inconsistency.h"
#include "analyses/OverflowDetector.h"
#include "analyses/PathReachability.h"
#include "gsl/Airy.h"
#include "gsl/Bessel.h"
#include "ir/Verifier.h"
#include "opt/BasinHopping.h"
#include "subjects/Fig1.h"
#include "subjects/Fig2.h"
#include "subjects/SinModel.h"
#include "subjects/TestPrograms.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace wdm;
using namespace wdm::analyses;
using namespace wdm::subjects;

namespace {

TEST(BoundaryAnalysisTest, Fig2FindsABoundaryValue) {
  ir::Module M("fig2");
  Fig2 Prog = buildFig2(M);
  BoundaryAnalysis BVA(M, *Prog.F);
  ASSERT_TRUE(ir::verifyModule(M).ok()) << ir::verifyModule(M).message();

  opt::BasinHopping Backend;
  core::SearchOptions Opts;
  Opts.Seed = 42;
  Opts.MaxEvals = 40'000;
  core::SearchResult R = BVA.findOne(Backend, Opts);
  ASSERT_TRUE(R.Found);
  // The witness must trigger a boundary condition on the original.
  EXPECT_FALSE(BVA.hitsFor(R.Witness).empty());
  EXPECT_EQ(R.UnsoundCandidates, 0u);
}

TEST(BoundaryAnalysisTest, Fig2KnownBoundaryValuesAreZeros) {
  ir::Module M("fig2");
  Fig2 Prog = buildFig2(M);
  BoundaryAnalysis BVA(M, *Prog.F);
  // The three boundary values the paper names, plus its surprise find.
  for (double X : {1.0, 2.0, -3.0, 0.9999999999999999}) {
    EXPECT_EQ(BVA.weak()({X}), 0.0) << "at x = " << X;
    EXPECT_FALSE(BVA.hitsFor({X}).empty()) << "at x = " << X;
  }
  // Non-boundary points have strictly positive weak distance.
  for (double X : {0.5, 3.7, -10.0})
    EXPECT_GT(BVA.weak()({X}), 0.0) << "at x = " << X;
}

TEST(PathReachabilityTest, Fig2BothBranches) {
  ir::Module M("fig2");
  Fig2 Prog = buildFig2(M);
  instr::PathSpec Spec;
  Spec.Legs.push_back({Prog.Branch1, true});
  Spec.Legs.push_back({Prog.Branch2, true});
  PathReachability PR(M, *Prog.F, Spec);
  ASSERT_TRUE(ir::verifyModule(M).ok()) << ir::verifyModule(M).message();

  // The paper's solution space is [-3, 1].
  EXPECT_EQ(PR.weak()({0.0}), 0.0);
  EXPECT_EQ(PR.weak()({-3.0}), 0.0);
  EXPECT_EQ(PR.weak()({1.0}), 0.0);
  EXPECT_GT(PR.weak()({1.5}), 0.0);
  EXPECT_GT(PR.weak()({-3.5}), 0.0);
  EXPECT_TRUE(PR.follows({0.5}));
  EXPECT_FALSE(PR.follows({2.5}));

  opt::BasinHopping Backend;
  core::SearchOptions Opts;
  Opts.Seed = 7;
  Opts.MaxEvals = 20'000;
  core::SearchResult R = PR.findOne(Backend, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_GE(R.Witness[0], -3.0);
  EXPECT_LE(R.Witness[0], 1.0);
}

TEST(PathReachabilityTest, Fig1aAssertionViolation) {
  ir::Module M("fig1");
  Fig1 Prog = buildFig1a(M);
  // Reach: guard true, assert-condition false (the trap).
  instr::PathSpec Spec;
  Spec.Legs.push_back({Prog.GuardBranch, true});
  Spec.Legs.push_back({Prog.AssertBranch, false});
  PathReachability PR(M, *Prog.F, Spec);

  // The paper's example: x = 0.9999999999999999 fails the assert under
  // round-to-nearest.
  EXPECT_EQ(PR.weak()({0.9999999999999999}), 0.0);
  EXPECT_TRUE(PR.follows({0.9999999999999999}));
  EXPECT_FALSE(PR.follows({0.5}));

  opt::BasinHopping Backend;
  core::SearchOptions Opts;
  Opts.Seed = 11;
  Opts.MaxEvals = 60'000;
  core::SearchResult R = PR.findOne(Backend, Opts);
  ASSERT_TRUE(R.Found);
  // Only the maximal double below 1 triggers the violation.
  EXPECT_EQ(R.Witness[0], 0.9999999999999999);
}

TEST(BranchCoverageTest, ClassifierFullCoverage) {
  ir::Module M("classifier");
  ir::Function *F = buildClassifier(M);
  BranchCoverage Cov(M, *F);
  ASSERT_TRUE(ir::verifyModule(M).ok()) << ir::verifyModule(M).message();

  opt::BasinHopping Backend;
  BranchCoverage::Options Opts;
  Opts.Reduce.Seed = 3;
  Opts.Reduce.MaxEvals = 30'000;
  CoverageReport R = Cov.run(Backend, Opts);
  // 4 branches -> 8 directions, all reachable (including x == 42.0).
  EXPECT_EQ(R.Total, 8u);
  EXPECT_EQ(R.Covered, 8u) << "coverage ratio " << R.ratio();
}

TEST(OverflowDetectorTest, BesselFindsMostOverflows) {
  ir::Module M("bessel");
  gsl::SfFunction Bessel = gsl::buildBesselKnuScaledAsympx(M);
  OverflowDetector Det(M, *Bessel.F);
  ASSERT_TRUE(ir::verifyModule(M).ok()) << ir::verifyModule(M).message();
  ASSERT_EQ(Det.sites().size(), gsl::BesselNumFPOps);

  OverflowDetector::Options Opts;
  Opts.Seed = 1234;
  OverflowReport R = Det.run(Opts);
  // Paper: 21 of 23 (2.0*EPSILON is structurally impossible). Allow some
  // slack for the stochastic backend but require the bulk.
  EXPECT_GE(R.numOverflows(), 18u);
  EXPECT_LE(R.numOverflows(), 22u);
  // Every reported overflow must replay on the original program.
  for (const OverflowFinding &F : R.Findings) {
    if (F.Found) {
      EXPECT_TRUE(Det.overflowsAt(F.SiteId, F.Input))
          << "site " << F.SiteId << " (" << F.Description << ")";
    }
  }
}

TEST(InconsistencyTest, AiryBugSignatures) {
  ir::Module M("airy");
  gsl::AiryModel Airy = gsl::buildAiryAi(M);
  ASSERT_TRUE(ir::verifyModule(M).ok()) << ir::verifyModule(M).message();
  InconsistencyChecker Check(M, Airy.Airy);

  // Bug 1: division by the vanished Chebyshev modulus, at the exact
  // double where the series cancels to 0.0.
  InconsistencyFinding Bug1 = Check.check({gsl::AiryBug1Input});
  EXPECT_TRUE(Bug1.Inconsistent)
      << "status " << Bug1.Status << " val " << Bug1.Val;
  EXPECT_EQ(Bug1.RootCause, "division by zero");
  EXPECT_TRUE(Bug1.LooksLikeBug);

  // Bug 2: phase-error blowup inside cos_err.
  InconsistencyFinding Bug2 = Check.check({-1.14e57});
  EXPECT_TRUE(Bug2.Inconsistent)
      << "status " << Bug2.Status << " val " << Bug2.Val;
  EXPECT_EQ(Bug2.RootCause, "Inaccurate cosine");
  EXPECT_TRUE(Bug2.LooksLikeBug);

  // The paper: "the exception disappears if one slightly disturbs the
  // input" — one ulp away the run is consistent again.
  InconsistencyFinding Near =
      Check.check({std::nextafter(gsl::AiryBug1Input, 0.0)});
  EXPECT_FALSE(Near.Inconsistent);

  // A benign oscillatory input stays consistent.
  InconsistencyFinding Fine = Check.check({-5.0});
  EXPECT_FALSE(Fine.Inconsistent);
  EXPECT_EQ(Fine.Status, gsl::GSL_SUCCESS);
}

TEST(BoundaryAnalysisTest, SinModelRefBoundariesAreZeros) {
  ir::Module M("sin");
  SinModel Sin = buildSinModel(M);
  BoundaryAnalysis BVA(M, *Sin.F);
  ASSERT_TRUE(ir::verifyModule(M).ok()) << ir::verifyModule(M).message();
  // Exactly the five dispatch comparisons are boundary sites.
  EXPECT_EQ(BVA.sites().size(), 5u);

  // The developer-suggested thresholds are boundary values (both signs),
  // except the unreachable 2^1024 one.
  for (unsigned I = 0; I < 4; ++I) {
    double Ref = Sin.refBoundary(I);
    EXPECT_EQ(BVA.weak()({Ref}), 0.0) << "threshold " << I;
    EXPECT_EQ(BVA.weak()({-Ref}), 0.0) << "threshold -" << I;
    EXPECT_FALSE(BVA.hitsFor({Ref}).empty());
  }
}

} // namespace
