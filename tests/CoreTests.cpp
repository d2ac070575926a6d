//===--- CoreTests.cpp - Reduction (Algorithm 2) tests -------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "core/SearchEngine.h"
#include "opt/BasinHopping.h"
#include "opt/RandomSearch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

using namespace wdm;
using namespace wdm::core;

namespace {

/// Weak distance from a lambda, for synthetic reduction tests.
class LambdaWeak : public WeakDistance {
public:
  using Fn = std::function<double(const std::vector<double> &)>;
  LambdaWeak(Fn F, unsigned Dim) : F(std::move(F)), Dim(Dim) {}
  unsigned dim() const override { return Dim; }
  double operator()(const std::vector<double> &X) override { return F(X); }

private:
  Fn F;
  unsigned Dim;
};

class LambdaProblem : public AnalysisProblem {
public:
  using Fn = std::function<bool(const std::vector<double> &)>;
  LambdaProblem(Fn F, unsigned Dim) : F(std::move(F)), Dim(Dim) {}
  unsigned dim() const override { return Dim; }
  bool contains(const std::vector<double> &X) override { return F(X); }

private:
  Fn F;
  unsigned Dim;
};

TEST(ReductionTest, FindsZeroOfSimpleWeakDistance) {
  LambdaWeak W([](const std::vector<double> &X) { return std::fabs(X[0] - 7.0); },
               1);
  LambdaProblem P([](const std::vector<double> &X) { return X[0] == 7.0; },
                  1);
  SearchEngine Red(W, &P);
  opt::BasinHopping Backend;
  SearchOptions Opts;
  Opts.Seed = 1;
  Opts.MaxEvals = 30'000;
  SearchResult R = Red.solve(Backend, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Witness[0], 7.0);
  EXPECT_EQ(R.UnsoundCandidates, 0u);
}

TEST(ReductionTest, ReportsNotFoundOnPositiveFunction) {
  LambdaWeak W(
      [](const std::vector<double> &X) { return X[0] * X[0] + 0.5; }, 1);
  SearchEngine Red(W, nullptr);
  opt::BasinHopping Backend;
  SearchOptions Opts;
  Opts.Seed = 2;
  Opts.MaxEvals = 5'000;
  Opts.Starts = 4;
  SearchResult R = Red.solve(Backend, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_GE(R.WStar, 0.5);
  EXPECT_LE(R.Evals, Opts.MaxEvals + 100);
}

TEST(ReductionTest, RejectsUnsoundZeros) {
  // A deliberately broken weak distance (paper Limitation 2): it reports
  // 0 on a whole interval, but only x == 3 is really in S. Verification
  // must reject the spurious zeros and keep searching.
  LambdaWeak W(
      [](const std::vector<double> &X) {
        if (std::fabs(X[0] - 3.0) < 0.5)
          return 0.0; // too-optimistic zero region
        return std::fabs(X[0] - 3.0);
      },
      1);
  LambdaProblem P([](const std::vector<double> &X) { return X[0] == 3.0; },
                  1);
  SearchEngine Red(W, &P);
  opt::BasinHopping Backend;
  SearchOptions Opts;
  Opts.Seed = 3;
  Opts.MaxEvals = 60'000;
  Opts.Starts = 30;
  SearchResult R = Red.solve(Backend, Opts);
  // Either it eventually hits exactly 3.0 (then Witness is verified), or
  // it reports not-found. In both cases every reported witness must be
  // genuine and rejected candidates must be counted.
  if (R.Found)
    EXPECT_EQ(R.Witness[0], 3.0);
  else
    EXPECT_GT(R.UnsoundCandidates, 0u);
}

TEST(ReductionTest, VerificationCanBeDisabled) {
  unsigned Calls = 0;
  LambdaWeak W(
      [](const std::vector<double> &X) { return std::fabs(X[0]); }, 1);
  LambdaProblem P(
      [&Calls](const std::vector<double> &) {
        ++Calls;
        return true;
      },
      1);
  SearchEngine Red(W, &P);
  opt::BasinHopping Backend;
  SearchOptions Opts;
  Opts.Seed = 4;
  Opts.MaxEvals = 10'000;
  Opts.VerifySolutions = false;
  SearchResult R = Red.solve(Backend, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(Calls, 0u);
}

TEST(ReductionTest, RecorderSeesAllSamples) {
  LambdaWeak W(
      [](const std::vector<double> &X) { return std::fabs(X[0] - 1.0); },
      1);
  SearchEngine Red(W, nullptr);
  opt::BasinHopping Backend;
  opt::VectorRecorder Rec;
  SearchOptions Opts;
  Opts.Seed = 5;
  Opts.MaxEvals = 4'000;
  SearchResult R = Red.solve(Backend, Opts, &Rec);
  EXPECT_EQ(Rec.Samples.size(), R.Evals);
  EXPECT_GT(Rec.Samples.size(), 0u);
}

TEST(ReductionTest, DeterministicAcrossRuns) {
  auto Run = [] {
    LambdaWeak W(
        [](const std::vector<double> &X) {
          return std::fabs(std::sin(X[0]) + 0.3) + 0.001;
        },
        1);
    SearchEngine Red(W, nullptr);
    opt::BasinHopping Backend;
    SearchOptions Opts;
    Opts.Seed = 6;
    Opts.MaxEvals = 3'000;
    return Red.solve(Backend, Opts);
  };
  SearchResult A = Run();
  SearchResult B = Run();
  EXPECT_EQ(A.WStar, B.WStar);
  EXPECT_EQ(A.Evals, B.Evals);
  EXPECT_EQ(A.WStarAt, B.WStarAt);
}

TEST(ReductionTest, MultiDimensional) {
  // S = {(x, y) | x + y == 10 and x - y == 4 in FP} around (7, 3). The
  // two constraints couple the coordinates, so solving this exactly
  // requires the backend's joint (diagonal) moves.
  LambdaWeak W(
      [](const std::vector<double> &X) {
        return std::fabs(X[0] + X[1] - 10.0) +
               std::fabs(X[0] - X[1] - 4.0);
      },
      2);
  LambdaProblem P(
      [](const std::vector<double> &X) {
        return X[0] + X[1] == 10.0 && X[0] - X[1] == 4.0;
      },
      2);
  SearchEngine Red(W, &P);
  opt::BasinHopping Backend;
  SearchOptions Opts;
  Opts.Seed = 7;
  Opts.MaxEvals = 120'000;
  Opts.Starts = 12;
  SearchResult R = Red.solve(Backend, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Witness[0] + R.Witness[1], 10.0);
  EXPECT_EQ(R.Witness[0] - R.Witness[1], 4.0);
}

} // namespace
