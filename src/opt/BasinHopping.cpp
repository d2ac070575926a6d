//===--- BasinHopping.cpp - MCMC over local minima --------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "opt/BasinHopping.h"

#include "opt/NelderMead.h"
#include "opt/Powell.h"
#include "opt/UlpSearch.h"
#include "support/FPUtils.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

using namespace wdm;
using namespace wdm::opt;

namespace {

/// Shared proposal kernel: per-coordinate ordered-bit jump from \p From;
/// occasional full redraw keeps the chain irreducible over all of F.
void propose(double *Out, const double *From, unsigned Dim,
             double StepBits, RNG &Rand) {
  for (unsigned I = 0; I < Dim; ++I) {
    if (Rand.chance(0.1)) {
      Out[I] = Rand.anyFiniteDouble();
      continue;
    }
    int64_t Base = orderedBits(From[I]);
    double Jump = Rand.normal() * std::ldexp(1.0, static_cast<int>(StepBits));
    // Clamp the jump into int64 range before converting.
    Jump = std::fmax(std::fmin(Jump, 4.4e18), -4.4e18);
    Out[I] =
        clampedFromOrderedBits(orderedBitsAdd(Base, static_cast<int64_t>(Jump)));
  }
}

/// Adapts the proposal scale toward a ~50% acceptance rate, the SciPy
/// basinhopping heuristic, expressed in bits. Applied every 10 proposals.
void adaptStep(double &StepBits, unsigned Accepted, unsigned Proposed) {
  if (Proposed % 10 != 0)
    return;
  double Rate =
      static_cast<double>(Accepted) / static_cast<double>(Proposed);
  if (Rate > 0.6)
    StepBits = std::fmin(StepBits + 2.0, 62.0);
  else if (Rate < 0.4)
    StepBits = std::fmax(StepBits - 2.0, 4.0);
}

/// LocalMethod::None — pure Monte Carlo over proposals in fixed rounds of
/// MCRound, all centered at the round-start state, then evaluated and
/// Metropolis-processed one by one. Every proposal of a round is drawn
/// before the round's first acceptance test, and that draw order fixes
/// every result bit. (The recentering delay versus a one-proposal-at-a-
/// time chain is deliberate; this mode's only in-tree user is the
/// local-minimizer ablation bench.)
MinimizeResult pureMonteCarlo(Objective &Obj,
                              const std::vector<double> &Start, RNG &Rand,
                              const MinimizeOptions &Opts,
                              uint64_t Before) {
  constexpr unsigned MCRound = 32;
  unsigned Dim = Obj.dim();

  std::vector<double> X = Start;
  double F = Obj.eval(Start);

  double StepBits = static_cast<double>(Opts.StepBits);
  unsigned Accepted = 0, Proposed = 0;

  std::vector<double> Props(static_cast<std::size_t>(MCRound) * Dim);

  unsigned Hop = 0;
  while (Hop < Opts.Hops && !Obj.done()) {
    unsigned Round = std::min(MCRound, Opts.Hops - Hop);
    for (unsigned K = 0; K < Round; ++K)
      propose(Props.data() + static_cast<std::size_t>(K) * Dim, X.data(),
              Dim, StepBits, Rand);

    for (std::size_t K = 0; K < Round && !Obj.done(); ++K) {
      const double *Prop = Props.data() + K * Dim;
      double FNew = Obj.eval(Prop);
      ++Proposed;
      ++Hop;
      bool Accept = FNew <= F;
      if (!Accept && Opts.Temperature > 0.0) {
        double Ratio = (F - FNew) / Opts.Temperature;
        Accept = Rand.chance(std::exp(Ratio));
      }
      if (Accept) {
        X.assign(Prop, Prop + Dim);
        F = FNew;
        ++Accepted;
      }
      adaptStep(StepBits, Accepted, Proposed);
    }
  }
  return harvest(Obj, Before);
}

} // namespace

MinimizeResult BasinHopping::minimize(Objective &Obj,
                                      const std::vector<double> &Start,
                                      RNG &Rand,
                                      const MinimizeOptions &Opts) {
  applyStopRule(Obj, Opts);
  uint64_t Before = Obj.numEvals();
  if (Obj.done())
    return harvest(Obj, Before);
  unsigned Dim = Obj.dim();

  std::unique_ptr<Optimizer> Inner;
  switch (Opts.Local) {
  case LocalMethod::UlpPatternSearch:
    Inner = std::make_unique<UlpPatternSearch>();
    break;
  case LocalMethod::NelderMead:
    Inner = std::make_unique<NelderMead>();
    break;
  case LocalMethod::Powell:
    Inner = std::make_unique<Powell>();
    break;
  case LocalMethod::None:
    return pureMonteCarlo(Obj, Start, Rand, Opts, Before);
  }

  MinimizeOptions InnerOpts = Opts;

  auto Descend = [&](const std::vector<double> &From) {
    MinimizeResult R = Inner->minimize(Obj, From, Rand, InnerOpts);
    // The inner harvest reports the global best; re-evaluate its endpoint
    // locality by just using the best-so-far (monotone, adequate for the
    // Metropolis state).
    return std::pair<std::vector<double>, double>(R.X, R.F);
  };

  auto [X, F] = Descend(Start);

  double StepBits = static_cast<double>(Opts.StepBits);
  unsigned Accepted = 0, Proposed = 0;

  for (unsigned Hop = 0; Hop < Opts.Hops && !Obj.done(); ++Hop) {
    std::vector<double> Proposal(Dim);
    propose(Proposal.data(), X.data(), Dim, StepBits, Rand);

    auto [XNew, FNew] = Descend(Proposal);
    ++Proposed;

    bool Accept = FNew <= F;
    if (!Accept && Opts.Temperature > 0.0) {
      double Ratio = (F - FNew) / Opts.Temperature;
      Accept = Rand.chance(std::exp(Ratio));
    }
    if (Accept) {
      X = std::move(XNew);
      F = FNew;
      ++Accepted;
    }

    adaptStep(StepBits, Accepted, Proposed);
  }
  return harvest(Obj, Before);
}
