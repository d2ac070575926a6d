//===--- Optimizer.cpp - Optimization backend interface --------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"

#include <cmath>

using namespace wdm::opt;

Optimizer::~Optimizer() = default;

void wdm::opt::applyStopRule(Objective &Obj, const MinimizeOptions &Opts) {
  Obj.Target = Opts.Target;
  Obj.StopAtTarget = Opts.StopAtTarget;
}

std::pair<double, double>
wdm::opt::sanitizedBox(const MinimizeOptions &Opts) {
  if (std::isfinite(Opts.Lo) && std::isfinite(Opts.Hi) &&
      Opts.Lo < Opts.Hi)
    return {Opts.Lo, Opts.Hi};
  return {-1.0e4, 1.0e4}; // the historical DE/RandomSearch box
}

MinimizeResult wdm::opt::harvest(const Objective &Obj,
                                 uint64_t EvalsBefore) {
  MinimizeResult R;
  R.X = Obj.bestX();
  R.F = Obj.bestF();
  R.Evals = Obj.numEvals() - EvalsBefore;
  R.ReachedTarget = Obj.reachedTarget();
  return R;
}
