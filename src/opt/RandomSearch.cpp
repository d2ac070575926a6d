//===--- RandomSearch.cpp - Pure random sampling baseline -------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "opt/RandomSearch.h"

using namespace wdm::opt;

MinimizeResult RandomSearch::minimize(Objective &Obj,
                                      const std::vector<double> &Start,
                                      RNG &Rand,
                                      const MinimizeOptions &Opts) {
  applyStopRule(Obj, Opts);
  uint64_t Before = Obj.numEvals();
  if (Obj.done())
    return harvest(Obj, Before);
  unsigned Dim = Obj.dim();
  // Half the draws come from the box, half roam all finite doubles —
  // the box is a sampling prior here, not a constraint.
  auto [Lo, Hi] = sanitizedBox(Opts);

  Obj.eval(Start);

  std::vector<double> X(Dim);
  while (!Obj.done()) {
    bool Boxed = Rand.chance(0.5);
    for (unsigned I = 0; I < Dim; ++I)
      X[I] = Boxed ? Rand.uniform(Lo, Hi) : Rand.anyFiniteDouble();
    Obj.eval(X);
  }
  return harvest(Obj, Before);
}
