//===--- Objective.cpp - Minimization objective wrapper --------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "opt/Objective.h"

#include <cassert>
#include <cmath>
#include <limits>

using namespace wdm::opt;

SampleRecorder::~SampleRecorder() = default;

double Objective::note(const double *X, double F) {
  if (std::isnan(F))
    F = std::numeric_limits<double>::infinity();
  ++Evals;
  if (Recorder) {
    Scratch.assign(X, X + Dim);
    Recorder->record(Scratch, F);
  }
  if (BestX.empty() || F < BestF) {
    // assign() reuses the buffer's capacity (reserved at construction),
    // so an improvement costs a copy, never an allocation.
    BestX.assign(X, X + Dim);
    BestF = F;
  }
  return F;
}

double Objective::eval(const std::vector<double> &X) {
  assert(X.size() == Dim && "dimension mismatch");
  return note(X.data(), Callable(X));
}

double Objective::eval(const double *X) {
  Scratch.assign(X, X + Dim);
  return note(X, Callable(Scratch));
}

void Objective::reset() {
  Evals = 0;
  BestX.clear();
  BestF = 0;
}
