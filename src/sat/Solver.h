//===--- Solver.h - XSat-style FP satisfiability solver --------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides quantifier-free FP constraints by weak-distance minimization
/// (the XSat approach validated as an instance of Theorem 3.3 by this
/// paper). Every model is verified by direct evaluation before being
/// reported, so SAT answers are sound; UNSAT answers inherit
/// Limitation 3's incompleteness, as in the original tool.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_SAT_SOLVER_H
#define WDM_SAT_SOLVER_H

#include "core/SearchEngine.h"
#include "sat/Distance.h"

namespace wdm::sat {

struct SatResult {
  bool Sat = false;
  std::vector<double> Model; ///< Valid when Sat (verified).
  double WStar = 0;          ///< Smallest weak-distance value seen.
  uint64_t Evals = 0;
};

class XSatSolver {
public:
  struct Options {
    DistanceMetric Metric = DistanceMetric::Ulp;
    /// Full SearchOptions: Reduce.Threads > 1 fans the starts out over
    /// worker threads (each worker gets its own CNF-distance copy), and
    /// Reduce.Portfolio mixes MO backends across starts.
    core::SearchOptions Reduce;
  };

  /// Decides \p Constraint; "not found" maps to Sat = false.
  SatResult solve(const CNF &Constraint, const Options &Opts);

  /// Convenience overload with default options.
  SatResult solve(const CNF &Constraint) { return solve(Constraint, {}); }
};

} // namespace wdm::sat

#endif // WDM_SAT_SOLVER_H
