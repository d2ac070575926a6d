//===--- Optimizer.h - Optimization backend interface ----------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper uses mathematical optimization "as an off-the-shelf black-box
/// technique" (Section 4.1). This interface is that black box: every
/// backend minimizes an Objective starting from a point, drawing
/// randomness only from an explicit RNG. Backends implemented from
/// scratch in this project:
///   - BasinHopping: MCMC over local minima (Li & Scheraga 1987) — the
///     paper's main backend;
///   - DifferentialEvolution: Storn's parallel direct search;
///   - Powell: derivative-free direction-set local search (Powell 1964);
///   - NelderMead: simplex local search;
///   - UlpPatternSearch: coordinate pattern search over the *ordered bit
///     representation* of doubles, the natural metric for floating-point
///     inputs (Section 7 discusses ULP distances);
///   - RandomSearch: the degenerate baseline the characteristic-function
///     weak distance reduces to (Fig. 7 discussion).
///
//===----------------------------------------------------------------------===//

#ifndef WDM_OPT_OPTIMIZER_H
#define WDM_OPT_OPTIMIZER_H

#include "opt/Objective.h"
#include "support/RNG.h"

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace wdm::opt {

/// Inner local-minimization algorithm used by BasinHopping.
enum class LocalMethod : uint8_t {
  UlpPatternSearch,
  NelderMead,
  Powell,
  None, ///< Pure Monte Carlo over proposals.
};

struct MinimizeOptions {
  // Common.
  double Target = 0.0;
  bool StopAtTarget = true;

  // BasinHopping.
  unsigned Hops = 120;           ///< Outer MCMC iterations.
  double Temperature = 1.0;      ///< Metropolis temperature.
  unsigned StepBits = 45;        ///< Initial proposal scale, log2 ulps.
  uint64_t LocalBudget = 4'000;  ///< Eval budget per local descent.
  LocalMethod Local = LocalMethod::UlpPatternSearch;

  // DifferentialEvolution.
  unsigned PopSize = 0;          ///< 0 = auto (15 * dim, capped at 64).
  double DEWeight = 0.7;         ///< Differential weight F.
  double DECrossover = 0.9;      ///< Crossover probability CR.
  /// Sampling box [Lo, Hi]. Box semantics are explicit per backend:
  ///  - DifferentialEvolution is a box-constrained method: population
  ///    init draws from the box and every trial is clipped back into it;
  ///  - RandomSearch draws half its samples from the box and half from
  ///    all finite doubles (the wild draws are by design outside);
  ///  - BasinHopping/UlpPatternSearch deliberately ignore the box: their
  ///    ordered-bit proposals must roam all of F (Section 4.1's starting
  ///    points "range over the whole floating-point space");
  ///  - Powell/NelderMead are local descents anchored at Start.
  /// NaN (the default) means "unset": box-consuming backends then use
  /// [-1e4, 1e4] via sanitizedBox(), and the SearchEngine substitutes
  /// its start box so starts and sampling agree. Lo >= Hi or non-finite
  /// bounds are likewise treated as unset.
  double Lo = std::numeric_limits<double>::quiet_NaN();
  double Hi = std::numeric_limits<double>::quiet_NaN();

  // Powell / NelderMead.
  double Tol = 1e-14;            ///< Relative improvement tolerance.
  double InitStep = 1.0;         ///< Initial step/simplex scale.
};

struct MinimizeResult {
  std::vector<double> X;    ///< Best point found.
  double F = 0;             ///< Objective at X.
  uint64_t Evals = 0;       ///< Evaluations consumed by this call.
  bool ReachedTarget = false;
};

class Optimizer {
public:
  virtual ~Optimizer();

  virtual const char *name() const = 0;

  /// Minimizes \p Obj from \p Start. Respects Obj.done() and returns the
  /// best point seen by this call.
  virtual MinimizeResult minimize(Objective &Obj,
                                  const std::vector<double> &Start,
                                  RNG &Rand,
                                  const MinimizeOptions &Opts) = 0;
};

/// Applies the common options onto the objective's stopping fields.
void applyStopRule(Objective &Obj, const MinimizeOptions &Opts);

/// The sampling box with unset/invalid configurations (NaN, non-finite
/// bounds, Lo >= Hi) replaced by [-1e4, 1e4] — box-consuming backends
/// must draw from this instead of the raw fields.
std::pair<double, double> sanitizedBox(const MinimizeOptions &Opts);

/// Finalizes a MinimizeResult from the objective's best-so-far.
MinimizeResult harvest(const Objective &Obj, uint64_t EvalsBefore);

} // namespace wdm::opt

#endif // WDM_OPT_OPTIMIZER_H
