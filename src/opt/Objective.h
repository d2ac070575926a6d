//===--- Objective.h - Minimization objective wrapper ----------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Objective wraps the function being minimized (for us: a weak distance)
/// with evaluation counting, best-so-far tracking, optional sample
/// recording (Figs. 3, 4, 9 plot raw sampling sequences), and the paper's
/// weak-distance termination rule: since W >= 0 by Def. 3.1(a), the
/// optimization can stop the moment it reaches 0 (Section 4.4 Remark).
///
/// Every backend evaluates one candidate at a time; population backends
/// pass rows of their flat population through eval(const double *).
///
//===----------------------------------------------------------------------===//

#ifndef WDM_OPT_OBJECTIVE_H
#define WDM_OPT_OBJECTIVE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace wdm::opt {

/// Receives every objective evaluation in order.
class SampleRecorder {
public:
  virtual ~SampleRecorder();
  virtual void record(const std::vector<double> &X, double F) = 0;
};

/// Stores all samples; convenient for the plotting benches.
class VectorRecorder : public SampleRecorder {
public:
  struct Sample {
    std::vector<double> X;
    double F;
  };

  void record(const std::vector<double> &X, double F) override {
    if (Samples.empty())
      Samples.reserve(InitialReserve);
    Samples.push_back({X, F});
  }

  /// First-growth capacity; the plotting benches record 10^4..10^6
  /// samples, so skip the early doubling reallocations.
  static constexpr std::size_t InitialReserve = 1024;

  std::vector<Sample> Samples;
};

class Objective {
public:
  using Fn = std::function<double(const std::vector<double> &)>;

  Objective(Fn Callable, unsigned Dim)
      : Callable(std::move(Callable)), Dim(Dim) {
    BestX.reserve(Dim);
    Scratch.reserve(Dim);
  }

  unsigned dim() const { return Dim; }

  /// Evaluates, records, and updates the best-so-far. NaN results are
  /// treated as +inf for comparison purposes (a weak distance is >= 0 by
  /// definition, but runtime inf-inf artifacts can produce NaN).
  double eval(const std::vector<double> &X);
  /// Same, for \p X pointing at dim() doubles (a row of a flat
  /// population).
  double eval(const double *X);

  uint64_t numEvals() const { return Evals; }

  bool hasBest() const { return !BestX.empty(); }
  const std::vector<double> &bestX() const { return BestX; }
  double bestF() const { return BestF; }

  /// Evaluation budget; optimizers must stop once done() holds and must
  /// never call eval() once it does (audited across every backend — the
  /// SearchEngine's determinism across thread counts depends on starts
  /// consuming exactly their budget slice).
  uint64_t MaxEvals = 200'000;
  /// Stop as soon as bestF() <= Target (Def. 3.1 justifies Target = 0).
  double Target = 0.0;
  bool StopAtTarget = true;
  /// External stop signal, e.g. the SearchEngine's early-stop broadcast:
  /// when another start already produced a verified zero this start
  /// cannot outrank, continuing would only burn evaluations. Folded into
  /// done() so every budget-compliant backend honors it for free.
  std::function<bool()> StopHook;

  bool reachedTarget() const {
    return hasBest() && BestF <= Target;
  }
  bool done() const {
    return Evals >= MaxEvals || (StopAtTarget && reachedTarget()) ||
           (StopHook && StopHook());
  }

  void setRecorder(SampleRecorder *R) { Recorder = R; }

  /// Clears evaluation state (budget fields are kept).
  void reset();

private:
  /// Shared per-candidate bookkeeping: NaN -> +inf, count, record, track
  /// best. \p X points at Dim doubles. Returns the canonicalized value.
  double note(const double *X, double F);

  Fn Callable;
  unsigned Dim;
  uint64_t Evals = 0;
  std::vector<double> BestX;
  double BestF = 0;
  /// Reused argument view for row evaluations and the recorder — no
  /// per-evaluation vector churn on the hot path.
  std::vector<double> Scratch;
  SampleRecorder *Recorder = nullptr;
};

} // namespace wdm::opt

#endif // WDM_OPT_OBJECTIVE_H
