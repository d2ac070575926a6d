//===--- WeakDistance.h - The paper's central abstraction ------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Definition 3.1: a weak distance of a floating-point analysis problem
/// ⟨Prog; S⟩ is a *program* W : dom(Prog) -> F such that
///   (a) W(x) >= 0 for all x,
///   (b) W(x) = 0  ==>  x in S,
///   (c) x in S    ==>  W(x) = 0.
/// Unlike the point-to-set distance of Eq. 3, a weak distance is
/// implementable without knowing S. It may carry state/side effects (the
/// overflow weak distance of Section 4.4 depends on the evolving set L) —
/// hence operator() is non-const.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_CORE_WEAKDISTANCE_H
#define WDM_CORE_WEAKDISTANCE_H

#include <cstddef>
#include <string>
#include <vector>

namespace wdm::core {

class WeakDistance {
public:
  virtual ~WeakDistance();

  /// Dimension N of dom(Prog) = F^N.
  virtual unsigned dim() const = 0;

  /// Evaluates the weak distance at \p X.
  virtual double operator()(const std::vector<double> &X) = 0;

  /// Compatibility shims with no caller in wdm: every tier and every
  /// backend evaluates one candidate at a time through operator(). They
  /// exist only because the end-to-end benchmark (e2ebench/) wraps weak
  /// distances in a decorator that still overrides both; drop them with
  /// that override. evalBatch is a plain lane loop over operator().
  virtual void evalBatch(const double *Xs, std::size_t K, double *Fs);
  virtual unsigned preferredBatch() const { return 1; }

  virtual std::string name() const { return "weak-distance"; }
};

/// The floating-point analysis problem ⟨Prog; S⟩ of Definition 2.1, seen
/// from the solver side: a membership oracle for S. When S is decidable,
/// Algorithm 2's result can be validated before being reported — the
/// Section 5.2 Remark's mitigation for weak distances that satisfy
/// Def. 3.1 only in real arithmetic (Limitation 2).
class AnalysisProblem {
public:
  virtual ~AnalysisProblem();

  virtual unsigned dim() const = 0;

  /// Decides x in S.
  virtual bool contains(const std::vector<double> &X) = 0;

  virtual std::string name() const { return "analysis-problem"; }
};

} // namespace wdm::core

#endif // WDM_CORE_WEAKDISTANCE_H
