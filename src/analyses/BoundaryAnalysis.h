//===--- BoundaryAnalysis.h - Instance 1 driver ----------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Boundary value analysis (paper Instance 1, Section 4.2): find inputs
/// that trigger boundary conditions — equal operands at an arithmetic
/// comparison. Wraps the boundary instrumentation pass, an interpreter
/// engine, and the membership oracle used both for Algorithm 2's
/// verification step and for the Section 6.2 soundness check
/// ("if (k == c) hits++").
///
//===----------------------------------------------------------------------===//

#ifndef WDM_ANALYSES_BOUNDARYANALYSIS_H
#define WDM_ANALYSES_BOUNDARYANALYSIS_H

#include "core/SearchEngine.h"
#include "instrument/BoundaryPass.h"
#include "instrument/IRWeakDistance.h"
#include "instrument/Observers.h"
#include "vm/VMWeakDistance.h"

#include <memory>
#include <set>

namespace wdm::analyses {

class BoundaryAnalysis {
public:
  /// Instruments \p F (which must live in \p M) and prepares execution.
  /// \p Engine selects the weak-distance execution tier for search
  /// workers (probe replay always interprets — it needs observers).
  /// \p SkipSite (optional) marks comparison sites to leave out of the
  /// weak distance — the static pre-pass's proved-safe/unreachable set
  /// (see instr::instrumentBoundary).
  BoundaryAnalysis(
      ir::Module &M, ir::Function &F,
      instr::BoundaryForm Form = instr::BoundaryForm::Product,
      vm::EngineKind Engine = vm::EngineKind::VM,
      const std::function<bool(const instr::Site &)> &SkipSite = nullptr);
  ~BoundaryAnalysis();

  /// The weak distance W (Fig. 3(a)'s driver program).
  instr::IRWeakDistance &weak() { return *Weak; }

  /// Comparison sites of the subject, in program order.
  const instr::SiteTable &sites() const { return Instr.Sites; }

  /// Runs the *original* program on \p X and returns the boundary sites
  /// it triggers (empty = not a boundary value).
  std::set<int> hitsFor(const std::vector<double> &X);

  /// Membership oracle for S = {boundary values}.
  core::AnalysisProblem &problem();

  /// One-shot Algorithm 2, run on the shared SearchEngine; honors every
  /// SearchOptions knob including Threads and Portfolio (workers mint
  /// their own interpreter contexts through the factory seam).
  core::SearchResult findOne(opt::Optimizer &Backend,
                             const core::SearchOptions &Opts,
                             opt::SampleRecorder *Recorder = nullptr);

  /// The factory the engine mints thread-local evaluators from.
  core::WeakDistanceFactory &factory() { return *Factory.Factory; }

  /// Which execution tier search workers actually run on (and why the
  /// compiled tier fell back, when it did).
  const vm::FactoryBundle &executionTier() const { return Factory; }

  const exec::Engine &engine() const { return *Eng; }
  const ir::Function &original() const { return Orig; }

private:
  class MembershipOracle;

  ir::Module &M;
  ir::Function &Orig;
  instr::BoundaryInstrumentation Instr;
  std::unique_ptr<exec::Engine> Eng;
  std::unique_ptr<exec::ExecContext> WeakCtx;
  std::unique_ptr<exec::ExecContext> ProbeCtx;
  std::unique_ptr<instr::IRWeakDistance> Weak;
  vm::FactoryBundle Factory;
  std::unique_ptr<MembershipOracle> Oracle;
};

} // namespace wdm::analyses

#endif // WDM_ANALYSES_BOUNDARYANALYSIS_H
