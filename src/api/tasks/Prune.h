//===--- Prune.h - Static pre-pass plumbing for task adapters --*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared "search.prune" flow of the IR-backed task adapters: run
/// the absint pre-pass over the original subject, classify the
/// instrumented sites, and drop proved ones from the search objective.
/// Findings are never affected — a dropped site provably cannot fire —
/// only where the eval budget goes. Everything that ran lands in
/// Report::Static. The start box is left alone: it is the spec's.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_TASKS_PRUNE_H
#define WDM_API_TASKS_PRUNE_H

#include "absint/AbsInt.h"
#include "api/Report.h"
#include "api/TaskRegistry.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_set>

namespace wdm::api::tasks {

/// One adapter's pre-pass state: the analysis of the original subject
/// plus everything classified so far.
struct PrunePlan {
  PruneMode Mode = PruneMode::Off;
  /// The pre-pass analysis of the original subject (set when Mode != Off
  /// and the task has an IR subject). Intervals are certificates, so a
  /// non-Unknown verdict is a proof.
  std::unique_ptr<absint::FunctionAnalysis> FA;
  std::vector<absint::SiteReport> Sites;
  std::unordered_set<int> Dropped; ///< Site ids out of the objective.
  unsigned SitesTotal = 0;
  unsigned ProvedSafe = 0;
  std::chrono::steady_clock::time_point Clock0;
  double Seconds = 0; ///< Pre-pass cost so far (stamped per step).

  bool ran() const { return FA != nullptr; }

  /// Restamps the pre-pass cost; call when a pre-pass step finishes so
  /// Seconds never includes the search that follows.
  void stamp() {
    Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Clock0)
                  .count();
  }
};

/// Runs the pre-pass over \p Ctx's subject when the spec asks for it.
/// Argument intervals stay top: searchers draw wild starts over all of
/// F^N, so only input-independent facts are certificates here.
inline PrunePlan planPrune(const TaskContext &Ctx) {
  PrunePlan P;
  P.Mode = Ctx.Spec.Search.pruneMode();
  P.Clock0 = std::chrono::steady_clock::now();
  if (P.Mode == PruneMode::Off || !Ctx.F)
    return P;
  {
    obs::ScopedSpan Span("absint_prepass");
    P.FA = std::make_unique<absint::FunctionAnalysis>(*Ctx.F);
  }
  obs::count("absint.prepass_runs");
  P.stamp();
  return P;
}

/// A site-skip predicate over \p P for instrumentation-time pruning
/// (BoundaryAnalysis). Valid while \p P is alive.
inline std::function<bool(const instr::Site &)>
skipPredicate(const PrunePlan &P) {
  if (!P.ran())
    return nullptr;
  const absint::FunctionAnalysis *FA = P.FA.get();
  return [FA](const instr::Site &S) {
    return absint::classifySite(*FA, S) != absint::SiteVerdict::Unknown;
  };
}

/// Classifies \p Sites against the plan's analysis, filling Dropped and
/// the per-site reports.
inline void classifySites(PrunePlan &P, const instr::SiteTable &Sites) {
  P.SitesTotal = static_cast<unsigned>(Sites.size());
  if (!P.ran())
    return;
  P.Sites = absint::classifySites(*P.FA, Sites);
  for (const absint::SiteReport &R : P.Sites) {
    if (R.Verdict == absint::SiteVerdict::Unknown)
      continue;
    P.Dropped.insert(R.Id);
    P.ProvedSafe += R.Verdict == absint::SiteVerdict::ProvedSafe;
  }
  P.stamp();
}

/// The pruned sites as a deterministic (sorted) list, the shape the
/// OverflowDetector/BranchCoverage options take.
inline std::vector<int> droppedSorted(const PrunePlan &P) {
  std::vector<int> Out(P.Dropped.begin(), P.Dropped.end());
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Records the finished plan as the report's "static" section (a no-op
/// when the pre-pass did not run, keeping prune-off reports byte-
/// identical to a pre-pass-free build's).
inline void fillStatic(Report &Rep, const PrunePlan &P) {
  if (!P.ran())
    return;
  if (obs::enabled()) {
    obs::count("absint.sites_total", P.SitesTotal);
    obs::count("absint.sites_pruned", P.Dropped.size());
    obs::count("absint.sites_proved_safe", P.ProvedSafe);
  }
  Rep.Static.Ran = true;
  Rep.Static.Mode = pruneModeName(P.Mode);
  Rep.Static.SitesTotal = P.SitesTotal;
  Rep.Static.SitesPruned = static_cast<unsigned>(P.Dropped.size());
  Rep.Static.SitesProvedSafe = P.ProvedSafe;
  Rep.Static.Seconds = P.Seconds;
  for (const absint::SiteReport &R : P.Sites) {
    if (R.Verdict == absint::SiteVerdict::Unknown)
      continue;
    StaticItem It;
    It.Kind = R.Verdict == absint::SiteVerdict::Unreachable
                  ? "unreachable"
                  : "proved_safe";
    It.SiteId = R.Id;
    It.Description = R.Reason;
    Rep.Static.Items.push_back(std::move(It));
  }
}

} // namespace wdm::api::tasks

#endif // WDM_API_TASKS_PRUNE_H
