//===--- absint_prune.cpp - Static pre-pass cost/benefit on the GSL study ----===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The absint pre-pass (--prune=sites) retires statically-proved sites
// before fpod spends its first eval. This bench runs the Section 6.3 GSL
// study (bessel, hyperg, airy) with the pre-pass off and on at the same
// seed and reports, per subject: total evals, evals to the first
// verified finding, wall-clock, and the pre-pass's own cost.
//
// The pre-pass is an optimization, never a behavior change: the bench
// asserts unconditionally that both configurations produce the exact
// same site-addressed (kind, site) findings set and that no site the
// pre-pass retired ever fired in the unpruned run, and exits 1 on any
// divergence. Inconsistency rows are keyed by the concrete witness
// inputs the search happened to find, so they are reported but not
// gated: retiring a proved-safe site legitimately redirects the search
// to different witnesses for the same sites.
//
// Results land in BENCH_absint_prune.json. The per-round search width
// is pinned (8 starts unless $WDM_STARTS overrides) so the detector
// converges on the same findable-site set in both configurations.
//
//===----------------------------------------------------------------------===//

#include "GslStudy.h"
#include "support/Json.h"

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace wdm;
using namespace wdm::bench;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The identity the pre-pass must preserve: which site-addressed
/// findings exist, keyed by kind and site.
std::set<std::pair<std::string, int>> findingSet(const api::Report &R) {
  std::set<std::pair<std::string, int>> S;
  for (const api::Finding &F : R.Findings)
    if (F.SiteId >= 0)
      S.insert({F.Kind, F.SiteId});
  return S;
}

struct Measured {
  GslStudyResult Study;
  double Wall = 0;
  uint64_t EvalsToFirst = 0;
};

Measured run(const std::string &Name, uint64_t Seed,
             const std::string &Prune) {
  Measured M;
  double T0 = now();
  M.Study = runGslStudy(Name, Seed, {}, Prune);
  M.Wall = now() - T0;
  if (const json::Value *V =
          M.Study.Report.Extra.find("evals_to_first_finding"))
    M.EvalsToFirst = V->asUint();
  return M;
}

} // namespace

int main() {
  // Wide enough per-round search that the detector converges on the
  // same findable-site set with and without the pre-pass. $WDM_STARTS
  // still wins when the caller sets it.
  setenv("WDM_STARTS", "8", /*overwrite=*/0);

  const uint64_t Seed = 7;
  const std::vector<std::string> Subjects = {"bessel", "hyperg", "airy"};

  json::BenchJson Json("absint_prune");
  bool AllIdentical = true;

  for (const std::string &Name : Subjects) {
    Measured Off = run(Name, Seed, "off");
    Measured On = run(Name, Seed, "sites");

    auto SetOff = findingSet(Off.Study.Report);
    auto SetOn = findingSet(On.Study.Report);
    bool Identical = SetOff == SetOn;
    // A site the pre-pass retired must never have fired without it.
    for (const api::StaticItem &Item : On.Study.Report.Static.Items)
      for (const auto &[Kind, Site] : SetOff)
        if (Site == Item.SiteId) {
          std::cerr << "  pruned site " << Item.SiteId
                    << " fired with prune off (" << Kind << ")\n";
          Identical = false;
        }
    AllIdentical = AllIdentical && Identical;

    const api::StaticSection &St = On.Study.Report.Static;
    Json.entry(Name)
        .field("seed", Seed)
        .field("evals_off", Off.Study.Evals)
        .field("evals_on", On.Study.Evals)
        .field("evals_to_first_finding_off", Off.EvalsToFirst)
        .field("evals_to_first_finding_on", On.EvalsToFirst)
        .field("wall_seconds_off", Off.Wall)
        .field("wall_seconds_on", On.Wall)
        .field("prepass_seconds", St.Seconds)
        .field("sites_total", static_cast<uint64_t>(St.SitesTotal))
        .field("sites_pruned", static_cast<uint64_t>(St.SitesPruned))
        .field("sites_proved_safe",
               static_cast<uint64_t>(St.SitesProvedSafe))
        .field("findings", static_cast<uint64_t>(SetOff.size()))
        .field("inconsistencies_off",
               static_cast<uint64_t>(Off.Study.Distinct.size()))
        .field("inconsistencies_on",
               static_cast<uint64_t>(On.Study.Distinct.size()))
        .field("identical_findings", Identical ? 1.0 : 0.0);

    std::cout << "prune [" << Name << ", seed " << Seed << "]: "
              << "evals " << Off.Study.Evals << " -> " << On.Study.Evals
              << ", first finding @ " << Off.EvalsToFirst << " -> "
              << On.EvalsToFirst << ", wall " << Off.Wall << "s -> "
              << On.Wall << "s (pre-pass " << St.Seconds << "s, pruned "
              << St.SitesPruned << "/" << St.SitesTotal
              << " sites), findings "
              << (Identical ? "identical" : "DIVERGED") << "\n";

    if (!Identical) {
      for (const auto &[Kind, Site] : SetOff)
        if (!SetOn.count({Kind, Site}))
          std::cerr << "  only with prune off: " << Kind << " @ site "
                    << Site << "\n";
      for (const auto &[Kind, Site] : SetOn)
        if (!SetOff.count({Kind, Site}))
          std::cerr << "  only with prune on:  " << Kind << " @ site "
                    << Site << "\n";
    }
  }

  if (!Json.write())
    std::cerr << "warning: could not write BENCH_absint_prune.json\n";

  if (!AllIdentical) {
    std::cerr << "absint_prune: the static pre-pass changed which "
                 "findings exist (see above)\n";
    return 1;
  }
  std::cout << "absint_prune: ok (findings identical off vs sites on "
               "all subjects)\n";
  return 0;
}
