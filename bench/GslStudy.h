//===--- GslStudy.h - Shared GSL overflow study ----------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 6.3 experiment, shared by the Table 3/4/5 benches, driven
/// through wdm::api's suite layer: one "inconsistency" spec per GSL
/// model becomes a one-job SuiteSpec executed by the JobScheduler (so
/// the study runs on the same seam `wdm suite run` shards), runs fpod,
/// replays every overflow input through the inconsistency checker, and
/// classifies root causes. The result keeps the tables' vocabulary
/// (|Op|, |O|, |I|, |B|) as plain fields derived from the uniform
/// api::Report.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_BENCH_GSLSTUDY_H
#define WDM_BENCH_GSLSTUDY_H

#include "api/Report.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wdm::bench {

struct GslStudyResult {
  std::string Name;
  api::Report Report; ///< The raw uniform report (all findings).

  // Table vocabulary, derived from the report.
  unsigned NumOps = 0;       ///< |Op|: elementary FP operations.
  unsigned NumOverflows = 0; ///< |O|: operations with a found overflow.
  unsigned NumBugs = 0;      ///< |B|: distinct confirmed-bug signatures.
  double Seconds = 0;        ///< Detector wall-clock (the T(sec) column).
  uint64_t Evals = 0;

  /// One row per distinct inconsistency (Table 5).
  struct Row {
    std::vector<double> Input;
    std::string OriginText;
    int64_t Status = 0;
    double Val = 0;
    double Err = 0;
    std::string RootCause;
    bool LooksLikeBug = false;
  };
  std::vector<Row> Distinct; ///< |I| = Distinct.size().
};

/// Runs fpod + replay on the builtin GSL subject \p BuiltinName
/// ("bessel", "hyperg", "airy") with the paper-faithful AbsGap metric.
/// Extra probe inputs (e.g. the airy bug inputs that need exact hits)
/// are replayed in addition to the detector's findings.
///
/// The per-round search width and worker count honor $WDM_STARTS
/// (default 2) and $WDM_THREADS (default 0 = one per hardware thread)
/// via the shared api::SearchConfig::applyEnv policy, so the same binary
/// measures the sequential baseline and the parallel engine; results are
/// identical at every thread count for a fixed seed.
/// \p Prune, when non-empty, selects the static pre-pass mode
/// ("off" | "sites") exactly as `wdm --prune=` would.
GslStudyResult runGslStudy(const std::string &BuiltinName, uint64_t Seed,
                           const std::vector<std::vector<double>> &
                               ExtraProbes = {},
                           const std::string &Prune = "");

/// The $WDM_STARTS / $WDM_THREADS configuration runGslStudy resolved.
unsigned gslStudyStartsPerRound();
unsigned gslStudyThreads();

} // namespace wdm::bench

#endif // WDM_BENCH_GSLSTUDY_H
