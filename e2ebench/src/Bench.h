//===--- Bench.h - Shared declarations of the e2e benchmark -----*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end benchmark drives the paper's workloads through wdm's
/// public entry points (api::Analyzer, api::JobScheduler, serve::Server)
/// and prints one JSON line of metrics. This header holds what the
/// workload runners, the oracle, and the traced per-layer run share.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_E2EBENCH_BENCH_H
#define WDM_E2EBENCH_BENCH_H

#include "api/AnalysisSpec.h"
#include "api/Report.h"
#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Smallest sizes everywhere: the self-test mode.
  bool Tiny = false;
  /// Where the traced run writes its Chrome trace.
  std::string OutDir = ".";
};

/// One analysis unit of a workload and its outcome.
struct Unit {
  wdm::api::AnalysisSpec Spec;
  std::string SpecText; ///< What the program received.
  bool Ok = false;
  std::string Error;
  wdm::api::Report R;
  double Ms = 0; ///< Time to verdict.
};

/// A splitmix64 stream: every generated input derives from --seed through
/// one of these (salted per use), so inputs are identical on every
/// platform and standard library.
class SeedStream {
public:
  SeedStream(uint64_t Seed, uint64_t Salt)
      : State(Seed * 0x9e3779b97f4a7c15ull ^ Salt) {}
  uint64_t next();
  double uniform(); ///< In [0, 1).
  uint64_t searchSeed(); ///< A search.seed value.

private:
  uint64_t State;
};

/// The spec texts of one spec_mix pass.
std::vector<std::string> specMixTexts(const Options &O);

// -- statistics -------------------------------------------------------------

double median(std::vector<double> V);
/// Nearest-rank percentile \p P (0..100) of \p V.
double percentile(std::vector<double> V, double P);

/// The highest percentile of a fixed ladder that leaves at least ten
/// samples beyond it at \p DesignN samples. Fixed per workload, so the
/// tail of two commits is the same percentile.
double tailPercentile(size_t DesignN);

struct TailStat {
  double Ms = 0;
  double Percentile = 0;
  size_t Beyond = 0; ///< Samples strictly above the percentile's rank.
  size_t N = 0;
};
TailStat tailOf(const std::vector<double> &Ms, double Percentile);

// -- the workloads' outcome -------------------------------------------------

/// What one untraced run of a workload measured. Every end-to-end metric
/// is derived from this.
struct Outcome {
  std::vector<double> SetupS;   ///< One entry per set-up repetition.
  std::vector<double> PassWallS;///< One entry per timed pass.
  std::vector<double> PassBusyS;///< Per pass: the sum of job seconds.
  std::vector<double> JobMs;    ///< Per unit: time to verdict.
  std::vector<double> ReqMs;    ///< Per client request.
  double TailPercentile = 99;   ///< Fixed by the workload's design.
  uint64_t Evals = 0;           ///< Over every timed pass.
  double EvalWallS = 0;         ///< Wall the Evals were spent in.
  uint64_t Findings = 0;        ///< Of one pass (deterministic per seed).
  unsigned Solved = 0;          ///< Of one pass.
  unsigned UnitsPerPass = 0;
  uint64_t Attempted = 0;       ///< Every unit of the run.
  uint64_t Failed = 0;          ///< Errored or unsound.
  std::string Digest;           ///< report_digest of the first pass.
  std::vector<std::string> Problems; ///< Oracle and shape failures.
  wdm::json::Value Info = wdm::json::Value::object(); ///< Tier, counts.
  /// The first pass, kept for the oracle and the per-layer replay.
  std::vector<Unit> FirstPass;
};

/// The names of the workloads, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Runs workload \p O.Workload for about O.Seconds and fills an Outcome.
/// \p Passes caps the timed passes (0 = until the time is up).
Outcome runWorkload(const Options &O, unsigned Passes = 0);

/// The specs of one pass of a workload (for the per-layer replay).
std::vector<wdm::api::AnalysisSpec> replaySpecs(const Options &O);

// -- correctness ------------------------------------------------------------

/// Replays every finding of \p Units on the interpreter against a freshly
/// built, un-instrumented subject. Appends one line per rejected finding
/// to \p Problems and returns the number of rejected findings.
unsigned checkFindings(const std::vector<Unit> &Units,
                       std::vector<std::string> &Problems);

/// The paper's headline shapes, where the workload carries them:
/// Table 3 (airy carries both bugs, bessel overflows almost everywhere)
/// and Table 2 (the reachable sin conditions are hit, none unsound).
void checkPaperShapes(const std::string &Workload,
                      const std::vector<Unit> &Units,
                      std::vector<std::string> &Problems);

/// FNV-1a over the deterministic report views, in unit order.
std::string reportDigest(const std::vector<Unit> &Units);

/// Flips one witness bit and drops one finding in copies of \p Units and
/// returns true when the oracle rejects both tampered copies.
bool oracleRejectsTampering(const std::vector<Unit> &Units,
                            std::string &Why);

// -- the traced run ---------------------------------------------------------

/// Runs the traced per-layer measurement of \p O.Workload and returns the
/// per-layer metrics as {name: {"value", "unit"}}. \p Untraced is the
/// untraced run of the same seed (for trace.overhead and the digest
/// check); problems go to \p Problems.
wdm::json::Value runLayers(const Options &O, const Outcome &Untraced,
                           std::vector<std::string> &Problems,
                           uint64_t &Attempted, uint64_t &Failed);

} // namespace e2e

#endif // WDM_E2EBENCH_BENCH_H
