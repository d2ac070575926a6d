//===--- AnalysisSpec.h - Declarative unit of analysis work ----*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serializable unit of work behind wdm::api: one AnalysisSpec fully
/// describes one analysis run — which reduction instance to solve
/// (boundary | path | coverage | overflow | inconsistency | fpsat), on
/// which module/function, with which task parameters and search
/// configuration. Specs parse from and serialize to JSON, so they can be
/// checked into a repo, shipped over a wire, or fanned out across
/// processes — the seam the ROADMAP's sharding driver needs.
///
/// Example:
/// \code{.json}
///   {
///     "task": "boundary",
///     "module": {"builtin": "sin"},
///     "function": "sin",
///     "search": {"seed": 2019, "max_evals": 30000}
///   }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_ANALYSISSPEC_H
#define WDM_API_ANALYSISSPEC_H

#include "support/Error.h"
#include "support/Json.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace wdm::core {
struct SearchOptions;
} // namespace wdm::core

namespace wdm::vm {
enum class EngineKind : uint8_t;
} // namespace wdm::vm

namespace wdm::api {

/// The six analysis problems Algorithm 2 uniformly solves.
enum class TaskKind : uint8_t {
  Boundary,      ///< Instance 1: boundary value analysis.
  Path,          ///< Instance 2: path reachability.
  Coverage,      ///< Instance 4: branch-coverage-based testing.
  Overflow,      ///< Instance 3: floating-point overflow detection.
  Inconsistency, ///< Section 6.3.2: overflow + GSL status replay.
  FpSat,         ///< Instance 5: XSat-style FP satisfiability.
};

const char *taskKindName(TaskKind K);
/// Parses "boundary", "path", ...; false on unknown names.
bool taskKindByName(const std::string &Name, TaskKind &Out);

/// The static pre-pass modes ("search.prune"). Parsing never yields
/// SitesBox: "sites+box" reads as Sites. The enumerator stays only
/// because the benchmark's layer replay still names it.
enum class PruneMode : uint8_t { Off, Sites, SitesBox };

const char *pruneModeName(PruneMode M);
/// Parses "off", "sites", and "sites+box" (as Sites); false on unknown
/// names.
bool pruneModeByName(const std::string &Name, PruneMode &Out);

/// Where the subject module comes from. Builtin names resolve through
/// api::buildBuiltinSubject (the GSL models and the subjects/ corpus,
/// which exist only as builder code, not as text).
struct ModuleSource {
  enum class Kind : uint8_t { None, File, Inline, Builtin };
  Kind K = Kind::None;
  std::string Text; ///< Path, inline IR text, or builtin name.

  static ModuleSource file(std::string Path);
  static ModuleSource inlineText(std::string Ir);
  static ModuleSource builtin(std::string Name);
};

/// The unified search configuration. Every field is optional: unset
/// fields defer to the task's own defaults (the direct-class defaults),
/// so a spec that pins only {seed, max_evals} reproduces a direct
/// BoundaryAnalysis::findOne run with those two knobs bit-for-bit.
struct SearchConfig {
  std::optional<uint64_t> MaxEvals; ///< Total eval budget (per round for
                                    ///< overflow/inconsistency).
  std::optional<unsigned> Starts;
  std::optional<uint64_t> Seed;
  std::optional<double> StartLo;
  std::optional<double> StartHi;
  std::optional<double> WildStartProb;
  std::optional<unsigned> Threads;
  /// JSON "batch", CLI --batch=: accepted, validated and serialized, and
  /// otherwise ignored (every backend evaluates one candidate at a time),
  /// so old specs, job ids and resume logs stay valid.
  std::optional<unsigned> Batch;
  /// Backend portfolio by name: "basinhopping", "de", "neldermead",
  /// "powell", "random", "ulp". Empty = the paper's default
  /// (basinhopping only).
  std::vector<std::string> Backends;
  /// Weak-distance execution tier: "interp" | "vm" | "jit". Empty =
  /// unset, which resolves to the compiled tier ("vm"). "jit" parses on
  /// every platform; where the native tier is unavailable (or rejects
  /// the subject) the chain degrades jit -> vm -> interp automatically
  /// and the Report says so via engine/engine_fallback. Ignored by
  /// fpsat, whose CNF distance is native code already.
  std::string Engine;
  /// Static pre-pass (src/absint/): "off" | "sites". Empty = unset,
  /// which resolves to "off". "sites" classifies the instrumented sites
  /// and drops proved ones from the search objective. Findings are
  /// never affected — only where the eval budget goes. "sites+box" is
  /// accepted and means "sites"; the text is kept as written, so spec
  /// hashes do not change.
  std::string Prune;

  /// The resolved execution tier (unset and "vm" both map to VM).
  vm::EngineKind engineKind() const;

  /// The resolved pre-pass mode (unset and "off" both map to Off).
  PruneMode pruneMode() const;

  /// The shared env-override policy of the CLI, examples, and benches:
  /// a config whose Starts/Threads/Seed are set from $WDM_STARTS /
  /// $WDM_THREADS / $WDM_SEED when those are present (unset otherwise).
  static SearchConfig fromEnv();

  /// Overlays $WDM_STARTS/$WDM_THREADS/$WDM_SEED onto this config (env
  /// wins — the knobs exist to steer checked-in specs from outside).
  void applyEnv();

  /// Overwrites the set fields onto \p Opts, leaving the rest at the
  /// caller's defaults.
  void applyTo(core::SearchOptions &Opts) const;
};

/// One required branch direction of a path spec, naming the branch by
/// its condbr index in the function's layout order.
struct PathLegSpec {
  unsigned Branch = 0;
  bool Taken = true;
};

/// A plain-data description of one unit of analysis work.
struct AnalysisSpec {
  TaskKind Task = TaskKind::Boundary;
  ModuleSource Module;
  /// Subject function name; may be empty for builtin modules (the
  /// builtin's primary function) and is unused for fpsat.
  std::string Function;

  // -- Task-specific parameters -----------------------------------------
  /// fpsat: the s-expression constraint text.
  std::string Constraint;
  /// fpsat: "ulp" (default) or "abs" distance metric.
  std::string SatMetric;
  /// path: required branch directions.
  std::vector<PathLegSpec> Path;
  /// boundary: "product" (default) | "min" | "minulp".
  std::string BoundaryForm;
  /// overflow/inconsistency: "ulpgap" | "absgap". Defaults: overflow
  /// uses "ulpgap" (the OverflowDetector default), inconsistency uses
  /// "absgap" (the paper-faithful Table 3/5 configuration).
  std::string OverflowMetric;
  /// overflow/inconsistency: Algorithm 3's nFP — maximum rounds (0 = one
  /// round per site, the run-to-completion default).
  unsigned NFP = 0;
  /// coverage: consecutive fruitless attempts before stopping.
  std::optional<unsigned> MaxStall;
  /// inconsistency: extra inputs replayed through the checker in
  /// addition to the detector's findings (e.g. the airy bug probes).
  std::vector<std::vector<double>> Probes;
  /// inconsistency on file/inline modules: names of the val/err result
  /// globals (builtin GSL subjects carry their own slots).
  std::string ValGlobal;
  std::string ErrGlobal;

  SearchConfig Search;

  // -- JSON round trip --------------------------------------------------
  json::Value toJson() const;
  std::string toJsonText() const;
  static Expected<AnalysisSpec> fromJson(const json::Value &V);
  static Expected<AnalysisSpec> parse(std::string_view JsonText);
};

/// The human label of a spec's subject: the module source text, or the
/// constraint for the module-free fpsat task. The one spelling shared
/// by suite events, reports, and the CLI.
inline const std::string &subjectText(const AnalysisSpec &Spec) {
  return Spec.Task == TaskKind::FpSat ? Spec.Constraint
                                      : Spec.Module.Text;
}

} // namespace wdm::api

#endif // WDM_API_ANALYSISSPEC_H
