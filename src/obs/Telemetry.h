//===--- Telemetry.h - Process-wide counters and histograms ----*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metric half of src/obs/: a process-wide registry of named
/// counters and (log2-bucketed) histograms that costs nothing when
/// telemetry is off and little when it is on:
///
///  - **Off by default.** Every mutation is gated on one relaxed atomic
///    bool; disabled, a hook is a load + a predicted branch. Nothing in
///    a Report, an event log, or an exit code changes unless a caller
///    explicitly flips telemetry on.
///  - **One shared slot per metric.** The registry owns every slot;
///    hooks bump it with relaxed atomic adds from any thread, and a
///    snapshot reads it under the registry mutex. Hooks fire per start,
///    round, lowering, job or request (the busiest is one histogram
///    observation per candidate block), never per eval, so a shared
///    slot never contends.
///  - **Stable handles.** counter()/histogram() intern by name and
///    return handles that stay valid for the process lifetime, cheap to
///    keep in static locals at the instrumentation site; name-based
///    convenience entry points exist for cold paths (per-start backend
///    attribution).
///
/// The snapshot is a json::Value so it can ride on api::Report
/// ("metrics" section) and the NDJSON event stream without a second
/// serialization path.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_OBS_TELEMETRY_H
#define WDM_OBS_TELEMETRY_H

#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace wdm::obs {

namespace detail {
extern std::atomic<bool> EnabledFlag;
struct Slot;
} // namespace detail

/// True when telemetry collection is on (process-wide). The relaxed
/// load is the entire disabled-state cost of every hook.
inline bool enabled() {
  return detail::EnabledFlag.load(std::memory_order_relaxed);
}

/// Flips collection on/off. Off is the default; nothing observable
/// changes until a caller (CLI --trace/--metrics, a test, a driver)
/// turns it on.
void setEnabled(bool On);

/// Zeroes every metric. For tests and per-run isolation.
void resetMetrics();

/// A monotonically increasing counter. Handles are stable for the
/// process lifetime; keep them in static locals at the hook site.
class Counter {
public:
  /// Adds \p N when telemetry is enabled; no-op otherwise.
  void add(uint64_t N = 1);

private:
  friend Counter counter(const std::string &Name);
  explicit Counter(detail::Slot *S) : S(S) {}
  detail::Slot *S;
};

/// A histogram over log2 buckets of the observed value: bucket k counts
/// observations with 2^(k-1) < v <= 2^k (bucket 0 takes v <= 1).
/// Tracks count and sum besides the buckets, so means survive deltas.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 64;

  void observe(double V);

private:
  friend Histogram histogram(const std::string &Name);
  explicit Histogram(detail::Slot *S) : S(S) {}
  detail::Slot *S;
};

/// Interns \p Name (idempotent) and returns its handle. Safe from any
/// thread; intended for setup paths, not per-eval hot loops.
Counter counter(const std::string &Name);
Histogram histogram(const std::string &Name);

/// Cold-path convenience: counter(Name).add(N) with the interning
/// lookup inline. For per-start / per-compile attribution where a
/// static handle is awkward (dynamic names).
void count(const std::string &Name, uint64_t N = 1);

/// Current value of every metric:
///   {"counters": {name: n, ...},
///    "histograms": {name: {"count": n, "sum": s,
///                          "buckets": [[log2_upper, n], ...]}, ...}}
/// Zero-valued counters/histograms registered but never bumped are
/// omitted, so the snapshot of an idle registry is empty objects.
/// Key order is the registration order (deterministic for a fixed
/// code path).
json::Value snapshotJson();

/// Member-wise numeric difference After - Before over two snapshots
/// (counter values and histogram counts/sums/buckets subtract; names
/// missing in Before pass through). The per-run "metrics" section of a
/// Report is the delta over that run.
json::Value deltaJson(const json::Value &Before, const json::Value &After);

} // namespace wdm::obs

#endif // WDM_OBS_TELEMETRY_H
