//===--- Serve.h - The serve layer's open-loop probe ------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#ifndef WDM_E2EBENCH_SERVE_H
#define WDM_E2EBENCH_SERVE_H

#include "Bench.h"

namespace e2e {

/// Past this latency from its due time a request counts as failed.
inline constexpr double LatencyLimitMs = 100.0;

/// The rate of the probe's open loop.
inline constexpr double FixedRateRps = 1000.0;

/// What the serve layer did under the probe's open loop.
struct ServeProbe {
  double HandleP50Ms = 0; ///< Server::handle on the same requests, no socket.
  double LagP99Ms = 0;    ///< How late the generator released requests.
  unsigned InFlightMax = 0;
  uint64_t Failed = 0;    ///< Refused, failed or late requests.
  std::vector<Unit> Units; ///< Every reply, for the oracle.
  std::vector<std::string> Problems;
};

/// Runs an in-process daemon on loopback under a seeded Poisson schedule
/// of \p Seconds at FixedRateRps: 60% repeated bodies (result-cache hits),
/// 35% seed variants of the warmable fig2 boundary / fig1a path specs
/// (warm hits), 5% classifier coverage (cold), every spec threads 1.
ServeProbe probeServe(const Options &O, double Seconds);

} // namespace e2e

#endif // WDM_E2EBENCH_SERVE_H
