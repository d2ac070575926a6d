//===--- Prometheus.h - Prometheus text serializer -------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second serializer over the telemetry registry snapshot: the
/// Prometheus text exposition format (version 0.0.4), so `wdm serve`'s
/// `GET /metrics` is scrapeable by a stock Prometheus/VictoriaMetrics
/// agent with zero sidecar glue.
///
/// Mapping from the snapshotJson() shape:
///
///  - metric names sanitize '.' (and any other non-[a-zA-Z0-9_]) to '_';
///  - counters gain the conventional `_total` suffix
///    (`serve.cache_hits` -> `serve_cache_hits_total`);
///  - log2 histograms become cumulative `_bucket{le="2^k"}` series
///    (the JSON snapshot stores per-bucket counts; bucket k's upper
///    bound is 2^k with bucket 0 covering v <= 1), plus the standard
///    `le="+Inf"` bucket, `_sum`, and `_count`.
///
/// Every family gets `# HELP` (carrying the original dotted name) and
/// `# TYPE` comment lines, so the output round-trips through
/// prometheus' own text parser.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_OBS_PROMETHEUS_H
#define WDM_OBS_PROMETHEUS_H

#include "support/Json.h"

#include <string>

namespace wdm::obs {

/// Serializes a snapshotJson()-shaped document to Prometheus text.
/// Deterministic: family order follows the snapshot's member order.
std::string toPrometheus(const json::Value &Snapshot);

/// snapshotPrometheus() == toPrometheus(snapshotJson()): the live
/// registry as a scrape body.
std::string snapshotPrometheus();

} // namespace wdm::obs

#endif // WDM_OBS_PROMETHEUS_H
