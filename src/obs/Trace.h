//===--- Trace.h - RAII phase spans + Chrome trace-event output -*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The span half of src/obs/: RAII phase spans and instant events that
/// collect into one process-wide event list and serialize as Chrome
/// trace-event JSON ({"traceEvents": [...]}), loadable in Perfetto /
/// chrome://tracing.
///
///  - Off by default: a ScopedSpan whose lifetime starts while tracing
///    is off records nothing (one relaxed load in the constructor).
///  - Spans become "X" (complete) events with microsecond timestamps
///    relative to startTrace(); instants become "i" events.
///  - Tracks: every participating thread gets a small sequential track
///    id (not the OS tid, so traces are stable across runs), and can
///    label its track ("shard 3", "job ab12cd...") via
///    setThreadTrackName — emitted as the standard thread_name metadata
///    event Perfetto shows as the track title.
///
/// The suite layer adds per-shard/per-job tracks by naming its worker
/// threads; the SearchEngine's spans land on whatever thread ran them,
/// so a traced run shows pre-pass / lowering / JIT-compile / search
/// phases per thread out of the box.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_OBS_TRACE_H
#define WDM_OBS_TRACE_H

#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace wdm::obs {

namespace detail {
extern std::atomic<bool> TracingFlag;
} // namespace detail

/// True while a trace is being collected.
inline bool tracing() {
  return detail::TracingFlag.load(std::memory_order_relaxed);
}

/// Starts (or restarts) collection: clears prior events and re-zeroes
/// the trace clock.
void startTrace();

/// Stops collection (already-recorded events are kept for writeTrace).
void stopTrace();

/// Discards all recorded events.
void clearTrace();

/// Writes every recorded event as Chrome trace-event JSON to \p Path.
/// Returns false on I/O failure. Collection state is unchanged (call
/// stopTrace() first for a quiescent write).
bool writeTrace(const std::string &Path);

/// The {"traceEvents": [...]} document, in timestamp order (for tests
/// and for embedding).
json::Value traceJson();

/// Labels the calling thread's track in the trace (thread_name
/// metadata). No-op while tracing is off.
void setThreadTrackName(const std::string &Name);

/// Records an instant event ("i") with optional args.
void instant(const char *Name);
void instant(const char *Name, json::Value Args);

/// RAII phase span: records a complete event covering the scope's
/// lifetime. Inert when constructed while tracing is off.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) : Name(tracing() ? Name : nullptr) {
    if (this->Name)
      T0 = nowUs();
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  ~ScopedSpan() {
    if (Name)
      finish();
  }

  /// Attaches args to the span (shown in the Perfetto detail pane).
  /// No-op when the span is inert.
  void setArgs(json::Value Args);

  /// Microseconds since startTrace().
  static uint64_t nowUs();

private:
  void finish();

  const char *Name;
  uint64_t T0 = 0;
  json::Value Args;
  bool HaveArgs = false;
};

} // namespace wdm::obs

#endif // WDM_OBS_TRACE_H
