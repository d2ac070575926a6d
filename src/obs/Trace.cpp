//===--- Trace.cpp - RAII phase spans + Chrome trace-event output ----------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <mutex>
#include <vector>

using namespace wdm;
using namespace wdm::obs;
using wdm::json::Value;

std::atomic<bool> wdm::obs::detail::TracingFlag{false};

namespace {

struct TraceEvent {
  std::string Name;
  char Ph = 'X';   ///< 'X' complete, 'i' instant, 'M' metadata.
  uint64_t Ts = 0; ///< Microseconds since trace start.
  uint64_t Dur = 0;
  uint32_t Tid = 0;
  Value Args; ///< Null when absent.
};

using Clock = std::chrono::steady_clock;

/// The process-wide collector: every recorded event, and the trace
/// epoch.
struct Collector {
  std::mutex Mu;
  std::vector<TraceEvent> Events;
  /// Clock ticks at startTrace(). Atomic because spans read it without
  /// taking Mu.
  std::atomic<Clock::rep> Epoch{Clock::now().time_since_epoch().count()};
  std::atomic<uint32_t> NextTid{0};

  static Collector &get() {
    // Leaked for the same shutdown-order reason as the metric registry.
    static Collector *C = new Collector;
    return *C;
  }

  /// Appends \p E on the calling thread's track. A thread's track id is
  /// assigned the first time it records an event.
  void push(TraceEvent E) {
    thread_local const uint32_t Tid = NextTid.fetch_add(1);
    E.Tid = Tid;
    std::lock_guard<std::mutex> Lock(Mu);
    Events.push_back(std::move(E));
  }
};

} // namespace

void wdm::obs::startTrace() {
  Collector &C = Collector::get();
  {
    std::lock_guard<std::mutex> Lock(C.Mu);
    C.Events.clear();
    C.Epoch.store(Clock::now().time_since_epoch().count(),
                  std::memory_order_relaxed);
  }
  detail::TracingFlag.store(true, std::memory_order_relaxed);
}

void wdm::obs::stopTrace() {
  detail::TracingFlag.store(false, std::memory_order_relaxed);
}

void wdm::obs::clearTrace() {
  Collector &C = Collector::get();
  std::lock_guard<std::mutex> Lock(C.Mu);
  C.Events.clear();
}

uint64_t ScopedSpan::nowUs() {
  const Clock::duration Since =
      Clock::now().time_since_epoch() -
      Clock::duration(Collector::get().Epoch.load(std::memory_order_relaxed));
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Since).count());
}

void ScopedSpan::setArgs(json::Value A) {
  if (!Name)
    return;
  Args = std::move(A);
  HaveArgs = true;
}

void ScopedSpan::finish() {
  TraceEvent E;
  E.Name = Name;
  E.Ph = 'X';
  E.Ts = T0;
  uint64_t T1 = nowUs();
  E.Dur = T1 > T0 ? T1 - T0 : 0;
  if (HaveArgs)
    E.Args = std::move(Args);
  Collector::get().push(std::move(E));
}

void wdm::obs::setThreadTrackName(const std::string &Name) {
  if (!tracing())
    return;
  TraceEvent E;
  E.Name = "thread_name";
  E.Ph = 'M';
  E.Args = Value::object().set("name", Value::string(Name));
  Collector::get().push(std::move(E));
}

void wdm::obs::instant(const char *Name) { instant(Name, Value()); }

void wdm::obs::instant(const char *Name, json::Value Args) {
  if (!tracing())
    return;
  TraceEvent E;
  E.Name = Name;
  E.Ph = 'i';
  E.Ts = ScopedSpan::nowUs();
  E.Args = std::move(Args);
  Collector::get().push(std::move(E));
}

json::Value wdm::obs::traceJson() {
  Collector &C = Collector::get();
  std::vector<const TraceEvent *> All;
  std::lock_guard<std::mutex> Lock(C.Mu);
  for (const TraceEvent &E : C.Events)
    All.push_back(&E);
  std::stable_sort(All.begin(), All.end(),
                   [](const TraceEvent *A, const TraceEvent *B) {
                     return A->Ts < B->Ts;
                   });

  Value Events = Value::array();
  for (const TraceEvent *E : All) {
    Value Row = Value::object();
    Row.set("name", Value::string(E->Name));
    Row.set("ph", Value::string(std::string(1, E->Ph)));
    Row.set("pid", Value::number(1));
    Row.set("tid", Value::number(E->Tid));
    if (E->Ph != 'M') {
      Row.set("ts", Value::number(E->Ts));
      if (E->Ph == 'X')
        Row.set("dur", Value::number(E->Dur));
      else
        Row.set("s", Value::string("t")); // Instant scope: thread.
    }
    if (!E->Args.isNull())
      Row.set("args", E->Args);
    Events.push(std::move(Row));
  }
  return Value::object().set("traceEvents", std::move(Events));
}

bool wdm::obs::writeTrace(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << traceJson().dump() << "\n";
  return static_cast<bool>(Out);
}
