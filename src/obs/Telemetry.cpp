//===--- Telemetry.cpp - Process-wide counters and histograms --------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <mutex>

using namespace wdm;
using namespace wdm::obs;
using wdm::json::Value;

std::atomic<bool> wdm::obs::detail::EnabledFlag{false};

/// One metric's storage, shared by every thread. A counter uses Count
/// only; a histogram uses all three fields.
struct wdm::obs::detail::Slot {
  enum class MetricKind : uint8_t { Counter, Histogram };

  Slot(std::string Name, MetricKind Kind)
      : Name(std::move(Name)), Kind(Kind) {}

  const std::string Name;
  const MetricKind Kind;
  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0};
  std::atomic<uint64_t> Buckets[Histogram::NumBuckets] = {};

  void zero() {
    Count.store(0, std::memory_order_relaxed);
    Sum.store(0, std::memory_order_relaxed);
    for (std::atomic<uint64_t> &B : Buckets)
      B.store(0, std::memory_order_relaxed);
  }
};

namespace {

using detail::Slot;
using MetricKind = Slot::MetricKind;

/// The process-wide registry. Slots are appended under Mu and never
/// move (std::deque keeps its elements in place on push_back), so a
/// handle's slot pointer stays valid while other threads intern.
struct Registry {
  std::mutex Mu;
  std::deque<Slot> Slots;

  static Registry &get() {
    // Leaked: handles in static locals may fire during static
    // destruction and must still find their slots.
    static Registry *R = new Registry;
    return *R;
  }

  /// Out of line: inlined into count(), the lookup's register saves
  /// would run before the enabled() test and slow the disabled path.
  [[gnu::noinline]] Slot *intern(const std::string &Name, MetricKind K) {
    std::lock_guard<std::mutex> Lock(Mu);
    for (Slot &S : Slots)
      if (S.Kind == K && S.Name == Name)
        return &S;
    return &Slots.emplace_back(Name, K);
  }
};

} // namespace

void wdm::obs::setEnabled(bool On) {
  detail::EnabledFlag.store(On, std::memory_order_relaxed);
}

void wdm::obs::resetMetrics() {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mu);
  for (Slot &S : R.Slots)
    S.zero();
}

void Counter::add(uint64_t N) {
  if (!enabled())
    return;
  S->Count.fetch_add(N, std::memory_order_relaxed);
}

void Histogram::observe(double V) {
  if (!enabled())
    return;
  unsigned B = 0;
  if (V > 1.0) {
    int E = std::ilogb(V);
    // 2^(E) < v <= 2^(E+1) lands in bucket E+1 except exact powers.
    B = static_cast<unsigned>(E);
    if (std::ldexp(1.0, E) < V)
      ++B;
    B = std::min(B, NumBuckets - 1);
  }
  S->Count.fetch_add(1, std::memory_order_relaxed);
  S->Sum.fetch_add(V, std::memory_order_relaxed);
  S->Buckets[B].fetch_add(1, std::memory_order_relaxed);
}

Counter wdm::obs::counter(const std::string &Name) {
  return Counter(Registry::get().intern(Name, MetricKind::Counter));
}

Histogram wdm::obs::histogram(const std::string &Name) {
  return Histogram(Registry::get().intern(Name, MetricKind::Histogram));
}

void wdm::obs::count(const std::string &Name, uint64_t N) {
  if (!enabled())
    return;
  counter(Name).add(N);
}

json::Value wdm::obs::snapshotJson() {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mu);

  Value Counters = Value::object();
  Value Hists = Value::object();
  for (const Slot &S : R.Slots) {
    uint64_t Count = S.Count.load(std::memory_order_relaxed);
    if (!Count)
      continue;
    if (S.Kind == MetricKind::Counter) {
      Counters.set(S.Name, Value::number(Count));
      continue;
    }
    Value Buckets = Value::array();
    for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
      uint64_t N = S.Buckets[B].load(std::memory_order_relaxed);
      if (!N)
        continue;
      Value Row = Value::array();
      Row.push(Value::number(B));
      Row.push(Value::number(N));
      Buckets.push(std::move(Row));
    }
    Hists.set(S.Name,
              Value::object()
                  .set("count", Value::number(Count))
                  .set("sum", Value::number(
                                  S.Sum.load(std::memory_order_relaxed)))
                  .set("buckets", std::move(Buckets)));
  }
  return Value::object()
      .set("counters", std::move(Counters))
      .set("histograms", std::move(Hists));
}

namespace {

/// After - Before for two bucket arrays ([[bucket, n], ...]).
Value diffBuckets(const Value *Before, const Value &After) {
  Value Out = Value::array();
  for (size_t I = 0; I < After.size(); ++I) {
    const Value &Row = After.at(I);
    uint64_t B = Row.at(0).asUint();
    uint64_t N = Row.at(1).asUint();
    if (Before)
      for (size_t J = 0; J < Before->size(); ++J)
        if (Before->at(J).at(0).asUint() == B) {
          uint64_t Prev = Before->at(J).at(1).asUint();
          N = N > Prev ? N - Prev : 0;
          break;
        }
    if (N) {
      Value NewRow = Value::array();
      NewRow.push(Value::number(B));
      NewRow.push(Value::number(N));
      Out.push(std::move(NewRow));
    }
  }
  return Out;
}

} // namespace

json::Value wdm::obs::deltaJson(const json::Value &Before,
                                const json::Value &After) {
  Value Out = Value::object();

  // Counters: numeric subtraction, zero deltas dropped.
  Value Counters = Value::object();
  if (const Value *AC = After.find("counters")) {
    const Value *BC = Before.find("counters");
    for (const auto &[Name, V] : AC->members()) {
      uint64_t N = V.asUint();
      if (BC)
        if (const Value *Prev = BC->find(Name))
          N = N > Prev->asUint() ? N - Prev->asUint() : 0;
      if (N)
        Counters.set(Name, Value::number(N));
    }
  }
  Out.set("counters", std::move(Counters));

  // Histograms: count/sum/buckets subtract member-wise.
  Value Hists = Value::object();
  if (const Value *AH = After.find("histograms")) {
    const Value *BH = Before.find("histograms");
    for (const auto &[Name, V] : AH->members()) {
      const Value *Prev = BH ? BH->find(Name) : nullptr;
      uint64_t Count = V.find("count") ? V.find("count")->asUint() : 0;
      double Sum = V.find("sum") ? V.find("sum")->asDouble() : 0;
      if (Prev) {
        uint64_t PC = Prev->find("count") ? Prev->find("count")->asUint() : 0;
        Count = Count > PC ? Count - PC : 0;
        Sum -= Prev->find("sum") ? Prev->find("sum")->asDouble() : 0;
      }
      if (!Count)
        continue;
      const Value *AB = V.find("buckets");
      Hists.set(Name,
                Value::object()
                    .set("count", Value::number(Count))
                    .set("sum", Value::number(Sum))
                    .set("buckets",
                         AB ? diffBuckets(Prev ? Prev->find("buckets")
                                               : nullptr,
                                          *AB)
                            : Value::array()));
    }
  }
  Out.set("histograms", std::move(Hists));
  return Out;
}
