//===--- ObsTests.cpp - src/obs/ telemetry layer tests --------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The observability bar: metrics bumped from many threads add up
// exactly, a snapshot taken while other threads register and bump
// metrics is race-free (the ThreadSanitizer CI job runs this binary), the
// "metrics" section round-trips through Report JSON but never reaches
// the deterministic view, Chrome traces are valid trace-event JSON, the
// search progress stream ticks, and — the invariant everything else
// leans on — a run with telemetry off produces byte-identical
// deterministic reports to a run with everything on.
//
//===----------------------------------------------------------------------===//

#include "api/Analyzer.h"
#include "api/Report.h"
#include "obs/Progress.h"
#include "obs/Prometheus.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/BuildInfo.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

using namespace wdm;
using wdm::json::Value;

namespace {

/// Every test leaves the process-wide obs state exactly as it found it
/// (off, empty): the rest of the test binary depends on that.
struct ObsQuiesce {
  ObsQuiesce() { reset(); }
  ~ObsQuiesce() { reset(); }
  static void reset() {
    obs::setEnabled(false);
    obs::resetMetrics();
    obs::stopTrace();
    obs::clearTrace();
    obs::clearSearchListener();
    obs::setJobTag("");
  }
};

api::AnalysisSpec fig2BoundarySpec() {
  api::AnalysisSpec Spec;
  Spec.Task = api::TaskKind::Boundary;
  Spec.Module = api::ModuleSource::builtin("fig2");
  Spec.Search.Seed = 2019;
  Spec.Search.MaxEvals = 20000;
  Spec.Search.Threads = 1;
  return Spec;
}

//===----------------------------------------------------------------------===//
// Counters / histograms: shared slots bumped from many threads
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, CountersMergeAcrossThreads) {
  ObsQuiesce Q;
  obs::setEnabled(true);
  obs::Counter C = obs::counter("t.cross_thread");

  constexpr unsigned Threads = 4, PerThread = 1000;
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I < Threads; ++I)
    Pool.emplace_back([&] {
      for (unsigned K = 0; K < PerThread; ++K)
        C.add(1);
    });
  for (std::thread &T : Pool)
    T.join(); // Bumps of exited threads stay in the shared slot...
  C.add(5);   // ...and add up with this thread's.

  Value Snap = obs::snapshotJson();
  const Value *N = Snap.find("counters")->find("t.cross_thread");
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->asUint(), Threads * PerThread + 5);
}

TEST(TelemetryTest, SnapshotWhileThreadsRegisterAndBumpFreshMetrics) {
  // Worker threads intern fresh metric ids and bump them while this
  // thread snapshots: every snapshot must be safe to take mid-flight,
  // and the last one must see every bump.
  ObsQuiesce Q;
  obs::setEnabled(true);
  constexpr unsigned Threads = 3, PerThread = 100;
  auto Name = [](unsigned T, unsigned K) {
    return "t.fresh." + std::to_string(T) + "." + std::to_string(K);
  };
  std::atomic<unsigned> Finished{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned K = 0; K < PerThread; ++K) {
        obs::counter(Name(T, K)).add(K + 1);
        obs::histogram(Name(T, K)).observe(K);
      }
      ++Finished;
    });
  unsigned Snapshots = 0;
  while (Finished.load() < Threads) {
    Value Snap = obs::snapshotJson();
    EXPECT_NE(Snap.find("counters"), nullptr);
    ++Snapshots;
  }
  for (std::thread &T : Pool)
    T.join();
  EXPECT_GT(Snapshots, 0u);

  Value Snap = obs::snapshotJson();
  const Value *Counters = Snap.find("counters");
  const Value *Hists = Snap.find("histograms");
  for (unsigned T = 0; T < Threads; ++T)
    for (unsigned K = 0; K < PerThread; ++K) {
      const Value *C = Counters->find(Name(T, K));
      ASSERT_NE(C, nullptr) << Name(T, K);
      EXPECT_EQ(C->asUint(), K + 1u);
      const Value *H = Hists->find(Name(T, K));
      ASSERT_NE(H, nullptr) << Name(T, K);
      EXPECT_EQ(H->find("count")->asUint(), 1u);
    }
}

TEST(TelemetryTest, HistogramBucketsAndMerge) {
  ObsQuiesce Q;
  obs::setEnabled(true);
  obs::Histogram H = obs::histogram("t.hist");
  // Two observations in (1,2] (log2 upper bound 1), one <= 1.
  std::thread([&] { H.observe(2.0); }).join();
  H.observe(1.5);
  H.observe(0.5);

  Value Snap = obs::snapshotJson();
  const Value *HV = Snap.find("histograms")->find("t.hist");
  ASSERT_NE(HV, nullptr);
  EXPECT_EQ(HV->find("count")->asUint(), 3u);
  EXPECT_DOUBLE_EQ(HV->find("sum")->asDouble(), 4.0);
  const Value *Buckets = HV->find("buckets");
  ASSERT_NE(Buckets, nullptr);
  uint64_t InOne = 0, InTwo = 0;
  for (size_t I = 0; I < Buckets->size(); ++I) {
    const Value &Pair = Buckets->at(I);
    if (Pair.at(0).asInt() == 0)
      InOne = Pair.at(1).asUint();
    if (Pair.at(0).asInt() == 1)
      InTwo = Pair.at(1).asUint();
  }
  EXPECT_EQ(InOne, 1u);
  EXPECT_EQ(InTwo, 2u);
}

TEST(TelemetryTest, DisabledHooksRecordNothing) {
  ObsQuiesce Q;
  ASSERT_FALSE(obs::enabled());
  obs::count("t.should_not_exist", 7);
  obs::counter("t.handle_off").add(3);
  obs::histogram("t.hist_off").observe(1.0);
  obs::setEnabled(true); // snapshot with collection on, nothing recorded
  Value Snap = obs::snapshotJson();
  EXPECT_EQ(Snap.find("counters")->find("t.should_not_exist"), nullptr);
  EXPECT_EQ(Snap.find("counters")->find("t.handle_off"), nullptr);
  EXPECT_EQ(Snap.find("histograms")->find("t.hist_off"), nullptr);
}

TEST(TelemetryTest, DeltaSubtractsSnapshots) {
  ObsQuiesce Q;
  obs::setEnabled(true);
  obs::count("t.delta", 10);
  obs::histogram("t.dhist").observe(3.0);
  Value Before = obs::snapshotJson();
  obs::count("t.delta", 4);
  obs::count("t.fresh", 2); // missing in Before: passes through
  obs::histogram("t.dhist").observe(5.0);
  Value After = obs::snapshotJson();

  Value Delta = obs::deltaJson(Before, After);
  EXPECT_EQ(Delta.find("counters")->find("t.delta")->asUint(), 4u);
  EXPECT_EQ(Delta.find("counters")->find("t.fresh")->asUint(), 2u);
  const Value *DH = Delta.find("histograms")->find("t.dhist");
  ASSERT_NE(DH, nullptr);
  EXPECT_EQ(DH->find("count")->asUint(), 1u);
  EXPECT_DOUBLE_EQ(DH->find("sum")->asDouble(), 5.0);
}

//===----------------------------------------------------------------------===//
// Prometheus exposition: the second serializer over the same snapshot
//===----------------------------------------------------------------------===//

TEST(PrometheusTest, CountersAndNamesMapFromSnapshot) {
  // Serialize a hand-built snapshot so the mapping is pinned
  // independently of the live registry.
  Value Snap = Value::object()
                   .set("counters", Value::object()
                                        .set("serve.cache_hits",
                                             Value::number(uint64_t(3)))
                                        .set("9odd-name!x",
                                             Value::number(uint64_t(1))))
                   .set("histograms", Value::object());
  std::string Text = obs::toPrometheus(Snap);

  EXPECT_NE(Text.find("# HELP serve_cache_hits_total wdm metric "
                      "serve.cache_hits\n"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE serve_cache_hits_total counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("serve_cache_hits_total 3\n"), std::string::npos);
  // Invalid chars sanitize to '_'; a leading digit gains one too.
  EXPECT_NE(Text.find("_9odd_name_x_total 1\n"), std::string::npos);
}

TEST(PrometheusTest, Log2HistogramBecomesCumulativeBuckets) {
  // Sparse per-bucket counts: bucket 1 (1 < v <= 2) holds 2 obs, bucket
  // 3 (4 < v <= 8) holds 1. Cumulative le-series must accumulate.
  auto Pair = [](uint64_t K, uint64_t N) {
    Value P = Value::array();
    P.push(Value::number(K));
    P.push(Value::number(N));
    return P;
  };
  Value Buckets = Value::array();
  Buckets.push(Pair(1, 2));
  Buckets.push(Pair(3, 1));
  Value H = Value::object()
                .set("count", Value::number(uint64_t(3)))
                .set("sum", Value::number(10.0))
                .set("buckets", std::move(Buckets));
  Value Snap = Value::object()
                   .set("counters", Value::object())
                   .set("histograms",
                        Value::object().set("eval.w", std::move(H)));
  std::string Text = obs::toPrometheus(Snap);

  EXPECT_NE(Text.find("# TYPE eval_w histogram\n"), std::string::npos);
  EXPECT_NE(Text.find("eval_w_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(Text.find("eval_w_bucket{le=\"8\"} 3\n"), std::string::npos);
  EXPECT_NE(Text.find("eval_w_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(Text.find("eval_w_sum 10\n"), std::string::npos);
  EXPECT_NE(Text.find("eval_w_count 3\n"), std::string::npos);
}

TEST(PrometheusTest, LiveSnapshotMatchesJsonSnapshot) {
  ObsQuiesce Q;
  obs::setEnabled(true);
  obs::count("prom.live_counter", 5);
  obs::histogram("prom.live_hist").observe(3.0);
  obs::histogram("prom.live_hist").observe(100.0);

  // The two serializers must agree: snapshotPrometheus() is exactly
  // toPrometheus(snapshotJson()) over one consistent snapshot.
  Value Snap = obs::snapshotJson();
  EXPECT_EQ(obs::snapshotPrometheus(), obs::toPrometheus(Snap));

  std::string Text = obs::toPrometheus(Snap);
  EXPECT_NE(Text.find("prom_live_counter_total 5\n"), std::string::npos);
  EXPECT_NE(Text.find("prom_live_hist_count 2\n"), std::string::npos);
  // 3.0 lands in the (2,4] bucket, 100.0 in (64,128].
  EXPECT_NE(Text.find("prom_live_hist_bucket{le=\"4\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("prom_live_hist_bucket{le=\"128\"} 2\n"),
            std::string::npos);
  EXPECT_NE(Text.find("prom_live_hist_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Report metrics: round trip + deterministic stripping
//===----------------------------------------------------------------------===//

TEST(ObsReportTest, MetricsRoundTripAndDeterministicStrip) {
  ObsQuiesce Q;
  obs::setEnabled(true);
  Expected<api::Report> R = api::Analyzer::analyze(fig2BoundarySpec());
  ASSERT_TRUE(R.hasValue()) << R.error();
  ASSERT_FALSE(R->Metrics.isNull());
  const Value *Counters = R->Metrics.find("counters");
  ASSERT_NE(Counters, nullptr);
  // The instrumented pipeline leaves its fingerprints.
  EXPECT_NE(Counters->find("analyzer.module_resolutions"), nullptr);
  EXPECT_NE(Counters->find("search.starts"), nullptr);
  EXPECT_NE(Counters->find("search.evals"), nullptr);
  // Build provenance rides the metrics section.
  ASSERT_NE(R->Metrics.find("build"), nullptr);
  EXPECT_NE(R->Metrics.find("build")->find("git"), nullptr);

  // Round trip: metrics survive toJson/parse exactly.
  Expected<api::Report> Back = api::Report::parse(R->toJsonText());
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_EQ(Back->Metrics.dump(), R->Metrics.dump());
  EXPECT_EQ(Back->toJsonText(), R->toJsonText());

  // The deterministic view strips metrics alongside the wall clock.
  Value Det = api::deterministicReportJson(R->toJson());
  EXPECT_EQ(Det.find("metrics"), nullptr);
  EXPECT_EQ(Det.find("seconds"), nullptr);
  EXPECT_NE(Det.find("task"), nullptr);
}

TEST(ObsReportTest, TelemetryOnOffBitIdentity) {
  // The invariant the whole layer is built around: flipping every obs
  // feature on changes nothing in the deterministic report.
  ObsQuiesce Q;
  Expected<api::Report> Off = api::Analyzer::analyze(fig2BoundarySpec());
  ASSERT_TRUE(Off.hasValue()) << Off.error();
  EXPECT_TRUE(Off->Metrics.isNull());

  obs::setEnabled(true);
  obs::startTrace();
  std::atomic<unsigned> Ticks{0};
  obs::setSearchListener([&](const obs::SearchTick &) { ++Ticks; });
  Expected<api::Report> On = api::Analyzer::analyze(fig2BoundarySpec());
  obs::clearSearchListener();
  obs::stopTrace();
  ASSERT_TRUE(On.hasValue()) << On.error();
  EXPECT_FALSE(On->Metrics.isNull());
  EXPECT_GT(Ticks.load(), 0u);

  EXPECT_EQ(api::deterministicReportJson(Off->toJson()).dump(),
            api::deterministicReportJson(On->toJson()).dump());
  // With telemetry off the full JSON has no metrics member at all —
  // byte-identity of the non-deterministic view too.
  EXPECT_EQ(Off->toJsonText().find("\"metrics\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Chrome trace output
//===----------------------------------------------------------------------===//

TEST(TraceTest, SpansBecomeValidTraceEventJson) {
  ObsQuiesce Q;
  obs::startTrace();
  obs::setThreadTrackName("test track");
  {
    obs::ScopedSpan Outer("outer");
    Outer.setArgs(Value::object().set("k", Value::string("v")));
    obs::ScopedSpan Inner("inner");
    obs::instant("mark");
  }
  std::thread([] {
    obs::ScopedSpan T("worker_span");
    (void)T;
  }).join();
  obs::stopTrace();

  Value Doc = obs::traceJson();
  const Value *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  bool SawOuter = false, SawInstant = false, SawName = false;
  bool SawWorker = false;
  uint64_t MainTid = 0, WorkerTid = 0;
  for (size_t I = 0; I < Events->size(); ++I) {
    const Value &E = Events->at(I);
    std::string Name = E.find("name")->asString();
    std::string Ph = E.find("ph")->asString();
    EXPECT_EQ(E.find("pid")->asUint(), 1u);
    if (Name == "outer" && Ph == "X") {
      SawOuter = true;
      MainTid = E.find("tid")->asUint();
      EXPECT_NE(E.find("dur"), nullptr);
      EXPECT_EQ(E.find("args")->find("k")->asString(), "v");
    }
    SawInstant |= Name == "mark" && Ph == "i";
    SawName |= Name == "thread_name" && Ph == "M";
    if (Name == "worker_span") {
      SawWorker = true;
      WorkerTid = E.find("tid")->asUint();
    }
  }
  EXPECT_TRUE(SawOuter);
  EXPECT_TRUE(SawInstant);
  EXPECT_TRUE(SawName);
  EXPECT_TRUE(SawWorker);
  EXPECT_NE(MainTid, WorkerTid); // one track per thread

  // writeTrace emits a parseable file with the same events.
  std::string Path = ::testing::TempDir() + "wdm_obs_trace.json";
  ASSERT_TRUE(obs::writeTrace(Path));
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Expected<Value> Reparsed = Value::parse(Buf.str());
  ASSERT_TRUE(Reparsed.hasValue()) << Reparsed.error();
  EXPECT_EQ(Reparsed->find("traceEvents")->size(), Events->size());
  std::remove(Path.c_str());
}

TEST(TraceTest, SpansAreInertWhileTracingOff) {
  ObsQuiesce Q;
  {
    obs::ScopedSpan S("off_span");
    obs::instant("off_instant");
  }
  obs::startTrace();
  obs::stopTrace();
  EXPECT_EQ(obs::traceJson().find("traceEvents")->size(), 0u);
}

//===----------------------------------------------------------------------===//
// Search convergence stream
//===----------------------------------------------------------------------===//

TEST(ProgressTest, SearchEmitsTicksWithJobTag) {
  ObsQuiesce Q;
  struct Tick {
    std::string Job;
    uint64_t Evals;
    bool Final;
  };
  std::vector<Tick> Ticks;
  obs::setSearchListener([&](const obs::SearchTick &T) {
    Ticks.push_back({T.Job, T.Evals, T.Final});
    EXPECT_LE(T.StartsDone, T.Starts);
  });
  obs::setJobTag("job-abc");
  Expected<api::Report> R = api::Analyzer::analyze(fig2BoundarySpec());
  obs::setJobTag("");
  obs::clearSearchListener();
  ASSERT_TRUE(R.hasValue()) << R.error();

  ASSERT_FALSE(Ticks.empty());
  EXPECT_TRUE(Ticks.back().Final);
  EXPECT_EQ(Ticks.back().Evals, R->Evals);
  for (const Tick &T : Ticks)
    EXPECT_EQ(T.Job, "job-abc");
}

TEST(ProgressTest, NoListenerMeansNoGate) {
  ObsQuiesce Q;
  EXPECT_FALSE(obs::hasSearchListener());
  obs::setSearchListener([](const obs::SearchTick &) {});
  EXPECT_TRUE(obs::hasSearchListener());
  obs::clearSearchListener();
  EXPECT_FALSE(obs::hasSearchListener());
  // Emitting without a listener is a harmless no-op.
  obs::emitSearchTick({});
}

//===----------------------------------------------------------------------===//
// Build info + timestamps (satellites)
//===----------------------------------------------------------------------===//

TEST(BuildInfoTest, PopulatedAndSerialized) {
  const support::BuildInfo &BI = support::buildInfo();
  EXPECT_FALSE(BI.GitDescribe.empty());
  EXPECT_FALSE(BI.Compiler.empty());
  EXPECT_FALSE(BI.BuildType.empty());
  Value Doc = support::buildInfoJson();
  EXPECT_EQ(Doc.find("git")->asString(), BI.GitDescribe);
  EXPECT_EQ(Doc.find("compiler")->asString(), BI.Compiler);
  EXPECT_EQ(Doc.find("build_type")->asString(), BI.BuildType);
  EXPECT_NE(Doc.find("flags"), nullptr);
}

TEST(BuildInfoTest, IsoUtcNowShape) {
  std::string Ts = isoUtcNow();
  // 2026-08-07T10:22:33.123Z — fixed width, fixed punctuation.
  ASSERT_EQ(Ts.size(), 24u) << Ts;
  EXPECT_EQ(Ts[4], '-');
  EXPECT_EQ(Ts[7], '-');
  EXPECT_EQ(Ts[10], 'T');
  EXPECT_EQ(Ts[13], ':');
  EXPECT_EQ(Ts[16], ':');
  EXPECT_EQ(Ts[19], '.');
  EXPECT_EQ(Ts.back(), 'Z');
  for (size_t I : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u, 11u, 12u, 14u, 15u,
                   17u, 18u, 20u, 21u, 22u})
    EXPECT_TRUE(isdigit(static_cast<unsigned char>(Ts[I]))) << Ts;
}

} // namespace
