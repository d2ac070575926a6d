//===--- serve_latency.cpp - Daemon request latency: cold/warm/hit ----------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The serve-mode axis of the perf trajectory: per-request latency of the
// fig2 boundary spec through the Server::handle seam (parse + route +
// cache + execute, no sockets — the service logic a request actually
// pays) in three regimes:
//
//   cold       a fresh daemon's first request: full resolve -> verify ->
//              instrument -> lower -> search, every sample on a fresh
//              Server so nothing is resident;
//   warm       a resident daemon, unique-seed variants of the same spec:
//              every request is a result-cache miss but a warm-cache hit
//              (module construction skipped, the search still runs);
//   cache_hit  a resident daemon, the identical spec repeated: the
//              stored envelope is spliced from cached bytes.
//
// Results land in BENCH_serve_latency.json. --assert-serve-latency turns
// "cache-hit p50 is >= 50x faster than cold p50" into an exit code for
// CI (Release). Socket-inclusive round-trip numbers over a real
// listening daemon are reported as reference fields but not asserted —
// loopback adds a ~100 us floor that says nothing about the service.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Http.h"
#include "serve/Server.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

using namespace wdm;
using namespace wdm::serve;

namespace {

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The fig2 boundary spec (product form), parameterized by seed so the
/// warm regime can force result-cache misses that share one warm entry.
std::string fig2Spec(unsigned Seed) {
  return "{\"task\": \"boundary\", \"module\": {\"builtin\": \"fig2\"}, "
         "\"boundary_form\": \"product\", \"search\": {\"seed\": " +
         std::to_string(Seed) +
         ", \"max_evals\": 20000, \"threads\": 1, \"engine\": \"vm\"}}";
}

HttpRequest runReq(const std::string &Spec) {
  HttpRequest R;
  R.Method = "POST";
  R.Target = "/v1/run";
  R.Body = Spec;
  return R;
}

struct LatencyStats {
  double P50Ms = 0, MeanMs = 0;
  size_t Reps = 0;
};

LatencyStats summarize(std::vector<double> &SamplesMs) {
  LatencyStats S;
  S.Reps = SamplesMs.size();
  if (SamplesMs.empty())
    return S;
  for (double V : SamplesMs)
    S.MeanMs += V;
  S.MeanMs /= SamplesMs.size();
  size_t Mid = SamplesMs.size() / 2;
  std::nth_element(SamplesMs.begin(), SamplesMs.begin() + Mid,
                   SamplesMs.end());
  S.P50Ms = SamplesMs[Mid];
  return S;
}

bool is200(const std::string &Response) {
  return Response.rfind("HTTP/1.1 200", 0) == 0;
}

/// Cold: a fresh Server per sample, first request ever.
LatencyStats benchCold(unsigned Reps) {
  std::vector<double> Ms;
  const HttpRequest Req = runReq(fig2Spec(2019));
  for (unsigned I = 0; I < Reps; ++I) {
    Server S({});
    double T0 = nowSec();
    std::string Rsp = S.handle(Req);
    Ms.push_back((nowSec() - T0) * 1e3);
    if (!is200(Rsp)) {
      std::cerr << "serve_latency: cold request failed\n";
      std::exit(2);
    }
  }
  return summarize(Ms);
}

/// Warm: one resident Server; each sample is a unique seed (result-cache
/// miss) hitting the warm module cache.
LatencyStats benchWarm(unsigned Reps) {
  Server S({});
  // Prime the warm entry (and pay the one-time module build) off-sample.
  if (!is200(S.handle(runReq(fig2Spec(1))))) {
    std::cerr << "serve_latency: warm prime failed\n";
    std::exit(2);
  }
  std::vector<double> Ms;
  for (unsigned I = 0; I < Reps; ++I) {
    HttpRequest Req = runReq(fig2Spec(100 + I));
    double T0 = nowSec();
    std::string Rsp = S.handle(Req);
    Ms.push_back((nowSec() - T0) * 1e3);
    if (!is200(Rsp)) {
      std::cerr << "serve_latency: warm request failed\n";
      std::exit(2);
    }
  }
  return summarize(Ms);
}

/// Cache hit: one resident Server, the identical spec repeated.
LatencyStats benchHit(unsigned Reps) {
  Server S({});
  const HttpRequest Req = runReq(fig2Spec(2019));
  for (unsigned W = 0; W < 50; ++W)
    S.handle(Req); // Settle allocator and branch state off-sample.
  std::vector<double> Ms;
  for (unsigned I = 0; I < Reps; ++I) {
    double T0 = nowSec();
    std::string Rsp = S.handle(Req);
    Ms.push_back((nowSec() - T0) * 1e3);
    if (!is200(Rsp)) {
      std::cerr << "serve_latency: hit request failed\n";
      std::exit(2);
    }
  }
  return summarize(Ms);
}

/// Reference only: the same cold-then-hit pair over a real socket, so
/// the report also shows what a client on loopback observes.
bool benchSocket(unsigned Reps, double &ColdMs, LatencyStats &Hit) {
  Server S({});
  if (!S.start().ok())
    return false;
  const std::string Spec = fig2Spec(2019);
  double T0 = nowSec();
  Expected<HttpResponse> R =
      httpRequest("127.0.0.1", S.port(), "POST", "/v1/run", Spec);
  ColdMs = (nowSec() - T0) * 1e3;
  bool Ok = R.hasValue() && R->Status == 200;
  std::vector<double> Ms;
  for (unsigned I = 0; Ok && I < Reps; ++I) {
    double T1 = nowSec();
    Expected<HttpResponse> H =
        httpRequest("127.0.0.1", S.port(), "POST", "/v1/run", Spec);
    Ms.push_back((nowSec() - T1) * 1e3);
    Ok = H.hasValue() && H->Status == 200;
  }
  Hit = summarize(Ms);
  S.requestStop();
  S.wait();
  return Ok;
}

} // namespace

int main(int argc, char **argv) {
  bool Assert = false;
  unsigned Reps = 20;
  unsigned HitReps = 400;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--assert-serve-latency") == 0)
      Assert = true;
    else if (std::strncmp(argv[I], "--reps=", 7) == 0)
      Reps = static_cast<unsigned>(std::strtoul(argv[I] + 7, nullptr, 0));
  }

  std::cout << "== serve_latency: daemon request latency (handle seam) ==\n";

  LatencyStats Cold = benchCold(Reps);
  LatencyStats Warm = benchWarm(Reps);
  LatencyStats Hit = benchHit(HitReps);

  double SocketColdMs = 0;
  LatencyStats SocketHit;
  bool SocketOk = benchSocket(Reps, SocketColdMs, SocketHit);

  double WarmSpeedup = Warm.P50Ms > 0 ? Cold.P50Ms / Warm.P50Ms : 0;
  double HitSpeedup = Hit.P50Ms > 0 ? Cold.P50Ms / Hit.P50Ms : 0;

  json::BenchJson Json("serve_latency");
  Json.field("spec", std::string("fig2 boundary (product form)"));
  Json.entry("cold")
      .field("p50_ms", Cold.P50Ms)
      .field("mean_ms", Cold.MeanMs)
      .field("reps", static_cast<uint64_t>(Cold.Reps));
  Json.entry("warm")
      .field("p50_ms", Warm.P50Ms)
      .field("mean_ms", Warm.MeanMs)
      .field("reps", static_cast<uint64_t>(Warm.Reps))
      .field("speedup_vs_cold", WarmSpeedup);
  Json.entry("cache_hit")
      .field("p50_ms", Hit.P50Ms)
      .field("mean_ms", Hit.MeanMs)
      .field("reps", static_cast<uint64_t>(Hit.Reps))
      .field("speedup_vs_cold", HitSpeedup);
  if (SocketOk)
    Json.entry("socket_loopback")
        .field("cold_ms", SocketColdMs)
        .field("hit_p50_ms", SocketHit.P50Ms)
        .field("hit_mean_ms", SocketHit.MeanMs)
        .field("reps", static_cast<uint64_t>(SocketHit.Reps));
  if (!Json.write())
    std::cerr << "warning: could not write BENCH_serve_latency.json\n";

  std::cout << "cold      p50 " << Cold.P50Ms << " ms  (mean " << Cold.MeanMs
            << ", n=" << Cold.Reps << ")\n"
            << "warm      p50 " << Warm.P50Ms << " ms  (" << WarmSpeedup
            << "x vs cold)\n"
            << "cache hit p50 " << Hit.P50Ms << " ms  (" << HitSpeedup
            << "x vs cold)\n";
  if (SocketOk)
    std::cout << "loopback  cold " << SocketColdMs << " ms, hit p50 "
              << SocketHit.P50Ms << " ms  (reference, not asserted)\n";

  if (Assert) {
    if (HitSpeedup < 50.0) {
      std::cerr << "--assert-serve-latency: cache-hit p50 is only "
                << HitSpeedup << "x faster than cold (need >= 50x)\n";
      return 1;
    }
    std::cout << "--assert-serve-latency: ok (cache hit " << HitSpeedup
              << "x over cold at p50)\n";
  }
  return 0;
}
