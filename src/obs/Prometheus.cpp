//===--- Prometheus.cpp - Prometheus text serializer ----------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "obs/Prometheus.h"

#include "obs/Telemetry.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

using namespace wdm;
using json::Value;

namespace {

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; we map the
/// registry's dotted names ('vm.module_lowerings') into that alphabet.
std::string sanitize(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out.push_back(Ok ? C : '_');
  }
  if (Out.empty() || (Out[0] >= '0' && Out[0] <= '9'))
    Out.insert(Out.begin(), '_');
  return Out;
}

std::string formatNumber(double V) {
  if (std::isfinite(V) && V == std::floor(V) && std::fabs(V) < 9.0e18) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, (int64_t)V);
    return Buf;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void header(std::string &Out, const std::string &Prom, const std::string &Dotted,
            const char *Type) {
  Out += "# HELP " + Prom + " wdm metric " + Dotted + "\n";
  Out += "# TYPE " + Prom + " ";
  Out += Type;
  Out += "\n";
}

} // namespace

std::string obs::toPrometheus(const Value &Snapshot) {
  std::string Out;

  if (const Value *Counters = Snapshot.find("counters"))
    for (const auto &[Name, V] : Counters->members()) {
      std::string Prom = sanitize(Name) + "_total";
      header(Out, Prom, Name, "counter");
      Out += Prom + " " + formatNumber(V.asDouble()) + "\n";
    }

  if (const Value *Hists = Snapshot.find("histograms"))
    for (const auto &[Name, H] : Hists->members()) {
      std::string Prom = sanitize(Name);
      header(Out, Prom, Name, "histogram");
      // The snapshot stores sparse per-bucket counts [[log2_upper, n],
      // ...]; Prometheus buckets are cumulative over ascending le.
      uint64_t Running = 0;
      if (const Value *Buckets = H.find("buckets"))
        for (size_t I = 0; I < Buckets->size(); ++I) {
          const Value &Row = Buckets->at(I);
          uint64_t K = Row.at(0).asUint();
          Running += Row.at(1).asUint();
          // Bucket k covers v <= 2^k (bucket 0 takes v <= 1).
          double Upper = std::ldexp(1.0, (int)K);
          Out += Prom + "_bucket{le=\"" + formatNumber(Upper) + "\"} " +
                 formatNumber((double)Running) + "\n";
        }
      uint64_t Count = H.find("count") ? H.find("count")->asUint() : Running;
      double Sum = H.find("sum") ? H.find("sum")->asDouble() : 0;
      Out += Prom + "_bucket{le=\"+Inf\"} " + formatNumber((double)Count) + "\n";
      Out += Prom + "_sum " + formatNumber(Sum) + "\n";
      Out += Prom + "_count " + formatNumber((double)Count) + "\n";
    }

  return Out;
}

std::string obs::snapshotPrometheus() { return toPrometheus(snapshotJson()); }
