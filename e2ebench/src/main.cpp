//===--- main.cpp - The wdm end-to-end benchmark ----------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///
///   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///            [--tiny] [--out-dir <dir>]
///   e2ebench --oracle-self-test
///
/// Prints a human table (lines starting with '#'), one provenance line,
/// and, last, one JSON object {correct, attempted, failed, metrics}:
/// the end-to-end metrics with --trace 0, the per-layer metrics with
/// --trace 1. Exits 1 when any finding fails the oracle or a paper-shape
/// check fails, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/BuildInfo.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>

using namespace wdm;
using namespace e2e;

namespace {

int usage(const char *Why) {
  std::cerr << "e2ebench: " << Why
            << "\nusage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--out-dir <dir>]\n"
               "       e2ebench --oracle-self-test\n";
  return 2;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Collects metrics in print order and renders both outputs.
class Metrics {
public:
  void add(const std::string &Name, double Value, const std::string &Unit,
           const std::string &Note = "") {
    Rows.push_back({Name, Value, Unit, Note});
  }

  void print(std::ostream &OS) const {
    for (const Row &R : Rows) {
      char Line[256];
      std::snprintf(Line, sizeof Line, "# %-22s %16.6g %-6s %s\n",
                    R.Name.c_str(), R.Value, R.Unit.c_str(), R.Note.c_str());
      OS << Line;
    }
  }

  json::Value json() const {
    json::Value M = json::Value::object();
    for (const Row &R : Rows)
      M.set(R.Name, json::Value::object()
                        .set("value", json::Value::number(R.Value))
                        .set("unit", json::Value::string(R.Unit)));
    return M;
  }

private:
  struct Row {
    std::string Name;
    double Value;
    std::string Unit;
    std::string Note;
  };
  std::vector<Row> Rows;
};

std::string tailNote(const TailStat &T) {
  char Buf[96];
  std::snprintf(Buf, sizeof Buf, "(p%g, %zu of %zu samples beyond)",
                T.Percentile, T.Beyond, T.N);
  return Buf;
}

Metrics endToEnd(const Outcome &Out) {
  Metrics M;
  M.add("setup_s", median(Out.SetupS), "s",
        "(median of " + std::to_string(Out.SetupS.size()) + " set-ups)");
  M.add("wall_s", median(Out.PassWallS), "s",
        "(median of " + std::to_string(Out.PassWallS.size()) + " passes)");
  M.add("evals_per_s", Out.EvalWallS > 0 ? Out.Evals / Out.EvalWallS : 0,
        "1/s");
  TailStat JobTail = tailOf(Out.JobMs, Out.TailPercentile);
  TailStat ReqTail = tailOf(Out.ReqMs, tailPercentile(Out.ReqMs.size()));
  M.add("job_p50_ms", median(Out.JobMs), "ms");
  M.add("job_tail_ms", JobTail.Ms, "ms", tailNote(JobTail));
  M.add("req_p50_ms", median(Out.ReqMs), "ms", "(one client request)");
  M.add("req_tail_ms", ReqTail.Ms, "ms", tailNote(ReqTail));
  M.add("max_rate_rps",
        Out.PassWallS.empty() ? 0 : Out.UnitsPerPass / median(Out.PassWallS),
        "1/s", "(closed loop: units completed per second)");
  M.add("findings", static_cast<double>(Out.Findings), "count");
  unsigned Units = Out.UnitsPerPass;
  M.add("solved_ratio", Units ? static_cast<double>(Out.Solved) / Units : 0,
        "ratio");
  M.add("peak_rss_mb", peakRssMb(), "MB");
  return M;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const json::Value &MetricsJson) {
  json::Value R = json::Value::object()
                      .set("correct", json::Value::boolean(Correct))
                      .set("attempted", json::Value::number(Attempted))
                      .set("failed", json::Value::number(Failed))
                      .set("metrics", MetricsJson);
  std::cout << R.dump() << std::endl;
}

int oracleSelfTest() {
  Options O;
  O.Workload = "spec_mix";
  O.Tiny = true;
  O.Seconds = 1;
  Outcome Out = runWorkload(O, 1);
  std::vector<std::string> Problems;
  if (checkFindings(Out.FirstPass, Problems) != 0) {
    for (const std::string &P : Problems)
      std::cerr << P << "\n";
    std::cerr << "oracle self-test: the untampered reports fail\n";
    return 1;
  }
  std::string Why;
  if (!oracleRejectsTampering(Out.FirstPass, Why)) {
    std::cerr << "oracle self-test: " << Why << "\n";
    return 1;
  }
  std::cout << "oracle self-test: ok (flipped witness bit and dropped "
               "finding both rejected)\n";
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveWorkload = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (A == "--oracle-self-test")
      return oracleSelfTest();
    if (A == "--tiny") {
      O.Tiny = true;
      continue;
    }
    const char *V = Next();
    if (!V)
      return usage(("missing value for " + A).c_str());
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
    } else if (A == "--trace") {
      O.Trace = std::strcmp(V, "1") == 0;
      HaveTrace = true;
      if (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0)
        return usage("--trace takes 0 or 1");
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
    if (End && *End)
      return usage(("bad number for " + A).c_str());
  }
  const std::vector<std::string> &Names = workloadNames();
  if (!HaveWorkload ||
      std::find(Names.begin(), Names.end(), O.Workload) == Names.end())
    return usage("--workload must name one of gsl_study, de_portfolio, "
                 "spec_mix");
  if (!HaveTrace || !(O.Seconds > 0))
    return usage("--trace and a positive --seconds are required");

  std::cout << "# e2ebench " << O.Workload << " seed " << O.Seed
            << (O.Trace ? " (traced per-layer run)" : "") << "\n";

  // The traced run first measures the same seed untraced (a shorter
  // run), for trace.overhead and the digest comparison.
  Options Untraced = O;
  if (O.Trace)
    Untraced.Seconds = O.Seconds * 0.25;
  Outcome Out = runWorkload(Untraced, O.Trace ? 2 : 0);
  std::vector<std::string> Problems = Out.Problems;
  unsigned Rejected = checkFindings(Out.FirstPass, Problems);
  checkPaperShapes(O.Workload, Out.FirstPass, Problems);
  uint64_t Attempted = Out.Attempted;
  uint64_t Failed = Out.Failed + Rejected;

  json::Value MetricsJson;
  if (O.Trace) {
    MetricsJson = runLayers(O, Out, Problems, Attempted, Failed);
  } else {
    Metrics M = endToEnd(Out);
    M.print(std::cout);
    std::printf("# %-22s %16.6g %-6s\n", "failed_ratio",
                Attempted ? static_cast<double>(Failed) / Attempted : 0.0,
                "ratio");
    MetricsJson = M.json();
  }

  json::Value Info = Out.Info;
  Info.set("workload", json::Value::string(O.Workload))
      .set("seed", json::Value::number(O.Seed))
      .set("nproc", json::Value::number(std::thread::hardware_concurrency()))
      .set("build", support::buildInfoJson())
      .set("report_digest", json::Value::string(Out.Digest))
      .set("units_per_pass", json::Value::number(Out.UnitsPerPass));
  std::cout << "# report_digest " << Out.Digest << "\n";
  for (const std::string &P : Problems)
    std::cout << "# PROBLEM: " << P << "\n";
  std::cout << json::Value::object().set("info", Info).dump() << "\n";

  const bool Correct = Problems.empty() && Rejected == 0;
  printResult(Correct, std::max<uint64_t>(Attempted, 1), Failed, MetricsJson);
  return Correct ? 0 : 1;
}
